"""Golden regression tests: seed-pinned figure data vs committed JSON.

Small-scale, seed-pinned runs of ``fig4a``, ``fig4f`` (the large-DB
sweep, so multi-word masks), ``fig5a`` and ``table1`` are compared
point-by-point against fixtures committed under
``tests/experiments/golden/``.  The simulator is deterministic, so any
drift here means a scheduler/workload refactor changed the paper's
curves — which must be a conscious decision, not an accident.  The
comparison is tolerance-based (``rel=1e-6``) so a legitimately benign
change to float *formatting* cannot trip it, but any real numeric shift
will.

To regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/experiments/test_golden.py --regen

and commit both the new fixtures and the change that motivated them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import figures
from repro.experiments.config import ExperimentScale

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Pinned run shape: 2 seeds, 100 transactions (10% of full).  Small
#: enough for CI, large enough that every scheduler path is exercised.
GOLDEN_SCALE = ExperimentScale("golden", 2, 2, 0.1)

GOLDEN_IDS = ("fig4a", "fig4f", "fig5a", "table1")


def compute(figure_id: str) -> dict:
    """The figure's data in fixture form (plain JSON types)."""
    figures.clear_cache()
    try:
        result = figures.run_experiment(figure_id, GOLDEN_SCALE)
    finally:
        figures.clear_cache()
    return {
        "figure_id": result.figure_id,
        "scale": GOLDEN_SCALE.name,
        "series": {
            name: [[x, y] for x, y in points]
            for name, points in result.series.items()
        },
        "notes": result.notes,
    }


def fixture_path(figure_id: str) -> Path:
    return GOLDEN_DIR / f"{figure_id}.json"


@pytest.mark.parametrize("figure_id", GOLDEN_IDS)
def test_matches_golden(figure_id):
    path = fixture_path(figure_id)
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        f"'PYTHONPATH=src python {Path(__file__).relative_to(Path.cwd())} --regen'"
    )
    golden = json.loads(path.read_text())
    actual = compute(figure_id)

    assert actual["figure_id"] == golden["figure_id"]
    assert actual["notes"] == golden["notes"]
    assert set(actual["series"]) == set(golden["series"]), (
        f"{figure_id}: series set changed"
    )
    for name, expected_points in golden["series"].items():
        actual_points = actual["series"][name]
        assert len(actual_points) == len(expected_points), (
            f"{figure_id}/{name}: point count changed"
        )
        for (ax, ay), (ex, ey) in zip(actual_points, expected_points):
            assert ax == ex, f"{figure_id}/{name}: x grid changed ({ax} != {ex})"
            assert ay == pytest.approx(ey, rel=1e-6, abs=1e-9), (
                f"{figure_id}/{name} at x={ex}: {ay} != golden {ey} — a "
                f"refactor shifted the paper's curve; if intentional, "
                f"regenerate the golden fixtures"
            )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for figure_id in GOLDEN_IDS:
        data = compute(figure_id)
        path = fixture_path(figure_id)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
