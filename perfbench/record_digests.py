"""Record the expected per-cell digests for the default seed.

    PYTHONPATH=src python3 perfbench/record_digests.py

Every cell of every workload, at both sizes, is simulated on the
reference engine (ext-occ's OCC cells on the OCC engine) and the digest
of its full result (``result_to_dict``, per-transaction records
included) is written to ``expected_digests.json``.  The benchmark's
output check compares the program's results at the default seed with
these digests, so re-record only when a change is meant to alter
simulation results.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import DEFAULT_SEED, SIZES, WORKLOADS, check_cells, reference_result, result_digest

EXPECTED = Path(__file__).resolve().parent / "expected_digests.json"


def main() -> None:
    digests = {}
    for workload in WORKLOADS.values():
        for size in SIZES:
            for cell in check_cells(workload, DEFAULT_SEED, size):
                digests[cell.id] = result_digest(reference_result(cell))
    EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {EXPECTED}")


if __name__ == "__main__":
    main()
