"""One benchmark step in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per step so that every measured
pass begins from a cold process: no module state, figure memo or warm
allocator carries over from an earlier pass.

    python3 perfbench/worker.py <step> --workload NAME --seed N --size bench|tiny [--out DIR]

Steps:

``setup``   import the package and build the cell list (times set-up);
``passes``  set-up, then one cold (jobs=1, empty cache) and one
            parallel (jobs=2, empty cache) pass with tracing off;
``check``   at a seed other than the default one, compute every cell
            on a second engine and digest its full result;
``trace``   one traced cold and warm pass, untraced warm passes, and
            counters, masks and allocation measured on their own;
            writes the Chrome trace.

Every pass reports the digest of each cell result it computed and the
output groups that differ from the ones rebuilt from those results
(:func:`pass_report`); ``run.py`` compares the digests with the
expected ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

#: Environment variables that would change what a pass measures.
FOREIGN_ENV = ("REPRO_JOBS", "REPRO_SCALE", "REPRO_FULL", "REPRO_FAULTS")

#: Untraced warm passes the ``trace`` step makes: at least the first
#: number, at most the second, and no more once they add up to
#: ``WARM_BUDGET_S``.
WARM_REPEATS = (3, 15)
WARM_BUDGET_S = 2.0

#: Traced-pass time outside every layer's spans.
EXECUTOR = "executor (unattributed)"

#: Span name -> the program layer (module) it times.
LAYER_OF_SPAN = {
    "workload.generate": "workload",
    "kernel.build": "core.kernel",
    "kernel.run": "core.kernel",
    "reference.build": "core.simulator",
    "reference.run": "core.simulator",
    "occ.build": "occ",
    "occ.run": "occ",
    "cache.get": "experiments.cache",
    "cache.put": "experiments.cache",
    "metrics.summarize": "metrics",
}


def step_setup(args) -> dict:
    """Import the package and build the cell list; when that was done."""
    before = len(sys.modules)
    started = time.perf_counter()
    import repro  # noqa: F401
    import workloads

    imported = time.perf_counter()
    cells = workloads.check_cells(workloads.WORKLOADS[args.workload], args.seed, args.size)
    return {
        "ready": time.monotonic(),
        "import_ms": (imported - started) * 1000.0,
        "modules": len(sys.modules) - before,
        "cells": {cell.id: cell.group for cell in cells},
    }


def _hermetic() -> None:
    from repro.experiments import faults, figures

    leaked = [name for name in FOREIGN_ENV if name in os.environ]
    if leaked or faults.active_plan() is not None:
        raise SystemExit(f"worker: foreign settings in the environment: {leaked}")
    figures.clear_cache()


def pass_report(workload, cells, collector, cache, output) -> dict:
    """What one pass computed: each cell's result digest, and the
    output groups that differ from the ones rebuilt from those cells."""
    from workloads import expected_groups, result_digest

    results, problems = collector.read(cells, cache)
    want = expected_groups(workload, cells, results)
    got = workload.output_groups(output)
    return {
        "cells": {cell_id: result_digest(result) for cell_id, result in results.items()},
        "bad_groups": sorted(g for g in set(got) | set(want) if got.get(g) != want.get(g)),
        "problems": problems,
        "results": results,
    }


def _public(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "results"}


def step_passes(args) -> dict:
    setup = step_setup(args)  # first: it times the package import

    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import last_stats
    from workloads import WORKLOADS, PassCells, check_cells

    _hermetic()
    workload = WORKLOADS[args.workload]
    cells = check_cells(workload, args.seed, args.size)
    collector = PassCells(collect=workload.sweep is None)
    out = Path(args.out)

    cache = ResultCache(out / "cold")
    collector.start()
    started = time.perf_counter()
    output = workload.run(args.seed, args.size, jobs=1, cache=cache)
    cold_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cold = pass_report(workload, cells, collector, cache, output)

    _hermetic()
    cache = ResultCache(out / "parallel")
    collector.start()
    started = time.perf_counter()
    output = workload.run(args.seed, args.size, jobs=2, cache=cache)
    parallel_s = time.perf_counter() - started
    parallel = pass_report(workload, cells, collector, cache, output)
    return {
        "setup": setup,
        "cold_s": cold_s,
        "parallel_s": parallel_s,
        "peak_rss_mb": peak_rss_mb,
        "retries": last_stats().retries,
        "passes": {"cold": _public(cold), "parallel": _public(parallel)},
    }


def step_check(args) -> dict:
    """Digest every cell's result on a second engine (see
    ``workloads.other_engine_result``); OCC cells have none."""
    from workloads import WORKLOADS, check_cells, other_engine_result, result_digest

    _hermetic()
    workload = WORKLOADS[args.workload]
    digests = {}
    for cell in check_cells(workload, args.seed, args.size):
        result = other_engine_result(workload, cell)
        if result is not None:
            digests[cell.id] = result_digest(result)
    return {"cells": digests}


def _counter_total(snapshot: dict, name: str, **labels: str) -> int:
    total = 0
    for series, value in snapshot["counters"].items():
        base, _, inner = series.partition("{")
        if base != name:
            continue
        pairs = dict(item.split("=", 1) for item in inner.rstrip("}").split(",") if item)
        if all(pairs.get(key) == want for key, want in labels.items()):
            total += value
    return total


def step_trace(args) -> dict:
    import tracemalloc
    from statistics import median

    from repro.core.kernel import KernelSimulator
    from repro.core.masks import SpecMasks
    from repro.core.simulator import RTDBSimulator
    from repro.experiments.cache import ResultCache
    from repro.metrics.summary import summarize
    from repro.obs.prof import validate_chrome_trace
    from repro.obs.registry import MetricsRegistry
    from repro.occ.simulator import OCCSimulator
    from repro.workload import generator
    from repro.workload.generator import generate_workload
    from spans import IN_CELL, STARTS_CELL, SWEEP_LEVEL, SpanRecorder, rebind
    from workloads import WORKLOADS, PassCells, check_cells

    _hermetic()
    workload = WORKLOADS[args.workload]
    cells = check_cells(workload, args.seed, args.size)
    collector = PassCells(collect=workload.sweep is None)
    out = Path(args.out)
    rec = SpanRecorder()
    generated: list = []

    def note_workload(call_args, call_kwargs, _specs):
        config = call_args[0] if call_args else call_kwargs["config"]
        seed = call_args[1] if len(call_args) > 1 else call_kwargs["seed"]
        generated.append((config, seed))

    # The collector may have rebound generate_workload already; wrap
    # whatever the program's modules now call.
    generate = generator.generate_workload
    rebind(generate, rec.wrap(generate, "workload.generate", STARTS_CELL, note_workload))
    rebind(summarize, rec.wrap(summarize, "metrics.summarize", SWEEP_LEVEL))
    for cls, layer in ((KernelSimulator, "kernel"), (RTDBSimulator, "reference"),
                       (OCCSimulator, "occ")):
        cls.__init__ = rec.wrap(cls.__init__, f"{layer}.build", IN_CELL)
        cls.run = rec.wrap(cls.run, f"{layer}.run", IN_CELL)
    ResultCache.get = rec.wrap(ResultCache.get, "cache.get", SWEEP_LEVEL)
    ResultCache.put = rec.wrap(ResultCache.put, "cache.put", IN_CELL)
    ResultCache.safe_put = rec.wrap(ResultCache.safe_put, "cache.put", IN_CELL)

    passes = {}
    cache = ResultCache(out / "traced")
    collector.start()
    with rec.root("pass.cold") as cold:
        output = workload.run(args.seed, args.size, jobs=1, cache=cache)
    passes["traced-cold"] = pass_report(workload, cells, collector, cache, output)
    cold_keys = list(generated)
    cold_results = list(passes["traced-cold"]["results"].values())
    cache.reset_counters()
    collector.start()
    with rec.root("pass.warm") as warm:
        output = workload.run(args.seed, args.size, jobs=1, cache=cache)
    passes["traced-warm"] = pass_report(workload, cells, collector, cache, output)
    warm_lookups = cache.counters.hits + cache.counters.misses
    hit_ratio = cache.counters.hits / warm_lookups if warm_lookups else 0.0

    # warm_s: untraced passes against the cache the traced cold pass filled.
    least, most = WARM_REPEATS
    warm_s: list[float] = []
    while len(warm_s) < least or (len(warm_s) < most and sum(warm_s) < WARM_BUDGET_S):
        _hermetic()
        collector.start()
        started = time.perf_counter()
        output = workload.run(args.seed, args.size, jobs=1, cache=cache)
        warm_s.append(time.perf_counter() - started)
        passes[f"warm{len(warm_s)}"] = pass_report(workload, cells, collector, cache, output)

    # Kernel counters, from a separate untimed pass with the engine's
    # introspection attached (never attached to a timed or traced pass).
    registry = MetricsRegistry()
    cache = ResultCache(out / "counted")
    collector.start()
    output = workload.run(args.seed, args.size, jobs=1, cache=cache, metrics=registry)
    passes["counted"] = pass_report(workload, cells, collector, cache, output)
    counters = registry.snapshot()

    # Workload size, masks and allocation, each measured on its own.
    uses: dict = {}
    for key in cold_keys:
        uses[key] = uses.get(key, 0) + 1
    ops = 0
    words = []
    with rec.root("standalone.masks"):
        for (config, seed), count in uses.items():
            specs = generate_workload(config, seed)
            ops += count * sum(len(spec.operations) for spec in specs)
            span = rec.begin("masks.build")
            masks = SpecMasks.from_specs(specs, config.db_size)
            masks.conflict_slots  # noqa: B018 -- the build being timed
            rec.end(span)
            words.append(masks.n_words)
    config, seed = cold_keys[0]
    tracemalloc.start()
    generate_workload(config, seed)
    alloc_kb = tracemalloc.get_traced_memory()[1] / 1024.0
    tracemalloc.stop()

    trace_path = rec.profiler.write_chrome_trace(args.trace_file)
    problems = validate_chrome_trace(json.loads(trace_path.read_text()))

    cold_tree, warm_tree = rec.subtree(cold), rec.subtree(warm)

    def cold_ms(*names: str) -> float:
        return sum(cold_tree.outer_ms(name) for name in names)

    layer_ms: dict[str, float] = {}
    for name, ms in cold_tree.self_ms().items():
        layer = LAYER_OF_SPAN.get(name, EXECUTOR)
        layer_ms[layer] = layer_ms.get(layer, 0.0) + ms

    events = _counter_total(counters, "kernel.events_fired")
    kernel_run_ms = cold_ms("kernel.run")
    committed = sum(r.n_committed for r in cold_results)
    restarts = sum(r.total_restarts for r in cold_results)
    n_results = max(1, len(cold_results))
    masks_ms = sum(rec.duration_ms(s) for s in rec.spans if s["name"] == "masks.build")
    metrics = {
        "workload.gen_ms": cold_ms("workload.generate"),
        "workload.ops": ops,
        "workload.alloc_kb": alloc_kb,
        "masks.build_ms": masks_ms,
        "masks.words": sum(words) / len(words),
        "kernel.build_ms": cold_ms("kernel.build"),
        "kernel.run_ms": kernel_run_ms,
        "kernel.events": events,
        "kernel.us_per_event": kernel_run_ms * 1000.0 / events if events else 0.0,
        "kernel.fused_ops": _counter_total(counters, "kernel.fused_ops"),
        "kernel.penalty_scans.scalar": _counter_total(counters, "kernel.penalty_scans", mode="scalar"),
        "kernel.penalty_scans.numpy": _counter_total(counters, "kernel.penalty_scans", mode="numpy"),
        "kernel.penalty_scans.table": _counter_total(counters, "kernel.penalty_scans", mode="table"),
        "kernel.cca_prunes": _counter_total(counters, "kernel.cca_prunes"),
        "kernel.penalty_evals": _counter_total(counters, "sim.penalty_evals"),
        "rtdb.useful_ratio": committed / (committed + restarts) if committed + restarts else 0.0,
        "rtdb.cpu_util": sum(r.cpu_utilization for r in cold_results) / n_results,
        "rtdb.disk_util": sum(r.disk_utilization for r in cold_results) / n_results,
        "reference.run_ms": cold_ms("reference.build", "reference.run"),
        "occ.run_ms": cold_ms("occ.build", "occ.run"),
        "cache.put_ms": cold_ms("cache.put"),
        "cache.get_ms": warm_tree.outer_ms("cache.get"),
        "cache.bytes": sum(p.stat().st_size for p in (out / "traced").rglob("*.json")),
        "cache.hit_ratio": hit_ratio,
        "warm_s": median(warm_s),
        "metrics.summarize_ms": cold_ms("metrics.summarize"),
    }
    return {
        "metrics": metrics,
        "layer_self_ms": layer_ms,
        "layer_ms": sum(ms for layer, ms in layer_ms.items() if layer != EXECUTOR),
        "cell_ms": cold_tree.cell_ms(),
        "traced_wall_ms": rec.duration_ms(cold),
        "trace_file": str(trace_path),
        "trace_problems": problems,
        "spans": len(rec.spans),
        "passes": {label: _public(report) for label, report in passes.items()},
    }


STEPS = {"setup": step_setup, "passes": step_passes, "check": step_check, "trace": step_trace}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    print(json.dumps(STEPS[args.step](args)))


if __name__ == "__main__":
    main()
