"""spinheat benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload dead_wire --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
workload's item list is generated from the seed, then run back to back in
this one process (closed loop, one item at a time, default BLAS threads)
until ``--seconds`` is used up.  Every output is checked.

``--trace 0`` reports setup_s, wall_s, item_p50_s and peak_rss_mb.
``--trace 1`` runs the warm-up item and the item list untraced for half the
time, then the same list traced for the other half, and reports per-layer
metrics per traced pass; spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import probe
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 21
MIN_PASSES = 3          # untraced run; each half of a traced run takes MIN_TRACED_PASSES
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120

LAYERS = (
    "cli.point_config", "cli.write_rows", "models.build_hamiltonian",
    "lindblad.build_liouvillian", "steady_state.solve_steady", "currents.current_report",
    "ri.engine_build", "ri.fixed_point",
)
LAYER_UNITS = {"calls": "count", "busy_s": "s", "p50_ms": "ms", "errors": "count"}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _child(args: list[str], env: dict | None = None) -> dict:
    """Run ``probe.py`` in a child process and return its JSON answer."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report_failure(item, exc: BaseException) -> None:
    from checks import CheckFailed

    print(f"FAILED {item.id} ({item.command}): {type(exc).__name__}: {exc}", file=sys.stderr)
    if not isinstance(exc, CheckFailed):
        traceback.print_exception(exc, file=sys.stderr)


class Passes:
    """Back-to-back passes over the item list, with their timings and failures."""

    def __init__(self) -> None:
        self.passes = 0
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def all_latencies(self) -> list[float]:
        return [t for times in self.latencies.values() for t in times]

    def list_time(self) -> float:
        """Time for the whole item list: the sum of each item's median latency."""
        return sum(statistics.median(times) for times in self.latencies.values())

    def run(self, items, seconds: float, run_one, accept, min_passes: int) -> None:
        """Repeat the item list until ``seconds`` would be exceeded, at least ``min_passes`` times.

        ``run_one(item)`` returns ``(latency, outcome)``; ``accept(item,
        outcome)`` checks an outcome after the pass, outside the timed region.
        Every exception from either counts the item as failed and is reported.
        """
        start = perf_counter()
        walls: list[float] = []
        while len(walls) < min_passes or perf_counter() - start + statistics.median(walls) <= seconds:
            results = []
            t0 = perf_counter()
            for item in items:
                self.attempted += 1
                try:
                    latency, outcome = run_one(item)
                except (Exception, SystemExit) as exc:  # the run goes on; the item failed
                    self.failed += 1
                    _report_failure(item, exc)
                    continue
                self.latencies.setdefault(item.id, []).append(latency)
                results.append((item, outcome))
            walls.append(perf_counter() - t0)
            for item, outcome in results:
                try:
                    accept(item, outcome)
                except Exception as exc:
                    self.failed += 1
                    _report_failure(item, exc)
        self.passes += len(walls)


def _same_counts(seen: dict, item, counts: dict) -> None:
    """Exact counts must repeat whenever the same item runs again."""
    from checks import CheckFailed

    first = seen.setdefault(item.id, counts)
    changed = {k: (first[k], counts[k]) for k in set(first) & set(counts) if first[k] != counts[k]}
    if changed:
        raise CheckFailed(f"exact counts changed between runs of the same item: {changed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "spinheat" / "__init__.py").is_file():
        print(f"bench: no src/spinheat under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spinheat

    if not Path(spinheat.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: spinheat was imported from {spinheat.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    import execute  # imports spinheat, which main() has put on the path

    machine = probe.machine()
    print(json.dumps({"machine": machine}))

    # -- set-up: imports (in a fresh child process), inputs and the n=2 warm-up -------
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPS):
        import_s = 0.0 if args.trace else _child(["import"])["import_s"]
        t0 = perf_counter()
        items = workloads.generate(args.workload, args.seed)
        for item in (workloads.WARMUP, *items):
            if item.ini is not None:
                execute.paths(item, workdir)[0].write_text(item.ini)
        execute.run_item(workloads.WARMUP, workdir)
        setup_times.append(import_s + perf_counter() - t0)

    # -- timed passes: the item list, then (traced run) the warm-up and the list traced --
    seen: dict = {}

    def accept(item, outcome) -> None:
        execute.check(item, outcome)
        _same_counts(seen, item, outcome.counts)

    if not args.trace:
        untraced = Passes()
        untraced.run(items, args.seconds, lambda item: execute.run_item(item, workdir), accept,
                     MIN_PASSES)
        if not untraced.latencies:
            print("bench: no item completed", file=sys.stderr)
            return 1
        latencies = untraced.all_latencies()
        p50 = statistics.median(latencies)
        print(f"{args.workload} seed {args.seed}: {untraced.passes} passes of {len(items)} "
              f"items; item_p50_s {p50:.6g} over {len(latencies)} items; fail_frac "
              f"{untraced.failed / untraced.attempted:.6g} ({untraced.failed}/{untraced.attempted})")
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(untraced.list_time(), "s"),
            "item_p50_s": _metric(p50, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        _emit(untraced.failed, untraced.attempted, metrics)
        return 0

    # Each traced pass starts with the warm-up item, so every layer is called in
    # every pass; the untraced half runs the same list for trace.overhead_frac.
    traced_list = [workloads.WARMUP, *items]
    untraced = Passes()
    untraced.run(traced_list, args.seconds / 2, lambda item: execute.run_item(item, workdir),
                 accept, MIN_TRACED_PASSES)
    tracer = Tracer()
    traced_seen: dict = {}

    def accept_traced(item, outcome) -> None:
        accept(item, outcome)
        _same_counts(traced_seen, item, outcome.counts)

    traced = Passes()
    with tracer.observing(execute.traced_targets()):
        traced.run(traced_list, args.seconds / 2,
                   lambda item: execute.traced_item(item, workdir, tracer), accept_traced,
                   MIN_TRACED_PASSES)
    if not (untraced.latencies and traced.latencies):
        print("bench: no item completed", file=sys.stderr)
        return 1

    blas1_item = max((it for it in items if it.ini is not None), key=lambda it: it.meta["n"])
    single = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    blas1 = _child(["blas1", str(execute.paths(blas1_item, workdir)[0])], env=single)
    print(json.dumps({"blas1": {"item": blas1_item.id, **blas1}}))

    metrics = {}
    for name in LAYERS:
        for key, value in tracer.layer(name, traced.passes).items():
            metrics[f"{name}.{key}"] = _metric(value, LAYER_UNITS[key])
    counts = list(traced_seen.values())  # each item's counts, once: one pass of the list
    metrics.update({
        "lindblad.generator_mb": _metric(max(c["generator_mb"] for c in counts), "MiB"),
        "steady_state.kernel_dim": _metric(sum(c["kernel_dim"] for c in counts), "count"),
        "steady_state.solve_steady.blas1_p50_ms": _metric(blas1["p50_ms"], "ms"),
        "bathops.bath_copy.levels_max": _metric(max(c["levels_max"] for c in counts), "count"),
        "ri.iterate_s": _metric(metrics["ri.fixed_point.busy_s"]["value"]
                                - metrics["ri.engine_build.busy_s"]["value"], "s"),
        "ri.fixed_point.cycles": _metric(sum(c["cycles"] for c in counts), "count"),
        "trace.overhead_frac": _metric(traced.list_time() / untraced.list_time() - 1.0, "ratio"),
    })
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "machine": machine, "blas1": blas1})
    _emit(untraced.failed + traced.failed, untraced.attempted + traced.attempted, metrics)
    return 0


def _emit(failed: int, attempted: int, metrics: dict) -> None:
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
