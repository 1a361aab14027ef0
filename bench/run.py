"""Benchmark of the ``bipartite_tsg`` library.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {sweep,large-n,check-aut,all}
                         --seed N --seconds S --trace {0,1}

A single-process, single-threaded closed loop: one caller, and each call
starts after the previous one returns.  The library is imported from this
checkout's ``src`` and called in-process; the seed only shapes the inputs.
Every answer is checked against an independent reference (see
``workloads.py``, which also says why each workload was chosen and which
per-layer metric should move which end-to-end metric).

A run makes whole passes over the workload's inputs: as many as fill
``--seconds`` at the workload's nominal pass time, at least one.  Every
timing is scaled to a fixed machine speed, measured with a reference unit
of the benchmark's own between chunks of calls (``speed.py``), because the
speed of a shared host drifts by more than the bounds for tens of seconds
at a time.  Each input's latency is its median scaled time over the
passes; ``latency_p50_ms`` and ``latency_tail_ms`` are percentiles of those
per-input times, and ``items_per_s`` is the number of calls answered right
over the scaled time of all calls.  ``setup_s`` is the median over fresh processes of
the time from process start until the library is ready for its first call
(``setup_probe.py``); ``peak_rss_mb`` is this process's ``ru_maxrss``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it makes the same number of passes, each an untraced pass
followed by a traced replay of it, writes the spans to ``.bench_out/``, and
re-runs the build, witness and step-down stages of the largest admitted
``n`` per group under ``tracemalloc``.  Per-layer times and counts are per
pass; the times are scaled by the traced calls' mean speed factor.
``--workload all`` runs each workload in its own process.

The last line of standard output is one JSON object; the run exits with 1
if any answer was wrong and with 2 if the library cannot be imported.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
WORKLOAD_NAMES = ("sweep", "large-n", "check-aut")

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# span name -> per-layer busy-time metric
BUSY_METRICS = {
    "necessity": "necessity.busy_ms",
    "assignments.build": "assignments.build.busy_ms",
    "assignments.fixed_counts": "assignments.fixed_counts.busy_ms",
    "hypotheses.conditions": "hypotheses.conditions.busy_ms",
    "hypotheses.witness": "hypotheses.witness.busy_ms",
    "hypotheses.step_down": "hypotheses.step_down.busy_ms",
    "decide.report": "decide.report_ms",
    "notation.parse": "notation.parse.busy_ms",
    "notation.print": "notation.print.busy_ms",
    "bipartite.validate": "bipartite.validate.busy_ms",
    "realizability.match": "realizability.match.busy_ms",
}
COUNTS = (
    "necessity.calls",
    "assignments.build.point_images",
    "assignments.fixed_counts.discrepancies",
    "hypotheses.conditions.arcs",
    "hypotheses.step_down.calls",
)
PEAK_STAGES = ("assignments.build", "hypotheses.witness", "hypotheses.step_down")
LAYERS = (
    "decide",
    "necessity",
    "assignments",
    "hypotheses",
    "cli",
    "notation",
    "bipartite",
    "realizability",
)

PER_LAYER = {
    "polyhedra.model_build_ms": "ms",
    **{metric: "ms" for metric in BUSY_METRICS.values()},
    **{name: "count" for name in COUNTS},
    **{f"{stage}.peak_alloc_mb": "MB" for stage in PEAK_STAGES},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "tracing.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_library() -> None:
    if not (SRC / "bipartite_tsg" / "__init__.py").is_file():
        print(f"bench: no bipartite_tsg package under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def load_library() -> None:
    """Import ``bipartite_tsg`` from this checkout's ``src`` and nowhere else."""
    require_library()
    sys.path.insert(0, str(SRC))
    import bipartite_tsg

    if Path(bipartite_tsg.__file__).resolve().parent != SRC / "bipartite_tsg":
        print(f"bench: imported {bipartite_tsg.__file__}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(count: int) -> tuple[list[float], list[dict]]:
    """Start ``count`` fresh processes that set the library up; return each
    one's time from start to ready and the stage times it reported, all
    scaled to the reference speed that the process measured right after."""
    from speed import REFERENCE_S

    walls, reports = [], []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        speed = proc.stdout.readline()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or not ready or not speed:
            raise RuntimeError("the set-up probe failed")
        factor = REFERENCE_S / json.loads(speed)["reference_s"]
        walls.append(elapsed * factor)
        reports.append({k: v * factor for k, v in json.loads(ready).items()})
    return walls, reports


def pass_count(workload, seconds: float) -> int:
    """Whole passes that fill ``seconds`` at the workload's nominal pass
    time (its pass time when the benchmark was defined, on a shared 2-vCPU
    Xeon VM, at the reference speed); at ``--seconds 20`` that is one sweep
    pass, one large-n pass and sixteen check-aut passes.  The count depends
    on ``seconds`` only, not on how fast this run goes, so every run and
    every commit takes each input's median of the same number of samples."""
    return max(1, round(seconds / workload.pass_seconds))


def tail_percentile(per_pass: int) -> int:
    """The highest whole percentile with at least ten of one pass's samples
    beyond it.  It depends on the pass size only, so it is the same for
    every run of a workload however many passes fit in ``--seconds``."""
    return math.floor(100 - 1000 / per_pass)


def nearest_rank(sorted_values: list[float], q: int) -> tuple[float, int]:
    """The ``q``-th percentile by nearest rank, and how many samples lie
    beyond it."""
    rank = math.ceil(q / 100 * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def time_call(fn, item):
    start = perf_counter()
    try:
        return fn(item), None, perf_counter() - start
    except Exception as exc:  # a raising call is a failed call, not a crash
        return None, f"{item!r}: {type(exc).__name__}: {exc}", perf_counter() - start


def run_untraced(workload, seconds: float) -> tuple[dict, int, list[str]]:
    from speed import SpeedScale

    samples: list[list[float]] = []
    errors: list[str] = []
    attempted = 0
    passes = pass_count(workload, seconds)
    scale = SpeedScale()
    start = perf_counter()
    for k in range(passes):
        items = workload.pass_items(k)
        samples = samples or [[] for _ in items]
        scaled = []
        for i, item in enumerate(items):
            output, error, elapsed = time_call(workload.call, item)
            scaled += scale.add(i, elapsed)
            if error is None:
                error = workload.error(item, output)
            if error is not None:
                errors.append(error)
        scaled += scale.flush()
        for i, elapsed in scaled:
            samples[i].append(elapsed)
        attempted += len(items)
    measured = perf_counter() - start
    q = tail_percentile(len(samples))
    ordered = sorted(statistics.median(times) for times in samples)
    tail, beyond = nearest_rank(ordered, q)
    print(
        f"{workload.name}: {passes} pass(es), {attempted} calls, "
        f"{measured:.1f} s measured; latency_tail_ms is p{q} of {len(ordered)} "
        f"per-input median times ({beyond} beyond); calls took {scale.raw_s:.2f} s, "
        f"{scale.scaled_s:.2f} s at the reference speed "
        f"(times below are scaled by {scale.scaled_s / scale.raw_s:.3f})"
    )
    metrics = {
        "items_per_s": (attempted - len(errors)) / scale.scaled_s,
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, errors


def run_traced(workload, seconds: float, seed: int) -> tuple[dict, int, list[str]]:
    from spans import Tracer
    from speed import SpeedScale

    tracer = Tracer()
    errors: list[str] = []
    untraced, traced = SpeedScale(), SpeedScale()
    attempted = 0
    passes = pass_count(workload, seconds)
    replay = functools.partial(workload.replay, tracer=tracer)
    for k in range(passes):
        items = workload.pass_items(k)
        summaries = []
        for item in items:
            output, error, elapsed = time_call(workload.call, item)
            untraced.add(None, elapsed)
            if error is None:
                error = workload.error(item, output)
            summaries.append(None if error else workload.summary(output))
            if error is not None:
                errors.append(error)
        untraced.flush()
        for item, expected in zip(items, summaries):
            output, error, elapsed = time_call(replay, item)
            traced.add(None, elapsed)
            if error is None:
                error = workload.error(item, output)
            if error is None and workload.summary(output) != expected:
                error = f"{item!r}: the traced replay answered differently"
            if error is not None:
                errors.append(error)
        traced.flush()
        attempted += 2 * len(items)
    peaks = workload.memory_peaks(items)
    trace_file = ROOT / ".bench_out" / f"trace-{workload.name}-{seed}.json"
    tracer.write(trace_file)
    print(f"{workload.name}: {passes} traced pass(es); spans in {trace_file}")

    # Span times are scaled by the traced calls' mean speed factor.
    ms = traced.scaled_s / traced.raw_s * 1e3 / passes
    busy = tracer.busy_seconds()
    self_time = tracer.self_seconds()
    metrics = {}
    for span, metric in BUSY_METRICS.items():
        metrics[metric] = busy.get(span, 0.0) * ms
    for name in COUNTS:
        metrics[name] = tracer.counts[name] // passes
    for stage in PEAK_STAGES:
        metrics[f"{stage}.peak_alloc_mb"] = peaks.get(stage, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_time.get(layer, 0.0) * ms
    metrics["tracing.overhead_ratio"] = traced.scaled_s / untraced.scaled_s
    return metrics, attempted, errors


def run_one(args) -> int:
    load_library()
    from workloads import WORKLOADS

    walls, reports = measure_setup(SETUP_PROBES)
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.trace:
        metrics, attempted, errors = run_traced(workload, args.seconds, args.seed)
        metrics["polyhedra.model_build_ms"] = (
            statistics.median(r["model_build_s"] for r in reports) * 1e3
        )
        units = PER_LAYER
    else:
        metrics, attempted, errors = run_untraced(workload, args.seconds)
        metrics["setup_s"] = statistics.median(walls)
        units = END_TO_END
    for error in errors[:20]:
        print(f"FAILED {error}")
    failed_ratio = len(errors) / attempted
    print(f"  {'failed_ratio':42} {failed_ratio:>14.6g} ratio ({len(errors)} of {attempted})")
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:42} {shown} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 1 if errors else 0


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    require_library()
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        print(f"== {name}")
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
