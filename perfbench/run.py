"""The repository benchmark: time-to-verdict on four Table I workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paxos-unreduced --seed 1 --seconds 10 --trace 0

One process builds the workload's inputs, runs one untimed warm-up
iteration, then runs iterations (one check, or one seven-row sweep with
counterexample replay) until ``--seconds`` have passed.  Every check's
verdict, state and transition counts and counterexample are compared with
the pins in ``workloads.py``; any difference is a failed check and makes
the command exit 1.

``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json``); set-up
time is measured afterwards in fresh interpreters.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics, including the tracing overhead.  The last line of standard output
is the JSON result; the environment, the samples and the traced spans are
also written under ``.bench_out/``.

On shared cloud machines single-core speed drifts by tens of percent over
minutes with other tenants' load.  End-to-end times are therefore reported
at a reference speed: each sample's wall time is scaled by ``REFERENCE_S``
over the time a fixed pure-Python kernel took just before and just after
the sample.  Raw wall times are kept in the result file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed per run for ``setup_s`` (after one untimed
#: warm-up that fills the bytecode cache).
SETUP_PROBES = 5

#: Iterations timed at least, however short ``--seconds`` is.
MIN_SAMPLES = 3

#: Seconds the reference kernel takes on a quiet core of a 2-core x86_64
#: Linux VM with Python 3.11; reported times are seconds at that speed.
REFERENCE_S = 0.02


def reference_seconds() -> float:
    """Time a fixed dict-and-tuple kernel, the checker's kind of work."""
    started = time.perf_counter()
    table: dict = {}
    get = table.get
    for i in range(80000):
        key = (i & 1023, i % 7)
        table[key] = get(key, 0) + 1
    return time.perf_counter() - started


def calibrated(fn, references=None):
    """Run ``fn``; return (wall seconds, seconds at reference speed, value)."""
    gc.collect()
    before = reference_seconds()
    started = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - started
    after = reference_seconds()
    if references is not None:
        references.extend((before, after))
    return wall, wall * 2 * REFERENCE_S / (before + after), value


def environment(workers: int) -> dict:
    from workloads import usable_cores

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "workers": workers,
    }


def run_iteration(inputs, outcomes: list) -> list:
    """Run every check of one iteration; append each check's error (None
    when it matched its pin) to ``outcomes`` and return the results."""
    from workloads import run_check

    results = []
    for check in inputs.checks:
        error, result = run_check(check)
        outcomes.append(error)
        results.append(result)
    return results


def setup_probe(command: list) -> float:
    """Seconds from launching a fresh interpreter to inputs ready to check."""
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> tuple:
    """Wall and reference-speed set-up times of ``SETUP_PROBES`` probes."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    setup_probe(command)  # fills the bytecode cache; users do not pay that each run
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = reference_seconds()
        elapsed = setup_probe(command)
        after = reference_seconds()
        wall.append(elapsed)
        scaled.append(elapsed * 2 * REFERENCE_S / (before + after))
    return wall, scaled


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_untraced(inputs, seconds: float, outcomes: list) -> dict:
    check_wall_s, check_s, references = [], [], []
    deadline = time.perf_counter() + seconds
    while len(check_s) < MIN_SAMPLES or time.perf_counter() < deadline:
        wall, scaled, _ = calibrated(lambda: run_iteration(inputs, outcomes), references)
        check_wall_s.append(wall)
        check_s.append(scaled)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_wall_s, setup_s = setup_seconds(inputs.workload, inputs.seed)
    median = statistics.median(check_s)
    return {
        "samples": {"check_s": check_s, "check_wall_s": check_wall_s, "reference_s": references,
                    "setup_s": setup_s, "setup_wall_s": setup_wall_s},
        "metrics": {
            "setup_s": (statistics.median(setup_s), "s"),
            "check_s": (median, "s"),
            "states_per_s": (inputs.states_per_iteration / median, "1/s"),
            # Linux reports ru_maxrss in KiB.  Children are the frontier's
            # worker processes: the peak of the largest one is added.
            "peak_rss_mb": ((usage_self + usage_children) / 1024.0, "MB"),
        },
    }


def measure_traced(inputs, seconds: float, outcomes: list) -> dict:
    """Alternate untraced and traced iterations; report the layer ledger."""
    from tracer import PER_LAYER_METRICS, Tracer, layers_for

    tracer = Tracer(layers_for(inputs.workload))
    untraced_s, traced_s = [], []
    layer_samples: dict = {}
    deadline = time.perf_counter() + seconds
    while len(traced_s) < MIN_SAMPLES or time.perf_counter() < deadline:
        untraced_s.append(calibrated(lambda: run_iteration(inputs, outcomes))[1])
        _wall, scaled, (results, self_times) = calibrated(
            lambda: tracer.traced_call(lambda: run_iteration(inputs, outcomes)))
        traced_s.append(scaled)
        for name, value in layer_values(self_times, results).items():
            layer_samples.setdefault(name, []).append(value)
    metrics = {name: (statistics.median(layer_samples.get(name, [0])), unit)
               for name, (unit, _better, _moves) in PER_LAYER_METRICS.items()}
    metrics["trace.overhead"] = (
        statistics.median(traced_s) / statistics.median(untraced_s), "ratio")
    return {
        "samples": {"untraced_check_s": untraced_s, "traced_check_s": traced_s},
        "metrics": metrics,
        "spans": tracer.spans(),
    }


def layer_values(self_times: dict, results: list) -> dict:
    """Per-layer metrics of one traced iteration."""
    from tracer import ROOT_SPAN

    values = {}
    for name, (seconds, calls) in self_times.items():
        if name == ROOT_SPAN:
            values["checker.loop_s"] = seconds
        elif name == "parallel.barrier":
            values["parallel.barrier_wait_s"] = seconds
            values["parallel.barriers"] = calls
        else:
            values[f"{name}_s"] = seconds
            values[f"{name}_calls"] = calls
    revisits = transitions = reduced = expansions = hits = lookups = 0
    for result in results:
        if result is None:
            continue
        stats = result.statistics
        revisits += stats.revisits
        transitions += stats.transitions_executed
        reduced += stats.reduced_expansions
        expansions += stats.reduced_expansions + stats.full_expansions
        metrics = (result.telemetry or {}).get("metrics", {})
        memo_hits = metrics.get("fastpath_memo_hits", {}).get("total", 0)
        hits += memo_hits
        lookups += memo_hits + metrics.get("fastpath_memo_misses", {}).get("total", 0)
    values["checker.revisit_share"] = ratio(revisits, transitions)
    values["por.reduced_share"] = ratio(reduced, expansions)
    values["fastpath.memo_hit_share"] = ratio(hits, lookups)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no checker sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOAD_NAMES, build

    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    inputs = build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    outcomes: list = []
    warm_up = run_iteration(inputs, outcomes)  # checked but not timed
    env = environment(max((result.plan.workers for result in warm_up if result), default=0))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env}))
    measure = measure_traced if args.trace else measure_untraced
    report = measure(inputs, args.seconds, outcomes)

    failures = [error for error in outcomes if error]
    for error in failures[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    metrics = report["metrics"]
    if not args.trace:
        metrics["correct_share"] = (1.0 - len(failures) / len(outcomes), "ratio")
    for name, values in report["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"{name}: n={len(values)} median={q2:.6f} q1={q1:.6f} q3={q3:.6f}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "attempted": len(outcomes),
        "failed": len(failures),
        "samples": report["samples"],
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if "spans" in report:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(report["spans"]))

    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
