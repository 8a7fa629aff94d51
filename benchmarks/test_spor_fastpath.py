"""Benchmark — Quorum SPOR-NET on the packed fast path vs. the object engine.

The paper's headline configuration is the stubborn-set reduction with the
NET optimisation on the quorum model.  This benchmark checks paxos-2-3-1
under ``CheckPlan(reduction="spor-net")`` once with the object successor
engine and once with the packed one (``successors="fast"``), asserts both
produce the pinned Table I result, and asserts the packed run is at least
:data:`SPEEDUP_BAR` times faster.  A ``BENCH_spor_*.json`` payload records
the per-round wall times, their medians and their spread.

Honesty rules:

* the two runs must agree on the verdict, the pinned 4,205 states and
  7,243 transitions, and on the reduced/full expansion counts — the same
  stubborn-set closure serves both engines, so any difference is a bug;
* rounds alternate packed/object (after one untimed warm-up of each), so a
  machine-wide slowdown hits both sides of the ratio alike;
* the bar is a single-process ratio and is asserted on every machine,
  whatever its core count.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.analysis.aggregate import bench_payload, write_bench_file
from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import paxos_entry

RESULTS_DIR = Path(__file__).parent / "results"

#: Timed rounds per engine (interleaved).
ROUNDS = 9

#: Packed SPOR-NET must be at least this many times faster than object SPOR-NET.
SPEEDUP_BAR = 4.0

#: Pinned Table I result of the cell: (verified, states, transitions).
PINNED = (True, 4205, 7243)


def _run(entry, successors: str):
    """One timed check on a freshly built model; returns (seconds, result)."""
    protocol = entry.quorum_model()
    plan = CheckPlan(reduction="spor-net", successors=successors)
    started = time.perf_counter()
    result = run_plan(protocol, entry.invariant, plan)
    return time.perf_counter() - started, result


def _spread(values):
    quartiles = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
    }


def test_packed_spor_net_beats_object_spor_net(benchmark):
    """Interleaved packed/object SPOR-NET rounds on paxos-2-3-1."""
    entry = paxos_entry(2, 3, 1)
    _run(entry, "fast")
    _run(entry, "object")

    def measure():
        times = {"fast": [], "object": []}
        results = {}
        for _ in range(ROUNDS):
            for successors in ("fast", "object"):
                seconds, results[successors] = _run(entry, successors)
                times[successors].append(seconds)
        return times, results

    times, results = benchmark.pedantic(measure, rounds=1, iterations=1)

    counts = {}
    for successors, result in results.items():
        stats = result.statistics
        assert (result.verified, stats.states_visited, stats.transitions_executed) == PINNED
        counts[successors] = (stats.reduced_expansions, stats.full_expansions)
    assert counts["fast"] == counts["object"]

    fast, obj = _spread(times["fast"]), _spread(times["object"])
    ratio = obj["median"] / fast["median"]
    benchmark.extra_info["states"] = PINNED[1]
    benchmark.extra_info["fast_median_s"] = round(fast["median"], 4)
    benchmark.extra_info["object_median_s"] = round(obj["median"], 4)
    benchmark.extra_info["speedup"] = round(ratio, 3)

    records = [
        {
            "cell": entry.key,
            "model": "quorum",
            "strategy": "spor-net",
            "successors": successors,
            "workers": 1,
            "verified": results[successors].verified,
            "states_visited": results[successors].statistics.states_visited,
            "transitions_executed": results[successors].statistics.transitions_executed,
            "reduced_expansions": counts[successors][0],
            "full_expansions": counts[successors][1],
            "round_seconds": times[successors],
            "seconds": spread,
        }
        for successors, spread in (("fast", fast), ("object", obj))
    ]
    payload = bench_payload(
        "spor",
        records,
        rounds=len(times["fast"]),
        speedup_over_object_engine=ratio,
        pair_ratios=[o / f for f, o in zip(times["fast"], times["object"])],
        speedup_bar=SPEEDUP_BAR,
        speedup_bar_asserted=True,
    )
    path = write_bench_file(RESULTS_DIR, "spor", payload, label="paper")
    assert json.loads(path.read_text())["kind"] == "spor"

    assert ratio >= SPEEDUP_BAR, (
        f"packed SPOR-NET is only {ratio:.2f}x faster than object SPOR-NET on "
        f"{entry.key} (bar: {SPEEDUP_BAR}x; payload recorded at {path})"
    )
