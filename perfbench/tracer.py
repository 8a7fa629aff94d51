"""Traced runs: spans around the calls into each layer of the checker.

The wrappers are installed by the benchmark on classes and modules of the
program for the duration of one traced iteration and removed afterwards; no
code under ``src/`` is changed.  Each call into a wrapped function records a
span -- name, start, end, parent -- in memory.  A span's self time is its
duration minus the durations of its child spans; the harness opens a root
span ``check`` around each iteration, so the root's self time is the time
spent outside every wrapped layer (the search loop itself).

The frontier workload wraps only functions that run in the coordinator:
forked workers inherit class-level wrappers, so wrapping worker-side
functions would only slow the workers, and their spans would die with the
child processes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

#: Span name -> the functions it wraps, as (module, owner class or None,
#: attribute).  An owner of None means a module-level function, patched in
#: its module and in every loaded module that imported it by name.  A target
#: that no longer exists is skipped with a warning, so its layer reads 0.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, object, str], ...]] = {
    "fastpath.compile": (("repro.fastpath.compiler", "FastSuccessorEngine", "__init__"),),
    "fastpath.enabled": (("repro.fastpath.compiler", "FastSuccessorEngine", "enabled_packed"),),
    "fastpath.successor": (("repro.fastpath.compiler", "FastSuccessorEngine", "successor_packed"),),
    "fastpath.encode": (("repro.fastpath.compiler", "FastSuccessorEngine", "encode"),),
    "fastpath.decode": (("repro.fastpath.compiler", "FastSuccessorEngine", "decode"),),
    "checker.store": (
        ("repro.fastpath.search", "_PackedStore", "add"),
        ("repro.checker.statestore", "FullStateStore", "add"),
        ("repro.checker.statestore", "FingerprintStore", "add"),
        ("repro.checker.statestore", "ShardedFingerprintStore", "add"),
        ("repro.checker.statestore", "NullStateStore", "add"),
    ),
    "checker.invariant": (("repro.checker.property", "Invariant", "holds_in"),),
    "checker.ce_replay": (("repro.checker.counterexample", "Counterexample", "replay"),),
    "por.reduce": (("repro.por.stubborn", "StubbornSetProvider", "reduce"),),
    "mp.enabled": (("repro.mp.semantics", "SuccessorEngine", "enabled"),),
    "mp.successor": (("repro.mp.semantics", "SuccessorEngine", "successor"),),
    "parallel.barrier": (("repro.parallel.worker", None, "collect_replies"),),
    "parallel.shutdown": (("repro.parallel.worker", None, "shutdown_processes"),),
}

#: Every per-layer metric of a traced run: unit, better direction, and the
#: end-to-end metric and workload a change to the layer should move.  A
#: layer that is not called on a workload reports 0.
PER_LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "fastpath.successor_s": ("s", "lower", "check_s, states_per_s on paxos-unreduced"),
    "fastpath.successor_calls": ("count", "lower", "check_s, states_per_s on paxos-unreduced"),
    "fastpath.enabled_s": ("s", "lower", "check_s, states_per_s on paxos-unreduced"),
    "fastpath.enabled_calls": ("count", "lower", "check_s, states_per_s on paxos-unreduced"),
    "checker.store_s": ("s", "lower", "check_s, states_per_s on paxos-unreduced"),
    "checker.store_calls": ("count", "lower", "check_s on paxos-unreduced; peak_rss_mb on paxos-unreduced"),
    "checker.revisit_share": ("ratio", "lower", "check_s, states_per_s on paxos-unreduced"),
    "checker.loop_s": ("s", "lower", "check_s, states_per_s on paxos-unreduced"),
    "fastpath.decode_s": ("s", "lower", "check_s on paxos-spor"),
    "fastpath.decode_calls": ("count", "lower", "check_s on paxos-spor"),
    "fastpath.encode_s": ("s", "lower", "check_s on paxos-spor"),
    "fastpath.encode_calls": ("count", "lower", "check_s on paxos-spor"),
    "por.reduce_s": ("s", "lower", "check_s on paxos-spor (0 calls on paxos-unreduced)"),
    "por.reduce_calls": ("count", "lower", "check_s on paxos-spor (0 on paxos-unreduced)"),
    "por.reduced_share": ("ratio", "higher", "check_s on paxos-spor"),
    "parallel.barrier_wait_s": ("s", "lower", "check_s on paxos-frontier (0 on serial workloads)"),
    "parallel.barriers": ("count", "lower", "check_s on paxos-frontier (0 on serial workloads)"),
    "parallel.shutdown_s": ("s", "lower", "check_s on paxos-frontier (0 on serial workloads)"),
    "mp.enabled_s": ("s", "lower", "check_s on table1-default (0 calls on packed workloads)"),
    "mp.enabled_calls": ("count", "lower", "check_s on table1-default (0 on packed workloads)"),
    "mp.successor_s": ("s", "lower", "check_s on table1-default (0 calls on packed workloads)"),
    "mp.successor_calls": ("count", "lower", "check_s on table1-default (0 on packed workloads)"),
    "checker.invariant_s": ("s", "lower", "check_s on table1-default"),
    "checker.invariant_calls": ("count", "lower", "check_s on table1-default"),
    "checker.ce_replay_s": ("s", "lower", "check_s on table1-default"),
    "fastpath.compile_s": ("s", "lower", "check_s on table1-default"),
    "fastpath.memo_hit_share": ("ratio", "higher", "peak_rss_mb on paxos-unreduced"),
    "trace.overhead": ("ratio", "lower", "traced check_s over untraced check_s, per workload"),
}

#: Layers whose functions run in the frontier coordinator process.
COORDINATOR_LAYERS = ("fastpath.compile", "parallel.barrier", "parallel.shutdown")

ROOT_SPAN = "check"


def layers_for(workload: str) -> Tuple[str, ...]:
    if workload == "paxos-frontier":
        return COORDINATOR_LAYERS
    return tuple(LAYER_TARGETS)


def _owners(module_name: str, owner_name, attr: str):
    """The objects whose ``attr`` must be replaced to wrap a target."""
    try:
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            return [owner] if attr in owner.__dict__ else []
        original = module.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        return []
    return [loaded for name, loaded in list(sys.modules.items())
            if name.startswith("repro") and getattr(loaded, attr, None) is original]


class Tracer:
    """In-memory span recorder with installable wrappers.

    Build it after a warm-up iteration, so that engine modules the checker
    imports lazily are loaded when module-level functions are patched.
    """

    def __init__(self, layers: Tuple[str, ...]) -> None:
        self.span_names: List[str] = [ROOT_SPAN]
        self.names: List[int] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.current = -1
        self._wrappers: List[Tuple[object, str, object, object]] = []
        for layer in layers:
            name_id = len(self.span_names)
            self.span_names.append(layer)
            for module_name, owner_name, attr in LAYER_TARGETS[layer]:
                owners = _owners(module_name, owner_name, attr)
                if not owners:
                    target = ".".join(filter(None, (module_name, owner_name, attr)))
                    print(f"tracer: {target} not found; {layer} reads 0", file=sys.stderr)
                for owner in owners:
                    original = owner.__dict__[attr]
                    self._wrappers.append((owner, attr, original, self._wrap(original, name_id)))

    def _wrap(self, original, name_id: int):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(starts)
            parent = tracer.current
            tracer.current = index
            names.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parent

        return traced

    def traced_call(self, fn):
        """Run ``fn`` under a root span with every wrapper installed.

        Returns ``(fn's result, {span name: (self seconds, calls)})``; the
        spans of the call stay in memory until the next traced call.
        """
        for lst in (self.names, self.parents, self.starts, self.ends):
            lst.clear()
        self.names.append(0)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.current = 0
        for owner, attr, _original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self.starts.append(time.perf_counter())
        try:
            result = fn()
        finally:
            self.ends[0] = time.perf_counter()
            for owner, attr, original, _wrapper in self._wrappers:
                setattr(owner, attr, original)
            self.current = -1
        return result, self.self_times()

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Self seconds and call count per span name for the last call.

        The root span's self time is the search loop's: the iteration's
        wall time minus the time covered by top-level layer spans.
        """
        count = len(self.names)
        child_time = [0.0] * count
        for index in range(1, count):
            child_time[self.parents[index]] += self.ends[index] - self.starts[index]
        totals = {name: [0.0, 0] for name in self.span_names}
        for index in range(count):
            entry = totals[self.span_names[self.names[index]]]
            entry[0] += self.ends[index] - self.starts[index] - child_time[index]
            entry[1] += 1
        return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}

    def spans(self) -> Dict[str, object]:
        """The last traced call's spans: (name, start, end, parent index)."""
        origin = self.starts[0] if self.starts else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [self.span_names[name], round(start - origin, 7), round(end - origin, 7), parent]
                for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
