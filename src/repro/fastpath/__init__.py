"""Packed-state fast-path successor engine.

This package is the per-state-constant answer to the ROADMAP's "the
per-state cost is the bottleneck again once search is parallel" item: a
protocol *compiler* that runs once per check and lowers the object-graph
model into table-driven form, plus search loops that operate on the lowered
representation end to end.

* :class:`FastSuccessorEngine` (:mod:`repro.fastpath.compiler`) interns
  local states and messages to small integers, packs a global state into a
  flat tuple of machine words, specialises every transition's guard/action
  into memo tables over those ids, and maintains the PR-1 incremental XOR
  fingerprint directly over words — packed fingerprints are bit-identical
  to :meth:`repro.mp.state.GlobalState.fingerprint`.
* :mod:`repro.fastpath.search` holds the serial fingerprint-native DFS/BFS
  loops; object-graph states are materialised only for counterexample
  replay and invariant-memo misses — never on the hot successor path.  The
  stubborn-set reducers run on a packed state view (see
  :func:`repro.fastpath.search.reduce_packed`).
* :mod:`repro.fastpath.parallel` holds the parallel variants: a
  work-stealing DFS whose stolen frames are pure int-tuples (thieves replay
  the execution-index path through the warm memo tables) and a
  fingerprint-native frontier BFS whose level deltas are int 4-tuples.

The engines are registered as ``serial-dfs-fast`` / ``serial-bfs-fast`` /
``frontier-bfs-fast`` / ``worksteal-dfs-fast`` behind the plan layer's
``successors="fast"`` axis (see :mod:`repro.engine.engines`).
"""

from .compiler import FastSuccessorEngine, PackedState
from .parallel import fast_parallel_bfs_search, fast_parallel_dfs_search
from .search import fast_bfs_search, fast_dfs_search

__all__ = [
    "FastSuccessorEngine",
    "PackedState",
    "fast_bfs_search",
    "fast_dfs_search",
    "fast_parallel_bfs_search",
    "fast_parallel_dfs_search",
]
