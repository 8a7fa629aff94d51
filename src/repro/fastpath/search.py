"""Serial fingerprint-native search loops over packed states.

These mirror :func:`repro.checker.search.dfs_search` and
:func:`~repro.checker.search.bfs_search` decision for decision — same
statistics semantics, same budget handling, same observer events, same
counterexamples — but the currency of the loop is the packed
:data:`~repro.fastpath.compiler.PackedState` word tuple.  Object-graph
states are materialised in exactly two places, both off the hot path:

* **invariant evaluation misses** — verdicts of invariants declared
  ``network_sensitive=False`` (all bundled properties) are memoised per
  local-state word vector, which is tiny compared to the state count; a
  network-sensitive invariant is evaluated per state via ``decode`` and
  stays correct, just slower;
* **counterexample replay** — only the violating path is decoded.

The stubborn-set reducers decode nothing: :func:`reduce_packed` hands them
a packed state view (:class:`~repro.checker.search.ReductionContext` with
packed state handles, a word-level ``pending_senders`` and memoised
object executions), so dedup, successor application, hashing and the
reduction all stay packed.

Store semantics match the object engine's: ``"full"`` deduplicates exact
packed words (interning is injective, so word equality is state equality),
the fingerprint kinds deduplicate the packed fingerprint, which is
bit-identical to ``GlobalState.fingerprint()``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..checker.counterexample import Counterexample, Step
from ..checker.property import Invariant
from ..checker.result import SearchStatistics
from ..checker.search import (
    ReductionContext,
    Reducer,
    SearchConfig,
    SearchOutcome,
    _maybe_span,
)
from ..checker.statestore import ShardedFingerprintStore
from ..engine.events import PROGRESS_INTERVAL, Observer, emit
from ..mp.protocol import Protocol
from ..mp.state import GlobalState
from ..mp.transition import Execution
from .compiler import FastSuccessorEngine, PackedExecution, PackedState


class _PackedStore:
    """Visited-set over packed states with the serial stores' semantics."""

    __slots__ = ("kind", "_words", "_fingerprints", "_sharded")

    def __init__(self, kind: str, shards: int) -> None:
        self.kind = kind
        self._words: Set[Tuple[int, ...]] = set()
        self._fingerprints: Set[int] = set()
        self._sharded: Optional[ShardedFingerprintStore] = None
        if kind == "sharded-fingerprint":
            self._sharded = ShardedFingerprintStore(num_shards=shards)
        elif kind not in ("full", "fingerprint"):
            raise ValueError(f"unknown packed store kind: {kind!r}")

    def add(self, packed: PackedState) -> bool:
        if self.kind == "full":
            words = packed[0]
            if words in self._words:
                return False
            self._words.add(words)
            return True
        if self._sharded is not None:
            return self._sharded.add_fingerprint(packed[3])
        fingerprint = packed[3]
        if fingerprint in self._fingerprints:
            return False
        self._fingerprints.add(fingerprint)
        return True

    def __len__(self) -> int:
        if self.kind == "full":
            return len(self._words)
        if self._sharded is not None:
            return len(self._sharded)
        return len(self._fingerprints)

    def shard_sizes(self):
        """Per-shard occupancy when sharded, else None (duck-typed to match
        :meth:`ShardedFingerprintStore.shard_sizes` for telemetry)."""
        if self._sharded is not None:
            return self._sharded.shard_sizes()
        return None


def _memoised_predicate(
    engine: FastSuccessorEngine,
    evaluate: Callable[[GlobalState], bool],
    network_sensitive: bool,
    capacity: Optional[int] = None,
) -> Callable[[PackedState], bool]:
    """Packed evaluation of a state predicate, memoised per locals vector
    when sound (``network_sensitive=False``), optionally LRU-bounded."""
    if network_sensitive:
        def check_sensitive(packed: PackedState) -> bool:
            return bool(evaluate(engine.decode(packed)))

        return check_sensitive

    if capacity is not None and capacity < 1:
        raise ValueError("memo capacity must be at least 1 (or None)")
    count = engine.num_processes
    from collections import OrderedDict

    memo: "OrderedDict[Tuple[int, ...], bool]" = OrderedDict()

    def check(packed: PackedState) -> bool:
        key = packed[0][:count]
        verdict = memo.get(key)
        if verdict is None:
            verdict = bool(evaluate(engine.decode(packed)))
            memo[key] = verdict
            if capacity is not None and len(memo) > capacity:
                memo.popitem(last=False)
        elif capacity is not None:
            memo.move_to_end(key)
        return verdict

    return check


def make_invariant_checker(
    engine: FastSuccessorEngine, invariant: Invariant, protocol: Protocol,
    capacity: Optional[int] = None,
) -> Callable[[PackedState], bool]:
    """Packed invariant evaluation, memoised per locals vector when sound.

    Invariants declaring ``network_sensitive=False`` read process states
    only, so their verdict is a pure function of the locals word prefix —
    the memo turns per-state evaluation into one dict lookup.  Sensitive
    (or undeclared, the safe default) invariants decode every state.
    ``capacity`` LRU-bounds the memo (``None`` keeps it unbounded).  Works
    for any property exposing ``holds_in``/``network_sensitive`` — liveness
    goals (:class:`~repro.checker.property.Eventually`) reuse it.
    """
    return _memoised_predicate(
        engine,
        lambda state: invariant.holds_in(state, protocol),
        getattr(invariant, "network_sensitive", True),
        capacity,
    )


class _FastFrame:
    """One entry of the packed DFS stack."""

    __slots__ = ("packed", "pending", "next_index", "via", "successors")

    def __init__(self, packed: PackedState, via: Optional[PackedExecution]) -> None:
        self.packed = packed
        self.pending: Tuple[PackedExecution, ...] = ()
        self.next_index = 0
        self.via = via
        self.successors: Dict[PackedExecution, PackedState] = {}


def reduce_packed(
    reducer: Reducer,
    engine: FastSuccessorEngine,
    packed: PackedState,
    enabled: Tuple[PackedExecution, ...],
    successor_memo: Dict[PackedExecution, PackedState],
    on_stack: Callable[[PackedState], bool],
) -> Tuple[PackedExecution, ...]:
    """Run a reducer on a packed frame; return the packed executions it keeps.

    The reducer sees the packed state view: the state handles are packed
    states, ``pending_senders`` scans the network words, and the enabled
    executions come from the memoised ``execution_of``, so nothing is
    decoded.  Proviso successors computed for the reducer are kept in the
    frame's ``successor_memo`` so the search reuses them on expansion.
    """
    executions = engine.executions_of(enabled)
    # The reducer returns executions of ``executions`` itself, so they map
    # back by identity.
    packed_by_id = engine.packed_by_id

    def successor(execution: Execution) -> PackedState:
        target = packed_by_id[id(execution)]
        child = successor_memo.get(target)
        if child is None:
            child = engine.successor_packed(packed, target)
            successor_memo[target] = child
        return child

    reduced = reducer(ReductionContext(
        state=packed,
        enabled=executions,
        protocol=engine.protocol,
        successor=successor,
        on_stack=on_stack,
        pending_senders=partial(engine.pending_senders, packed),
        engine=engine,
    ))
    if reduced is executions:
        return enabled
    return tuple(map(packed_by_id.__getitem__, map(id, reduced)))


def _path_from_stack(
    engine: FastSuccessorEngine,
    stack: List[_FastFrame],
    final: Optional[Tuple[PackedExecution, PackedState]],
    property_name: str,
) -> Counterexample:
    """Decode the violating path from the packed DFS stack."""
    initial = engine.decode(stack[0].packed)
    steps = []
    for frame in stack[1:]:
        steps.append(
            Step(execution=engine.execution_of(frame.via),
                 state=engine.decode(frame.packed))
        )
    if final is not None:
        execution, packed = final
        steps.append(
            Step(execution=engine.execution_of(execution),
                 state=engine.decode(packed))
        )
    return Counterexample(initial_state=initial, steps=tuple(steps),
                          property_name=property_name)


def fast_dfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[SearchConfig] = None,
    reducer: Optional[Reducer] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """Packed-state depth-first search; semantics of ``dfs_search`` exactly."""
    config = config or SearchConfig()
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is not None and engine.protocol is not protocol:
        raise ValueError("fast successor engine was built for a different protocol")
    if engine is None:
        with _maybe_span(telemetry, "compile", protocol=protocol.name):
            engine = FastSuccessorEngine(
                protocol, memo_capacity=config.fastpath_memo_capacity
            )
    holds = make_invariant_checker(engine, invariant, protocol,
                                   capacity=config.fastpath_memo_capacity)

    def record_telemetry() -> None:
        if telemetry is None:
            return
        telemetry.record_store(store)
        telemetry.record_fastpath(engine)

    store: Optional[_PackedStore] = None
    if config.stateful:
        store = _PackedStore(config.state_store, config.state_store_shards)

    initial = engine.initial_packed()
    if store is not None:
        store.add(initial)
    statistics.states_visited = 1

    counterexample: Optional[Counterexample] = None
    verified = True
    complete = True
    deadlock_states = 0

    if not holds(initial):
        counterexample = Counterexample(
            initial_state=engine.decode(initial), steps=(),
            property_name=invariant.name,
        )
        verified = False
        emit(observer, "violation-found", states_visited=1, depth=0)
        if config.stop_at_first_violation:
            statistics.elapsed_seconds = time.perf_counter() - start_time
            record_telemetry()
            return SearchOutcome(False, False, counterexample, statistics)

    on_stack_words: Set[Tuple[int, ...]] = {initial[0]}

    def on_stack(candidate: PackedState) -> bool:
        return candidate[0] in on_stack_words

    def expand(frame: _FastFrame) -> None:
        nonlocal deadlock_states
        enabled = engine.enabled_packed(frame.packed)
        statistics.enabled_set_computations += 1
        if config.check_deadlocks and not enabled:
            deadlock_states += 1
        if reducer is None or len(enabled) <= 1:
            statistics.full_expansions += 1
            frame.pending = enabled
            return
        reduced = reduce_packed(reducer, engine, frame.packed, enabled,
                                frame.successors, on_stack)
        if len(reduced) < len(enabled):
            statistics.reduced_expansions += 1
            frame.pending = reduced
        else:
            statistics.full_expansions += 1
            frame.pending = enabled

    root = _FastFrame(initial, via=None)
    expand(root)
    stack: List[_FastFrame] = [root]
    successor_packed = engine.successor_packed
    store_add = None if store is None else store.add
    max_seconds, max_states, max_depth = config.max_seconds, config.max_states, config.max_depth

    while stack:
        if max_seconds is not None:
            if time.perf_counter() - start_time > max_seconds:
                complete = False
                break
        frame = stack[-1]
        if frame.next_index >= len(frame.pending):
            stack.pop()
            on_stack_words.discard(frame.packed[0])
            continue
        execution = frame.pending[frame.next_index]
        frame.next_index += 1

        successor = frame.successors.get(execution)
        if successor is None:
            successor = successor_packed(frame.packed, execution)
        statistics.transitions_executed += 1

        if store_add is not None:
            if not store_add(successor):
                statistics.revisits += 1
                continue
            statistics.states_visited += 1
        else:
            if successor[0] in on_stack_words:
                statistics.revisits += 1
                continue
            statistics.states_visited += 1
        if observer is not None and statistics.states_visited % PROGRESS_INTERVAL == 0:
            emit(observer, "progress", states_visited=statistics.states_visited,
                 transitions_executed=statistics.transitions_executed)

        if not holds(successor):
            verified = False
            counterexample = _path_from_stack(
                engine, stack, (execution, successor), invariant.name
            )
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            if config.stop_at_first_violation:
                complete = False
                break

        if max_states is not None and statistics.states_visited >= max_states:
            complete = False
            break
        if max_depth is not None and len(stack) > max_depth:
            complete = False
            continue

        child = _FastFrame(successor, via=execution)
        expand(child)
        stack.append(child)
        on_stack_words.add(successor[0])
        if len(stack) > statistics.max_depth + 1:
            statistics.max_depth = len(stack) - 1

    statistics.elapsed_seconds = time.perf_counter() - start_time
    record_telemetry()
    return SearchOutcome(
        verified=verified,
        complete=complete and verified if config.stop_at_first_violation else complete,
        counterexample=counterexample,
        statistics=statistics,
        deadlock_states=deadlock_states,
    )


def fast_bfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[SearchConfig] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """Packed-state breadth-first search; semantics of ``bfs_search`` exactly."""
    config = config or SearchConfig()
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is not None and engine.protocol is not protocol:
        raise ValueError("fast successor engine was built for a different protocol")
    if engine is None:
        with _maybe_span(telemetry, "compile", protocol=protocol.name):
            engine = FastSuccessorEngine(
                protocol, memo_capacity=config.fastpath_memo_capacity
            )
    holds = make_invariant_checker(engine, invariant, protocol,
                                   capacity=config.fastpath_memo_capacity)

    initial = engine.initial_packed()
    store = _PackedStore(config.state_store, config.state_store_shards)
    store.add(initial)
    statistics.states_visited = 1
    peak_frontier = 1

    def record_telemetry() -> None:
        if telemetry is None:
            return
        telemetry.record_store(store)
        telemetry.record_fastpath(engine)
        telemetry.metrics.gauge(
            "frontier_peak", "largest BFS frontier level"
        ).set(peak_frontier)

    #: words -> None (initial) or (parent packed, packed execution).
    parents: Dict[Tuple[int, ...], Optional[Tuple[PackedState, PackedExecution]]] = {
        initial[0]: None
    }
    counterexample: Optional[Counterexample] = None
    verified = True
    complete = True

    def rebuild(packed: PackedState) -> Counterexample:
        steps = []
        cursor = packed
        while parents[cursor[0]] is not None:
            predecessor, execution = parents[cursor[0]]
            steps.append(
                Step(execution=engine.execution_of(execution),
                     state=engine.decode(cursor))
            )
            cursor = predecessor
        steps.reverse()
        return Counterexample(initial_state=engine.decode(initial),
                              steps=tuple(steps), property_name=invariant.name)

    if not holds(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        statistics.elapsed_seconds = time.perf_counter() - start_time
        record_telemetry()
        return SearchOutcome(False, False, rebuild(initial), statistics)

    frontier = [initial]
    depth = 0
    while frontier:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                complete = False
                break
        if config.max_depth is not None and depth >= config.max_depth:
            complete = False
            break
        next_frontier = []
        for packed in frontier:
            enabled = engine.enabled_packed(packed)
            statistics.enabled_set_computations += 1
            statistics.full_expansions += 1
            for execution in enabled:
                successor = engine.successor_packed(packed, execution)
                statistics.transitions_executed += 1
                if not store.add(successor):
                    statistics.revisits += 1
                    continue
                statistics.states_visited = len(store)
                parents[successor[0]] = (packed, execution)
                if not holds(successor):
                    verified = False
                    counterexample = rebuild(successor)
                    emit(observer, "violation-found",
                         states_visited=statistics.states_visited, depth=depth + 1)
                    if config.stop_at_first_violation:
                        statistics.elapsed_seconds = time.perf_counter() - start_time
                        record_telemetry()
                        return SearchOutcome(False, False, counterexample, statistics)
                if config.max_states is not None and statistics.states_visited >= config.max_states:
                    complete = False
                    next_frontier = []
                    statistics.max_depth = max(statistics.max_depth, depth + 1)
                    break
                next_frontier.append(successor)
            else:
                continue
            break
        frontier = next_frontier
        peak_frontier = max(peak_frontier, len(frontier))
        depth += 1
        if frontier:
            statistics.max_depth = max(statistics.max_depth, depth)
            emit(observer, "level-completed", depth=depth,
                 new_states=len(frontier),
                 states_visited=statistics.states_visited)

    statistics.elapsed_seconds = time.perf_counter() - start_time
    record_telemetry()
    return SearchOutcome(verified=verified, complete=complete,
                         counterexample=counterexample, statistics=statistics)


def fast_ndfs_search(
    protocol: Protocol,
    prop,
    config: Optional[SearchConfig] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """Packed-state nested DFS; mirrors
    :func:`repro.checker.search.ndfs_search` decision for decision.

    The blue/cyan/red marks are kept over packed keys — exact word tuples
    for the ``"full"`` store, fingerprints for the fingerprint kinds — and
    only the violating lasso is decoded.  Verdicts, visited counts and
    trace lengths are identical to the object-graph nested DFS.
    """
    config = config or SearchConfig()
    if not config.stateful:
        raise ValueError(
            "nested DFS is stateful by construction (the blue/red marks "
            "are the algorithm); config.stateful must be True"
        )
    if config.state_store not in ("full", "fingerprint", "sharded-fingerprint"):
        raise ValueError(
            f"nested DFS needs a real visited-state store, got "
            f"state_store={config.state_store!r}"
        )
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is not None and engine.protocol is not protocol:
        raise ValueError("fast successor engine was built for a different protocol")
    if engine is None:
        with _maybe_span(telemetry, "compile", protocol=protocol.name):
            engine = FastSuccessorEngine(
                protocol, memo_capacity=config.fastpath_memo_capacity
            )
    network_sensitive = getattr(prop, "network_sensitive", True)
    prunes = _memoised_predicate(
        engine, lambda state: prop.prunes(state, protocol),
        network_sensitive, config.fastpath_memo_capacity,
    )
    accepting = _memoised_predicate(
        engine, lambda state: prop.accepting(state, protocol),
        network_sensitive, config.fastpath_memo_capacity,
    )

    exact = config.state_store == "full"

    def key(packed: PackedState):
        return packed[0] if exact else packed[3]

    def expand(packed: PackedState) -> Tuple[PackedExecution, ...]:
        enabled = engine.enabled_packed(packed)
        statistics.enabled_set_computations += 1
        statistics.full_expansions += 1
        return enabled

    initial = engine.initial_packed()
    discovered = {key(initial)}
    statistics.states_visited = 1

    if prunes(initial):
        statistics.elapsed_seconds = time.perf_counter() - start_time
        return SearchOutcome(True, True, None, statistics)

    cyan = {key(initial)}
    blue = set()
    red = set()
    complete = True

    def lasso(stack: List[_FastFrame],
              final: Tuple[PackedExecution, PackedState],
              extra: List[_FastFrame], cycle_key) -> Counterexample:
        steps = [
            Step(execution=engine.execution_of(frame.via),
                 state=engine.decode(frame.packed))
            for frame in stack[1:]
        ]
        steps.extend(
            Step(execution=engine.execution_of(frame.via),
                 state=engine.decode(frame.packed))
            for frame in extra
        )
        execution, packed = final
        steps.append(Step(execution=engine.execution_of(execution),
                          state=engine.decode(packed)))
        path_packed = [stack[0].packed] + [frame.packed for frame in stack[1:]]
        cycle_start = next(
            index for index, entry in enumerate(path_packed)
            if key(entry) == cycle_key
        )
        return Counterexample(
            initial_state=engine.decode(stack[0].packed), steps=tuple(steps),
            property_name=prop.name, cycle_start=cycle_start,
        )

    def stutter(stack: List[_FastFrame],
                final: Optional[Tuple[PackedExecution, PackedState]]) -> Counterexample:
        steps = [
            Step(execution=engine.execution_of(frame.via),
                 state=engine.decode(frame.packed))
            for frame in stack[1:]
        ]
        if final is not None:
            execution, packed = final
            steps.append(Step(execution=engine.execution_of(execution),
                              state=engine.decode(packed)))
        return Counterexample(
            initial_state=engine.decode(stack[0].packed), steps=tuple(steps),
            property_name=prop.name, cycle_start=len(steps),
        )

    def red_search(stack: List[_FastFrame]) -> Optional[Counterexample]:
        seed = stack[-1]
        root = _FastFrame(seed.packed, via=None)
        root.pending = expand(seed.packed)
        red_stack = [root]
        while red_stack:
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    return None
            frame = red_stack[-1]
            if frame.next_index >= len(frame.pending):
                red_stack.pop()
                continue
            execution = frame.pending[frame.next_index]
            frame.next_index += 1
            successor = engine.successor_packed(frame.packed, execution)
            statistics.transitions_executed += 1
            skey = key(successor)
            if skey in cyan:
                return lasso(stack, (execution, successor),
                             red_stack[1:], skey)
            if skey in red:
                continue
            if skey not in discovered:
                discovered.add(skey)
                statistics.states_visited = len(discovered)
            if prunes(successor):
                red.add(skey)
                continue
            red.add(skey)
            child = _FastFrame(successor, via=execution)
            child.pending = expand(successor)
            red_stack.append(child)
        red.add(key(seed.packed))
        return None

    def finish(verified: bool, is_complete: bool,
               counterexample: Optional[Counterexample]) -> SearchOutcome:
        statistics.elapsed_seconds = time.perf_counter() - start_time
        if telemetry is not None:
            telemetry.record_fastpath(engine)
            telemetry.metrics.gauge(
                "state_store_size", "visited states/fingerprints held"
            ).set(len(discovered))
            telemetry.metrics.gauge(
                "ndfs_red_states", "states marked red by the nested search"
            ).set(len(red))
        return SearchOutcome(verified, is_complete, counterexample, statistics)

    root = _FastFrame(initial, via=None)
    root.pending = expand(initial)
    stack: List[_FastFrame] = [root]
    if not root.pending and accepting(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        return finish(False, False, stutter(stack, None))

    while stack:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                return finish(True, False, None)
        frame = stack[-1]
        if frame.next_index >= len(frame.pending):
            if accepting(frame.packed):
                with _maybe_span(telemetry, "red-phase", stack_depth=len(stack)):
                    counterexample = red_search(stack)
                if counterexample is not None:
                    emit(observer, "violation-found",
                         states_visited=statistics.states_visited,
                         depth=len(stack))
                    return finish(False, False, counterexample)
                if config.max_seconds is not None:
                    if time.perf_counter() - start_time > config.max_seconds:
                        return finish(True, False, None)
            stack.pop()
            cyan.discard(key(frame.packed))
            blue.add(key(frame.packed))
            continue
        execution = frame.pending[frame.next_index]
        frame.next_index += 1

        successor = engine.successor_packed(frame.packed, execution)
        statistics.transitions_executed += 1
        skey = key(successor)

        if skey in cyan and (accepting(frame.packed) or accepting(successor)):
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            return finish(False, False,
                          lasso(stack, (execution, successor), [], skey))
        if skey in blue or skey in cyan:
            statistics.revisits += 1
            continue
        if skey not in discovered:
            discovered.add(skey)
            statistics.states_visited = len(discovered)
            if observer is not None and statistics.states_visited % PROGRESS_INTERVAL == 0:
                emit(observer, "progress",
                     states_visited=statistics.states_visited,
                     transitions_executed=statistics.transitions_executed)
        if prunes(successor):
            blue.add(skey)
            continue
        if config.max_states is not None and statistics.states_visited >= config.max_states:
            return finish(True, False, None)
        if config.max_depth is not None and len(stack) > config.max_depth:
            complete = False
            continue

        child = _FastFrame(successor, via=execution)
        child.pending = expand(successor)
        if not child.pending and accepting(successor):
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            return finish(False, False, stutter(stack, (execution, successor)))
        stack.append(child)
        cyan.add(skey)
        statistics.max_depth = max(statistics.max_depth, len(stack) - 1)

    return finish(True, complete, None)
