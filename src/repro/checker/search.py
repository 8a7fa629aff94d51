"""State-space search engines.

The depth-first search below supports the four configurations used in the
paper's evaluation:

* stateful unreduced search (the regular-storage baseline of Table I),
* stateful search with a static partial-order reduction (SPOR, both tables),
* stateless search (the mode required by dynamic POR; the DPOR-specific
  exploration lives in :mod:`repro.por.dpor` and reuses the primitives here),
* bounded variants of all of the above for debugging.

A *reducer* is a callable that picks the subset of enabled executions to
explore in a state (the stubborn set).  The search hands it a
:class:`ReductionContext`, a state view exposing the pending senders per
transition, the successor function and the current DFS stack so the
reducer can apply the cycle (stack) proviso.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from ..engine.events import PROGRESS_INTERVAL, Observer, emit
from ..mp.protocol import Protocol
from ..mp.semantics import SuccessorEngine
from ..mp.state import GlobalState
from ..mp.transition import Execution
from .counterexample import Counterexample, Step
from .property import Invariant
from .result import SearchStatistics
from .statestore import StateStore, make_state_store


@dataclass
class SearchConfig:
    """Tunable knobs of the search.

    Attributes:
        stateful: Keep a visited-state store (stateful search); if False the
            search is stateless and only avoids cycles on the current path.
        state_store: ``"full"`` (exact) or ``"fingerprint"`` (hash-only).
        state_store_shards: Shard count when ``state_store`` is
            ``"sharded-fingerprint"`` (ignored by the other kinds).
        max_depth: Truncate paths longer than this many transitions.
        max_states: Abort once this many distinct states were stored.
        max_seconds: Abort after this wall-clock budget.
        stop_at_first_violation: Stop as soon as one counterexample is found
            (the paper's debugging experiments do exactly this).
        check_deadlocks: Treat states without enabled transitions in the
            *unreduced* transition set as violations.  Off by default since
            all bundled protocols terminate legitimately.
        engine_cache_capacity: LRU bound for the successor engine's
            enabled-set and successor caches in stateless searches; ``None``
            keeps them unbounded (appropriate when the reachable set fits in
            memory, which holds for all bundled instances).
        successor_engine: ``"object"`` runs the interned-object
            :class:`~repro.mp.semantics.SuccessorEngine`; ``"fast"``
            delegates to the packed table-compiled fast path
            (:mod:`repro.fastpath`) with identical verdicts and visited
            counts — the drop-in spelling for direct ``dfs_search`` /
            ``bfs_search`` callers (plan users select it via the
            ``successors`` axis instead).
        fastpath_memo_capacity: LRU bound for the packed fast path's
            per-transition guard/action memo tables and its property-verdict
            memo (per table; the fast-path analogue of
            ``engine_cache_capacity``).  ``None`` keeps them unbounded,
            which is fine for the bundled protocols' small local-state
            spaces; bound it when checking protocols whose local-state
            spaces grow with the exploration.
        chaos: Optional fault-plan spec (see :mod:`repro.chaos`) injected
            into parallel/swarm worker loops; ``None`` (production default)
            injects nothing.  Serial searches ignore it — there is no
            worker process to kill.
        supervise: Restart crashed workers and deterministically re-execute
            their lost work (parallel/swarm searches).  When False a worker
            death aborts the search with a structured
            :class:`~repro.parallel.worker.WorkerCrashError` instead.
        checkpoint_dir: Directory receiving level-barrier checkpoints
            (breadth-first searches only; depth-first engines reject it —
            a DFS has no durable barrier to serialise).
        checkpoint_every: Write a checkpoint every N completed levels;
            defaults to every level when ``checkpoint_dir`` is set.
        resume_from: Path of a checkpoint file (or checkpoint directory,
            resolving to its deepest checkpoint) to resume from.
    """

    stateful: bool = True
    state_store: str = "full"
    state_store_shards: int = 8
    max_depth: Optional[int] = None
    max_states: Optional[int] = None
    max_seconds: Optional[float] = None
    stop_at_first_violation: bool = True
    check_deadlocks: bool = False
    engine_cache_capacity: Optional[int] = None
    successor_engine: str = "object"
    fastpath_memo_capacity: Optional[int] = None
    chaos: Optional[str] = None
    supervise: bool = True
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    resume_from: Optional[str] = None


@dataclass
class ReductionContext:
    """Information a reducer may use when choosing the explored subset.

    A context is a *state view*: the reducer never inspects a state itself,
    so the same reducer serves the object engines and the packed fast path.
    States appear only as opaque handles — a :class:`GlobalState` on the
    object engines, a :data:`~repro.fastpath.compiler.PackedState` on the
    packed ones — that the reducer passes from ``successor`` to
    ``on_stack``.

    Attributes:
        state: Handle of the state being expanded.
        enabled: All enabled executions in ``state``, in the engine's
            deterministic order.
        protocol: The protocol under verification.
        successor: Function computing the successor handle of an execution;
            results are memoised per frame so calling it is cheap.
        on_stack: True for successor handles currently on the DFS stack;
            used for the cycle (stack) proviso.
        pending_senders: For a transition declaration index, the senders of
            the messages pending in ``state`` that the transition could
            consume (recipient, message type and allowed senders match).
        engine: The successor engine driving the search (object or packed).
    """

    state: Any
    enabled: Tuple[Execution, ...]
    protocol: Protocol
    successor: Callable[[Execution], Any]
    on_stack: Callable[[Any], bool]
    pending_senders: Callable[[int], FrozenSet[str]]
    engine: Any = None


def object_pending_senders(protocol: Protocol, state: GlobalState) -> Callable[[int], FrozenSet[str]]:
    """The object engines' ``ReductionContext.pending_senders``."""
    transitions = protocol.transitions
    network = state.network

    def pending_senders(index: int) -> FrozenSet[str]:
        spec = transitions[index]
        allowed = spec.effective_senders()
        return frozenset(
            message.sender
            for message in network.pending_for(spec.process_id, mtype=spec.message_type)
            if allowed is None or message.sender in allowed
        )

    return pending_senders


#: A reducer maps a reduction context to the subset of executions to explore:
#: elements of ``context.enabled`` itself, which the packed engines map back
#: by identity.
Reducer = Callable[[ReductionContext], Tuple[Execution, ...]]


@dataclass
class SearchOutcome:
    """Raw outcome of a search, converted to a CheckResult by the facade.

    ``incomplete_reason`` distinguishes *why* an incomplete search stopped
    when the cause is not an ordinary budget: ``"worker crash"`` for an
    unrecovered worker death (partial statistics are still reported),
    ``"cancelled"`` for a preempted service job.  ``None`` otherwise.
    """

    verified: bool
    complete: bool
    counterexample: Optional[Counterexample]
    statistics: SearchStatistics
    deadlock_states: int = 0
    incomplete_reason: Optional[str] = None


@dataclass
class _Frame:
    """One entry of the explicit DFS stack."""

    state: GlobalState
    pending: Tuple[Execution, ...]
    next_index: int = 0
    via: Optional[Execution] = None
    successors: dict = field(default_factory=dict)


def _memoised_successor(engine: SuccessorEngine, frame: _Frame) -> Callable[[Execution], GlobalState]:
    """Per-frame successor memo, freed when the frame is popped.

    Keeps the proviso-check -> expansion reuse without retaining every edge
    for the whole search, which matters when the engine itself runs with
    its global caches disabled (stateful searches, see
    :meth:`SuccessorEngine.for_search`).
    """

    def compute(execution: Execution) -> GlobalState:
        cached = frame.successors.get(execution)
        if cached is None:
            cached = engine.successor(frame.state, execution)
            frame.successors[execution] = cached
        return cached

    return compute


def _path_from_stack(stack: List[_Frame], final: Optional[Tuple[Execution, GlobalState]],
                     property_name: str) -> Counterexample:
    """Rebuild the violating path from the DFS stack (plus the final step)."""
    initial = stack[0].state
    steps = []
    for frame in stack[1:]:
        steps.append(Step(execution=frame.via, state=frame.state))
    if final is not None:
        execution, state = final
        steps.append(Step(execution=execution, state=state))
    return Counterexample(initial_state=initial, steps=tuple(steps),
                          property_name=property_name)


def _fastpath_requested(
    config: SearchConfig, engine: Optional[SuccessorEngine], target: str
) -> bool:
    """Validate the ``successor_engine`` knob; True when the packed fast
    path (:mod:`repro.fastpath`) should run instead of this module."""
    if config.successor_engine == "object":
        return False
    if config.successor_engine != "fast":
        raise ValueError(
            f"unknown successor_engine {config.successor_engine!r} "
            "(expected 'object' or 'fast')"
        )
    if engine is not None:
        raise ValueError(
            "successor_engine='fast' compiles its own engine; pass a "
            f"FastSuccessorEngine to repro.fastpath.{target} instead"
        )
    return True


def _reject_checkpoint_knobs(config: SearchConfig, engine_name: str) -> None:
    """Depth-first engines have no level barrier to serialise; reject the
    checkpoint knobs loudly instead of silently not checkpointing."""
    if config.checkpoint_dir is not None or config.resume_from is not None:
        raise ValueError(
            f"{engine_name} does not support checkpoint/resume: only "
            "breadth-first searches have the level barrier the checkpoint "
            "format captures (use shape='bfs' or 'frontier')"
        )


def _maybe_span(telemetry, name: str, **attrs):
    """Phase span when telemetry is attached, else a no-op context.

    Local twin of :func:`repro.obs.telemetry.maybe_span`: the search
    engines must not import :mod:`repro.obs` at module scope (the engine
    package imports this module while initialising).
    """
    if telemetry is None:
        return nullcontext()
    return telemetry.span(name, **attrs)


def dfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[SearchConfig] = None,
    reducer: Optional[Reducer] = None,
    engine: Optional[SuccessorEngine] = None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Explore the state space depth-first and check an invariant.

    Args:
        protocol: The protocol instance to explore.
        invariant: The invariant to check in every reachable state.
        config: Search configuration; defaults to exhaustive stateful search.
        reducer: Optional partial-order reducer; ``None`` explores every
            enabled execution (unreduced search).
        engine: Optional pre-built successor engine (e.g. to share caches
            across several searches of the same protocol).
        observer: Optional event observer; receives periodic ``progress``
            ticks and ``violation-found`` events.
        telemetry: Optional :class:`~repro.obs.telemetry.RunTelemetry`;
            receives store-occupancy metrics at phase boundaries (never
            written per state).

    Returns:
        A :class:`SearchOutcome` with verdict, counterexample and statistics.
    """
    config = config or SearchConfig()
    _reject_checkpoint_knobs(config, "dfs_search")
    if _fastpath_requested(config, engine, "fast_dfs_search"):
        # Imported lazily: repro.fastpath builds on this module.
        from ..fastpath.search import fast_dfs_search

        return fast_dfs_search(protocol, invariant, config, reducer=reducer,
                               observer=observer, telemetry=telemetry)
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is not None and engine.protocol is not protocol:
        raise ValueError("successor engine was built for a different protocol")
    engine = engine or SuccessorEngine.for_search(
        protocol, config.stateful, max_cache_entries=config.engine_cache_capacity
    )
    store: StateStore = make_state_store(
        config.state_store if config.stateful else "none",
        shards=config.state_store_shards,
    )
    initial = engine.initial_state()
    store.add(initial)
    statistics.states_visited = 1

    counterexample: Optional[Counterexample] = None
    verified = True
    complete = True
    deadlock_states = 0

    if not invariant.holds_in(initial, protocol):
        counterexample = Counterexample(initial_state=initial, steps=(),
                                        property_name=invariant.name)
        verified = False
        emit(observer, "violation-found", states_visited=1, depth=0)
        if config.stop_at_first_violation:
            statistics.elapsed_seconds = time.perf_counter() - start_time
            if telemetry is not None:
                telemetry.record_store(store)
            return SearchOutcome(False, False, counterexample, statistics)

    on_stack_states = {initial}

    def expand(frame_state: GlobalState, frame: _Frame) -> Tuple[Execution, ...]:
        """Compute the (possibly reduced) executions to explore from a state."""
        enabled = engine.enabled(frame_state)
        statistics.enabled_set_computations += 1
        if config.check_deadlocks and not enabled:
            nonlocal deadlock_states
            deadlock_states += 1
        if reducer is None or len(enabled) <= 1:
            statistics.full_expansions += 1
            return enabled
        context = ReductionContext(
            state=frame_state,
            enabled=enabled,
            protocol=protocol,
            successor=_memoised_successor(engine, frame),
            on_stack=lambda state: state in on_stack_states,
            pending_senders=object_pending_senders(protocol, frame_state),
            engine=engine,
        )
        reduced = reducer(context)
        if len(reduced) < len(enabled):
            statistics.reduced_expansions += 1
        else:
            statistics.full_expansions += 1
        return reduced

    root = _Frame(state=initial, pending=())
    root.pending = expand(initial, root)
    stack: List[_Frame] = [root]

    while stack:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                complete = False
                break
        frame = stack[-1]
        if frame.next_index >= len(frame.pending):
            stack.pop()
            on_stack_states.discard(frame.state)
            continue
        execution = frame.pending[frame.next_index]
        frame.next_index += 1

        successor = frame.successors.get(execution)
        if successor is None:
            successor = engine.successor(frame.state, execution)
        statistics.transitions_executed += 1

        if config.stateful:
            if not store.add(successor):
                statistics.revisits += 1
                continue
            statistics.states_visited = len(store)
        else:
            if successor in on_stack_states:
                statistics.revisits += 1
                continue
            statistics.states_visited += 1
        if observer is not None and statistics.states_visited % PROGRESS_INTERVAL == 0:
            emit(observer, "progress", states_visited=statistics.states_visited,
                 transitions_executed=statistics.transitions_executed)

        if not invariant.holds_in(successor, protocol):
            verified = False
            counterexample = _path_from_stack(stack, (execution, successor), invariant.name)
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            if config.stop_at_first_violation:
                complete = False
                break

        if config.max_states is not None and statistics.states_visited >= config.max_states:
            complete = False
            break
        if config.max_depth is not None and len(stack) > config.max_depth:
            complete = False
            continue

        child = _Frame(state=successor, pending=(), via=execution)
        child.pending = expand(successor, child)
        stack.append(child)
        on_stack_states.add(successor)
        statistics.max_depth = max(statistics.max_depth, len(stack) - 1)

    statistics.elapsed_seconds = time.perf_counter() - start_time
    if telemetry is not None:
        telemetry.record_store(store)
    return SearchOutcome(
        verified=verified,
        complete=complete and verified if config.stop_at_first_violation else complete,
        counterexample=counterexample,
        statistics=statistics,
        deadlock_states=deadlock_states,
    )


def bfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[SearchConfig] = None,
    engine: Optional[SuccessorEngine] = None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Breadth-first stateful search; finds shortest counterexamples.

    Partial-order reduction is not supported here (the cycle proviso relies
    on a DFS stack); the breadth-first engine exists for debugging, where a
    shortest violating path is often easier to read.  The optional
    ``observer`` receives one ``level-completed`` event per frontier level
    plus ``violation-found`` events.
    """
    config = config or SearchConfig()
    if _fastpath_requested(config, engine, "fast_bfs_search"):
        if config.checkpoint_dir is not None or config.resume_from is not None:
            raise ValueError(
                "checkpoint/resume is not supported by the packed fast "
                "path; run with successors='object'"
            )
        # Imported lazily: repro.fastpath builds on this module.
        from ..fastpath.search import fast_bfs_search

        return fast_bfs_search(protocol, invariant, config, observer=observer,
                               telemetry=telemetry)
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is not None and engine.protocol is not protocol:
        raise ValueError("successor engine was built for a different protocol")
    engine = engine or SuccessorEngine.for_search(protocol, stateful=True)
    initial = engine.initial_state()
    store = make_state_store(config.state_store, shards=config.state_store_shards)

    # Parent edges: state -> None (initial) or (predecessor, execution,
    # exec_index).  The execution slot is None for edges restored from a
    # checkpoint; ``rebuild`` recomputes it from the index on demand
    # (enabled order is deterministic), so executions never need pickling.
    if config.resume_from is not None:
        from .checkpoint import CheckpointError, load_checkpoint

        resumed = load_checkpoint(config.resume_from)
        states = resumed.states
        if not states or states[0] != initial:
            raise CheckpointError(
                f"cannot resume from {config.resume_from!r}: its initial "
                "state does not match the protocol under check (was the "
                "checkpoint written for a different model?)"
            )
        for state in states:
            store.add(state)
        parents = {}
        for index, edge in enumerate(resumed.edges):
            if edge is None:
                parents[states[index]] = None
            else:
                parent_index, exec_index = edge
                parents[states[index]] = (states[parent_index], None, exec_index)
        statistics = resumed.statistics
        statistics.states_visited = len(store)
        frontier = [states[index] for index in resumed.frontier]
        depth = resumed.depth
        # Shift the clock back so elapsed/budget accounting spans the
        # whole run, not just the resumed leg.
        start_time = time.perf_counter() - statistics.elapsed_seconds
    else:
        store.add(initial)
        statistics.states_visited = 1
        parents = {initial: None}
        frontier = [initial]
        depth = 0

    counterexample: Optional[Counterexample] = None
    verified = True
    complete = True
    peak_frontier = max(1, len(frontier))
    checkpoint_interval = max(1, config.checkpoint_every or 1)

    def write_level_checkpoint() -> None:
        from .checkpoint import Checkpoint, write_checkpoint

        states = list(parents.keys())
        index_of = {state: index for index, state in enumerate(states)}
        edges = []
        for state in states:
            edge = parents[state]
            if edge is None:
                edges.append(None)
            else:
                predecessor, _execution, exec_index = edge
                edges.append((index_of[predecessor], exec_index))
        statistics.elapsed_seconds = time.perf_counter() - start_time
        path = write_checkpoint(
            Checkpoint(
                depth=depth,
                statistics=statistics,
                states=states,
                edges=edges,
                frontier=[index_of[state] for state in frontier],
                meta={"property": invariant.name, "engine": "bfs"},
            ),
            config.checkpoint_dir,
        )
        emit(observer, "checkpoint-written", depth=depth,
             states_visited=statistics.states_visited, path=path)

    def record_telemetry() -> None:
        if telemetry is None:
            return
        telemetry.record_store(store)
        telemetry.metrics.gauge(
            "frontier_peak", "largest BFS frontier level"
        ).set(peak_frontier)

    def rebuild(state: GlobalState) -> Counterexample:
        steps = []
        cursor = state
        while parents[cursor] is not None:
            predecessor, execution, exec_index = parents[cursor]
            if execution is None:  # edge restored from a checkpoint
                execution = engine.enabled(predecessor)[exec_index]
            steps.append(Step(execution=execution, state=cursor))
            cursor = predecessor
        steps.reverse()
        return Counterexample(initial_state=initial, steps=tuple(steps),
                              property_name=invariant.name)

    if config.resume_from is None and not invariant.holds_in(initial, protocol):
        emit(observer, "violation-found", states_visited=1, depth=0)
        statistics.elapsed_seconds = time.perf_counter() - start_time
        record_telemetry()
        return SearchOutcome(False, False, rebuild(initial), statistics)

    while frontier:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                complete = False
                break
        if config.max_depth is not None and depth >= config.max_depth:
            complete = False
            break
        next_frontier = []
        for state in frontier:
            enabled = engine.enabled(state)
            statistics.enabled_set_computations += 1
            statistics.full_expansions += 1
            for exec_index, execution in enumerate(enabled):
                successor = engine.successor(state, execution)
                statistics.transitions_executed += 1
                if not store.add(successor):
                    statistics.revisits += 1
                    continue
                statistics.states_visited = len(store)
                parents[successor] = (state, execution, exec_index)
                if not invariant.holds_in(successor, protocol):
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
        # Count only levels that discovered states: ``max_depth`` is the
        # depth (in edges) of the deepest state found, matching the DFS
        # engines; the final empty level is bookkeeping, not depth.
        if frontier:
            statistics.max_depth = max(statistics.max_depth, depth)
            emit(observer, "level-completed", depth=depth,
                 new_states=len(frontier),
                 states_visited=statistics.states_visited)
            if config.checkpoint_dir is not None and depth % checkpoint_interval == 0:
                write_level_checkpoint()

    statistics.elapsed_seconds = time.perf_counter() - start_time
    record_telemetry()
    return SearchOutcome(verified=verified, complete=complete,
                         counterexample=counterexample, statistics=statistics)


def ndfs_search(
    protocol: Protocol,
    prop,
    config: Optional[SearchConfig] = None,
    reducer: Optional[Reducer] = None,
    engine: Optional[SuccessorEngine] = None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Nested depth-first search for acceptance cycles (liveness checking).

    Checks an :class:`~repro.checker.property.Eventually` goal (or any
    duck-typed property exposing ``prunes``/``accepting`` hooks) with the
    classic CVWY nested DFS as refined by Schwoon–Esparza: a *blue* DFS
    explores the reachable graph, keeping the current stack *cyan*; when an
    accepting state is about to be popped (postorder), a *red* DFS searches
    its closure for a cyan state, which closes an accepting cycle through
    the stack.  The blue phase additionally reports a violation early when
    an edge hits a cyan state and either endpoint is accepting — for
    ``Eventually`` goals (where every non-pruned state is accepting) that
    early check alone finds every cycle, and the red phase only fires for
    generic acceptance predicates.

    Semantics of a violation: a *lasso* (stem + cycle) along which the goal
    never holds, or — under stutter-extension semantics — a terminal
    accepting state (the run ends without reaching the goal; encoded as an
    empty cycle).  States satisfying the goal prune their subtrees: the
    monitor automaton for ``not eventually p`` dies at a ``p``-state.

    Partial-order reduction is not supported: the stubborn-set cycle
    proviso is a property of one DFS stack, and the nested search walks the
    graph twice with different stacks — pass ``reducer=None`` (anything
    else raises).  The search is stateful by construction (blue/red marks
    are the algorithm), so ``config.stateful`` must be True; the store kind
    chooses between exact state keys (``"full"``) and fingerprint keys
    (``"fingerprint"`` / ``"sharded-fingerprint"``, the usual collision
    trade-off).

    Always stops at the first violation (one lasso is a complete refutation;
    ``stop_at_first_violation=False`` does not change that).
    """
    config = config or SearchConfig()
    _reject_checkpoint_knobs(config, "ndfs_search")
    if reducer is not None:
        raise ValueError(
            "nested DFS does not support partial-order reduction: the "
            "stubborn-set cycle proviso is defined over a single DFS "
            "stack, which the nested search does not have; run the "
            "liveness check unreduced"
        )
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
    if _fastpath_requested(config, engine, "fast_ndfs_search"):
        # Imported lazily: repro.fastpath builds on this module.
        from ..fastpath.search import fast_ndfs_search

        return fast_ndfs_search(protocol, prop, config, observer=observer,
                                telemetry=telemetry)

    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is not None and engine.protocol is not protocol:
        raise ValueError("successor engine was built for a different protocol")
    engine = engine or SuccessorEngine.for_search(
        protocol, config.stateful, max_cache_entries=config.engine_cache_capacity
    )

    exact = config.state_store == "full"

    def key(state: GlobalState):
        return state if exact else state.fingerprint()

    def prunes(state: GlobalState) -> bool:
        return bool(prop.prunes(state, protocol))

    def accepting(state: GlobalState) -> bool:
        return bool(prop.accepting(state, protocol))

    def expand(state: GlobalState) -> Tuple[Execution, ...]:
        enabled = engine.enabled(state)
        statistics.enabled_set_computations += 1
        statistics.full_expansions += 1
        return enabled

    initial = engine.initial_state()
    discovered = {key(initial)}
    statistics.states_visited = 1

    if prunes(initial):
        # The goal already holds initially; every run satisfies it.
        statistics.elapsed_seconds = time.perf_counter() - start_time
        return SearchOutcome(True, True, None, statistics)

    cyan = {key(initial)}
    blue = set()
    red = set()
    complete = True

    def lasso(stack: List[_Frame], final: Tuple[Execution, GlobalState],
              extra: List[_Frame], cycle_key) -> Counterexample:
        """Build a lasso counterexample: blue-stack stem (+ optional red-path
        frames) + the closing edge; the cycle starts where ``cycle_key``
        first appears on the blue stack."""
        steps = [Step(execution=frame.via, state=frame.state)
                 for frame in stack[1:]]
        steps.extend(Step(execution=frame.via, state=frame.state)
                     for frame in extra)
        execution, state = final
        steps.append(Step(execution=execution, state=state))
        path_states = [stack[0].state] + [frame.state for frame in stack[1:]]
        cycle_start = next(
            index for index, path_state in enumerate(path_states)
            if key(path_state) == cycle_key
        )
        return Counterexample(
            initial_state=stack[0].state, steps=tuple(steps),
            property_name=prop.name, cycle_start=cycle_start,
        )

    def stutter(stack: List[_Frame],
                final: Optional[Tuple[Execution, GlobalState]]) -> Counterexample:
        """A terminal accepting state: a lasso with an empty cycle."""
        steps = [Step(execution=frame.via, state=frame.state)
                 for frame in stack[1:]]
        if final is not None:
            execution, state = final
            steps.append(Step(execution=execution, state=state))
        return Counterexample(
            initial_state=stack[0].state, steps=tuple(steps),
            property_name=prop.name, cycle_start=len(steps),
        )

    def red_search(stack: List[_Frame]) -> Optional[Counterexample]:
        """Red DFS from the accepting seed at the top of the blue stack,
        looking for any cyan state (which closes a cycle through the
        stack).  Red marks persist across seeds, keeping the nested search
        linear overall."""
        seed = stack[-1]
        red_stack = [_Frame(state=seed.state, pending=expand(seed.state))]
        while red_stack:
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    return None  # caller notices the elapsed budget
            frame = red_stack[-1]
            if frame.next_index >= len(frame.pending):
                red_stack.pop()
                continue
            execution = frame.pending[frame.next_index]
            frame.next_index += 1
            successor = engine.successor(frame.state, execution)
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
                # Dead monitor: no accepting run continues through here.
                red.add(skey)
                continue
            red.add(skey)
            child = _Frame(state=successor, pending=expand(successor),
                           via=execution)
            red_stack.append(child)
        red.add(key(seed.state))
        return None

    def finish(verified: bool, is_complete: bool,
               counterexample: Optional[Counterexample]) -> SearchOutcome:
        statistics.elapsed_seconds = time.perf_counter() - start_time
        if telemetry is not None:
            telemetry.metrics.gauge(
                "state_store_size", "visited states/fingerprints held"
            ).set(len(discovered))
            telemetry.metrics.gauge(
                "ndfs_red_states", "states marked red by the nested search"
            ).set(len(red))
        return SearchOutcome(verified, is_complete, counterexample, statistics)

    root = _Frame(state=initial, pending=expand(initial))
    stack: List[_Frame] = [root]
    if not root.pending and accepting(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        return finish(False, False, stutter(stack, None))

    while stack:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                return finish(True, False, None)
        frame = stack[-1]
        if frame.next_index >= len(frame.pending):
            if accepting(frame.state):
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
            cyan.discard(key(frame.state))
            blue.add(key(frame.state))
            continue
        execution = frame.pending[frame.next_index]
        frame.next_index += 1

        successor = engine.successor(frame.state, execution)
        statistics.transitions_executed += 1
        skey = key(successor)

        if skey in cyan and (accepting(frame.state) or accepting(successor)):
            # Early (blue-phase) detection: the edge closes a cycle through
            # the cyan stack and the cycle contains an accepting state.
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
            # Goal reached: the monitor dies, the subtree needs no visit.
            blue.add(skey)
            continue
        if config.max_states is not None and statistics.states_visited >= config.max_states:
            return finish(True, False, None)
        if config.max_depth is not None and len(stack) > config.max_depth:
            complete = False
            continue

        child = _Frame(state=successor, pending=(), via=execution)
        child.pending = expand(successor)
        if not child.pending and accepting(successor):
            # Terminal state that never reached the goal: under
            # stutter-extension semantics the run loops here forever.
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            return finish(False, False, stutter(stack, (execution, successor)))
        stack.append(child)
        cyan.add(skey)
        statistics.max_depth = max(statistics.max_depth, len(stack) - 1)

    return finish(True, complete, None)
