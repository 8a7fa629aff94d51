"""Property tests: one stubborn-set reducer, two state views.

The stubborn-set provider never reads a state directly; it asks the search's
:class:`~repro.checker.search.ReductionContext`.  The object engines answer
from :class:`~repro.mp.state.GlobalState`, the packed engines from packed
words (:func:`repro.fastpath.search.reduce_packed`).  Along seeded random
walks through real protocols, for both ``use_net`` values and every named
seed heuristic, the two views must make the reducer return the same
executions in the same order and move its ``reduced_states`` /
``fallback_states`` counters identically.

The walk so far plays the DFS stack, so on the cyclic crash-recovery
protocol a walk that comes back to a state makes the stack proviso fire.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.search import ReductionContext, object_pending_senders
from repro.engine.plan import SEED_HEURISTICS
from repro.fastpath.compiler import FastSuccessorEngine
from repro.fastpath.search import reduce_packed
from repro.mp.semantics import SuccessorEngine
from repro.por.dependence import DependenceRelation
from repro.por.seed import make_seed_heuristic
from repro.por.stubborn import StubbornSetProvider
from repro.protocols.catalog import (
    crash_recovery_entry,
    multicast_entry,
    paxos_entry,
    storage_entry,
)

#: The walked models; built once — the walks only read them.
PROTOCOLS = {
    "paxos": paxos_entry(2, 2, 1).quorum_model(),
    "faulty-paxos": paxos_entry(2, 3, 1, faulty=True).quorum_model(),
    "multicast": multicast_entry(2, 1, 0, 1).quorum_model(),
    "storage": storage_entry(3, 1).quorum_model(),
    "crash-recovery": crash_recovery_entry(2, 1).quorum_model(),
}
DEPENDENCE = {name: DependenceRelation.precompute(p) for name, p in PROTOCOLS.items()}
FAST = {name: FastSuccessorEngine(p) for name, p in PROTOCOLS.items()}
OBJ = {name: SuccessorEngine.for_search(p, stateful=True) for name, p in PROTOCOLS.items()}

walks = st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=30)


def walk(name: str, use_net: bool, heuristic: str, choices) -> int:
    """Walk both views in lockstep; return how often the proviso saw a
    successor on the stack."""
    protocol, fast, obj = PROTOCOLS[name], FAST[name], OBJ[name]
    dependence = DEPENDENCE[name]

    def provider() -> StubbornSetProvider:
        return StubbornSetProvider(
            protocol, dependence, make_seed_heuristic(heuristic, dependence), use_net
        )

    object_view, packed_view = provider(), provider()
    state, packed = obj.initial_state(), fast.initial_packed()
    stack_states, stack_words = {state}, {packed[0]}
    proviso_hits = 0

    def on_stack_state(candidate) -> bool:
        nonlocal proviso_hits
        hit = candidate in stack_states
        proviso_hits += hit
        return hit

    for choice in choices:
        enabled = obj.enabled(state)
        if not enabled:
            break
        reduced = object_view.reduce(ReductionContext(
            state=state,
            enabled=enabled,
            protocol=protocol,
            successor=lambda execution, state=state: obj.successor(state, execution),
            on_stack=on_stack_state,
            pending_senders=object_pending_senders(protocol, state),
            engine=obj,
        ))
        packed_reduced = reduce_packed(
            packed_view.reduce, fast, packed, fast.enabled_packed(packed), {},
            lambda candidate: candidate[0] in stack_words,
        )
        assert tuple(map(fast.execution_of, packed_reduced)) == reduced
        assert (packed_view.reduced_states, packed_view.fallback_states) == (
            object_view.reduced_states, object_view.fallback_states,
        )
        # Step along any enabled execution: every reachable state is a
        # valid test point, and revisits are what exercise the proviso.
        position = choice % len(enabled)
        state = obj.successor(state, enabled[position])
        packed = fast.successor_packed(packed, fast.enabled_packed(packed)[position])
        assert fast.decode(packed) == state
        stack_states.add(state)
        stack_words.add(packed[0])
    return proviso_hits


@pytest.mark.parametrize("heuristic", SEED_HEURISTICS)
@pytest.mark.parametrize("use_net", [True, False], ids=["net", "coarse"])
@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(PROTOCOLS)), choices=walks)
def test_object_and_packed_views_reduce_identically(use_net, heuristic, name, choices):
    walk(name, use_net, heuristic, choices)


def test_stack_proviso_fires_identically_on_a_cyclic_protocol():
    rng = random.Random(7)
    choices = [rng.randrange(10 ** 6) for _ in range(200)]
    assert walk("crash-recovery", True, "opposite-transaction", choices) > 0
