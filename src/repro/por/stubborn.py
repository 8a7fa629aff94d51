"""Static partial-order reduction via stubborn sets (the LPOR analogue).

The provider below computes, for every expanded state, a *stubborn set* of
transitions whose enabled executions are the only ones explored.  Following
MP-LPOR (Section IV), the dependence information is pre-computed and
state-unconditional; the per-state work is a closure over table lookups plus
a cheap inspection of the pending messages.

The provider never reads a state directly.  It sees each state through the
search's :class:`~repro.checker.search.ReductionContext`, a *state view*
with three questions: which senders have messages pending for a transition
(``pending_senders``), what the successor of an execution is, and whether
that successor is on the DFS stack.  The object engines answer them from
:class:`~repro.mp.state.GlobalState`; the packed fast path answers them from
packed words, so one closure serves both engines with no decoding.  The
closure itself runs on transition declaration indices (the same in both
engines), as bit masks: the dependence tables are lowered to masks once
per provider, the transitions are ranked by the seed heuristic once, and
the necessary enabling sets are memoised per ``(transition index, pending
senders)``.  The reduced executions keep name order.

Construction (weak stubborn-set closure, specialised to message passing):

1. Seed the set with one enabled transition chosen by the seed heuristic.
2. For every *enabled* transition in the set, add every transition that
   *interferes* with it — transitions of the same process and spec-read
   conflicts.  In the message-passing computation model transitions of
   different processes otherwise commute and cannot disable each other, so
   nothing else is needed for enabled members, and every enabled member is a
   valid key transition (its enabledness cannot be destroyed from outside).
3. For every *disabled* transition in the set, add a **necessary enabling
   set**: a set of transitions such that the disabled transition cannot
   become enabled before one of them fires.

   * With the NET optimisation (``use_net=True``, the LPOR-NET analogue) the
     set is computed per state: if the transition still lacks messages from
     some senders, only the enabler transitions of the *missing* senders are
     added.  This is exactly where transition refinement pays off — a
     quorum-split transition restricts the missing senders to its quorum
     peers, and a reply-split transition names the single peer that can feed
     it (Sections III-C and III-D).
   * Without NET the handling is coarse: all statically possible enablers
     (ignoring refinement restrictions) plus the interfering transitions are
     added, mirroring the paper's remark that LPOR and LPOR-NET coincide
     when no quorum information is available.
   * If the transition is disabled even though enough messages are pending
     (its guard rejects them), the per-state reasoning does not apply and
     the coarse handling is used for that transition.
4. Apply the visibility condition and the cycle (stack) proviso; if either
   fails, fall back to full expansion for this state, which keeps invariant
   checking sound.

   The proviso implemented here is the *strong* stack proviso: a strictly
   reduced set is only kept when **no** explored execution leads back to a
   state on the current DFS stack.  Ignoring-prevention argument: suppose a
   transition ``t`` enabled somewhere on a cycle were ignored forever.  Every
   state of the cycle would then have been expanded with a strict subset, so
   each one had a successor off the stack at the time it was expanded — but
   the state of the cycle that the DFS *pops first* has, at pop time, all of
   its cycle-successors already on the stack (they are its DFS ancestors),
   which the proviso forbids: that state was fully expanded, contradicting
   the assumption.  Hence along every cycle at least one state is fully
   expanded and every enabled transition is eventually explored.  On acyclic
   state graphs no successor can sit on the stack, so the strong proviso
   degenerates to a no-op and reduction is exactly what the weak proviso
   gave; on cyclic graphs (e.g. the crash-recovery protocols) it is what
   makes serial SPOR sound.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce as fold
from itertools import compress
from operator import attrgetter, or_
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from ..checker.search import ReductionContext, object_pending_senders
from ..mp.protocol import Protocol
from ..mp.state import GlobalState
from ..mp.transition import Execution, TransitionSpec
from .dependence import DependenceRelation
from .seed import SeedHeuristic, opposite_transaction_seed

#: ``pending_senders`` of a state view: transition index -> pending senders.
PendingSenders = Callable[[int], FrozenSet[str]]

_transition_name = attrgetter("transition.name")


def _indices(mask: int) -> Tuple[int, ...]:
    """The transition indices of a bit mask, ascending."""
    return tuple(index for index in range(mask.bit_length()) if mask >> index & 1)


class StubbornSetProvider:
    """Computes stubborn sets for the DFS of :mod:`repro.checker.search`.

    Sets of transitions are bit masks over transition declaration indices.
    """

    def __init__(
        self,
        protocol: Protocol,
        dependence: Optional[DependenceRelation] = None,
        seed_heuristic: Optional[SeedHeuristic] = None,
        use_net: bool = True,
        memo_capacity: Optional[int] = None,
    ) -> None:
        self.protocol = protocol
        self.dependence = dependence or DependenceRelation.precompute(protocol)
        self.seed_heuristic = seed_heuristic or opposite_transaction_seed
        self.use_net = use_net
        self.memo_capacity = memo_capacity
        transitions = protocol.transitions
        self._names: Tuple[str, ...] = tuple(t.name for t in transitions)
        bit_of = self._bit_of = {name: 1 << index for index, name in enumerate(self._names)}

        def mask_of(names: Iterable[str]) -> int:
            return fold(or_, map(bit_of.__getitem__, names), 0)

        dependence = self.dependence
        self._interference = tuple(map(mask_of, map(dependence.interferes_with, self._names)))
        self._enablers = tuple(map(mask_of, map(dependence.necessary_enablers_of, self._names)))
        self._enablers_by_sender = tuple(
            {sender: mask_of(values)
             for sender, values in dependence.enablers_by_sender.get(name, {}).items()}
            for name in self._names
        )
        #: Conservative additions of a disabled member (the non-NET path).
        self._coarse = tuple(
            interfering | mask_of(dependence.coarse_enablers_of(name))
            for interfering, name in zip(self._interference, self._names)
        )
        #: Everything a disabled member's necessary enabling set may add.
        self._possible = tuple(
            coarse | enablers for coarse, enablers in zip(self._coarse, self._enablers)
        )
        self._allowed = tuple(t.effective_senders() for t in transitions)
        self._quorum_size = tuple(t.quorum.size for t in transitions)
        self._visible = mask_of(t.name for t in transitions if t.annotation.visible)
        #: Transition bit -> rank under the seed heuristic (see
        #: :meth:`_rank_seeds`).
        self._seed_rank_of = self._rank_seeds(transitions)
        #: ``(index, pending senders) -> additions`` of the NET path.  The
        #: pending senders are a subset of the transition's candidate
        #: senders, so the table is bounded by the protocol, not by the state
        #: space; an LRU of ``memo_capacity`` entries when that is set.
        self._net_memo: "OrderedDict[Tuple[int, FrozenSet[str]], int]" = OrderedDict()
        #: How many times the provider returned a strict subset / fell back.
        self.reduced_states = 0
        self.fallback_states = 0

    # ------------------------------------------------------------------ #
    # Necessary enabling sets
    # ------------------------------------------------------------------ #
    def _disabled_additions(self, index: int, pending_senders: PendingSenders) -> int:
        """Necessary enabling set of the disabled transition ``index``.

        If the transition still lacks messages from some candidate senders,
        any path enabling it must first deliver a message from one of the
        missing senders, so the enabler transitions of those senders form a
        valid necessary enabling set.  Otherwise (enough messages are
        pending but the guard rejects them, or the sender set is unknown)
        the coarse handling is used.  The result depends on the state only
        through the pending senders, so it is memoised on them.
        """
        if not self.use_net:
            return self._coarse[index]
        key = (index, pending_senders(index))
        memo = self._net_memo
        additions = memo.get(key)
        if additions is None:
            additions = memo[key] = self._net_additions(*key)
            if self.memo_capacity is not None and len(memo) > self.memo_capacity:
                memo.popitem(last=False)
        elif self.memo_capacity is not None:
            memo.move_to_end(key)
        return additions

    def _net_additions(self, index: int, pending: FrozenSet[str]) -> int:
        if len(pending) >= self._quorum_size[index]:
            # Enough distinct senders are already pending; the transition is
            # disabled for guard/content reasons the static tables cannot
            # explain, so fall back to the conservative handling.
            return self._coarse[index]
        allowed = self._allowed[index]
        if allowed is None:
            # Sender set unknown: any process might provide the missing message.
            return self._enablers[index]
        by_sender = self._enablers_by_sender[index]
        additions = 0
        for sender in allowed - pending:
            additions |= by_sender.get(sender, 0)
        return additions

    def _necessary_enabling_set(self, state: GlobalState, spec: TransitionSpec) -> Tuple[str, ...]:
        """Object-view wrapper: the necessary enabling set of a disabled
        transition in ``state``, as names (tests and inspection)."""
        additions = self._disabled_additions(
            self._bit_of[spec.name].bit_length() - 1,
            object_pending_senders(self.protocol, state),
        )
        return tuple(self._names[index] for index in _indices(additions))

    # ------------------------------------------------------------------ #
    # Closure
    # ------------------------------------------------------------------ #
    def _closure(self, pending_senders: PendingSenders, seed: int, enabled: int) -> int:
        """The stubborn set grown from the ``seed`` transition (a one-bit mask).

        ``enabled`` is the mask of enabled transitions.  Enabled members
        add their interfering transitions.  Disabled members are taken once
        no enabled member is left to process; a disabled member whose
        possible additions are all in the closure already is dropped without
        reading the state.  The closure is a fixpoint, so the processing
        order does not change the result.
        """
        interference = self._interference
        possible = self._possible
        closure = todo = seed
        while todo:
            member = todo & enabled or todo
            member &= -member
            todo ^= member
            index = member.bit_length() - 1
            if member & enabled:
                additions = interference[index]
            elif possible[index] & ~closure:
                additions = self._disabled_additions(index, pending_senders)
            else:
                continue
            fresh = additions & ~closure
            closure |= fresh
            todo |= fresh
        return closure

    def stubborn_names(self, state: GlobalState, seed_name: str,
                       enabled_names: frozenset) -> frozenset:
        """Object-view wrapper around the closure, as names (tests and
        inspection)."""
        bit_of = self._bit_of
        closure = self._closure(
            object_pending_senders(self.protocol, state),
            bit_of[seed_name],
            fold(or_, (bit_of[name] for name in enabled_names), 0),
        )
        return frozenset(self._names[index] for index in _indices(closure))

    def _rank_seeds(self, transitions: Iterable[TransitionSpec]) -> Dict[int, int]:
        """Rank the transitions by the seed heuristic: its choice among all
        of them first, then its choice among the rest, and so on.

        A seed heuristic chooses by transition (see
        :data:`repro.por.seed.SeedHeuristic`), so its choice among a state's
        enabled executions is the enabled transition of least rank; the
        heuristic runs here, once per transition, instead of once per state.
        """
        candidates = [Execution(transition, ()) for transition in transitions]
        rank_of: Dict[int, int] = {}
        while candidates:
            best = self.seed_heuristic(candidates)
            candidates.remove(best)
            rank_of[self._bit_of[best.transition.name]] = len(rank_of)
        return rank_of

    # ------------------------------------------------------------------ #
    # Reducer interface
    # ------------------------------------------------------------------ #
    def reduce(self, context: ReductionContext) -> Tuple[Execution, ...]:
        """Return the executions to explore from ``context.state``."""
        enabled = context.enabled
        if len(enabled) <= 1:
            return enabled

        bit_of = self._bit_of
        bits = tuple(map(bit_of.__getitem__, map(_transition_name, enabled)))
        enabled_mask = fold(or_, bits)
        if not enabled_mask & (enabled_mask - 1):
            # A single (possibly non-deterministic) transition: no reduction.
            return enabled

        seed = min(bits, key=self._seed_rank_of.__getitem__)
        chosen = enabled_mask & self._closure(context.pending_senders, seed, enabled_mask)
        # Visibility condition (ample-set condition C2): a strictly reduced
        # set must not contain property-visible transitions.
        if chosen == enabled_mask or chosen & self._visible:
            self.fallback_states += 1
            return enabled

        # Transitions in name order, each one's executions in enabled order
        # (the sort is stable).
        reduced = tuple(compress(enabled, map(chosen.__and__, bits)))
        if chosen & (chosen - 1):
            reduced = tuple(sorted(reduced, key=_transition_name))

        # Cycle (stack) proviso (condition C3): if any explored execution
        # closes a cycle back onto the current DFS stack, expand the state
        # fully.  This is the strong stack proviso — sound on cyclic state
        # graphs, not just acyclic ones; see the module docstring for the
        # ignoring-prevention argument.  On acyclic graphs no successor is
        # ever on the stack, so the check never fires and reduction counts
        # are unchanged.  ``context.successor`` is memoised per frame, so
        # the states computed here are reused when the DFS expands them.
        successor = context.successor
        on_stack = context.on_stack
        for execution in reduced:
            if on_stack(successor(execution)):
                self.fallback_states += 1
                return enabled

        self.reduced_states += 1
        return reduced
