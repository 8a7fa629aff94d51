"""The four benchmark workloads, their pinned results and their inputs.

Every workload runs paxos-2-3-1 or the Table I quorum catalog, exhaustively
and deterministically, so each check's verdict, ``states_visited``,
``transitions_executed`` and counterexample length are pinned below.  An
iteration whose results differ from the pins counts as failed.

Why these four (each stresses a different layer):

* ``paxos-unreduced`` -- the reference cell with no reduction, packed
  serial DFS, full store: successor, enabled-set and store do the work and
  the reducer does none.  Control for reducer changes, target for
  successor/store changes.
* ``paxos-spor`` -- the paper's headline configuration (Quorum SPOR-NET),
  packed serial DFS: the reduction bridge (``decode`` and ``por.reduce``)
  dominates.
* ``paxos-frontier`` -- the same cell unreduced on packed frontier BFS with
  forked workers: the only workload where IPC and barrier cost appear.
  Compare it with ``paxos-unreduced``, the fastest serial engine for the
  cell.
* ``table1-default`` -- the seven Table I quorum rows checked the way a user
  checks them, ``ModelChecker(...).run(Strategy.SPOR_NET)`` with default
  options, each counterexample replayed: the default plan, the object
  successor engine, counterexamples and replay.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: One pinned check: (row key, verified, states visited, transitions
#: executed, counterexample steps or None).
Pin = Tuple[str, bool, int, int, Optional[int]]

PAXOS_UNREDUCED: Pin = ("paxos-2-3-1", True, 27410, 94055, None)
PAXOS_SPOR: Pin = ("paxos-2-3-1", True, 4205, 7243, None)

#: The Table I quorum rows under SPOR-NET, in catalog order.
TABLE1_PINS: Tuple[Pin, ...] = (
    ("paxos-2-3-1", True, 4205, 7243, None),
    ("faulty-paxos-2-3-1", False, 309, 411, 18),
    ("multicast-3-0-1-1", True, 28, 47, None),
    ("multicast-2-1-0-1", True, 41, 84, None),
    ("multicast-2-1-2-1", False, 20, 19, 17),
    ("storage-3-1", True, 250, 350, None),
    ("storage-3-2-wrong", False, 2391, 4162, 15),
)

WORKLOAD_NAMES = ("paxos-unreduced", "paxos-spor", "paxos-frontier", "table1-default")


def usable_cores() -> int:
    """Cores this process may run on (the affinity mask where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass
class Check:
    """One check to run: a protocol instance, its property and its pin."""

    pin: Pin
    protocol: object
    invariant: object
    run: Callable[["Check"], object]


@dataclass
class Inputs:
    """A workload's generated inputs: the checks of one iteration."""

    workload: str
    seed: int
    checks: List[Check]

    @property
    def states_per_iteration(self) -> int:
        return sum(check.pin[2] for check in self.checks)


def _plan_runner(plan):
    from repro.engine.registry import run_plan

    def run(check: Check):
        return run_plan(check.protocol, check.invariant, plan)

    return run


def _default_runner(check: Check):
    from repro.checker import ModelChecker, Strategy

    return ModelChecker(check.protocol, check.invariant).run(Strategy.SPOR_NET)


def build(workload: str, seed: int) -> Inputs:
    """Import the checker and build the workload's protocols.

    This is the work ``setup_s`` times.  The seed permutes the row order of
    ``table1-default``; the single-cell workloads have one input each.
    """
    from repro.engine import CheckPlan
    from repro.protocols.catalog import (
        multicast_entry,
        paxos_entry,
        storage_entry,
    )

    if workload == "table1-default":
        entries = [
            paxos_entry(2, 3, 1),
            paxos_entry(2, 3, 1, faulty=True),
            multicast_entry(3, 0, 1, 1),
            multicast_entry(2, 1, 0, 1),
            multicast_entry(2, 1, 2, 1),
            storage_entry(3, 1),
            storage_entry(3, 2, wrong_specification=True),
        ]
        if [entry.key for entry in entries] != [pin[0] for pin in TABLE1_PINS]:
            raise RuntimeError("Table I catalog keys differ from the pinned rows")
        rows = list(zip(TABLE1_PINS, entries))
        random.Random(seed).shuffle(rows)
        checks = [Check(pin, entry.quorum_model(), entry.invariant, _default_runner)
                  for pin, entry in rows]
    else:
        entry = paxos_entry(2, 3, 1)
        if workload == "paxos-unreduced":
            pin, plan = PAXOS_UNREDUCED, CheckPlan(successors="fast")
        elif workload == "paxos-spor":
            pin, plan = PAXOS_SPOR, CheckPlan(reduction="spor-net", successors="fast")
        elif workload == "paxos-frontier":
            pin = PAXOS_UNREDUCED
            plan = CheckPlan(shape="bfs", store="sharded-fingerprint",
                             successors="fast", workers=min(2, usable_cores()))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        checks = [Check(pin, entry.quorum_model(), entry.invariant, _plan_runner(plan))]
    return Inputs(workload, seed, checks)


def run_check(check: Check) -> Tuple[Optional[str], object]:
    """Run one check and compare it with its pin.

    Returns ``(error, result)``: the error is None when the check matches.
    A counterexample is replayed against the same protocol instance that was
    checked (a freshly built instance interns different objects and so
    diverges at step 1).  Any exception counts as a failed check.
    """
    key, verified, states, transitions, ce_steps = check.pin
    try:
        result = check.run(check)
    except Exception as error:  # a crashing check is a failed check
        return f"{key}: {type(error).__name__}: {error}", None
    stats = result.statistics
    # A verified run must be complete; a violated one stops at the first
    # counterexample and so is not.
    got = (result.verified, result.complete, stats.states_visited, stats.transitions_executed)
    pinned = (verified, verified, states, transitions)
    error = None
    if got != pinned:
        error = f"{key}: got verified/complete/states/transitions {got}, pinned {pinned}"
    else:
        counterexample = result.counterexample
        steps = None if counterexample is None else len(counterexample.steps)
        if steps != ce_steps:
            error = f"{key}: counterexample steps {steps}, pinned {ce_steps}"
        elif counterexample is not None:
            try:
                counterexample.replay(check.protocol)
            except Exception as replay_error:
                error = f"{key}: replay failed: {replay_error}"
    return error, result
