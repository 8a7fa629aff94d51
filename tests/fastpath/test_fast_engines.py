"""The fast engines behind the plan layer: resolution, downgrades, CLI."""

from __future__ import annotations

import io
import multiprocessing
from functools import lru_cache

import pytest

from repro.cli import main
from repro.engine import CheckPlan, UnsupportedPlanError, default_registry, run_plan
from repro.engine.plan import SUCCESSOR_MODES
from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry
from repro.refine import combined_split, quorum_split, reply_split

FORK = "fork" in multiprocessing.get_all_start_methods()

FAST_NAMES = {
    "serial-dfs-fast", "serial-bfs-fast", "frontier-bfs-fast",
    "worksteal-dfs-fast",
}


class TestResolution:
    def test_vocabulary(self):
        assert SUCCESSOR_MODES == ("object", "fast")

    @pytest.mark.parametrize("plan,expected", [
        (CheckPlan(successors="fast"), "serial-dfs-fast"),
        (CheckPlan(successors="fast", reduction="spor"), "serial-dfs-fast"),
        (CheckPlan(successors="fast", shape="bfs"), "serial-bfs-fast"),
        (
            CheckPlan(successors="fast", shape="bfs", workers=4,
                      store="fingerprint"),
            "frontier-bfs-fast",
        ),
        (CheckPlan(successors="fast", workers=4), "worksteal-dfs-fast"),
        (
            CheckPlan(successors="fast", reduction="spor-net", workers=2),
            "worksteal-dfs-fast",
        ),
    ])
    def test_fast_plans_resolve_to_fast_engines(self, plan, expected):
        engine, resolved = default_registry().resolve(plan)
        assert engine.name == expected
        assert resolved.backend != "auto"

    def test_object_plans_never_reach_fast_engines(self):
        for engine, plan in default_registry().supported_plans():
            assert plan.successors == "object"
            assert engine.name not in FAST_NAMES

    def test_fast_plans_never_reach_object_engines(self):
        grid = default_registry().supported_plans(
            stores=("full", "fingerprint"),
            successor_modes=("fast",),
        )
        names = {engine.name for engine, _plan in grid}
        assert names
        assert names <= FAST_NAMES

    def test_unknown_successor_mode_suggests_the_vocabulary(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(successors="turbo")
        assert excinfo.value.axis == "successors"

    def test_fast_dpor_is_rejected_not_downgraded(self):
        plan = CheckPlan(successors="fast", reduction="dpor")
        with pytest.raises(UnsupportedPlanError) as excinfo:
            default_registry().resolve(plan)
        error = excinfo.value
        # The structured alternative is runnable and names a real engine.
        assert isinstance(error.alternative, CheckPlan)
        engine, _ = default_registry().resolve(error.alternative)
        assert engine.name in FAST_NAMES | {"dpor"}

    def test_fast_frontier_full_store_alternative_keeps_fast(self):
        plan = CheckPlan(successors="fast", shape="bfs", workers=4,
                         store="full")
        with pytest.raises(UnsupportedPlanError) as excinfo:
            default_registry().resolve(plan)
        error = excinfo.value
        assert error.axis == "store"
        assert error.alternative.successors == "fast"
        assert error.alternative.store in ("fingerprint", "sharded-fingerprint")


class TestRunPlan:
    ENTRY = multicast_entry(2, 1, 0, 1)

    def test_fast_serial_plan_runs_with_identical_counts(self):
        slow = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan())
        fast = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan(successors="fast"))
        assert fast.engine == "serial-dfs-fast"
        assert fast.verified == slow.verified
        assert (
            fast.statistics.states_visited == slow.statistics.states_visited
        )
        assert fast.plan.successors == "fast"

    @pytest.mark.skipif(not FORK, reason="parallel engines need fork")
    def test_fast_worksteal_plan_runs_with_identical_counts(self):
        slow = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan(workers=2))
        fast = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan(successors="fast", workers=2))
        assert fast.engine == "worksteal-dfs-fast"
        assert (
            fast.statistics.states_visited == slow.statistics.states_visited
        )


class TestCli:
    def test_engines_listing_shows_the_successors_axis(self):
        stream = io.StringIO()
        assert main(["engines"], stream=stream) == 0
        output = stream.getvalue()
        assert "serial-dfs-fast" in output
        assert "successors=fast" in output

    def test_engines_plan_dry_run_resolves(self):
        stream = io.StringIO()
        code = main(
            ["engines", "--plan", "--shape", "dfs", "--reduction", "spor",
             "--workers", "4", "--successors", "fast"],
            stream=stream,
        )
        assert code == 0
        output = stream.getvalue()
        assert "worksteal-dfs-fast" in output
        assert "backend worksteal" in output

    def test_engines_plan_dry_run_reports_unsupported(self):
        stream = io.StringIO()
        code = main(
            ["engines", "--plan", "--shape", "bfs", "--workers", "4",
             "--store", "full", "--successors", "fast"],
            stream=stream,
        )
        assert code == 2
        output = stream.getvalue()
        assert "unsupported" in output
        assert "axis: store" in output
        assert "alternative" in output

    def test_check_accepts_successors_fast(self):
        stream = io.StringIO()
        code = main(
            ["check", "multicast-2-1-0-1", "--shape", "dfs",
             "--reduction", "none", "--successors", "fast"],
            stream=stream,
        )
        assert code == 0
        assert "Verified" in stream.getvalue()


class TestLegacyShimCarriesTheFastPath:
    """``SearchConfig.successor_engine`` flows through ``plan_for_strategy``
    (regression: the shim must not silently downgrade to the object engine)."""

    def test_strategy_shim_resolves_to_the_fast_engine(self):
        from repro.checker import CheckerOptions, ModelChecker, SearchConfig, Strategy

        entry = multicast_entry(2, 1, 0, 1)
        options = CheckerOptions(
            search=SearchConfig(successor_engine="fast")
        )
        result = ModelChecker(
            entry.quorum_model(), entry.invariant, options
        ).run(Strategy.DFS)
        assert result.engine == "serial-dfs-fast"
        assert result.plan.successors == "fast"

    def test_plan_for_strategy_maps_the_knob_to_the_axis(self):
        from repro.checker import CheckerOptions, SearchConfig, plan_for_strategy, Strategy

        plan = plan_for_strategy(
            Strategy.SPOR,
            CheckerOptions(search=SearchConfig(successor_engine="fast")),
        )
        assert plan.successors == "fast"
        assert plan_for_strategy(Strategy.SPOR).successors == "object"


#: The paper's Table II rows; Table I's quorum column is their unsplit cells.
TABLE_ENTRIES = {
    entry.key: entry
    for entry in (
        paxos_entry(2, 3, 1),
        paxos_entry(2, 3, 1, faulty=True),
        multicast_entry(3, 0, 1, 1),
        multicast_entry(2, 1, 0, 1),
        multicast_entry(3, 1, 1, 1),
        multicast_entry(2, 1, 2, 1),
        storage_entry(3, 1),
        storage_entry(3, 2, wrong_specification=True),
    )
}
SPLITS = {
    "unsplit": lambda protocol: protocol,
    "reply-split": reply_split,
    "quorum-split": quorum_split,
    "combined-split": combined_split,
}
TABLE_CELLS = [
    pytest.param(key, split, reduction, id=f"{key}-{split}-{reduction}")
    for key in TABLE_ENTRIES
    for split in SPLITS
    for reduction in ("spor", "spor-net")
]


def _run_cell(key: str, split: str, reduction: str, **axes):
    entry = TABLE_ENTRIES[key]
    protocol = SPLITS[split](entry.quorum_model())
    return run_plan(protocol, entry.invariant, CheckPlan(reduction=reduction, **axes))


@lru_cache(maxsize=None)
def _object_reference(key: str, split: str, reduction: str):
    """The object serial DFS result of a cell (run once per cell)."""
    result = _run_cell(key, split, reduction)
    stats = result.statistics
    return (result.verified, stats.states_visited, stats.transitions_executed,
            stats.reduced_expansions, stats.full_expansions)


class TestPackedSporParity:
    """Every Table I/II cell under SPOR and SPOR-NET: the packed engines run
    the same stubborn-set closure as the object engine, through the packed
    state view, and must explore exactly the same reduced state space."""

    @pytest.mark.parametrize("key,split,reduction", TABLE_CELLS)
    def test_packed_serial_dfs_equals_object_serial_dfs(self, key, split, reduction):
        result = _run_cell(key, split, reduction, successors="fast")
        stats = result.statistics
        assert result.engine == "serial-dfs-fast"
        assert (result.verified, stats.states_visited, stats.transitions_executed,
                stats.reduced_expansions, stats.full_expansions) == (
            _object_reference(key, split, reduction)
        )

    @pytest.mark.skipif(not FORK, reason="parallel engines need fork")
    @pytest.mark.parametrize("key,split,reduction", TABLE_CELLS)
    def test_packed_worksteal_equals_object_serial_dfs(self, key, split, reduction):
        result = _run_cell(key, split, reduction, successors="fast", workers=2)
        assert result.engine == "worksteal-dfs-fast"
        verified, states, transitions, _reduced, _full = _object_reference(
            key, split, reduction
        )
        assert result.verified == verified
        if verified:
            # The Table cells are acyclic, so the stack proviso never fires
            # and every state's stubborn set depends on the state alone: the
            # reduced state space is the same whichever worker claims a
            # state first.  A violating run stops at the first
            # counterexample, which is a race between workers, so only its
            # verdict is deterministic.
            assert (result.statistics.states_visited,
                    result.statistics.transitions_executed) == (states, transitions)
