"""Unit tests for :class:`repro.engine.plan.CheckPlan` and its validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.plan import (
    BACKENDS,
    GOALS,
    PLAN_AXES,
    REDUCTIONS,
    SEED_HEURISTICS,
    SHAPES,
    STORES,
    CheckPlan,
    UnsupportedPlanError,
    strategy_label,
)


class TestVocabularies:
    def test_axis_vocabularies_are_closed(self):
        assert SHAPES == ("dfs", "bfs")
        assert REDUCTIONS == ("none", "spor", "spor-net", "dpor")
        assert set(STORES) == {"full", "fingerprint", "sharded-fingerprint", "none"}
        assert "auto" in BACKENDS
        assert GOALS == ("invariant", "liveness")

    def test_store_vocabulary_stays_in_lockstep_with_the_store_factory(self):
        # STORES is a literal (importing STORE_KINDS would cycle through
        # repro.checker.__init__ back into plan.py); this pin is what makes
        # the duplication safe.
        from repro.checker.statestore import STORE_KINDS

        assert set(STORES) == set(STORE_KINDS)

    def test_seed_heuristic_vocabulary_stays_in_lockstep_with_the_factory(self):
        # A literal for the same import-cycle reason as STORES.
        from repro.por.seed import HEURISTIC_NAMES

        assert set(SEED_HEURISTICS) == set(HEURISTIC_NAMES)

    def test_plan_axes_cover_the_capability_surface(self):
        assert set(PLAN_AXES) == {
            "shape", "reduction", "store", "backend", "workers", "stateful",
            "successors", "goal",
        }


class TestConstruction:
    def test_defaults_are_a_serial_exhaustive_stateful_dfs(self):
        plan = CheckPlan()
        assert plan.shape == "dfs"
        assert plan.reduction == "none"
        assert plan.store == "full"
        assert plan.backend == "auto"
        assert plan.workers == 1
        assert plan.stateful

    def test_plans_are_frozen_and_hashable(self):
        plan = CheckPlan()
        with pytest.raises(AttributeError):
            plan.shape = "bfs"
        assert CheckPlan() in {plan}

    @pytest.mark.parametrize("axis,value", [
        ("shape", "zigzag"),
        ("reduction", "magic"),
        ("store", "cloud"),
        ("backend", "gpu"),
        ("goal", "fairness"),
    ])
    def test_unknown_axis_values_raise_structured_errors(self, axis, value):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(**{axis: value})
        error = excinfo.value
        assert error.axis == axis
        assert error.value == value
        assert error.alternative is not None
        assert axis in str(error)

    def test_unknown_value_suggests_the_typo_correction(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(reduction="spor-nett")
        assert excinfo.value.alternative == "spor-net"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(workers=workers)
        assert excinfo.value.axis == "workers"
        assert excinfo.value.alternative == 1

    def test_unsupported_plan_error_is_a_value_error(self):
        # Legacy call sites guard the facade with ``except ValueError``.
        assert issubclass(UnsupportedPlanError, ValueError)

    def test_unsupported_plan_error_pickles_round_trip(self):
        # An unpicklable exception deadlocks multiprocessing pools that try
        # to ship it back to the parent (the run_cells sweep path).
        import pickle

        error = UnsupportedPlanError(
            "workers", 2, "no engine", alternative=CheckPlan()
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, UnsupportedPlanError)
        assert clone.axis == "workers"
        assert clone.value == 2
        assert str(clone) == "no engine"
        assert clone.alternative == CheckPlan()


class TestSeedHeuristic:
    def test_unknown_heuristic_is_rejected_when_the_plan_is_built(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(reduction="spor-net", seed_heuristic="fewest-dependent")
        assert excinfo.value.axis == "seed_heuristic"
        assert excinfo.value.alternative == "fewest-dependents"

    def test_fewest_dependents_runs_through_the_plan_path(self):
        # Regression: the plan path built the heuristic without the
        # dependence relation and crashed mid-run.
        from repro.engine import run_plan
        from repro.protocols.catalog import storage_entry

        entry = storage_entry(3, 1)
        for successors in ("object", "fast"):
            result = run_plan(
                entry.quorum_model(), entry.invariant,
                CheckPlan(reduction="spor-net", seed_heuristic="fewest-dependents",
                          successors=successors),
            )
            assert result.verified and result.complete
            assert result.statistics.reduced_expansions > 0


    def test_memo_capacity_bounds_the_reducers_net_memo(self):
        from repro.checker.search import dfs_search
        from repro.engine.engines import make_reducer
        from repro.fastpath.search import fast_dfs_search
        from repro.protocols.catalog import paxos_entry

        entry = paxos_entry(2, 2, 1)
        protocol = entry.quorum_model()
        providers = [
            make_reducer(
                protocol, CheckPlan(reduction="spor-net", fastpath_memo_capacity=capacity)
            ).__self__
            for capacity in (None, 2)
        ]
        for provider in providers:
            for search in (dfs_search, fast_dfs_search):
                outcome = search(protocol, entry.invariant, reducer=provider.reduce)
                assert outcome.counterexample is None
        unbounded, bounded = providers
        assert len(bounded._net_memo) == 2 < len(unbounded._net_memo)
        assert (bounded.reduced_states, bounded.fallback_states) == (
            unbounded.reduced_states, unbounded.fallback_states)


class TestNormalisation:
    def test_dpor_is_stateless_by_definition(self):
        plan = CheckPlan(reduction="dpor")
        assert not plan.stateful
        assert plan.store == "none"

    def test_stateless_plans_store_nothing(self):
        plan = CheckPlan(stateful=False, store="full")
        assert plan.store == "none"

    def test_stateful_with_no_store_is_a_contradiction(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(stateful=True, store="none")
        error = excinfo.value
        assert error.axis == "store"
        assert isinstance(error.alternative, CheckPlan)
        assert error.alternative.store == "full"


class TestDerivedViews:
    def test_search_config_mirrors_the_plan(self):
        plan = CheckPlan(
            store="fingerprint",
            max_depth=3,
            max_states=10,
            max_seconds=1.5,
            stop_at_first_violation=False,
            check_deadlocks=True,
            engine_cache_capacity=128,
        )
        config = plan.search_config()
        assert config.stateful
        assert config.state_store == "fingerprint"
        assert config.max_depth == 3
        assert config.max_states == 10
        assert config.max_seconds == 1.5
        assert not config.stop_at_first_violation
        assert config.check_deadlocks
        assert config.engine_cache_capacity == 128

    def test_stateless_search_config(self):
        config = CheckPlan(stateful=False).search_config()
        assert not config.stateful

    def test_store_shards_reach_the_search_config(self):
        config = CheckPlan(store="sharded-fingerprint", store_shards=32).search_config()
        assert config.state_store == "sharded-fingerprint"
        assert config.state_store_shards == 32

    def test_describe_is_compact(self):
        plan = CheckPlan(shape="dfs", reduction="spor", backend="worksteal", workers=4)
        assert plan.describe() == "dfs/spor/full/worksteal x4"
        assert CheckPlan().describe() == "dfs/none/full/auto"

    def test_describe_marks_liveness_plans(self):
        # Invariant renderings stay byte-identical; liveness plans carry an
        # explicit marker so logs and diagnostics distinguish the goal.
        assert CheckPlan(goal="liveness").describe() == "dfs/none/full/auto+liveness"

    def test_fastpath_memo_capacity_reaches_the_search_config(self):
        config = CheckPlan(fastpath_memo_capacity=64).search_config()
        assert config.fastpath_memo_capacity == 64
        assert CheckPlan().search_config().fastpath_memo_capacity is None

    def test_axes_round_trip(self):
        plan = CheckPlan(shape="bfs", workers=2)
        axes = plan.axes()
        assert axes["shape"] == "bfs"
        assert axes["workers"] == 2
        assert axes["goal"] == "invariant"
        assert replace(plan) == plan


class TestStrategyLabel:
    @pytest.mark.parametrize("plan,label", [
        (CheckPlan(), "unreduced"),
        (CheckPlan(reduction="spor"), "spor"),
        (CheckPlan(reduction="spor-net"), "spor-net"),
        (CheckPlan(reduction="dpor"), "dpor"),
        (CheckPlan(shape="bfs"), "bfs"),
        (CheckPlan(goal="liveness"), "ndfs"),
    ])
    def test_labels_match_the_legacy_strategy_strings(self, plan, label):
        assert strategy_label(plan) == label
