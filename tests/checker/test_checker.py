"""Unit tests for the ModelChecker facade and strategies."""

import pytest

from repro.checker import CheckerOptions, ModelChecker, SearchConfig, Strategy, check_protocol
from repro.checker.property import Invariant, always_true
from repro.protocols.paxos import PaxosConfig, build_paxos_quorum, consensus_invariant

from ..conftest import build_ping_pong, build_vote_collection


def pongs_below(limit):
    return Invariant(
        name=f"pongs<{limit}",
        predicate=lambda state, _protocol: state.local("ping").pongs < limit,
    )


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.UNREDUCED, Strategy.SPOR, Strategy.SPOR_NET, Strategy.DPOR],
    )
    def test_all_strategies_verify_trivial_property(self, strategy):
        protocol = build_vote_collection(voters=3, quorum=2)
        result = ModelChecker(protocol, always_true()).run(strategy)
        assert result.verified
        assert result.strategy == strategy.value

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.UNREDUCED, Strategy.SPOR, Strategy.SPOR_NET, Strategy.DPOR],
    )
    def test_all_strategies_find_violation(self, strategy):
        protocol = build_ping_pong(rounds=2)
        result = ModelChecker(protocol, pongs_below(2)).run(strategy)
        assert not result.verified
        assert result.counterexample is not None

    def test_spor_explores_no_more_than_unreduced(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        unreduced = ModelChecker(protocol, always_true()).run(Strategy.UNREDUCED)
        reduced = ModelChecker(protocol, always_true()).run(Strategy.SPOR_NET)
        assert (
            reduced.statistics.states_visited
            <= unreduced.statistics.states_visited
        )

    def test_dpor_is_stateless(self):
        protocol = build_ping_pong(rounds=1)
        result = ModelChecker(protocol, always_true()).run(Strategy.DPOR)
        assert not result.stateful

    def test_default_strategy_is_unreduced(self, ping_pong):
        result = ModelChecker(ping_pong, always_true()).run()
        assert result.strategy == "unreduced"


class TestOptions:
    def test_search_config_is_honoured(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        options = CheckerOptions(search=SearchConfig(max_states=3))
        result = ModelChecker(protocol, always_true(), options).run(Strategy.UNREDUCED)
        assert not result.complete

    def test_invalid_seed_heuristic_rejected(self, ping_pong):
        options = CheckerOptions(seed_heuristic="nonsense")
        checker = ModelChecker(ping_pong, always_true(), options)
        with pytest.raises(ValueError):
            checker.run(Strategy.SPOR)

    def test_named_seed_heuristics_accepted(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        for name in ("opposite-transaction", "transaction", "first", "fewest-dependents"):
            options = CheckerOptions(seed_heuristic=name)
            result = ModelChecker(protocol, always_true(), options).run(Strategy.SPOR)
            assert result.verified


    def test_fewest_dependents_runs_through_the_strategy_shim(self):
        # Regression: ModelChecker.run built the heuristic without the
        # dependence relation and raised ValueError mid-run.
        protocol = build_paxos_quorum(PaxosConfig(2, 2, 1))
        options = CheckerOptions(seed_heuristic="fewest-dependents")
        result = ModelChecker(protocol, consensus_invariant(), options).run(Strategy.SPOR_NET)
        assert result.verified and result.complete
        assert result.statistics.reduced_expansions > 0


class TestResultContents:
    def test_result_identifies_protocol_and_property(self, ping_pong):
        result = ModelChecker(ping_pong, always_true()).run()
        assert result.protocol_name == ping_pong.name
        assert result.property_name == "true"

    def test_outcome_labels(self, ping_pong_two_rounds):
        verified = ModelChecker(ping_pong_two_rounds, always_true()).run()
        violated = ModelChecker(ping_pong_two_rounds, pongs_below(1)).run()
        assert verified.outcome_label() == "Verified"
        assert violated.outcome_label() == "CE"
        assert violated.found_counterexample

    def test_summary_mentions_states(self, ping_pong):
        result = ModelChecker(ping_pong, always_true()).run()
        assert "states" in result.summary()

    def test_check_convenience_wrapper(self, ping_pong):
        assert check_protocol(ping_pong, always_true()).verified
        assert ModelChecker(ping_pong, always_true()).check()
