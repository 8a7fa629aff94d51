"""Unit tests for the pre-computed dependence relations."""

import pytest

from repro.por.dependence import (
    DependenceRelation,
    are_dependent,
    can_enable,
    interferes,
    spec_read_conflict,
)
from repro.protocols.paxos import PaxosConfig, build_paxos_quorum
from repro.protocols.storage import StorageConfig, build_storage_quorum
from repro.refine import quorum_split, reply_split

from ..conftest import build_ping_pong, build_vote_collection


class TestPairwisePredicates:
    def test_same_process_transitions_interfere(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        propose = protocol.transition("PROPOSE@proposer1")
        read_repl = protocol.transition("READ_REPL@proposer1")
        assert interferes(propose, read_repl)
        assert are_dependent(propose, read_repl)

    def test_unrelated_processes_do_not_interfere(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        read_a1 = protocol.transition("READ@acceptor1")
        read_a2 = protocol.transition("READ@acceptor2")
        assert not interferes(read_a1, read_a2)

    def test_reply_can_enable_consumer(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        read = protocol.transition("READ@acceptor1")
        read_repl = protocol.transition("READ_REPL@proposer1")
        assert can_enable(read, read_repl)
        assert not can_enable(read_repl, read)

    def test_write_enables_accept_at_learner(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        write = protocol.transition("WRITE@acceptor1")
        accept = protocol.transition("ACCEPT@learner1")
        assert can_enable(write, accept)

    def test_can_enable_respects_quorum_peers(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        split = quorum_split(protocol)
        read_a3 = split.transition("READ@acceptor3")
        narrowed = split.transition("READ_REPL@proposer1__acceptor1_acceptor2")
        assert not can_enable(read_a3, narrowed)
        assert can_enable(read_a3, narrowed, respect_peers=False)

    def test_spec_read_conflict_in_storage(self):
        protocol = build_storage_quorum(StorageConfig(3, 1))
        val = protocol.transition("VAL@reader1")
        store_ack = protocol.transition("STORE_ACK@writer")
        assert spec_read_conflict(val, store_ack)
        assert are_dependent(val, store_ack)

    def test_same_process_can_enable_is_false(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        propose = protocol.transition("PROPOSE@proposer1")
        read_repl = protocol.transition("READ_REPL@proposer1")
        assert not can_enable(propose, read_repl)


class TestPrecomputedRelation:
    def test_interference_symmetric(self, vote_collection):
        relation = DependenceRelation.precompute(vote_collection)
        for name in vote_collection.transition_names():
            for other in relation.interferes_with(name):
                assert name in relation.interferes_with(other)

    def test_dependent_is_reflexive_and_symmetric(self, ping_pong):
        relation = DependenceRelation.precompute(ping_pong)
        assert relation.dependent("PING@pong", "PING@pong")
        assert relation.dependent("START@ping", "PING@pong") == relation.dependent(
            "PING@pong", "START@ping"
        )

    def test_ping_pong_chain_of_enablers(self, ping_pong):
        relation = DependenceRelation.precompute(ping_pong)
        assert relation.necessary_enablers_of("PING@pong") == ("START@ping",)
        assert relation.necessary_enablers_of("PONG@ping") == ("PING@pong",)
        assert relation.enabled_by("START@ping") == ("PING@pong",)

    def test_voters_are_mutually_independent(self, vote_collection):
        relation = DependenceRelation.precompute(vote_collection)
        assert relation.independent("CAST@voter1", "CAST@voter2")
        assert relation.dependent("CAST@voter1", "VOTE@collector")

    def test_enablers_by_sender_grouping(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        relation = DependenceRelation.precompute(protocol)
        from_a2 = relation.enablers_from("READ_REPL@proposer1", ["acceptor2"])
        assert from_a2 == ("READ@acceptor2",)
        everyone = relation.enablers_from(
            "READ_REPL@proposer1", ["acceptor1", "acceptor2", "acceptor3"]
        )
        assert set(everyone) == {"READ@acceptor1", "READ@acceptor2", "READ@acceptor3"}

    def test_dependents_of_and_degree(self, ping_pong):
        relation = DependenceRelation.precompute(ping_pong)
        dependents = relation.dependents_of("PING@pong")
        assert "START@ping" in dependents and "PONG@ping" in dependents
        assert relation.dependence_degree("PING@pong") == len(dependents)

    @pytest.mark.parametrize("build", [
        lambda: build_paxos_quorum(PaxosConfig(2, 2, 1)),
        lambda: quorum_split(build_paxos_quorum(PaxosConfig(1, 3, 1))),
    ], ids=["paxos", "paxos-quorum-split"])
    def test_dependents_tables_match_a_scan_of_the_pairs(self, build):
        relation = DependenceRelation.precompute(build())
        for name in relation.interference:
            scanned = sorted(
                other
                for pair in relation.dependent_pairs if name in pair
                for other in pair if other != name
            )
            assert relation.dependents_of(name) == tuple(scanned)
            assert relation.dependence_degree(name) == len(scanned)
        assert relation.dependents_of("no-such-transition") == ()
        assert relation.dependence_degree("no-such-transition") == 0

    def test_coarse_enablers_ignore_refinement(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        split = quorum_split(protocol)
        relation = DependenceRelation.precompute(split)
        narrowed = "READ_REPL@proposer1__acceptor1_acceptor2"
        assert set(relation.necessary_enablers_of(narrowed)) == {
            "READ@acceptor1",
            "READ@acceptor2",
        }
        assert "READ@acceptor3" in relation.coarse_enablers_of(narrowed)

    def test_reply_split_narrows_enabling_direction(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 3, 1))
        split = reply_split(protocol)
        relation = DependenceRelation.precompute(split)
        # READ@acceptor1_proposer1 replies only to proposer1, so it cannot
        # enable proposer2's READ_REPL.
        assert "READ_REPL@proposer2" not in relation.enabled_by("READ@acceptor1_proposer1")
        assert "READ_REPL@proposer1" in relation.enabled_by("READ@acceptor1_proposer1")
