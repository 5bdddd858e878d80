"""Tests for the uniform-consensus substrate (Paxos and the fixed-leader stub)."""

from __future__ import annotations

import pytest

from repro.consensus import FixedLeaderConsensus, PaxosConsensus
from repro.env import Process
from repro.sim.faults import FaultPlan
from repro.sim.runner import Simulation


class ConsensusHost(Process):
    """A minimal host that proposes its input value to the consensus module."""

    consensus_class = PaxosConsensus
    propose_delay = 0.0

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.cons = self.consensus_class(self, name="cons", on_decide=self._on_decide)
        self.attach_component(self.cons)

    def _on_decide(self, value):
        self.decide(value)

    def on_propose(self, value):
        if value is None:
            return  # this host never proposes but still acts as acceptor/learner
        if self.propose_delay:
            self._pending = value
            self.set_timer(self.propose_delay, name="later")
        else:
            self.cons.propose(value)

    def on_deliver(self, src, payload):  # pragma: no cover - components handle all
        pass

    def on_timeout(self, name):
        if name == "later":
            self.cons.propose(self._pending)


class PaxosHost(ConsensusHost):
    consensus_class = PaxosConsensus


class FixedLeaderHost(ConsensusHost):
    consensus_class = FixedLeaderConsensus


def run_consensus(host_cls, n, f, proposals, fault_plan=None, max_time=400):
    sim = Simulation(
        n=n, f=f, process_class=host_cls, fault_plan=fault_plan, max_time=max_time
    )
    return sim.run(proposals)


class TestPaxos:
    def test_failure_free_unanimous(self):
        result = run_consensus(PaxosHost, 3, 1, [1, 1, 1])
        assert set(result.decisions().values()) == {1}
        assert len(result.decisions()) == 3

    def test_decided_value_was_proposed(self):
        result = run_consensus(PaxosHost, 5, 2, [0, 1, 0, 1, 1])
        decided = set(result.decisions().values())
        assert len(decided) == 1
        assert decided.pop() in {0, 1}

    def test_agreement_and_termination_with_crashes(self):
        plan = FaultPlan.crashes_at({1: 0.5, 2: 2.0})
        result = run_consensus(PaxosHost, 5, 2, [0, 1, 1, 0, 1], fault_plan=plan)
        correct = [3, 4, 5]
        assert all(pid in result.decisions() for pid in correct)
        assert len({result.decisions()[pid] for pid in correct}) == 1

    def test_termination_with_delayed_messages(self):
        # a network-failure execution: everything from P1 is slow for a while
        plan = FaultPlan.delay_messages(src=1, delay=15.0, after_time=0.0)
        result = run_consensus(PaxosHost, 3, 1, [1, 0, 0], fault_plan=plan)
        assert len(result.decisions()) == 3
        assert len(set(result.decisions().values())) == 1

    def test_non_proposing_processes_learn_the_decision(self):
        result = run_consensus(PaxosHost, 4, 1, {1: 1, 2: None, 3: None, 4: None})
        assert len(result.decisions()) == 4
        assert set(result.decisions().values()) == {1}

    def test_staggered_proposals_still_agree(self):
        class Staggered(PaxosHost):
            propose_delay = 0.0

            def on_propose(self, value):
                # P1 proposes immediately, the rest three units later
                if self.pid == 1:
                    self.cons.propose(value)
                else:
                    self._pending = value
                    self.set_timer(3.0, name="later")

        result = run_consensus(Staggered, 4, 1, [0, 1, 1, 1])
        assert len(result.decisions()) == 4
        assert len(set(result.decisions().values())) == 1

    def test_consensus_messages_are_module_tagged(self):
        result = run_consensus(PaxosHost, 3, 1, [1, 1, 1])
        modules = {m.module for m in result.trace.counted_messages()}
        assert modules == {"cons"}

    def test_propose_twice_is_idempotent(self):
        result = run_consensus(PaxosHost, 3, 1, [1, 1, 1])
        proc = result.process(1)
        proc.cons.propose(0)  # ignored: already proposed/decided
        assert proc.cons.decision in {0, 1}
        assert result.decisions()[1] == proc.cons.decision


class TestFixedLeader:
    def test_failure_free_agreement(self):
        result = run_consensus(FixedLeaderHost, 4, 1, [1, 0, 1, 0])
        assert len(result.decisions()) == 4
        assert len(set(result.decisions().values())) == 1

    def test_leader_value_wins_when_leader_proposes_first(self):
        result = run_consensus(FixedLeaderHost, 3, 1, [0, 1, 1])
        assert set(result.decisions().values()) == {0}

    def test_blocks_if_leader_crashes(self):
        plan = FaultPlan.crash(1, at=0.0)
        result = run_consensus(FixedLeaderHost, 3, 1, [1, 1, 1], fault_plan=plan, max_time=30)
        assert result.decisions() == {}

    def test_majority_helper(self):
        sim = Simulation(n=5, f=2, process_class=FixedLeaderHost, max_time=10)
        result = sim.run([1] * 5)
        assert result.process(1).cons.majority() == 3
