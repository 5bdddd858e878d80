"""Tests for the uniform-consensus substrate (single-decree Paxos)."""

from __future__ import annotations

from repro.consensus import PaxosConsensus
from repro.env import Process
from repro.sim.faults import FaultPlan
from repro.sim.runner import Simulation


class PaxosHost(Process):
    """A minimal host that proposes its input value to the consensus module."""

    propose_delay = 0.0

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.cons = PaxosConsensus(self, name="cons", on_decide=self._on_decide)
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

    def test_any_value_may_be_proposed(self):
        # only an atomic-commit process refuses a vote other than 0 or 1
        result = run_consensus(PaxosHost, 3, 1, ["a", 2, None])
        decided = set(result.decisions().values())
        assert len(decided) == 1 and decided <= {"a", 2}

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

    def test_failure_free_agreement_on_mixed_proposals(self):
        result = run_consensus(PaxosHost, 4, 1, [1, 0, 1, 0])
        assert len(result.decisions()) == 4
        assert len(set(result.decisions().values())) == 1

    def test_a_process_crashed_from_the_start_does_not_block_the_rest(self):
        # P1 holds the lowest ballot; with it down, P2 or P3 leads instead
        plan = FaultPlan.crash(1, at=0.0)
        result = run_consensus(PaxosHost, 3, 1, [1, 1, 1], fault_plan=plan)
        assert result.decisions() == {2: 1, 3: 1}

    def test_decide_callback_fires_once_per_host(self):
        calls = []

        class Counting(PaxosHost):
            def _on_decide(self, value):
                calls.append(self.pid)
                super()._on_decide(value)

        result = run_consensus(Counting, 5, 2, [0, 1, 0, 1, 1])
        # every host hears ACCEPTED from a majority and DECIDED from the rest
        assert sorted(calls) == [1, 2, 3, 4, 5]
        assert len(set(result.decisions().values())) == 1

    def test_release_drops_the_decide_callback(self):
        result = run_consensus(PaxosHost, 3, 1, [1, 1, 1])
        cons = result.process(1).cons
        cons.release()
        assert cons.on_decide is None
        assert cons.decision == 1

    def test_majority_helper(self):
        sim = Simulation(n=5, f=2, process_class=PaxosHost, max_time=10)
        result = sim.run([1] * 5)
        assert result.process(1).cons.majority() == 3
