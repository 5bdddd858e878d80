"""Tests for the complexity measures (repro.core.metrics)."""

from __future__ import annotations

import pytest

from repro.core.metrics import (
    decision_message_delays,
    messages_until_last_decision,
    nice_execution_complexity,
)
from repro.protocols import INBAC, OneNBAC, TwoPhaseCommit
from repro.sim.runner import run_nice_execution
from repro.sim.trace import Trace


def synthetic_trace():
    """P1 -> P2 at [0,1]; P2 -> P3 at [1,2]; decisions at 2 (P3) and 1 (P2)."""
    trace = Trace(n=3, f=1, protocol="synthetic")
    trace.record_proposal(1, 1, 0.0)
    trace.record_proposal(2, 1, 0.0)
    trace.record_proposal(3, 1, 0.0)
    trace.record_send(1, 1, 2, ("a",), 0.0, 1.0, counted=True)
    trace.record_send(2, 2, 3, ("b",), 1.0, 2.0, counted=True)
    trace.record_send(3, 2, 2, ("self",), 1.0, 1.0, counted=False)
    trace.record_send(4, 3, 1, ("late",), 2.0, 3.0, counted=True)
    trace.record_decision(2, 1, 1.0)
    trace.record_decision(3, 1, 2.0)
    trace.record_decision(1, 1, 2.0)
    return trace


class TestMessageCounts:
    def test_total_excludes_self_messages(self):
        assert synthetic_trace().message_count() == 3

    def test_until_last_decision_excludes_in_flight_messages(self):
        # the message sent at 2 arrives at 3, after the last decision at 2
        assert messages_until_last_decision(synthetic_trace()) == 2

    def test_until_last_decision_falls_back_to_total_without_decisions(self):
        trace = Trace(n=2, f=1)
        trace.record_send(1, 1, 2, ("x",), 0.0, 1.0, counted=True)
        assert messages_until_last_decision(trace) == 1

    def test_module_filter(self):
        trace = Trace(n=2, f=1)
        trace.record_send(1, 1, 2, ("x",), 0.0, 1.0, counted=True, module="main")
        trace.record_send(2, 2, 1, ("y",), 0.0, 1.0, counted=True, module="cons")
        assert trace.message_count(module="main") == 1
        assert trace.message_count(module="cons") == 1
        assert trace.message_count() == 2


class TestDelays:
    def test_decision_delays_is_latest_decision_time(self):
        assert decision_message_delays(synthetic_trace()) == 2.0

    def test_first_decision_delays(self):
        # proposals at time 0: the first decision time is its delay count
        assert synthetic_trace().first_decision_time() == 1.0

    def test_no_decisions_gives_none(self):
        assert decision_message_delays(Trace(n=2, f=1)) is None
        assert Trace(n=2, f=1).first_decision_time() is None

    def test_causal_depth_counts_chained_messages(self):
        assert synthetic_trace().causal_depth() == 3  # a -> b -> late


class TestNiceExecutionComplexity:
    @pytest.mark.parametrize(
        "protocol,n,f,delays,messages",
        [
            (INBAC, 5, 2, 2.0, 20),
            (OneNBAC, 4, 1, 1.0, 12),
            (TwoPhaseCommit, 6, 1, 2.0, 10),
        ],
    )
    def test_matches_protocol_formulas(self, protocol, n, f, delays, messages):
        result = run_nice_execution(protocol, n=n, f=f)
        stats = nice_execution_complexity(result.trace)
        assert stats.message_delays == delays
        assert stats.messages == messages
        assert stats.consensus_messages == 0
        assert stats.n == n and stats.f == f

    def test_consensus_messages_are_every_counted_module_but_main(self):
        trace = Trace(n=2, f=1)
        trace.record_send(1, 1, 2, ("x",), 0.0, 1.0, counted=True, module="main")
        trace.record_send(2, 2, 1, ("y",), 0.0, 1.0, counted=True, module="uc")
        trace.record_send(3, 2, 2, ("z",), 0.0, 1.0, counted=False, module="uc")
        stats = nice_execution_complexity(trace)
        assert stats.messages_total_sent == 2
        assert stats.consensus_messages == 1
