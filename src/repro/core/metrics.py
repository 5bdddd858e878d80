"""Complexity measures over execution traces.

The paper uses two measures (Section 2.4):

* **number of messages** — messages exchanged among the ``n`` processes
  (messages a process sends to itself are excluded).  For best-case accounting
  the paper charges an execution only with the messages that have been
  *received* by the time the last process decides; messages still in flight
  (for example 1NBAC's ``[D, d]`` round, which exists only to help slow or
  suspected-failed processes) do not count towards the nice-execution cost.
  Both counts are exposed so benchmarks can report them side by side.

* **number of message delays** — following Lamport: if local computation is
  instantaneous and every message is received exactly one unit of time after
  it was sent, the number of message delays of an execution is its number of
  time units.  With the simulator's ``FixedDelay(1.0)`` model and proposals at
  time 0, this is simply the (latest) decision timestamp.  A time-free
  alternative — the longest causal chain of messages — is
  :meth:`~repro.sim.trace.Trace.causal_depth`.

Plain counts are the trace's own queries (``trace.message_count(module)``,
``trace.first_decision_time()``); this module holds only the rules the paper
adds on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.trace import Trace


def messages_until_last_decision(trace: Trace) -> int:
    """Messages received by the time the last process decides (the paper's count)."""
    last = trace.last_decision_time()
    if last is None:
        return trace.message_count()
    return trace.messages_received_by(last)


def decision_message_delays(trace: Trace) -> Optional[float]:
    """Number of message delays until decision (time-based, Lamport-style).

    Measured from the earliest proposal (time 0 in all our experiments) to the
    latest decision, in units of the delay bound ``U`` (the unit of virtual
    time, :data:`repro.sim.network.U`).
    """
    if not trace.decisions:
        return None
    start = 0.0
    if trace.proposals:
        start = min(rec.time for rec in trace.proposals.values())
    return trace.last_decision_time() - start


@dataclass
class NiceExecutionComplexity:
    """Measured best-case complexity of one nice execution."""

    protocol: str
    n: int
    f: int
    message_delays: float
    messages: int
    messages_total_sent: int
    causal_depth: int
    consensus_messages: int


def nice_execution_complexity(trace: Trace) -> NiceExecutionComplexity:
    """Bundle the paper's two complexity measures for one (nice) execution."""
    total = trace.message_count()
    return NiceExecutionComplexity(
        protocol=trace.protocol,
        n=trace.n,
        f=trace.f,
        message_delays=decision_message_delays(trace) or 0.0,
        messages=messages_until_last_decision(trace),
        messages_total_sent=total,
        causal_depth=trace.causal_depth(),
        consensus_messages=total - trace.message_count("main"),
    )
