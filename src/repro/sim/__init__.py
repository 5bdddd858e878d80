"""Discrete-event simulation substrate.

The paper measures complexity (messages and message delays) on an abstract
synchronous / eventually-synchronous message-passing model.  This package
implements that model as a deterministic discrete-event simulator:

* :mod:`repro.sim.clock` — virtual time.
* :mod:`repro.sim.events` — the event types handled by the scheduler.
* :mod:`repro.sim.network` — the delay bound ``U`` and the delay models of
  perfect point-to-point links, some of which draw past ``U``.
* :mod:`repro.sim.faults` — crash schedules and delay overrides grouped into a
  :class:`~repro.sim.faults.FaultPlan`, which applies its overrides to each
  message's delay, with helpers for the three execution classes used by the
  paper (failure-free, crash-failure, network-failure).
* :class:`~repro.env.Process` and :class:`~repro.env.ProcessEnv`, re-exported
  from :mod:`repro.env` — the Cachin-style event-handler process abstraction
  used by every protocol implementation.
* :mod:`repro.sim.trace` — the execution trace (message log, decisions,
  crashes) from which all complexity metrics are computed.
* :mod:`repro.sim.runner` — the :class:`~repro.sim.runner.Simulation` driver.
* :mod:`repro.sim.batch` — the scheduler's bucket/calendar event queue,
  behind the fingerprint contract.
"""

from repro.sim.batch import BucketQueue
from repro.sim.clock import VirtualClock
from repro.sim.events import (
    CrashEvent,
    MessageDeliveryEvent,
    ProposeEvent,
    RecoverEvent,
    TimerEvent,
)
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import (
    AdversarialDelay,
    DelayModel,
    FixedDelay,
    FlakyLinkDelay,
    LinkDelay,
    LinkPolicy,
    LognormalDelay,
    UniformDelay,
)
from repro.env import Process, ProcessEnv
from repro.sim.runner import Simulation, SimulationResult
from repro.sim.trace import TRACE_LEVELS, CounterTrace, DecisionRecord, MessageRecord, Trace

__all__ = [
    "AdversarialDelay",
    "BucketQueue",
    "CounterTrace",
    "CrashEvent",
    "DecisionRecord",
    "DelayModel",
    "DelayRule",
    "FaultPlan",
    "FixedDelay",
    "FlakyLinkDelay",
    "LinkDelay",
    "LinkPolicy",
    "LognormalDelay",
    "MessageDeliveryEvent",
    "MessageRecord",
    "Process",
    "ProcessEnv",
    "ProposeEvent",
    "RecoverEvent",
    "Simulation",
    "SimulationResult",
    "TRACE_LEVELS",
    "TimerEvent",
    "Trace",
    "UniformDelay",
    "VirtualClock",
]
