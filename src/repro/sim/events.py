"""Event kinds processed by the discrete-event scheduler.

Ordering
--------
Events are totally ordered by ``(time, kind, post order)``.  The kind encodes
the paper's scheduling remark from Appendix A: *"a message delivery event has
a higher priority than a timeout event; i.e., if both events occur at a
process, the process is first triggered by the delivery event and then the
timeout event"*.  Crash events carry the highest priority so that a process
crashing at time ``t`` does not handle any other event scheduled at ``t``
("crashes before sending any message that is expected to send upon the
message received at t").

Queue entries and views
-----------------------
Inside the scheduler an event is a bare tuple in the FIFO of its kind (the
kind constant *is* the FIFO's slot in a :class:`~repro.sim.batch.BucketQueue`
bucket; a delivery alone at its time is stored without the bucket), and FIFO
position is the tie-break among equal ``(time, kind)``.
The dataclasses below are the *view* a schedule controller is handed: a
view's fields after ``time`` are exactly its kind's entry tuple, so
``EVENT_VIEWS[kind](time, *entry)`` builds one — and only controlled runs
ever do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# Kinds: lower value == processed earlier at equal time.
PRIORITY_CRASH = 0
# a recovery at time t happens before any traffic scheduled at t reaches the
# rejoining process; recoveries are only ever queued at construction, ahead
# of every proposal, so a slot of their own just before the propose slot is
# the order the two always fired in
PRIORITY_RECOVER = 1
PRIORITY_PROPOSE = 2
PRIORITY_DELIVERY = 3
PRIORITY_TIMER = 4
# a call into a process from outside every handler (a client's submit on the
# asyncio runtime, which paces this kernel by the wall clock); the simulator
# never queues one, so its order cannot move
PRIORITY_CALL = 5


@dataclass(frozen=True)
class Event:
    """Base class of the controller-facing event views."""

    time: float


@dataclass(frozen=True)
class CrashEvent(Event):
    """Scheduled crash of a process (it halts and sends nothing afterwards)."""

    pid: int


@dataclass(frozen=True)
class RecoverEvent(Event):
    """Scheduled rejoin of a previously crashed process.

    What the process rejoins *with* is up to the scheduler's recovery
    factory; the default is the crashed object itself (amnesia-free rejoin),
    while the cluster layer rebuilds partition servers from their
    write-ahead log.
    """

    pid: int


@dataclass(frozen=True)
class ProposeEvent(Event):
    """Delivery of the initial ``Propose`` event to a process.

    ``value`` is the process' vote (1 = willing to commit, 0 = abort) for
    atomic-commit protocols, or an arbitrary proposal for consensus.
    """

    pid: int
    value: Any


@dataclass(frozen=True)
class MessageDeliveryEvent(Event):
    """Arrival of a message at its destination."""

    src: int
    dst: int
    payload: Any
    msg_id: int
    send_time: float


@dataclass(frozen=True)
class TimerEvent(Event):
    """Expiry of a timer previously set by a process (``token``: which arming)."""

    pid: int
    name: str
    token: int


@dataclass(frozen=True)
class CallEvent(Event):
    """A call into a process from outside every handler (asyncio runtime)."""

    pid: int
    fn: Any


#: kind -> view class, in slot order
EVENT_VIEWS = (
    CrashEvent, RecoverEvent, ProposeEvent, MessageDeliveryEvent, TimerEvent, CallEvent,
)
