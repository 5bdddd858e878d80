"""Pluggable schedule-exploration strategies.

Every strategy is a :class:`~repro.explore.schedule.ScheduleController` that
derives all its choices from a seed (or from explicit parameters), so an
explored schedule is a pure function of ``(strategy, seed, params)`` and the
trial it runs on.  Importing this module registers the built-ins in the
sweep's ``schedules`` registry (:data:`repro.exp.registry.SCHEDULES`), so a
:class:`~repro.exp.spec.ScheduleSpec` names a strategy with plain data and
pickles under any multiprocessing start method.  A custom strategy is a
:func:`~repro.exp.registry.register_schedule_strategy` call at the top level
of the module defining it.

Built-in strategies
-------------------
* ``timestamp-order`` — the identity strategy (no decisions); used by the
  fingerprint guards that pin the controlled path to the default path.
* ``random-walk`` — at every intercept, a seeded RNG chooses to defer the
  delivery, crash the event's target process, or fire as scheduled.
* ``delay-reorder`` — bounded delay-reordering: defers up to ``k`` seeded
  delivery positions (each deferral swaps the delivery past its neighbours).
* ``crash-point`` — deterministic crash-point enumeration: crashes one
  process immediately before the ``point``-th protocol phase boundary it
  observes (timer expiries and proposal deliveries mark phase transitions).
* ``replay`` — re-applies a stored decision list (see
  :class:`~repro.explore.schedule.ReplayController`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.exp.registry import register_schedule_strategy
from repro.explore.schedule import ReplayController, ScheduleController
from repro.sim.events import MessageDeliveryEvent, ProposeEvent, TimerEvent

#: deferral magnitudes the seeded strategies draw from, in units of the
#: delay bound ``U`` (the unit of virtual time, so a deferral crosses the
#: bound under every delay model alike): past the next same-time batch, past
#: the bound, well past it
DEFER_CHOICES = (0.7, 1.0, 1.6, 2.5)


class TimestampOrder(ScheduleController):
    """The identity strategy: every event fires in default order."""

    strategy_name = "timestamp-order"


class RandomWalk(ScheduleController):
    """Seeded random walk over defer / crash / fire decisions.

    Parameters
    ----------
    defer_prob:
        Per-delivery probability of postponing the delivery.
    crash_prob:
        Per-event probability of crashing the event's target process (the
        destination of a delivery, the owner of a timer or proposal) right
        before it handles the event — subject to the scheduler's ``f`` budget.
    max_defers:
        Hard cap on deferrals, so a walk always terminates.
    """

    strategy_name = "random-walk"

    def __init__(
        self,
        seed: int = 0,
        defer_prob: float = 0.15,
        crash_prob: float = 0.05,
        max_defers: int = 12,
        max_crashes: Optional[int] = None,
    ):
        super().__init__(
            seed=seed, defer_prob=defer_prob, crash_prob=crash_prob,
            max_defers=max_defers, max_crashes=max_crashes,
        )
        if not 0.0 <= defer_prob <= 1.0 or not 0.0 <= crash_prob <= 1.0:
            raise ConfigurationError(
                f"probabilities must be in [0, 1], got defer_prob={defer_prob}, "
                f"crash_prob={crash_prob}"
            )
        self._rng = random.Random(seed)
        self._defer_prob = defer_prob
        self._crash_prob = crash_prob
        self._defers_left = max_defers
        self._crashes_left = max_crashes if max_crashes is not None else 1 << 30

    @staticmethod
    def _target_pid(event: Any) -> Optional[int]:
        if isinstance(event, MessageDeliveryEvent):
            return event.dst
        pid = getattr(event, "pid", None)
        return pid if isinstance(pid, int) and pid > 0 else None

    def intercept(self, scheduler: Any, event: Any, step: int) -> Optional[tuple]:
        # one RNG draw per branch, consumed unconditionally, so the decision
        # sequence is a pure function of the seed and the intercept count
        crash_draw = self._rng.random()
        defer_draw = self._rng.random()
        extra = self._rng.choice(DEFER_CHOICES)
        if crash_draw < self._crash_prob and self._crashes_left > 0:
            pid = self._target_pid(event)
            if pid is not None and scheduler.can_inject_crash(pid):
                self._crashes_left -= 1
                return ("crash", pid)
        if (
            defer_draw < self._defer_prob
            and self._defers_left > 0
            and isinstance(event, MessageDeliveryEvent)
            and event.src != event.dst
        ):
            self._defers_left -= 1
            return ("defer", extra)
        return None


class DelayReorder(ScheduleController):
    """Bounded delay-reordering: defer up to ``k`` seeded delivery positions.

    The strategy watches the stream of (non-self) deliveries and defers the
    ones whose ordinal was selected by the seed — each deferral swaps the
    delivery past the events scheduled within ``extra`` of it, so ``k``
    bounds the number of reordered delivery pairs.  ``window`` bounds the
    ordinal range the seed selects from.
    """

    strategy_name = "delay-reorder"

    def __init__(self, seed: int = 0, k: int = 2, window: int = 24):
        super().__init__(seed=seed, k=k, window=window)
        if k < 0 or window < 1:
            raise ConfigurationError(f"invalid delay-reorder parameters k={k}, window={window}")
        rng = random.Random(seed)
        count = min(k, window)
        self._targets: Dict[int, float] = {
            ordinal: rng.choice(DEFER_CHOICES)
            for ordinal in rng.sample(range(window), count)
        }
        self._deliveries_seen = 0

    def intercept(self, scheduler: Any, event: Any, step: int) -> Optional[tuple]:
        if not isinstance(event, MessageDeliveryEvent) or event.src == event.dst:
            return None
        ordinal = self._deliveries_seen
        self._deliveries_seen += 1
        extra = self._targets.pop(ordinal, None)
        if extra is None:
            return None
        return ("defer", extra)


class CrashPoint(ScheduleController):
    """Crash-point enumeration at protocol phase boundaries.

    A *phase boundary* is an event that moves the protocol between phases:
    the delivery of a proposal (the protocol starts) or a timer expiry (a
    synchronous round ends).  The strategy crashes ``pid`` — or, when ``pid``
    is 0, the process owning the boundary event — immediately before the
    ``point``-th boundary it observes.  Enumerating ``(pid, point)`` pairs
    walks every crash point of the protocol's phase structure.

    With ``recover_after`` set, the strategy additionally rejoins the crashed
    process ``recover_after`` phase boundaries after the crash — walking every
    (crash point, rejoin point) pair of the recovery surface.  The rejoin only
    applies on runs where the scheduler has a recovery factory installed
    (cluster runs rebuilding partitions from their WAL); elsewhere the action
    is ignored deterministically.
    """

    strategy_name = "crash-point"

    def __init__(
        self,
        seed: int = 0,
        pid: int = 0,
        point: int = 0,
        recover_after: Optional[int] = None,
    ):
        super().__init__(seed=seed, pid=pid, point=point, recover_after=recover_after)
        if point < 0:
            raise ConfigurationError(f"crash point must be >= 0, got {point}")
        if recover_after is not None and recover_after < 1:
            raise ConfigurationError(
                f"recover_after must be >= 1 boundary after the crash, "
                f"got {recover_after}"
            )
        self._pid = pid
        self._point = point
        self._recover_after = recover_after
        self._boundaries_seen = 0
        self._crashed_pid: Optional[int] = None
        self._crash_boundary: Optional[int] = None
        self._done = False

    def intercept(self, scheduler: Any, event: Any, step: int) -> Optional[tuple]:
        if self._done or not isinstance(event, (TimerEvent, ProposeEvent)):
            return None
        boundary = self._boundaries_seen
        self._boundaries_seen += 1
        if self._crashed_pid is not None:
            # crash already emitted; waiting to emit the rejoin
            if boundary - self._crash_boundary >= self._recover_after:
                self._done = True
                return ("recover", self._crashed_pid)
            return None
        if boundary != self._point:
            return None
        pid = self._pid if self._pid > 0 else event.pid
        if not scheduler.can_inject_crash(pid):
            self._done = True
            return None
        if self._recover_after is None:
            self._done = True
        else:
            self._crashed_pid = pid
            self._crash_boundary = boundary
        return ("crash", pid)


for _cls in (TimestampOrder, RandomWalk, DelayReorder, CrashPoint, ReplayController):
    register_schedule_strategy(_cls.strategy_name, _cls)
