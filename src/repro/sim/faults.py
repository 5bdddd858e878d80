"""Fault plans: crash schedules and message-delay overrides.

The paper distinguishes three classes of executions (Section 2.2):

* **failure-free** — no crash, every message delay is at most ``U``;
* **crash-failure** — some process crashes, delays still bounded by ``U``
  (an execution of a *synchronous* system);
* **network-failure** — some message delay exceeds ``U`` (an execution of an
  *eventually synchronous* system), possibly in addition to crashes.

A :class:`FaultPlan` describes which failures occur in a particular run and is
installed into the simulation before it starts.  The run's class is not the
plan's: :meth:`repro.sim.runner.Scheduler.execution_class` reads the crashes
the run recorded (a planned crash that never happened does not count) and
:meth:`FaultPlan.is_network_failure` together with what a schedule controller
or a delay model did during the run, and the property checker
takes that class to decide which properties (agreement / validity /
termination) the protocol under test is required to satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim.network import U, DelayModel

#: sentinel delay used for "arrives later than every decision" constructions
FAR_FUTURE = 10_000.0


@dataclass
class DelayRule:
    """Overrides the transmission delay of the messages it matches.

    A rule matches a message if every specified criterion matches; ``None``
    criteria are wildcards.  ``predicate`` receives the payload and can match
    on protocol-level content (e.g. only ``[C, ...]`` acknowledgements).

    Exactly one of ``delay`` (absolute transmission delay) or ``extra`` (added
    on top of the model's nominal delay) must be provided.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    after_time: Optional[float] = None
    before_time: Optional[float] = None
    predicate: Optional[Callable[[object], bool]] = None
    delay: Optional[float] = None
    extra: Optional[float] = None
    #: if set, the rule only applies to the k-th matching message (0-based)
    nth_match: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.delay is None) == (self.extra is None):
            raise ConfigurationError("DelayRule needs exactly one of delay= or extra=")
        if math.isnan(self.extra if self.delay is None else self.delay):
            raise ConfigurationError("a DelayRule's delay= or extra= must not be NaN")
        for bound in (self.after_time, self.before_time):
            if bound is not None and math.isnan(bound):
                raise ConfigurationError(
                    "a DelayRule's after_time= or before_time= must not be NaN"
                )
        self._matches_seen = 0

    def reset(self) -> None:
        """Forget the matches seen so far.

        ``nth_match`` makes a rule stateful: a plan reused across runs (for
        instance a literal plan on a sweep's faults axis, which every trial of
        its cell runs) would silently stop matching after the first one.  The
        scheduler calls :meth:`FaultPlan.reset_rules` at the start of every
        execution so each run counts matches from zero.
        """
        self._matches_seen = 0

    def apply(
        self,
        src: int,
        dst: int,
        payload: object,
        send_time: float,
        msg_index: int,
        nominal: float,
    ) -> Optional[float]:
        """Return the overridden transmission delay, or ``None`` if no match.

        ``nominal`` is the delay the run's delay model would have assigned;
        rules with ``extra`` add on top of it, rules with ``delay`` replace it.
        """
        if self.src is not None and src != self.src:
            return None
        if self.dst is not None and dst != self.dst:
            return None
        if self.after_time is not None and send_time < self.after_time:
            return None
        if self.before_time is not None and send_time >= self.before_time:
            return None
        if self.predicate is not None and not self.predicate(payload):
            return None
        matched_index = self._matches_seen
        self._matches_seen += 1
        if self.nth_match is not None and matched_index != self.nth_match:
            return None
        if self.delay is not None:
            return self.delay
        return nominal + (self.extra or 0.0)

    def is_network_failure(self) -> bool:
        """Whether this rule can delay a message beyond the bound ``U``."""
        if self.delay is not None:
            return self.delay > U
        return (self.extra or 0.0) > 0.0


@dataclass
class FaultPlan:
    """All failures injected into one execution.

    Attributes
    ----------
    crashes:
        Mapping process id -> crash time.  A process crashed at time ``t``
        handles no event scheduled at or after ``t`` and sends nothing.
    recoveries:
        Mapping process id -> rejoin time.  A recovered process resumes
        handling events from its rejoin time on; what state it resumes with
        is decided by the scheduler's recovery factory (the cluster layer
        rebuilds partitions from their write-ahead log).  Every recovered pid
        must also appear in ``crashes`` with an earlier crash time.
    delay_rules:
        Message-delay overrides (see :class:`DelayRule`).
    """

    crashes: Dict[int, float] = field(default_factory=dict)
    delay_rules: List[DelayRule] = field(default_factory=list)
    description: str = ""
    recoveries: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # constructors for the three execution classes
    # ------------------------------------------------------------------ #
    @classmethod
    def failure_free(cls) -> "FaultPlan":
        """No crash, no delay override: a failure-free execution."""
        return cls(description="failure-free")

    @classmethod
    def crash(cls, pid: int, at: float = 0.0) -> "FaultPlan":
        """A single crash at time ``at`` (a crash-failure execution)."""
        return cls(crashes={pid: at}, description=f"crash P{pid}@{at}")

    @classmethod
    def crashes_at(cls, schedule: Dict[int, float]) -> "FaultPlan":
        """Multiple crashes (still a crash-failure execution)."""
        return cls(crashes=dict(schedule), description=f"crashes {schedule}")

    @classmethod
    def crash_recover(cls, pid: int, at: float, rejoin_at: float) -> "FaultPlan":
        """Crash ``pid`` at ``at`` and rejoin it at ``rejoin_at``.

        Still a crash-failure execution: the crash really happened, and the
        property checker keeps treating the pid as faulty (it never re-enters
        the ``correct`` set).  Recovery only restores liveness.
        """
        if rejoin_at <= at:
            raise ConfigurationError(
                f"rejoin time {rejoin_at} must be after the crash time {at}"
            )
        return cls(
            crashes={pid: at},
            recoveries={pid: rejoin_at},
            description=f"crash P{pid}@{at} rejoin@{rejoin_at}",
        )

    @classmethod
    def delay_messages(
        cls,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        delay: float = FAR_FUTURE,
        after_time: Optional[float] = None,
    ) -> "FaultPlan":
        """Delay matching messages beyond the bound: a network-failure execution."""
        rule = DelayRule(src=src, dst=dst, delay=delay, after_time=after_time)
        return cls(delay_rules=[rule], description="delayed messages")

    # ------------------------------------------------------------------ #
    # composition and classification
    # ------------------------------------------------------------------ #
    def merged_with(self, other: "FaultPlan") -> "FaultPlan":
        """Combine two fault plans (crashes and delay rules of both apply)."""
        crashes = dict(self.crashes)
        for pid, t in other.crashes.items():
            crashes[pid] = min(t, crashes.get(pid, t))
        recoveries = dict(self.recoveries)
        for pid, t in other.recoveries.items():
            recoveries[pid] = min(t, recoveries.get(pid, t))
        return FaultPlan(
            crashes=crashes,
            delay_rules=list(self.delay_rules) + list(other.delay_rules),
            description=f"{self.description} + {other.description}".strip(" +"),
            recoveries=recoveries,
        )

    def reset_rules(self) -> None:
        """Reset every delay rule's match counter (see :meth:`DelayRule.reset`)."""
        for rule in self.delay_rules:
            rule.reset()

    def transit_delay(
        self,
        model: DelayModel,
        src: int,
        dst: int,
        payload: object,
        send_time: float,
        msg_index: int,
    ) -> float:
        """The delay of one message: ``model``'s, unless a rule overrides it.

        The nominal delay is drawn for every message, overridden or not:
        rules receive it, and the model's RNG advances once per counted
        message whichever rule fires.  The first rule that matches wins.
        """
        nominal = model.delay(src, dst, payload, send_time)
        for rule in self.delay_rules:
            override = rule.apply(src, dst, payload, send_time, msg_index, nominal)
            if override is not None:
                if override <= 0:
                    raise SimulationError(
                        f"fault-plan delay rule {rule!r} produced a non-positive "
                        f"override {override} for message {src}->{dst} at "
                        f"t={send_time}: a delay <= 0 would deliver at or before "
                        f"its send time, corrupting event order"
                    )
                return override
        return nominal

    def is_network_failure(self) -> bool:
        """Whether some rule can push a delay beyond the bound ``U``."""
        return any(rule.is_network_failure() for rule in self.delay_rules)

    def validate(self, n: int, f: int) -> None:
        """Sanity-check the plan against the system parameters."""
        if any(pid < 1 or pid > n for pid in self.crashes):
            raise ConfigurationError(f"crash schedule references unknown process: {self.crashes}")
        if len(self.crashes) > f:
            raise ConfigurationError(
                f"fault plan crashes {len(self.crashes)} processes but f={f}"
            )
        for pid, at in self.crashes.items():
            if math.isnan(at):
                raise ConfigurationError(f"P{pid}'s crash time is NaN")
        for pid, rejoin_at in self.recoveries.items():
            if math.isnan(rejoin_at):
                raise ConfigurationError(f"P{pid}'s rejoin time is NaN")
            if pid not in self.crashes:
                raise ConfigurationError(
                    f"recovery of P{pid} has no matching crash in the plan"
                )
            if rejoin_at <= self.crashes[pid]:
                raise ConfigurationError(
                    f"P{pid} rejoins at {rejoin_at} but only crashes at "
                    f"{self.crashes[pid]}"
                )
