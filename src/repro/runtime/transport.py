"""The runtime's transport: per-link fault injection and message accounting.

Every *link* (an ordered ``(src, dst)`` pair) carries a :class:`LinkPolicy` —
extra delay, uniform jitter, a drop probability, outage windows — applied at
the transport boundary, which is exactly where the paper's adversary lives:
the protocol code above never sees anything but ``deliver`` events, and the
simulator's delay models have their runtime counterpart here.
:class:`LocalTransport` keeps what only it knows — counting, drop, outage
window, delay draw — and hands each surviving message, with the delay its
link adds, to the runtime it serves (:mod:`repro.runtime.runtime`), which
queues it in its kernel.  A message to a pid that is down when it is sent is
counted and lost: nothing is drawn for it, since nobody can receive it.

Delays and drops are drawn from a seeded ``random.Random``, so a given
policy produces the same drop/delay *choices* across runs, and the runtime's
kernel handles what arrives in ``(time, kind)`` order however late the event
loop runs.

Message accounting matches the simulator's convention: messages to self are
delivered locally and not counted (footnote 10 of the paper); everything
else is tallied into the runtime's execution record at *send* time, delivered
or not, and ``messages_total`` / ``messages_by_module`` read it back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LinkPolicy:
    """Fault-injection knobs of one directed link (times in units of U)."""

    #: fixed extra delay added to every message on the link
    delay_units: float = 0.0
    #: uniform extra delay drawn from ``[0, jitter_units]`` per message
    jitter_units: float = 0.0
    #: probability a message is silently dropped
    drop_probability: float = 0.0
    #: gray failure, slow-but-alive: multiplies the link's extra delay.
    #: Policies are per *directed* link, so an asymmetric profile (slow one
    #: way, nominal the other) is two policies with different factors.
    slow_factor: float = 1.0
    #: partition/heal windows ``(start, end)`` in units since runtime start:
    #: messages sent while ``start <= now < end`` are dropped at the link;
    #: after ``end`` the link is healed and carries traffic again
    outages: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.delay_units < 0 or self.jitter_units < 0:
            raise ConfigurationError("link delays must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ConfigurationError("drop_probability must be within [0, 1]")
        if self.slow_factor <= 0:
            raise ConfigurationError("slow_factor must be positive")
        for window in self.outages:
            if len(window) != 2 or not 0 <= window[0] < window[1]:
                raise ConfigurationError(
                    f"outage window must be (start, end) with 0 <= start < end, "
                    f"got {window!r}"
                )

    @property
    def max_delay_units(self) -> float:
        return (self.delay_units + self.jitter_units) * self.slow_factor

    @property
    def faulty(self) -> bool:
        return (
            self.drop_probability > 0.0
            or self.max_delay_units > 0.0
            or bool(self.outages)
        )


class LocalTransport:
    """Link policies and message accounting between the runtime's processes.

    ``metrics`` is an optional duck-typed telemetry sink — any object with
    ``inc(name, amount=1)`` and ``observe(name, value)`` (e.g. a
    :class:`repro.obs.metrics.MetricsRegistry`, handed in by the hosting
    service; this module never imports the obs package).  When present, the
    data path mirrors its counters into ``transport.sends`` /
    ``transport.drops`` / ``transport.outage_drops`` / ``transport.delayed``
    and feeds applied per-message link delays (in units of U) into the
    ``transport.link_delay_units`` histogram.  Strictly out of band: the
    mirrored counts duplicate the attributes below, never replace them.
    """

    def __init__(self, unit: float, seed: int = 0, metrics: Optional[Any] = None):
        if unit <= 0:
            raise ConfigurationError(f"unit must be positive, got {unit}")
        self.unit = unit
        self.seed = seed
        self.metrics = metrics
        self._rng = random.Random(seed)
        self._policies: Dict[Tuple[int, int], LinkPolicy] = {}
        self._default_policy = LinkPolicy()
        #: the runtime this transport serves, installed by it: its record
        #: counts the sends, its processes say who is down, its clock times
        #: the outage windows and its ``arrive`` queues what survived a link
        self.runtime: Optional[Any] = None
        self.dropped = 0
        self.delayed = 0
        #: messages dropped inside an outage window (also counted in dropped)
        self.outage_dropped = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def set_default_policy(self, policy: LinkPolicy) -> None:
        self._default_policy = policy

    def set_link_policy(self, src: int, dst: int, policy: LinkPolicy) -> None:
        self._policies[(src, dst)] = policy

    def policy_for(self, src: int, dst: int) -> LinkPolicy:
        return self._policies.get((src, dst), self._default_policy)

    @property
    def messages_total(self) -> int:
        return self.runtime.trace.message_count()  # read off the record, mid-run too

    @property
    def messages_by_module(self) -> Dict[str, int]:
        return self.runtime.trace.module_histogram()

    def worst_case_delay_units(self) -> float:
        """The largest extra delay any configured policy may add."""
        worst = self._default_policy.max_delay_units
        for key in sorted(self._policies):
            worst = max(worst, self._policies[key].max_delay_units)
        return worst

    # ------------------------------------------------------------------ #
    # the data path
    # ------------------------------------------------------------------ #
    def send(self, src: int, dst: int, payload: Any, module: str = "main") -> None:
        """Ship one message; called synchronously from inside event handlers."""
        runtime = self.runtime
        if src == dst:
            # local message to self: immediate, fault-free, uncounted (not a
            # network hop)
            runtime.arrive(src, dst, payload, 0.0)
            return
        runtime.trace.record_send_batch(payload, module, None, 1)
        if self.metrics is not None:
            self.metrics.inc("transport.sends")
        if runtime.is_down(dst):
            return  # lost: nothing to draw for a message nobody can receive
        policy = self.policy_for(src, dst)
        if policy.outages:
            now = runtime.clock.now
            if any(start <= now < end for start, end in policy.outages):
                self.dropped += 1
                self.outage_dropped += 1
                if self.metrics is not None:
                    self.metrics.inc("transport.drops")
                    self.metrics.inc("transport.outage_drops")
                return
        if policy.drop_probability > 0 and self._rng.random() < policy.drop_probability:
            self.dropped += 1
            if self.metrics is not None:
                self.metrics.inc("transport.drops")
            return
        delay_units = policy.delay_units
        if policy.jitter_units > 0:
            delay_units += self._rng.uniform(0.0, policy.jitter_units)
        delay_units *= policy.slow_factor
        if delay_units > 0:
            self.delayed += 1
            if self.metrics is not None:
                self.metrics.inc("transport.delayed")
                self.metrics.observe("transport.link_delay_units", delay_units)
        runtime.arrive(src, dst, payload, delay_units)


__all__ = ["LinkPolicy", "LocalTransport"]
