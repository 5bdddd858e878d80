"""Network substrate: perfect point-to-point links and delay models.

The paper's channels "do not modify, inject, duplicate or lose messages; every
message sent is eventually received".  The network therefore never drops a
message: all non-determinism lives in the *delay* assigned to each message.

A **crash-failure** (synchronous) execution is one where every delay is at
most the known bound ``U``.  A **network-failure** (eventually synchronous)
execution may delay some messages beyond ``U`` — those delays are injected by
:class:`~repro.sim.faults.DelayRule` overrides carried by the fault plan, by
an :class:`AdversarialDelay` model, or by a :class:`LinkDelay` whose link is
slow or in an outage.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from repro.errors import ConfigurationError, SimulationError


class DelayModel(Protocol):
    """Assigns a transmission delay to each message.

    Implementations must be deterministic given their own state (seeded RNGs)
    so that simulations are reproducible.

    A model whose delays do not depend on the message (never on
    src/dst/payload/send_time) additionally offers a zero-argument ``draw()``
    and defines ``delay(...)`` as ``self.draw()``: the two are one stream, in
    any interleaving.  Offering ``draw`` *is* the declaration — the scheduler
    calls it once per counted message when no fault-plan override rule needs
    the message's coordinates, and ``delay(...)`` otherwise.  Models keyed on
    the message (flaky links, adversarial functions) offer no ``draw``.
    """

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        """Return the transmission delay (virtual time) for one message."""
        ...  # pragma: no cover - protocol definition

    def bound(self) -> float:
        """Return the known upper bound ``U`` assumed by the protocols."""
        ...  # pragma: no cover - protocol definition


@dataclass
class FixedDelay:
    """Every message takes exactly ``u`` time units.

    This is the delay model used for all best-case (nice execution) complexity
    measurements: the paper's message-delay metric assumes "every message is
    received exactly one unit of time after it was sent".
    """

    u: float = 1.0

    def __post_init__(self) -> None:
        if self.u <= 0:
            raise ConfigurationError(f"delay bound must be positive, got {self.u}")

    def draw(self) -> float:
        return self.u

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        return self.draw()

    def bound(self) -> float:
        return self.u


class UniformDelay:
    """Delays drawn uniformly from ``[lo, hi]`` with ``hi <= u`` by default.

    Used by the database benchmarks to exercise protocols under realistic,
    non-degenerate timing while remaining within the synchronous bound.
    """

    def __init__(self, lo: float, hi: float, u: Optional[float] = None, seed: int = 0):
        if lo <= 0:
            raise ConfigurationError(
                f"uniform delay lower bound must be positive, got lo={lo}"
            )
        if hi < lo:
            raise ConfigurationError(
                f"uniform delay upper bound must be >= lower bound, "
                f"got hi={hi} < lo={lo}"
            )
        self.lo = lo
        self.hi = hi
        self.u = u if u is not None else hi
        if self.u < hi:
            raise ConfigurationError("bound u must be >= hi for a synchronous model")
        self._rng = random.Random(seed)

    def draw(self) -> float:
        return self._rng.uniform(self.lo, self.hi)

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        return self.draw()

    def bound(self) -> float:
        return self.u


class LognormalDelay:
    """Heavy-tailed delays clipped at the synchronous bound ``u``.

    Approximates the wide-area round-trip distributions reported by Bakr and
    Keidar [34] ("synchronous most of the time"): most samples are far below
    the bound, occasional samples approach it.
    """

    def __init__(self, median: float, sigma: float, u: float, seed: int = 0):
        if median <= 0 or sigma < 0 or u <= median:
            raise ConfigurationError(
                f"invalid lognormal parameters median={median}, sigma={sigma}, u={u}"
            )
        self.median = median
        self.sigma = sigma
        self.u = u
        self._rng = random.Random(seed)

    def draw(self) -> float:
        sample = self.median * math.exp(self._rng.gauss(0.0, self.sigma))
        return min(sample, self.u)

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        return self.draw()

    def bound(self) -> float:
        return self.u


class FlakyLinkDelay:
    """Gray failures on reliable channels: slow links and outage windows.

    The registry's ``flaky-link`` profile, kept byte-for-byte beside
    :class:`LinkDelay` (which spells the same faults per link): its ``flaky``
    slice is pinned in the benchmark ledger, so folding it into
    :class:`LinkDelay` would re-pin the ledger, which is the benchmark tree's
    own change to make.

    * a directed link in ``slow_pairs`` multiplies its nominal delay by the
      given factor — slow-but-alive; an asymmetric profile (slow one way,
      nominal the other) is two entries with different factors;
    * a message sent inside an outage window ``(src, dst, start, end)`` is
      held until the window heals: it arrives ``(end - send_time) + nominal``
      after sending, as if buffered by the partition.

    Both effects may exceed the bound ``u`` — a network-failure execution,
    although the scheduler does not class it so (it counts no late draws).
    All randomness comes from the seeded RNG, so the model is
    fingerprint-deterministic like every other delay model.
    """

    def __init__(
        self,
        u: float = 1.0,
        jitter: float = 0.0,
        slow_pairs: Optional[dict] = None,
        outages: tuple = (),
        seed: int = 0,
    ):
        if u <= 0:
            raise ConfigurationError(f"delay bound must be positive, got {u}")
        if not 0 <= jitter < u:
            raise ConfigurationError(f"jitter must be within [0, u), got {jitter}")
        self.u = u
        self.jitter = jitter
        self.slow_pairs = dict(slow_pairs or {})
        for pair, factor in sorted(self.slow_pairs.items()):
            if len(pair) != 2:
                raise ConfigurationError(f"slow pair must be (src, dst), got {pair!r}")
            if factor <= 0:
                raise ConfigurationError(
                    f"slow factor must be positive, got {factor} for {pair}"
                )
        self.outages = tuple(tuple(w) for w in outages)
        for window in self.outages:
            if len(window) != 4 or not 0 <= window[2] < window[3]:
                raise ConfigurationError(
                    "outage window must be (src, dst, start, end) with "
                    f"0 <= start < end, got {window!r}"
                )
        self._rng = random.Random(seed)

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        nominal = self.u
        if self.jitter > 0:
            nominal = self._rng.uniform(self.u - self.jitter, self.u)
        d = nominal * self.slow_pairs.get((src, dst), 1.0)
        for osrc, odst, start, end in self.outages:
            if osrc == src and odst == dst and start <= send_time < end:
                d = max(d, (end - send_time) + nominal)
        return d

    def bound(self) -> float:
        return self.u


@dataclass(frozen=True)
class LinkPolicy:
    """The delay of one directed link, in units of ``U``.

    A message on the link takes ``(delay_units + uniform(0, jitter_units)) *
    slow_factor``; one sent inside an outage window ``(start, end)`` is held
    until the window heals.  Nothing is dropped: the paper's channels lose no
    message, so a dead link is an outage that outlasts the run.
    """

    #: fixed delay of every message on the link
    delay_units: float = 0.0
    #: uniform extra delay drawn from ``[0, jitter_units]`` per message
    jitter_units: float = 0.0
    #: gray failure, slow-but-alive: multiplies the drawn delay.  Policies
    #: are per *directed* link, so an asymmetric profile (slow one way,
    #: nominal the other) is two policies with different factors.
    slow_factor: float = 1.0
    #: partition/heal windows ``(start, end)`` in units of time: a message
    #: sent while ``start <= now < end`` arrives ``end - now`` later than drawn
    outages: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.delay_units < 0 or self.jitter_units < 0:
            raise ConfigurationError("link delays must be non-negative")
        if self.slow_factor <= 0:
            raise ConfigurationError("slow_factor must be positive")
        for window in self.outages:
            if len(window) != 2 or not 0 <= window[0] < window[1]:
                raise ConfigurationError(
                    f"outage window must be (start, end) with 0 <= start < end, "
                    f"got {window!r}"
                )


class LinkDelay:
    """Per-link delays: a default :class:`LinkPolicy` and ``(src, dst)``
    overrides, against the bound ``u``.

    The asyncio runtime's network (a zero-delay default) and the registry's
    ``link`` model.  ``late`` counts the draws that exceeded ``u``; the
    scheduler classes a run with any such draw ``network-failure``, so the
    class is what happened, not what the policy could do.  ``metrics`` is an
    optional duck-typed sink (``inc``/``observe``); when given, every draw
    counts ``transport.sends``, and a positive one ``transport.delayed`` and
    the ``transport.link_delay_units`` histogram.
    """

    def __init__(
        self,
        default: Optional[LinkPolicy] = None,
        links: Optional[Dict[Tuple[int, int], LinkPolicy]] = None,
        u: float = 1.0,
        seed: int = 0,
        metrics: Optional[Any] = None,
    ):
        if u <= 0:
            raise ConfigurationError(f"delay bound must be positive, got {u}")
        self.default = default if default is not None else LinkPolicy()
        self.links = dict(links or {})
        self.u = u
        self.metrics = metrics
        self.late = 0
        self._rng = random.Random(seed)

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        policy = self.links.get((src, dst), self.default)
        d = policy.delay_units
        if policy.jitter_units > 0:
            d += self._rng.uniform(0.0, policy.jitter_units)
        d *= policy.slow_factor
        for start, end in policy.outages:
            if start <= send_time < end:
                d += end - send_time
                break
        if d > self.u:
            self.late += 1
        if self.metrics is not None:
            self.metrics.inc("transport.sends")
            if d > 0:
                self.metrics.inc("transport.delayed")
                self.metrics.observe("transport.link_delay_units", d)
        return d

    def bound(self) -> float:
        return self.u


class AdversarialDelay:
    """Delegates to a user-supplied function; used to build worst cases.

    The function may return delays larger than ``u``, which turns the
    execution into a network-failure execution.  The lower-bound replay tests
    use this model to reconstruct the indistinguishable executions from the
    paper's proofs (e.g. ``E_async`` in Lemma 1).
    """

    def __init__(self, fn: Callable[[int, int, object, float], float], u: float = 1.0):
        self.fn = fn
        self.u = u

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        d = self.fn(src, dst, payload, send_time)
        if d <= 0:
            # a mid-run simulation fault, not a construction-time config
            # error: TrialResult.error must classify it as such
            raise SimulationError(f"adversarial delay must be positive, got {d}")
        return d

    def bound(self) -> float:
        return self.u


class Network:
    """Perfect point-to-point links parameterised by a delay model.

    The network does not know about crashes: a crashed *sender* never invokes
    ``transit_delay`` (the scheduler suppresses its sends), and a message sent
    to a crashed *destination* is still "delivered" by the scheduler but the
    destination, being crashed, ignores it.  This mirrors the paper's model in
    which channels are reliable and failures are purely process- or
    timing-related.
    """

    def __init__(self, delay_model: Optional[DelayModel] = None):
        self.delay_model = delay_model if delay_model is not None else FixedDelay(1.0)
        #: delay overrides installed by the fault plan, consulted first
        self._overrides: list = []

    @property
    def u(self) -> float:
        """The known upper bound on message transmission delay."""
        return self.delay_model.bound()

    def install_overrides(self, rules: list) -> None:
        """Install :class:`~repro.sim.faults.DelayRule` overrides."""
        self._overrides = list(rules)

    def transit_delay(
        self, src: int, dst: int, payload: object, send_time: float, msg_index: int
    ) -> float:
        """Compute the delay for a message, applying fault-plan overrides.

        The nominal delay is drawn for every message, overridden or not:
        rules receive it, and the model's RNG advances once per counted
        message whichever rule fires.
        """
        nominal = self.delay_model.delay(src, dst, payload, send_time)
        for rule in self._overrides:
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
