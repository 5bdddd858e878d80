"""Network substrate: perfect point-to-point links and delay models.

The paper's channels "do not modify, inject, duplicate or lose messages; every
message sent is eventually received".  The network therefore never drops a
message: all non-determinism lives in the *delay* assigned to each message.
Nor does it know about crashes: a crashed sender posts nothing (the
scheduler suppresses its sends), and a message to a crashed pid is
delivered and ignored.

The known delay bound ``U`` is the unit of time: every protocol arms its
timers in multiples of it (``set_timer(2)`` waits 2U), so :data:`U` is one
constant, ``1.0``, and no model, network or fault plan can move it.  A delay
model delivers within the bound or past it.  :class:`FixedDelay`,
:class:`UniformDelay` and :class:`LognormalDelay` are synchronous by
construction: every draw lies in ``(0, U]``.

A **crash-failure** (synchronous) execution is one where every delay is at
most ``U``.  A **network-failure** (eventually synchronous) execution delays
some message beyond ``U``, and the scheduler classes a run so when that came
from a :class:`~repro.sim.faults.DelayRule` override of the fault plan, a
schedule controller's deferral, or a :class:`LinkDelay` draw it counted as
``late``.  :class:`FlakyLinkDelay` and :class:`AdversarialDelay` draws past
``U`` are not counted yet: such a run keeps the class its fault plan gives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from repro.errors import ConfigurationError, SimulationError


#: the known upper bound on message delay, and the unit of virtual time
U = 1.0


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
        """Return the transmission delay (in units of ``U``) for one message."""
        ...  # pragma: no cover - protocol definition


@dataclass
class FixedDelay:
    """Every message takes exactly ``delay_units``, with ``0 < delay_units <= U``.

    This is the delay model used for all best-case (nice execution) complexity
    measurements: the paper's message-delay metric assumes "every message is
    received exactly one unit of time after it was sent".
    """

    delay_units: float = U

    def __post_init__(self) -> None:
        if not 0 < self.delay_units <= U:
            raise ConfigurationError(
                f"a fixed delay must lie in (0, U] = (0, {U}], got {self.delay_units}"
            )

    def draw(self) -> float:
        return self.delay_units

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        return self.draw()


class UniformDelay:
    """Delays drawn uniformly from ``[lo, hi]``, with ``0 < lo <= hi <= U``.

    Used by the database benchmarks to exercise protocols under realistic,
    non-degenerate timing while remaining within the synchronous bound.
    """

    def __init__(self, lo: float, hi: float, seed: int = 0):
        # each check is written so that a NaN bound fails it
        if not lo > 0:
            raise ConfigurationError(
                f"uniform delay lower bound must be positive, got lo={lo}"
            )
        if not hi >= lo:
            raise ConfigurationError(
                f"uniform delay upper bound must be >= lower bound, "
                f"got hi={hi} < lo={lo}"
            )
        if hi > U:
            raise ConfigurationError(
                f"uniform delay upper bound must be <= U = {U} for a "
                f"synchronous model, got hi={hi}"
            )
        self.lo = lo
        self.hi = hi
        self._rng = random.Random(seed)

    def draw(self) -> float:
        return self._rng.uniform(self.lo, self.hi)

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        return self.draw()


class LognormalDelay:
    """Heavy-tailed delays with ``0 < median < U``, clipped at ``U``.

    Approximates the wide-area round-trip distributions reported by Bakr and
    Keidar [34] ("synchronous most of the time"): most samples are far below
    the bound, occasional samples approach it.
    """

    def __init__(self, median: float, sigma: float, seed: int = 0):
        if not (0 < median < U and sigma >= 0):  # NaN fails it too
            raise ConfigurationError(
                f"invalid lognormal parameters median={median}, sigma={sigma}: "
                f"need 0 < median < U = {U} and sigma >= 0"
            )
        self.median = median
        self.sigma = sigma
        self._rng = random.Random(seed)

    def draw(self) -> float:
        sample = self.median * math.exp(self._rng.gauss(0.0, self.sigma))
        return min(sample, U)

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        return self.draw()


class FlakyLinkDelay:
    """Gray failures on reliable channels: slow links and outage windows.

    The registry's ``flaky-link`` profile, kept byte-for-byte beside
    :class:`LinkDelay` (which spells the same faults per link): its ``flaky``
    slice is pinned in the benchmark ledger, so folding it into
    :class:`LinkDelay` would re-pin the ledger, which is the benchmark tree's
    own change to make.

    * every message's nominal delay is ``U``, or with ``jitter`` a draw from
      ``[U - jitter, U]``;
    * a directed link in ``slow_pairs`` multiplies its nominal delay by the
      given factor — slow-but-alive; an asymmetric profile (slow one way,
      nominal the other) is two entries with different factors;
    * a message sent inside an outage window ``(src, dst, start, end)`` is
      held until the window heals: it arrives ``(end - send_time) + nominal``
      after sending, as if buffered by the partition.

    Both effects may exceed ``U`` — a network-failure execution, although
    the scheduler does not class it so (the model counts no late draws).
    All randomness comes from the seeded RNG, so the model is
    fingerprint-deterministic like every other delay model.
    """

    def __init__(
        self,
        jitter: float = 0.0,
        slow_pairs: Optional[dict] = None,
        outages: tuple = (),
        seed: int = 0,
    ):
        if not 0 <= jitter < U:
            raise ConfigurationError(f"jitter must be within [0, U), got {jitter}")
        self.jitter = jitter
        self.slow_pairs = dict(slow_pairs or {})
        for pair, factor in sorted(self.slow_pairs.items()):
            if len(pair) != 2:
                raise ConfigurationError(f"slow pair must be (src, dst), got {pair!r}")
            if not factor > 0:  # NaN fails it too
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
        nominal = U
        if self.jitter > 0:
            nominal = self._rng.uniform(U - self.jitter, U)
        d = nominal * self.slow_pairs.get((src, dst), 1.0)
        for osrc, odst, start, end in self.outages:
            if osrc == src and odst == dst and start <= send_time < end:
                d = max(d, (end - send_time) + nominal)
        return d


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
        # each check is written so that a NaN field fails it
        if not (self.delay_units >= 0 and self.jitter_units >= 0):
            raise ConfigurationError("link delays must be non-negative")
        if not self.slow_factor > 0:
            raise ConfigurationError("slow_factor must be positive")
        for window in self.outages:
            if len(window) != 2 or not 0 <= window[0] < window[1]:
                raise ConfigurationError(
                    f"outage window must be (start, end) with 0 <= start < end, "
                    f"got {window!r}"
                )


class LinkDelay:
    """Per-link delays: a default :class:`LinkPolicy` and ``(src, dst)``
    overrides.

    The asyncio runtime's network (a zero-delay default) and the registry's
    ``link`` model.  ``late`` counts the draws that exceeded ``U``; the
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
        seed: int = 0,
        metrics: Optional[Any] = None,
    ):
        self.default = default if default is not None else LinkPolicy()
        self.links = dict(links or {})
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
        if d > U:
            self.late += 1
        if self.metrics is not None:
            self.metrics.inc("transport.sends")
            if d > 0:
                self.metrics.inc("transport.delayed")
                self.metrics.observe("transport.link_delay_units", d)
        return d


class AdversarialDelay:
    """Delegates to a user-supplied function; used to build worst cases.

    The function may return delays larger than ``U``, which turns the
    execution into a network-failure execution (not counted as ``late``: the
    run keeps the class its fault plan gives).  Today only the simulator
    kernel's own tests use it, to script per-message delays exactly (each
    message alone at its own arrival time, a delay lost to float rounding,
    the per-message ``delay()`` path of a model without ``draw``).  No test
    yet rebuilds an execution from the paper's lower-bound proofs (such as
    Lemma 1's ``E_async``) with it.
    """

    def __init__(self, fn: Callable[[int, int, object, float], float]):
        self.fn = fn

    def delay(self, src: int, dst: int, payload: object, send_time: float) -> float:
        d = self.fn(src, dst, payload, send_time)
        if d <= 0:
            # a mid-run simulation fault, not a construction-time config
            # error: TrialResult.error must classify it as such
            raise SimulationError(f"adversarial delay must be positive, got {d}")
        return d
