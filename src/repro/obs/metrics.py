"""Process-local metrics: counters and histograms with exact merges.

A :class:`MetricsRegistry` is a plain dictionary of named instruments.  Its
design mirrors the sweep engine's :class:`~repro.exp.results.CellAccumulator`
discipline — the repo's reference pattern for statistics that must not care
about arrival order:

* counters are integer tallies (addition commutes);
* histograms keep a value -> multiplicity digest and reduce (sum, mean,
  percentiles) over ``sorted(...)`` items only at read time, so two
  snapshots merged in either order produce byte-identical summaries.

A :class:`MetricsSnapshot` is the frozen, picklable export of a registry:
plain dicts, safe to ship across a process boundary or serialise with
``json.dumps(..., sort_keys=True)``.  ``snapshot_a.merge(snapshot_b)`` is
exact — the same guarantee :meth:`CellAccumulator.merge` gives chunk folds.

Everything here is strictly out of band: nothing in this module is allowed
to feed a trace or sweep fingerprint (enforced by the OBS001 lint rule and
the determinism-under-observation test battery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# obs may import the deterministic layers; OBS001 forbids only the reverse
from repro.sim.trace import digest_percentile, digest_sum


class Counter:
    """A monotonically increasing integer tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """A value -> multiplicity digest (exact, order-independent).

    ``observe`` folds one measurement; summaries reduce over the sorted
    digest at read time through the digest functions of :mod:`repro.sim.trace`
    (the sweep accumulators' too), so the same data always yields the same
    bytes regardless of observation order.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: Dict[float, int] = {}
        self.total = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[value] = self.counts.get(value, 0) + 1
        self.total += 1

    def sum(self) -> float:
        return digest_sum(self.counts)

    def mean(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.sum() / self.total

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the digest (exact, byte-stable)."""
        return digest_percentile(self.counts, self.total, q)


@dataclass
class MetricsSnapshot:
    """Frozen, picklable export of a registry; merges exactly."""

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[float, int]] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold ``other`` in; commutative and associative like the cell folds."""
        for name in sorted(other.counters):
            self.counters[name] = self.counters.get(name, 0) + other.counters[name]
        for name in sorted(other.histograms):
            digest = self.histograms.setdefault(name, {})
            for value, count in sorted(other.histograms[name].items()):
                digest[value] = digest.get(value, 0) + count

    def to_jsonable(self) -> Dict[str, object]:
        """Sorted plain-data rendering (JSON keys must be strings)."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "histograms": {
                name: [
                    [value, count]
                    for value, count in sorted(self.histograms[name].items())
                ]
                for name in sorted(self.histograms)
            },
        }


class MetricsRegistry:
    """Named counters and histograms, created on first use.

    Process-local and lock-free: both runtimes drive handlers from a single
    thread (the simulator's event loop or asyncio's), so plain dict updates
    are safe.  ``snapshot()`` exports the current state as plain data.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------- #
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    # -- shorthand record paths --------------------------------------------- #
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- export -------------------------------------------------------------- #
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={
                name: self._counters[name].value for name in sorted(self._counters)
            },
            histograms={
                name: dict(sorted(self._histograms[name].counts.items()))
                for name in sorted(self._histograms)
            },
        )

    def names(self) -> List[Tuple[str, str]]:
        """Every registered instrument as sorted ``(kind, name)`` pairs."""
        entries = (
            [("counter", name) for name in self._counters]
            + [("histogram", name) for name in self._histograms]
        )
        return sorted(entries)


__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
]
