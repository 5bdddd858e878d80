"""Tests for :mod:`repro.obs.metrics` — mergeable counters and histograms.

The contract mirrors :meth:`repro.exp.results.CellAccumulator.merge`: a
snapshot merge must be exact, order-independent, and produce byte-identical
JSON regardless of how the observations were split across registries.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest

from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.obs.metrics import Histogram
from repro.sim.trace import digest_percentile, digest_sum


class TestInstruments:
    def test_counter_inc_and_default(self):
        registry = MetricsRegistry()
        assert "absent" not in registry.snapshot().counters
        registry.inc("sends")
        registry.inc("sends", 4)
        assert registry.snapshot().counters["sends"] == 5

    def test_histogram_digest_is_exact(self):
        histogram = Histogram()
        for value in (3.0, 1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.counts == {1.0: 1, 2.0: 1, 3.0: 2}
        assert histogram.total == 4
        assert histogram.sum() == 9.0
        assert histogram.mean() == 2.25
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(99) == 3.0

    @pytest.mark.parametrize("size", [1, 5, 7, 101])
    @pytest.mark.parametrize("q", [0, 1, 25, 50, 75, 99, 100])
    def test_percentile_is_the_sweep_digests_nearest_rank_rule(self, size, q):
        """The one walk (``repro.sim.trace.digest_percentile``), by table.

        Multiplicity ``1 + value % 3`` so ranks fall inside runs; odd sizes
        put q=50 on a .5 rank, where round() (to even) and ceil part."""
        counts = {float(value): 1 + value % 3 for value in range(1, size + 1)}
        expanded = sorted(v for v, c in counts.items() for _ in range(c))
        total = len(expanded)
        want = expanded[min(max(1, math.ceil(q / 100.0 * total)), total) - 1]
        assert digest_percentile(counts, total, q) == want
        if q == 50:
            plain = {float(value): 1 for value in range(1, size + 1)}
            assert digest_percentile(plain, size, q) == (size + 1) / 2  # 3 of {1..5}
        # and the histogram reads it the same way
        histogram = Histogram()
        for value in reversed(expanded):
            histogram.observe(value)
        assert histogram.percentile(q) == want
        assert histogram.sum() == digest_sum(counts) == digest_sum(histogram.counts)

    def test_empty_histogram_has_no_mean_or_percentile(self):
        histogram = Histogram()
        assert histogram.mean() is None
        assert histogram.percentile(50) is None
        assert histogram.sum() == 0
        assert "absent" not in MetricsRegistry().snapshot().histograms

    def test_empty_digests_have_no_percentile_and_sum_to_zero(self):
        assert digest_percentile({}, 0, 50) is None
        assert digest_sum({}) == 0.0

    def test_empty_histogram_summaries_are_none(self):
        histogram = Histogram()
        assert histogram.mean() is None
        assert histogram.percentile(50) is None

    def test_names_lists_every_instrument_sorted(self):
        registry = MetricsRegistry()
        registry.observe("latency", 1.0)
        registry.inc("sends")
        assert registry.names() == [
            ("counter", "sends"),
            ("histogram", "latency"),
        ]


def _observe_all(registry: MetricsRegistry, observations) -> None:
    for kind, name, value in observations:
        if kind == "counter":
            registry.inc(name, value)
        else:
            registry.observe(name, value)


OBSERVATIONS = [
    ("counter", "sends", 3),
    ("histogram", "delay", 1.5),
    ("histogram", "delay", 0.5),
    ("counter", "drops", 1),
    ("histogram", "delay", 1.5),
    ("counter", "sends", 2),
]


class TestSnapshotMerge:
    def test_split_merge_equals_single_registry(self):
        """Any split of the observation stream folds to the same bytes."""
        whole = MetricsRegistry()
        _observe_all(whole, OBSERVATIONS)
        expected = json.dumps(whole.snapshot().to_jsonable(), sort_keys=True)

        for split in range(len(OBSERVATIONS) + 1):
            left, right = MetricsRegistry(), MetricsRegistry()
            _observe_all(left, OBSERVATIONS[:split])
            _observe_all(right, OBSERVATIONS[split:])
            merged = left.snapshot()
            merged.merge(right.snapshot())
            assert json.dumps(merged.to_jsonable(), sort_keys=True) == expected

    def test_merge_is_commutative(self):
        a1, b1 = MetricsRegistry(), MetricsRegistry()
        _observe_all(a1, OBSERVATIONS[:3])
        _observe_all(b1, OBSERVATIONS[3:])
        ab = a1.snapshot()
        ab.merge(b1.snapshot())
        ba = b1.snapshot()
        ba.merge(a1.snapshot())
        assert json.dumps(ab.to_jsonable(), sort_keys=True) == json.dumps(
            ba.to_jsonable(), sort_keys=True
        )

    def test_merge_is_associative(self):
        thirds = [OBSERVATIONS[0:2], OBSERVATIONS[2:4], OBSERVATIONS[4:]]
        snapshots = []
        for part in thirds:
            registry = MetricsRegistry()
            _observe_all(registry, part)
            snapshots.append(registry.snapshot())
        left = MetricsSnapshot()
        left.merge(snapshots[0])
        left.merge(snapshots[1])
        left.merge(snapshots[2])
        bc = MetricsSnapshot()
        bc.merge(snapshots[1])
        bc.merge(snapshots[2])
        right = MetricsSnapshot()
        right.merge(snapshots[0])
        right.merge(bc)
        assert json.dumps(left.to_jsonable(), sort_keys=True) == json.dumps(
            right.to_jsonable(), sort_keys=True
        )

    def test_merged_histogram_digest(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0):
            a.observe("delay", value)
        for value in (2.0, 10.0):
            b.observe("delay", value)
        merged = a.snapshot()
        merged.merge(b.snapshot())
        digest = merged.histograms["delay"]
        assert digest == {1.0: 1, 2.0: 2, 10.0: 1}
        assert digest_sum(digest) / sum(digest.values()) == 3.75
        assert digest_percentile(digest, 4, 50) == 2.0
        assert digest_percentile(digest, 4, 99) == 10.0

    def test_snapshot_is_picklable_and_json_safe(self):
        registry = MetricsRegistry()
        _observe_all(registry, OBSERVATIONS)
        snapshot = registry.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot
        # to_jsonable must survive a strict JSON round trip
        round_tripped = json.loads(json.dumps(snapshot.to_jsonable(), sort_keys=True))
        assert round_tripped["counters"] == {"drops": 1, "sends": 5}
