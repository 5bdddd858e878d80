"""Tests for repro.sim.batch: bucket queue and batched delay sampling.

The contract under test is *byte-identity*, not statistical similarity:
every fast path (bucket pops, batched draws) must reproduce exactly what the
slow path (binary heap, per-call ``delay(...)``) would have produced.
"""

from __future__ import annotations

import heapq
import random

import pytest

import repro.sim.batch as batch_mod
from repro.errors import ConfigurationError
from repro.sim.batch import (
    DEFAULT_BATCH_SIZE,
    MIN_VECTOR_BATCH,
    BatchedDelaySampler,
    BucketQueue,
    sample_uniform_batch,
)
from repro.sim.network import (
    AdversarialDelay,
    FixedDelay,
    FlakyLinkDelay,
    LognormalDelay,
    UniformDelay,
)


class TestBucketQueue:
    def test_empty_queue_is_falsy(self):
        queue = BucketQueue()
        assert not queue
        assert len(queue) == 0

    def test_fifo_within_time_and_priority(self):
        queue = BucketQueue()
        for tag in "abc":
            queue.push(1.0, 2, tag)
        assert [queue.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_priority_order_within_one_time(self):
        queue = BucketQueue()
        queue.push(1.0, 4, "timer")
        queue.push(1.0, 0, "crash")
        queue.push(1.0, 3, "delivery")
        assert [queue.pop()[1] for _ in range(3)] == [0, 3, 4]

    def test_time_dominates_priority(self):
        queue = BucketQueue()
        queue.push(2.0, 0, "later-crash")
        queue.push(1.0, 4, "earlier-timer")
        assert queue.pop() == (1.0, 4, "earlier-timer")
        assert queue.pop() == (2.0, 0, "later-crash")

    def test_peek_time_and_bucket_cleanup(self):
        queue = BucketQueue()
        queue.push(3.0, 2, "x")
        queue.push(5.0, 2, "y")
        assert queue.peek_time() == 3.0
        queue.pop()
        assert queue.peek_time() == 5.0
        queue.pop()
        assert not queue
        assert queue.buckets == {}
        assert queue.times == []

    def test_interleaved_push_pop_allows_past_times(self):
        # no monotonicity assumption: pushing an earlier time after popping
        # a later one must still order correctly
        queue = BucketQueue()
        queue.push(5.0, 2, "late")
        assert queue.pop()[2] == "late"
        queue.push(1.0, 2, "early")
        queue.push(9.0, 2, "later")
        assert queue.pop()[2] == "early"
        assert queue.pop()[2] == "later"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_equivalence_with_reference_heap(self, seed):
        # drive a BucketQueue and a (time, priority, seq) heap with one
        # random push/pop script; every pop must match exactly
        rng = random.Random(seed)
        queue = BucketQueue()
        heap: list = []
        seq = 0
        times = [round(rng.uniform(0.0, 4.0), 1) for _ in range(12)]
        for step in range(2000):
            if heap and rng.random() < 0.45:
                expected = heapq.heappop(heap)
                got = queue.pop()
                assert got == (expected[0], expected[1], expected[3])
            else:
                time = rng.choice(times)
                priority = rng.randrange(5)
                entry = (step, "payload")
                queue.push(time, priority, entry)
                heapq.heappush(heap, (time, priority, seq, entry))
                seq += 1
            assert len(queue) == len(heap)
        while heap:
            expected = heapq.heappop(heap)
            got = queue.pop()
            assert got == (expected[0], expected[1], expected[3])
        assert not queue


class TestSampleUniformBatch:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_batch_matches_scalar_draws(self, seed):
        k = 257
        scalar_rng = random.Random(seed)
        batch_rng = random.Random(seed)
        expected = [scalar_rng.uniform(0.2, 1.5) for _ in range(k)]
        got = sample_uniform_batch(batch_rng, 0.2, 1.5, k)
        assert got == expected  # byte-identical, not approx

    def test_rng_state_identical_after_batch(self):
        # interleaving batched and scalar draws must not diverge the stream
        scalar_rng = random.Random(99)
        batch_rng = random.Random(99)
        [scalar_rng.uniform(0.0, 1.0) for _ in range(100)]
        sample_uniform_batch(batch_rng, 0.0, 1.0, 100)
        assert batch_rng.getstate() == scalar_rng.getstate()
        assert batch_rng.uniform(0.0, 1.0) == scalar_rng.uniform(0.0, 1.0)

    def test_small_batches_use_scalar_path(self):
        rng_a = random.Random(5)
        rng_b = random.Random(5)
        k = MIN_VECTOR_BATCH - 1
        assert sample_uniform_batch(rng_a, 0.1, 0.9, k) == [
            rng_b.uniform(0.1, 0.9) for _ in range(k)
        ]

    def test_fallback_without_numpy(self, monkeypatch):
        # machines without numpy must produce the same bytes, not just the
        # same distribution
        with_np = sample_uniform_batch(random.Random(3), 0.3, 1.0, 128)
        monkeypatch.setattr(batch_mod, "np", None)
        without_np = sample_uniform_batch(random.Random(3), 0.3, 1.0, 128)
        assert without_np == with_np


class TestBatchedDelaySampler:
    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ConfigurationError):
            BatchedDelaySampler(batch_size=0)

    def test_default_batch_size(self):
        assert BatchedDelaySampler().batch_size == DEFAULT_BATCH_SIZE

    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: FixedDelay(0.7),
            lambda: UniformDelay(0.2, 1.0, seed=11),
            lambda: LognormalDelay(median=0.3, sigma=1.0, u=1.0, seed=11),
        ],
        ids=["fixed", "uniform", "lognormal"],
    )
    def test_iid_models_bind(self, make_model):
        sampler = BatchedDelaySampler()
        assert sampler.bind(make_model()) is True
        assert sampler.bound

    @pytest.mark.parametrize(
        "model",
        [
            FlakyLinkDelay(u=1.0, slow_pairs={(1, 2): 3.0}),
            AdversarialDelay(lambda s, d, p, t: 0.5),
        ],
        ids=["flaky-link", "adversarial"],
    )
    def test_stateful_models_refuse_bind(self, model):
        # their draws depend on (src, dst, send_time), so pre-drawing a
        # surplus would change which draw each message sees
        sampler = BatchedDelaySampler()
        assert sampler.bind(model) is False
        assert not sampler.bound

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_draws_match_per_call_delays_across_refills(self, batch_size):
        # n_draws straddles several refill boundaries for every batch_size
        n_draws = 200
        reference = UniformDelay(0.2, 1.0, seed=42)
        expected = [reference.delay(1, 2, None, 0.0) for _ in range(n_draws)]
        sampler = BatchedDelaySampler(batch_size=batch_size)
        assert sampler.bind(UniformDelay(0.2, 1.0, seed=42))
        assert [sampler.next_delay() for _ in range(n_draws)] == expected

    def test_rebind_resets_the_cursor(self):
        # the sweep engine reuses one sampler across trials; a rebind must
        # not leak draws buffered for the previous trial's model
        sampler = BatchedDelaySampler(batch_size=16)
        assert sampler.bind(UniformDelay(0.2, 1.0, seed=1))
        sampler.next_delay()
        assert sampler.bind(UniformDelay(0.2, 1.0, seed=2))
        assert sampler.next_delay() == UniformDelay(0.2, 1.0, seed=2).delay(
            1, 2, None, 0.0
        )

    def test_fixed_model_batches_are_constant(self):
        sampler = BatchedDelaySampler(batch_size=8)
        assert sampler.bind(FixedDelay(0.7))
        assert [sampler.next_delay() for _ in range(20)] == [0.7] * 20
