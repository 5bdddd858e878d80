"""Tests for repro.sim.batch: the bucket queue.

The contract under test is *byte-identity*, not statistical similarity: bucket
pops must reproduce exactly what a ``(time, priority, seq)`` binary heap would
have produced.  (How delays are drawn is ``tests/test_sim_delay_draws.py``.)
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim.batch import BucketQueue


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

    def test_min_time_and_bucket_cleanup(self):
        queue = BucketQueue()
        queue.push(3.0, 2, "x")
        queue.push(5.0, 2, "y")
        assert queue.times[0] == 3.0
        queue.pop()
        assert queue.times[0] == 5.0
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
