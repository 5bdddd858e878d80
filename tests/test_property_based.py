"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lattice import PropertyPair, all_cells, robustness_leq
from repro.core.metrics import messages_until_last_decision
from repro.core.table1 import cell_bound, delay_lower_bound, message_lower_bound
from repro.db.locks import LockManager, LockMode
from repro.db.store import VersionedStore
from repro.db.wal import COMMIT, PREPARE, WriteAheadLog
from repro.protocols.base import logical_and
from repro.sim.trace import Trace

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
prop_subsets = st.sets(st.sampled_from(["A", "V", "T"]), max_size=3).map(
    lambda s: "".join(sorted(s))
)
nf_pairs = st.tuples(st.integers(min_value=2, max_value=40), st.data())


@st.composite
def property_pairs(draw):
    cf = draw(prop_subsets)
    nf = draw(prop_subsets)
    return PropertyPair.of(cf, nf)


@st.composite
def valid_nf(draw):
    n = draw(st.integers(min_value=2, max_value=50))
    f = draw(st.integers(min_value=1, max_value=n - 1))
    return n, f


# --------------------------------------------------------------------------- #
# lattice / Table 1 invariants
# --------------------------------------------------------------------------- #
class TestLatticeInvariants:
    @given(property_pairs())
    def test_canonicalisation_is_idempotent_and_canonical(self, pair):
        canonical = pair.canonicalised()
        assert canonical.is_canonical()
        assert canonical.canonicalised() == canonical
        assert canonical in all_cells()

    @given(property_pairs(), property_pairs())
    def test_robustness_order_is_antisymmetric_on_distinct_pairs(self, a, b):
        if robustness_leq(a, b) and robustness_leq(b, a):
            assert a == b

    @given(property_pairs(), property_pairs())
    def test_bounds_are_monotone_in_robustness(self, a, b):
        """More robust problems can never have *smaller* lower bounds."""
        if robustness_leq(a, b):
            assert delay_lower_bound(a) <= delay_lower_bound(b)
            assert message_lower_bound(a, 7, 3) <= message_lower_bound(b, 7, 3)

    @given(property_pairs(), valid_nf())
    def test_equivalent_empty_cell_has_same_bounds(self, pair, nf):
        n, f = nf
        equivalent = pair.canonicalised()
        assert message_lower_bound(pair, n, f) == message_lower_bound(equivalent, n, f)
        assert delay_lower_bound(pair) == delay_lower_bound(equivalent)

    @given(valid_nf())
    def test_bound_formulas_are_ordered(self, nf):
        n, f = nf
        weakest = message_lower_bound(PropertyPair.of("", ""), n, f)
        sync = message_lower_bound(PropertyPair.of("V", ""), n, f)
        validity_nf = message_lower_bound(PropertyPair.of("V", "V"), n, f)
        indulgent = message_lower_bound(PropertyPair.indulgent_atomic_commit(), n, f)
        assert weakest <= sync <= indulgent
        assert weakest <= sync <= validity_nf + f
        assert indulgent == validity_nf + f

    @given(valid_nf())
    def test_fraction_rendering_roundtrip(self, nf):
        n, f = nf
        bound = cell_bound(PropertyPair.indulgent_atomic_commit())
        assert bound.as_fraction(n, f) == f"2/{2 * n - 2 + f}"


# --------------------------------------------------------------------------- #
# logical AND of votes
# --------------------------------------------------------------------------- #
class TestVoteAlgebra:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30))
    def test_and_is_zero_iff_some_vote_is_zero(self, votes):
        assert logical_and(votes) == (0 if 0 in votes else 1)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=6))
    def test_and_is_the_vote_by_vote_fold(self, votes):
        """``all()`` against the fold it replaced, the empty list included."""
        folded = 1
        for vote in votes:
            folded = folded and (1 if vote else 0)
        assert logical_and(votes) == (1 if folded else 0)
        assert logical_and(iter(votes)) == logical_and(votes)

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10),
    )
    def test_and_is_associative_over_concatenation(self, a, b):
        assert logical_and(a + b) == logical_and([logical_and(a), logical_and(b)])


# --------------------------------------------------------------------------- #
# versioned store
# --------------------------------------------------------------------------- #
class TestStoreInvariants:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.integers(-100, 100)),
            min_size=1,
            max_size=50,
        )
    )
    def test_get_returns_last_write_and_versions_increase(self, writes):
        store = VersionedStore()
        last = {}
        previous_version = 0
        for key, value in writes:
            version = store.apply(key, value)
            assert version > previous_version
            previous_version = version
            last[key] = value
        for key, value in last.items():
            assert store.get(key) == value
        assert store.snapshot() == last


# --------------------------------------------------------------------------- #
# lock manager
# --------------------------------------------------------------------------- #
class TestLockInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t1", "t2", "t3"]),
                st.sampled_from(["x", "y", "z"]),
                st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
            ),
            max_size=40,
        )
    )
    def test_exclusive_locks_never_shared_between_transactions(self, requests):
        locks = LockManager()
        granted_exclusive = {}
        for txn, key, mode in requests:
            if locks.try_acquire(txn, key, mode):
                if mode == LockMode.EXCLUSIVE:
                    granted_exclusive[key] = txn
            holders = locks.holders(key)
            # invariant: an exclusively held key has exactly one holder
            if key in granted_exclusive and granted_exclusive[key] in holders:
                exclusive_holder = granted_exclusive[key]
                assert holders == {exclusive_holder} or exclusive_holder not in holders

    @given(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=10))
    def test_release_all_leaves_no_residue(self, keys):
        locks = LockManager()
        for key in keys:
            locks.try_acquire("t1", key, LockMode.EXCLUSIVE)
        locks.release_all("t1")
        assert locks.locked_keys() == []
        for key in keys:
            assert locks.try_acquire("t2", key, LockMode.EXCLUSIVE)


# --------------------------------------------------------------------------- #
# write-ahead log replay
# --------------------------------------------------------------------------- #
class TestWalInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t1", "t2", "t3", "t4"]),
                st.dictionaries(st.sampled_from("abc"), st.integers(), min_size=1, max_size=3),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_replay_contains_exactly_the_committed_writes(self, entries):
        wal = WriteAheadLog()
        committed = {}
        seen = set()
        for index, (txn, writes, commit) in enumerate(entries):
            txn_id = f"{txn}-{index}"
            if txn_id in seen:
                continue
            seen.add(txn_id)
            wal.append(PREPARE, txn_id, writes=writes)
            if commit:
                wal.append(COMMIT, txn_id, writes=writes)
                committed.update(writes)
        replayed = wal.replay().snapshot()
        assert set(replayed) <= set(committed)
        # committed keys end with some committed value (ordering aside, the
        # last committed write of each key is what replay yields)
        for key in replayed:
            assert key in committed


# --------------------------------------------------------------------------- #
# cluster invariants under random workloads and crash points
# --------------------------------------------------------------------------- #
class TestClusterInvariantProperties:
    """Random transaction workloads + adversarial crash points: for every
    correct commit protocol the three cluster invariants (atomicity,
    WAL-replay durability, lock safety) must hold on every run.  Everything
    is derived from the drawn seed, and failures print the reproducing
    ``(seed, decisions)`` pair — the same contract `repro.explore` uses."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),   # crash victim (partition or client)
        st.integers(min_value=0, max_value=6),   # phase-boundary ordinal
        st.sampled_from(["2PC", "INBAC"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_under_any_crash_point(self, seed, pid, point, protocol):
        from repro.db import ClusterConfig, run_cluster
        from repro.explore import CrashPoint
        from repro.workloads import uniform_workload

        workload = uniform_workload(
            3, num_partitions=3, participants_per_txn=3, inter_arrival=2.0,
            seed=seed,
        )
        report = run_cluster(
            ClusterConfig(
                num_partitions=3,
                commit_protocol=protocol,
                seed=seed,
                max_time=200.0,
                controller=CrashPoint(pid=pid, point=point),
            ),
            workload.transactions,
        )
        assert report.invariants.holds, (
            f"cluster invariants violated; reproduce with "
            f"(seed={seed}, decisions={report.schedule_decisions}): "
            f"{report.invariants.violations}"
        )

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_invariants_hold_under_random_walk_schedules(self, seed, crash_prob):
        from repro.db import ClusterConfig, run_cluster
        from repro.explore import RandomWalk
        from repro.workloads import hotspot_workload

        # contended workload: aborts happen, so the invariants are exercised
        # on mixed commit/abort runs, not just all-commit ones
        workload = hotspot_workload(
            4, num_partitions=3, inter_arrival=1.0, seed=seed
        )
        report = run_cluster(
            ClusterConfig(
                num_partitions=3,
                commit_protocol="INBAC",
                seed=seed,
                max_time=200.0,
                controller=RandomWalk(
                    seed=seed, defer_prob=0.2, crash_prob=crash_prob
                ),
            ),
            workload.transactions,
        )
        assert report.invariants.holds, (
            f"cluster invariants violated; reproduce with "
            f"(seed={seed}, decisions={report.schedule_decisions}): "
            f"{report.invariants.violations}"
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_recorded_decisions_replay_to_the_same_outcomes(self, seed):
        from repro.db import ClusterConfig, run_cluster
        from repro.explore import RandomWalk, ReplayController
        from repro.workloads import bank_transfer_workload

        workload = bank_transfer_workload(3, num_partitions=3, seed=seed)

        def run(controller):
            return run_cluster(
                ClusterConfig(
                    num_partitions=3, commit_protocol="2PC", seed=seed,
                    max_time=200.0, controller=controller,
                ),
                workload.transactions,
            )

        explored = run(RandomWalk(seed=seed, defer_prob=0.25, crash_prob=0.1))
        replayed = run(ReplayController(decisions=explored.schedule_decisions))
        assert replayed.trace_fingerprint == explored.trace_fingerprint, (
            f"replay diverged for (seed={seed}, "
            f"decisions={explored.schedule_decisions})"
        )
        assert {o.txn_id: o.decision for o in replayed.outcomes} == {
            o.txn_id: o.decision for o in explored.outcomes
        }


# --------------------------------------------------------------------------- #
# trace metrics
# --------------------------------------------------------------------------- #
class TestTraceInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5),
                st.integers(1, 5),
                st.floats(0, 10, allow_nan=False),
                st.floats(0.1, 5, allow_nan=False),
            ),
            max_size=40,
        ),
        st.floats(0, 20, allow_nan=False),
    )
    def test_messages_until_deadline_never_exceeds_total(self, sends, decision_time):
        trace = Trace(n=5, f=1)
        for index, (src, dst, send_time, delay) in enumerate(sends):
            trace.record_send(index, src, dst, ("m",), send_time, send_time + delay,
                              counted=src != dst)
        trace.record_proposal(1, 1, 0.0)
        trace.record_decision(1, 1, decision_time)
        until = messages_until_last_decision(trace)
        assert 0 <= until <= trace.message_count()
        # counting is monotone in the deadline
        assert trace.messages_received_by(decision_time) <= trace.messages_received_by(
            decision_time + 100
        )

    @given(st.integers(2, 8), st.integers(1, 7))
    @settings(suppress_health_check=[HealthCheck.filter_too_much])
    def test_nice_execution_invariants_hold_for_inbac(self, n, f):
        """End-to-end property: for any valid (n, f), INBAC's nice execution
        decides commit everywhere in 2 delays with 2fn messages."""
        if f >= n:
            f = n - 1
        from repro.protocols import INBAC
        from repro.sim.runner import run_nice_execution

        result = run_nice_execution(INBAC, n=n, f=f)
        assert set(result.decisions().values()) == {1}
        assert len(result.decisions()) == n
        assert result.trace.last_decision_time() == 2.0
        assert result.trace.message_count() == 2 * f * n


# --------------------------------------------------------------------------- #
# percentile digests
# --------------------------------------------------------------------------- #
class TestPercentileDigests:
    """``digest_percentile`` must select the nearest-rank element of the
    expanded sorted list.

    The counters trace level ships a value -> multiplicity digest instead of
    the raw latency list; the aggregate fingerprint is only stable across
    trace levels if the digest walk is exactly nearest-rank over the list.
    """

    @staticmethod
    def _nearest_rank(sorted_values, q):
        rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
        return sorted_values[min(rank, len(sorted_values)) - 1]

    @given(
        st.dictionaries(
            st.floats(min_value=0.001, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=1, max_value=20),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_digest_matches_expanded_list(self, counts, q):
        from repro.sim.trace import digest_percentile

        expanded = sorted(
            value for value, mult in counts.items() for _ in range(mult)
        )
        total = sum(counts.values())
        assert digest_percentile(counts, total, q) == self._nearest_rank(expanded, q)

    @given(st.floats(min_value=0.001, max_value=100.0,
                     allow_nan=False, allow_infinity=False),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_single_value_digest_is_that_value_at_every_q(self, value, mult):
        from repro.sim.trace import digest_percentile

        for q in (0.0, 50.0, 99.0, 100.0):
            assert digest_percentile({value: mult}, mult, q) == value

    def test_empty_digest_is_none(self):
        from repro.sim.trace import digest_percentile

        assert digest_percentile({}, 0, 50.0) is None

# --------------------------------------------------------------------------- #
# bucket queue vs a test-owned binary heap
# --------------------------------------------------------------------------- #
#: a small pool makes repeated timestamps (shared buckets) the common case,
#: one-ulp neighbours included; arbitrary floats cover everything else
_QUEUE_TIMES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0000000000000002, 2.0, 3.5]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _QUEUE_TIMES, st.integers(min_value=0, max_value=4)),
        # deliveries colliding on three times: a lone entry, inflated into a
        # bucket by the next push, drained, and lone again
        st.tuples(
            st.just("push"), st.sampled_from([0.5, 1.0, 1.0000000000000002]), st.just(3)
        ),
        st.tuples(st.just("pop")),
    ),
    max_size=200,
)


class TestBucketQueueEquivalence:
    """No push/pop script distinguishes the bucket queue from a heap.

    The reference — ``heapq`` over ``(time, priority, seq)`` with ``seq``
    counting pushes — lives here, in the test: it is the order the scheduler
    is specified to fire events in, and the only binary heap left in the
    tree.  Scripts push earlier than the last pop freely; the queue assumes
    no monotonicity.
    """

    @given(_QUEUE_OPS)
    @settings(max_examples=300, deadline=None)
    def test_every_pop_matches_the_reference_heap(self, ops):
        import heapq

        from repro.sim.batch import BucketQueue

        queue = BucketQueue()
        heap = []
        for seq, op in enumerate(ops):
            if op[0] == "push":
                _, time, priority = op
                queue.push(time, priority, seq)
                heapq.heappush(heap, (time, priority, seq))
            elif heap:
                assert queue.times[0] == heap[0][0]
                assert queue.pop() == heapq.heappop(heap)
            assert len(queue) == len(heap)
            assert bool(queue) == bool(heap)
        while heap:
            assert queue.pop() == heapq.heappop(heap)
        assert not queue and queue.times == [] and queue.buckets == {}
