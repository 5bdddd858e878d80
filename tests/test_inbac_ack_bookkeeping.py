"""INBAC's acknowledgement bookkeeping against the eager reference.

INBAC keeps ``collection1`` keyed by sender and folds the phase-1 union into
``collection0`` only when somebody reads it.  ``EagerINBAC`` below is the
bookkeeping as it used to be written — ``collection1`` a set of ``(sender,
collection)`` pairs hashed on every delivery, the union made at the timeout
whether or not anything reads it, ``by_sender`` rebuilt and sorted per call,
one ``send`` per destination — kept here as the reference.  Every execution
must come out the same under both: trace fingerprint, each process' branch
history, and ``collection0`` / ``collection1`` as Appendix A names them.
Its ``_full_backups`` computes the vote map per call with a plain
``setdefault`` sweep over each sender's sorted pairs, sharing no helper with
INBAC, so it is also the reference for INBAC's fast decision, which
processes holding the same ack objects share.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import named_delay, named_fault
from repro.exp.spec import coerce_axis
from repro.protocols import inbac
from repro.protocols.base import ABORT, COMMIT, logical_and
from repro.protocols.inbac import (
    BRANCH_ASK_HELP,
    BRANCH_CONS_AND,
    BRANCH_CONS_ZERO,
    BRANCH_FAST_ABORT,
    BRANCH_FAST_DECIDE,
    BRANCH_HELPED_CONS_AND,
    BRANCH_HELPED_CONS_ZERO,
    BRANCH_HELPED_FAST,
    INBAC,
)
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import FixedDelay
from repro.sim.runner import Scheduler, Simulation


class EagerINBAC(INBAC):
    """The reference: eager union, ``collection1`` as a set of pairs."""

    # plain attributes again, shadowing the properties of the class under test
    collection0 = None
    collection1 = None

    def __init__(self, pid, n, f, env, **kwargs):
        super().__init__(pid, n, f, env, **kwargs)
        self.collection0 = set()
        self.collection1 = set()
        # INBAC builds its own on the first HELPED reply
        self.collection_help = set()

    def _all_votes_from(self, collections) -> Optional[Dict[int, int]]:
        """Extract one vote per process from a union of backed-up collections."""
        votes: Dict[int, int] = {}
        for pid, vote in sorted(collections):
            votes.setdefault(pid, vote)
        if all(pid in votes for pid in self.all_pids()):
            return votes
        return None

    def _full_backups(self, required_senders, required_full, required_partial=None):
        """Check the "f correct acknowledgements" condition of Figure 1.

        ``required_senders`` must all appear in ``collection1``; senders in
        ``required_full`` must have backed up every process' vote; senders in
        ``required_partial`` (P_{f+1}'s acknowledgement to the first ``f``
        processes) must cover at least ``{P1..Pf}``.
        """
        required_partial = required_partial or set()
        by_sender: Dict[int, Any] = {}
        for sender, collection in self.collection1:
            by_sender.setdefault(sender, set()).update(collection)
        for sender in required_senders:
            if sender not in by_sender:
                return None
        all_pids = set(self.all_pids())
        low_pids = set(range(1, self.f + 1))
        votes: Dict[int, int] = {}
        for required, senders in ((all_pids, required_full), (low_pids, required_partial)):
            for sender in senders:
                backed_up = by_sender[sender]
                if not required <= {pid for pid, _ in backed_up}:
                    return None
                for pid, vote in sorted(backed_up):
                    votes.setdefault(pid, vote)
        if not all(pid in votes for pid in all_pids):
            return None
        return votes


    def on_propose(self, value: Any) -> None:
        self.val = COMMIT if value else ABORT
        self.vote = self.val
        if self.fast_abort and self.val == ABORT:
            # Section 5.2 remark: a process voting 0 may tell everyone and
            # decide immediately; receivers decide 0 on receipt.
            abort_msg = ("V0",)  # immutable: one copy for all destinations
            for q in self.other_pids():
                self.send(q, abort_msg)
            self._record_branch(BRANCH_FAST_ABORT)
            self.decide_once(ABORT)
            # it still participates as a backup so that others terminate
        vote_msg = ("V", self.val)  # immutable: one copy for all destinations
        for q in self.first_f():
            self.send(q, vote_msg)
        if 1 <= self.pid <= self.f:
            self.send(self.f + 1, vote_msg)
        if 1 <= self.pid <= self.f + 1:
            self.set_timer(1)
        else:
            self.set_timer(2)
            self.phase = 1

    # ------------------------------------------------------------------ #
    # deliveries
    # ------------------------------------------------------------------ #
    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "V" and self.phase == 0:
            self.collection0.add((src, payload[1]))
        elif kind == "V0" and self.fast_abort:
            if not self.decided:
                self._record_branch(BRANCH_FAST_ABORT)
                self.decide_once(ABORT)
        elif kind == "C":
            self.collection1.add((src, payload[1]))
            self.cnt += 1
            self._maybe_finish_help()
        elif kind == "HELP" and self.phase == 2 and self.pid >= self.f + 1:
            self.send(src, ("HELPED", tuple(sorted(self.collection0))))
        elif kind == "HELPED" and self.pid >= self.f + 1:
            self.collection_help.update(payload[1])
            self.cnt_help += 1
            self._maybe_finish_help()

    # ------------------------------------------------------------------ #
    # timeouts
    # ------------------------------------------------------------------ #
    def on_timeout(self, name: str) -> None:
        if name != "timer":
            return
        if self.phase == 0:
            self._phase0_timeout()
        elif self.phase == 1 and not self.decided and not self.proposed:
            if self.pid >= self.f + 1:
                self._phase1_timeout_outsider()
            else:
                self._phase1_timeout_backup()

    def _phase0_timeout(self) -> None:
        """At time U the backup processes acknowledge the votes they back up."""
        if 1 <= self.pid <= self.f:
            ack = ("C", tuple(sorted(self.collection0)))  # immutable: one copy for all
            for q in self.all_pids():
                self.send(q, ack)
        elif self.pid == self.f + 1:
            ack = ("C", tuple(sorted(self.collection0)))
            for q in self.first_f():
                self.send(q, ack)
        self.phase = 1
        self.set_timer(2)

    # -- processes P_{f+1} .. P_n ---------------------------------------- #
    def _phase1_timeout_outsider(self) -> None:
        self.phase = 2
        collection_val = set()
        for _, c in self.collection1:
            collection_val.update(c)
        self.collection0 = self.collection0 | collection_val | {(self.pid, self.val)}
        votes = self._full_backups(
            required_senders=set(self.first_f()),
            required_full=set(self.first_f()),
        )
        if votes is not None:
            self._record_branch(BRANCH_FAST_DECIDE)
            self.decide_once(logical_and(votes.values()))
            return
        if self.cnt >= 1:
            # collection_val above is exactly this union of collection1
            all_votes = self._all_votes_from(collection_val)
            if all_votes is not None:
                self._record_branch(BRANCH_CONS_AND)
                self._cons_propose(logical_and(all_votes.values()))
            else:
                self._record_branch(BRANCH_CONS_ZERO)
                self._cons_propose(ABORT)
            return
        # no acknowledgement from any backup process: ask for more acks
        self._record_branch(BRANCH_ASK_HELP)
        self.wait = True
        help_msg = ("HELP",)  # immutable: one copy for all destinations
        for q in self.beyond_f():
            self.send(q, help_msg)

    def _maybe_finish_help(self) -> None:
        """The "wait until >= n - f messages" transition of Figure 1."""
        if not (
            self.wait
            and not self.proposed
            and not self.decided
            and self.pid >= self.f + 1
            and self.cnt + self.cnt_help >= self.n - self.f
        ):
            return
        self.wait = False
        votes = self._full_backups(
            required_senders=set(self.first_f()),
            required_full=set(self.first_f()),
        )
        if votes is not None:
            self._record_branch(BRANCH_HELPED_FAST)
            self.decide_once(logical_and(votes.values()))
            return
        if self.cnt >= 1:
            union = set()
            for _, c in self.collection1:
                union.update(c)
            all_votes = self._all_votes_from(union)
            if all_votes is not None:
                self._record_branch(BRANCH_HELPED_CONS_AND)
                self._cons_propose(logical_and(all_votes.values()))
            else:
                self._record_branch(BRANCH_HELPED_CONS_ZERO)
                self._cons_propose(ABORT)
            return
        help_votes = self._all_votes_from(self.collection_help)
        if help_votes is not None:
            self._record_branch(BRANCH_HELPED_CONS_AND)
            self._cons_propose(logical_and(help_votes.values()))
        else:
            self._record_branch(BRANCH_HELPED_CONS_ZERO)
            self._cons_propose(ABORT)

    # -- processes P_1 .. P_f --------------------------------------------- #
    def _phase1_timeout_backup(self) -> None:
        votes = self._full_backups(
            required_senders=set(range(1, self.f + 2)),
            required_full=set(self.first_f()),
            required_partial={self.f + 1},
        )
        if votes is not None:
            self._record_branch(BRANCH_FAST_DECIDE)
            self.decide_once(logical_and(votes.values()))
            return
        union = set()
        for _, c in self.collection1:
            union.update(c)
        all_votes = self._all_votes_from(union)
        if all_votes is not None:
            self._record_branch(BRANCH_CONS_AND)
            self._cons_propose(logical_and(all_votes.values()))
        else:
            self._record_branch(BRANCH_CONS_ZERO)
            self._cons_propose(ABORT)


# --------------------------------------------------------------------------- #
# the differential: every execution comes out the same under both classes
# --------------------------------------------------------------------------- #
SYSTEMS = [(4, 1), (5, 2), (7, 3)]

#: the explorer's four strategies, as (seed, parameters) that make every
#: decision kind (defer, crash, recover) actually apply
STRATEGIES = {
    "timestamp-order": (0, dict()),
    "random-walk": (3, dict(defer_prob=0.3, crash_prob=0.1)),
    "delay-reorder": (1, dict(k=3, window=12)),
    "crash-point": (0, dict(pid=2, point=1, recover_after=2)),
}

#: the kernel matrix rows that leave the nice path: every delay model under a
#: crash and a rejoin (early enough to hit the protocol), the flaky link
#: under every fault plan
FAULTS = {
    "failure-free": ("failure-free", {}),
    "crash": ("crash", {"pid": 1, "at": 0.5}),
    "rejoin": ("rejoin", {"pid": 2, "at": 0.5, "rejoin_at": 3.0}),
}
MATRIX = [(delay, fault) for delay in ("fixed", "uniform", "lognormal")
          for fault in ("crash", "rejoin")]
MATRIX += [("flaky-link", fault) for fault in sorted(FAULTS)]

#: Figure 1's scenario battery: between them they take every branch, the
#: HELP reply (the reader of the on-demand union) included
FIGURE1 = {
    "backup crashes at 0": lambda: FaultPlan.crash(1, at=0.0),
    "acks from P1 delayed": lambda: FaultPlan(
        delay_rules=[DelayRule(src=1, after_time=0.5, delay=40.0)]
    ),
    "all acks to the last process delayed": lambda: FaultPlan(
        delay_rules=[DelayRule(dst=-1, after_time=0.5, delay=40.0)]
    ),
    "votes to backups delayed": lambda: FaultPlan(
        delay_rules=[DelayRule(predicate=lambda p: p[0] == "V", delay=30.0)]
    ),
    "one ack arrives after the timeout": lambda: FaultPlan(
        delay_rules=[DelayRule(src=1, dst=-1, after_time=0.5, delay=1.5)]
    ),
}


def run_both(n, f, votes, seed=7, delay=None, fault=None, controller=None, **kwargs):
    """One execution per class, as ``(result, result)``; faults built per run."""
    results = []
    for cls in (INBAC, EagerINBAC):
        sim = Simulation(
            n=n,
            f=f,
            # a factory, so both traces carry the same protocol label
            process_factory=lambda pid, n_, f_, env, cls=cls: cls(pid, n_, f_, env, **kwargs),
            delay_model=delay(seed) if delay is not None else FixedDelay(1.0),
            fault_plan=fault() if fault is not None else None,
            seed=seed,
            max_time=400.0,
            trace_level="full",
        )
        results.append(
            sim.run(votes, controller=controller() if controller is not None else None)
        )
    return results


def assert_same_execution(new, ref):
    assert new.trace.fingerprint() == ref.trace.fingerprint()
    assert new.trace.metadata.get("schedule_decisions") == ref.trace.metadata.get(
        "schedule_decisions"
    )
    for pid, process in new.processes.items():
        reference = ref.processes[pid]
        assert process.branch_history == reference.branch_history, f"P{pid}"
        assert process.collection1 == reference.collection1, f"P{pid}"
        assert process.collection0 == reference.collection0, f"P{pid}"
        assert process.collection_help == reference.collection_help, f"P{pid}"


def mixed_votes(n):
    return [0 if pid == 3 else 1 for pid in range(1, n + 1)]


@pytest.mark.parametrize("n,f", SYSTEMS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_explorer_strategies(strategy, n, f):
    seed, params = STRATEGIES[strategy]
    spec = coerce_axis("schedules", (strategy, strategy, params))
    new, ref = run_both(
        n, f, [1] * n, seed=11,
        delay=named_delay("uniform").build,
        controller=lambda: spec.build(seed),
    )
    assert_same_execution(new, ref)


@pytest.mark.parametrize("n,f", SYSTEMS)
@pytest.mark.parametrize("votes", ["all-yes", "one-no"])
@pytest.mark.parametrize("delay,fault", MATRIX)
def test_kernel_matrix_rows(delay, fault, votes, n, f):
    name, params = FAULTS[fault]
    new, ref = run_both(
        n, f, [1] * n if votes == "all-yes" else mixed_votes(n),
        delay=named_delay(delay).build,
        fault=named_fault(name, **params).build,
    )
    assert_same_execution(new, ref)


def figure1_plan(scenario, n):
    """A fresh plan per run, with ``dst=-1`` standing for the last process."""
    def plan():
        built = FIGURE1[scenario]()
        for rule in built.delay_rules:
            if rule.dst == -1:
                rule.dst = n
        return built

    return plan


@pytest.mark.parametrize("n,f", SYSTEMS)
@pytest.mark.parametrize("scenario", sorted(FIGURE1))
def test_figure1_scenarios(scenario, n, f):
    new, ref = run_both(n, f, [1] * n, fault=figure1_plan(scenario, n))
    assert_same_execution(new, ref)


def test_the_battery_reaches_every_branch_and_the_help_reply():
    taken = set()
    help_replies = 0
    for n, f in SYSTEMS:
        for scenario in sorted(FIGURE1):
            new, _ = run_both(n, f, [1] * n, fault=figure1_plan(scenario, n))
            for process in new.processes.values():
                taken.update(process.branch_history)
            help_replies += sum(
                1 for m in new.trace.messages if m.payload[0] == "HELPED"
            )
    assert {BRANCH_FAST_DECIDE, BRANCH_CONS_AND, BRANCH_CONS_ZERO, BRANCH_ASK_HELP} <= taken
    assert taken & {BRANCH_HELPED_FAST, BRANCH_HELPED_CONS_AND, BRANCH_HELPED_CONS_ZERO}
    assert help_replies > 0


def test_fast_abort_variant():
    new, ref = run_both(5, 2, mixed_votes(5), fast_abort=True)
    assert_same_execution(new, ref)
    assert BRANCH_FAST_ABORT in new.processes[3].branch_history


# --------------------------------------------------------------------------- #
# hand-built: what reliable channels never produce
# --------------------------------------------------------------------------- #
def lone_process(cls, pid=4, n=5, f=2):
    scheduler = Scheduler(n=n, f=f)
    process = cls(pid, n, f, scheduler.env_for(pid))
    scheduler.bind_process(pid, process)
    process.on_propose(1)
    return process


@pytest.mark.parametrize("cls", [INBAC, EagerINBAC])
def test_two_different_collections_from_one_sender_are_both_kept(cls):
    process = lone_process(cls)
    everyone = tuple((pid, 1) for pid in range(1, 6))
    first_half = ((1, 1), (2, 1), (3, 1))
    second_half = ((3, 1), (4, 1), (5, 1))
    process.on_deliver(1, ("C", everyone))
    process.on_deliver(2, ("C", first_half))
    process.on_deliver(2, ("C", second_half))
    process.on_deliver(2, ("C", tuple(first_half)))  # an equal copy: no new pair
    process.on_deliver(1, ("C", everyone))  # the same object again
    assert process.cnt == 5
    assert process.collection1 == {
        (1, everyone), (2, first_half), (2, second_half),
    }
    # P2's two halves together cover everyone: the fast condition holds
    outcome = process._full_backups(required_senders={1, 2}, required_full={1, 2})
    if cls is INBAC:
        assert outcome == COMMIT
    else:
        assert outcome == {pid: 1 for pid in range(1, 6)}
    process.on_timeout("timer")
    assert process.branch_history == [BRANCH_FAST_DECIDE]
    assert process.collection0 == set(everyone)


def fast_decisions(n, f, pid, acks):
    """``_full_backups`` as the phase-1 timeout calls it, on two INBAC
    processes holding the same ack objects (the first computes the verdict,
    the second shares it), and the reference's answer as a decision."""
    _, first_f, first_f1, next_after_f = inbac._pid_sets(n, f)
    required = (first_f1, first_f, next_after_f) if pid <= f else (first_f, first_f)
    answers = []
    for cls in (INBAC, INBAC, EagerINBAC):
        process = lone_process(cls, pid=pid, n=n, f=f)
        for sender, collection in acks:
            process.on_deliver(sender, ("C", collection))
        answers.append(process._full_backups(*required))
    votes = answers.pop()
    return answers, None if votes is None else logical_and(votes.values())


@st.composite
def ack_configurations(draw):
    """A receiver and the acknowledgements its backups sent it.

    A sender is missing, covers everyone, covers only ``P1..Pf``, covers some
    random pids, or (as ``P_{f+1}``) falls short of ``P1..Pf`` by one; it may
    send a second collection, unsorted, which INBAC keeps beside the first.  ``nice``
    has every full sender complete, ``partial-short`` the same with only
    ``P_{f+1}`` short.
    """
    n = draw(st.integers(2, 7))
    f = draw(st.integers(1, n - 1))
    pid = draw(st.integers(1, n))
    votes = draw(st.lists(st.sampled_from([COMMIT, ABORT]), min_size=n, max_size=n))
    scenario = draw(st.sampled_from(["random", "nice", "partial-short"]))
    everyone = range(1, n + 1)
    first_f = range(1, f + 1)
    acks = []
    for sender in range(1, f + 2) if pid <= f else range(1, f + 1):
        if scenario == "random":
            shape = draw(st.sampled_from(["missing", "all", "first-f", "short", "some"]))
        elif scenario == "partial-short" and sender == f + 1:
            shape = "short"
        else:
            shape = "all"
        if shape == "missing":
            continue
        if shape == "all":
            pids = everyone
        elif shape == "first-f":
            pids = first_f
        elif shape == "short":
            gap = draw(st.sampled_from(first_f))
            pids = [p for p in first_f if p != gap]
        else:
            pids = sorted(draw(st.sets(st.sampled_from(everyone))))
        acks.append((sender, tuple((p, votes[p - 1]) for p in pids)))
        if draw(st.booleans()) and scenario == "random":
            second = draw(st.lists(
                st.tuples(st.sampled_from(everyone), st.sampled_from([COMMIT, ABORT])),
                unique=True,
            ))
            acks.append((sender, tuple(second)))  # in no particular order
    return n, f, pid, acks


@settings(max_examples=300, deadline=None)
@given(ack_configurations())
def test_the_shared_verdict_is_the_reference_decision(configuration):
    memoised, reference = fast_decisions(*configuration)
    assert memoised == [reference, reference]


def test_the_verdict_follows_the_system_and_the_contents():
    everyone = tuple((pid, COMMIT) for pid in range(1, 6))
    low = ((1, COMMIT), (2, COMMIT))
    # the same objects read at two system sizes: they cover all 5, not all 6
    assert fast_decisions(5, 2, 4, [(1, everyone), (2, everyone)]) == ([COMMIT] * 2, COMMIT)
    assert fast_decisions(6, 2, 4, [(1, everyone), (2, everyone)]) == ([None] * 2, None)
    # the same n and objects under a different f: a backup at f=1 needs P2's
    # ack to cover P1 only, an outsider at f=2 needs it to cover everyone
    assert fast_decisions(5, 1, 1, [(1, everyone), (2, low)]) == ([COMMIT] * 2, COMMIT)
    assert fast_decisions(5, 2, 4, [(1, everyone), (2, low)]) == ([None] * 2, None)
    # a second execution with equal collections, then with one vote changed
    copy = tuple(everyone)
    assert fast_decisions(5, 2, 4, [(1, copy), (2, tuple(copy))]) == ([COMMIT] * 2, COMMIT)
    no = tuple((pid, ABORT if pid == 3 else COMMIT) for pid in range(1, 6))
    assert fast_decisions(5, 2, 4, [(1, no), (2, no)]) == ([ABORT] * 2, ABORT)


def test_an_unsorted_collection_is_read_in_sorted_pair_order():
    """A sender need not sort its ack: each pid's vote is its first in sorted
    pair order, wherever the pair stands in the tuple."""
    shuffled = ((5, COMMIT), (3, COMMIT), (1, COMMIT), (4, COMMIT), (2, COMMIT))
    assert fast_decisions(5, 2, 4, [(1, shuffled), (2, shuffled[::-1])]) == (
        [COMMIT] * 2, COMMIT,
    )
    # P3 backed up twice: (3, ABORT) sorts first, though it stands last
    twice = shuffled + ((3, ABORT),)
    assert fast_decisions(5, 2, 4, [(1, twice), (2, shuffled)]) == ([ABORT] * 2, ABORT)


def test_a_freed_collection_does_not_answer_for_its_successor():
    """Fresh tuples of one size, built after the last ones were dropped, so
    their ids recur; the memo drops its oldest entry past its cap, so its
    objects go too."""
    for round_ in range(4 * inbac._VERDICT_CAP):
        vote = ABORT if round_ % 3 == 0 else COMMIT
        ack = tuple((pid, vote if pid == 2 else COMMIT) for pid in range(1, 5))
        assert fast_decisions(4, 1, 3, [(1, ack)]) == ([vote] * 2, vote)
        del ack
    assert len(inbac._VERDICTS) <= inbac._VERDICT_CAP


def test_an_ack_after_the_timeout_is_not_part_of_collection0():
    partial = ((1, 1), (2, 1))
    late = ((1, 1), (2, 1), (3, 0))
    collections = []
    for cls in (INBAC, EagerINBAC):
        process = lone_process(cls)
        process.on_deliver(1, ("C", partial))
        process.on_timeout("timer")  # acks incomplete: consensus branch
        process.on_deliver(2, ("C", late))
        assert process.collection1 == {(1, partial), (2, late)}
        collections.append(process.collection0)
    assert collections[0] == collections[1] == {(1, 1), (2, 1), (4, 1)}
