"""INBAC — the paper's indulgent non-blocking atomic commit protocol.

INBAC solves *indulgent atomic commit* (every network-failure execution solves
NBAC, Definition 3) and is optimal in nice executions: every process decides
after **two message delays** and the ``n`` processes exchange exactly
``2 f n`` messages (Theorem 6).  The implementation follows the pseudocode of
Appendix A line by line; variable names are kept identical so the code can be
read against the paper.

Protocol shape in a nice execution (all timers in units of the delay bound U):

* **time 0** — every process ``P`` sends its vote ``[V, v]`` to its backup set
  ``B_P``: the first ``f`` processes, plus ``P_{f+1}`` when ``P`` itself is
  one of the first ``f`` (so ``B_P = {P1..Pf+1} \\ {P}`` for ``P ≤ Pf``).
* **time U** — every backup process sends back, in a single message, the set
  ``[C, collection]`` of all the votes it backs up (the acknowledgement of the
  successful backups).
* **time 2U** — a process that received the expected ``f`` correct
  acknowledgements containing all ``n`` votes decides their logical AND.

If an acknowledgement is missing or incomplete the process falls back to the
underlying uniform-consensus module ``iuc`` (never invoked in nice
executions), possibly after asking ``P_{f+1}..P_n`` for help — Figure 1's
state machine, which this class records in :attr:`branch` for the Figure 1
reproduction benchmark.

The optional *fast-abort* optimisation mentioned at the end of Section 5.2
(a process voting 0 aborts immediately and tells everyone) is available behind
``fast_abort=True``; it accelerates failure-free aborting executions to one
message delay without affecting nice executions.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess, logical_and

# Figure 1 branch labels (see benchmarks/bench_figure1_inbac_states.py)
BRANCH_FAST_DECIDE = "f-correct-acks/decide-AND"
BRANCH_CONS_AND = "acks-incomplete/cons-propose-AND"
BRANCH_CONS_ZERO = "acks-incomplete/cons-propose-0"
BRANCH_ASK_HELP = "no-ack-from-backups/ask-for-more-acks"
BRANCH_HELPED_FAST = "helped/decide-AND"
BRANCH_HELPED_CONS_AND = "helped/cons-propose-AND"
BRANCH_HELPED_CONS_ZERO = "helped/cons-propose-0"
BRANCH_CONSENSUS_DECIDE = "decide-consensus-decision"
BRANCH_FAST_ABORT = "fast-abort"

# ---------------------------------------------------------------------- #
# the shared verdict
#
# Every backup sends the SAME ack tuple ("C", collection) to all n
# processes (one immutable payload object, see _phase0_timeout), so in a
# nice execution every outsider holds the identical tuple objects from
# P1..Pf, and every backup the identical ones from P1..Pf+1.  The fast
# decision depends only on those objects' contents, so one memo keyed by
# id() lets the n processes share one computation.
#
# * _VERDICTS — one entry per set of acknowledgements a fast decision reads:
#   (n, f, ids of the required-full collections in iteration order, ids of
#   the required-partial ones) -> (full, partial, decision).  An id is valid
#   only while its object is alive: the entry keeps its objects, and a hit
#   is confirmed by tuple equality, which short-cuts on identity and, for a
#   recycled id with equal contents, gives the same verdict — so a hit is
#   never a wrong answer.  One execution reads at most a few such sets (the
#   outsiders', the backups', and on the HELP path an outsider's own), so
#   it holds _VERDICT_CAP entries and drops the oldest when full.  Emptying
#   it instead could drop the outsiders' entry between the backups'
#   timeouts and P_{f+1}'s, which comes last; a larger cap would keep
#   earlier runs' collections alive for no hit.  A run makes two entries,
#   so it keeps at most about two finished runs' ack tuples alive: about
#   1.0 MB at n=200, f=40, and 21 KB at n=40, f=4.
#
# Nothing else outlives a verdict: a miss reads each collection once with C
# builtins (_first_votes), so an ack dies with its run, or with the verdict
# entry that holds it.  A merged set (a sender seen twice) bypasses the memo.
# ---------------------------------------------------------------------- #
_VERDICT_CAP = 4
_VERDICTS: Dict[tuple, tuple] = {}

#: (n, f) -> (all pids, {P1..Pf}, {P1..Pf+1}, {Pf+1}): the sets the fast
#: decision is checked against, built once per system size
_PID_SETS: Dict[Tuple[int, int], tuple] = {}


def _pid_sets(n: int, f: int) -> tuple:
    sets = _PID_SETS.get((n, f))
    if sets is None:
        sets = _PID_SETS[n, f] = (
            frozenset(range(1, n + 1)),
            frozenset(range(1, f + 1)),
            frozenset(range(1, f + 2)),
            frozenset((f + 1,)),
        )
    return sets


def _first_votes(collection) -> Dict[int, int]:
    """Each backed-up pid's first vote in sorted pair order.

    Reversed, the sorted pairs put each pid's first pair last, so the dict
    keeps it.  The collection may come in any order.
    """
    return dict(reversed(sorted(collection)))


def _fast_decision(full, partial, all_pids, low_pids) -> Optional[int]:
    """The AND of the acknowledged votes, or None if the fast condition fails.

    Every collection in ``full`` must back up every process' vote and every
    one in ``partial`` at least ``low_pids``; swept in order, the first vote
    per pid (in sorted pair order) is kept, and there must be one for each of
    ``all_pids``.
    """
    # once one collection has contributed every process' vote the remaining
    # merges cannot add anything (backed-up pids are always drawn from 1..n,
    # so n collected votes means full coverage)
    n_pids = len(all_pids)
    votes: Dict[int, int] = {}
    for collections, required in ((full, all_pids), (partial, low_pids)):
        for collection in collections:
            first_votes = _first_votes(collection)
            if not required <= first_votes.keys():
                return None
            if len(votes) < n_pids:
                # the votes kept so far win: a setdefault sweep
                votes = first_votes | votes
    if not all_pids <= votes.keys():
        return None
    return logical_and(votes.values())


class INBAC(AtomicCommitProcess):
    """Indulgent NBAC, optimal at two message delays and ``2fn`` messages."""

    protocol_name = "INBAC"

    def __init__(self, pid, n, f, env, fast_abort: bool = False):
        super().__init__(pid, n, f, env)
        self.fast_abort = fast_abort
        # state variables, named as in Appendix A
        self.phase = 0
        self.proposed = False
        self._collection0: Set[Tuple[int, int]] = set()
        #: ``(acknowledged collections, own vote pair)`` as they stood at the
        #: phase-1 timeout, until the first read of ``collection0`` folds
        #: them in; a fast decision never reads it
        self._union_at_timeout: Optional[tuple] = None
        # collection1, keyed by sender.  Acknowledged collections travel as
        # sorted tuples, never as raw sets: payload reprs feed the trace
        # fingerprint, and a set's repr order is implementation-defined
        # (repro.lint rule FP002).  Each is kept as the shared tuple object
        # it travelled as, so a delivery never hashes one.
        self._acks: Dict[int, Any] = {}
        #: a sender's later, *different* collections (never the case on
        #: reliable channels), as ``(sender, collection)``
        self._more_acks: list = []
        self.collection_help: Set[Tuple[int, int]] = set()
        self.wait = False
        self.val: Optional[int] = None
        self.proposal: Optional[int] = None
        self.cnt = 0
        self.cnt_help = 0
        # instrumentation for the Figure 1 reproduction
        self.branch: Optional[str] = None
        self.branch_history: list = []
        self.iuc = self.make_consensus("iuc")

    # ------------------------------------------------------------------ #
    # Appendix A's collection0 / collection1
    # ------------------------------------------------------------------ #
    @property
    def collection0(self) -> Set[Tuple[int, int]]:
        """The votes this process backs up, plus — from the phase-1 timeout
        on — every vote acknowledged to it by then and its own."""
        pending = self._union_at_timeout
        if pending is not None:
            self._union_at_timeout = None
            acked, own = pending
            self._collection0 = self._collection0.union(*acked, (own,))
        return self._collection0

    @property
    def collection1(self) -> Set[Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """The acknowledgements received, as ``(sender, collection)`` pairs."""
        pairs = set(self._acks.items())
        pairs.update(self._more_acks)
        return pairs

    def _acked_collections(self) -> tuple:
        return (*self._acks.values(), *(c for _, c in self._more_acks))

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _record_branch(self, branch: str) -> None:
        if self.branch is None:
            self.branch = branch
        self.branch_history.append(branch)

    def backup_set(self) -> Set[int]:
        """``B_P``: the backup processes of this process."""
        if self.pid <= self.f:
            return {p for p in range(1, self.f + 2) if p != self.pid}
        return set(range(1, self.f + 1))

    def _all_votes_from(self, collections) -> Optional[Dict[int, int]]:
        """Extract one vote per process from a union of backed-up collections."""
        votes: Dict[int, int] = {}
        for pid, vote in sorted(collections):
            votes.setdefault(pid, vote)
        if set(self.all_pids()) <= votes.keys():
            return votes
        return None

    def _all_acked_votes(self) -> Optional[Dict[int, int]]:
        """One vote per process out of everything acknowledged so far."""
        return self._all_votes_from(set().union(*self._acked_collections()))

    def _full_backups(self, required_senders, required_full, required_partial=()):
        """Check the "f correct acknowledgements" condition of Figure 1.

        ``required_senders`` must all appear in ``collection1``; senders in
        ``required_full`` must have backed up every process' vote; senders in
        ``required_partial`` (P_{f+1}'s acknowledgement to the first ``f``
        processes) must cover at least ``{P1..Pf}``.  Returns the fast
        decision, the AND of one vote per process, or None if the condition
        does not hold.
        """
        # each sender's collection is read as the tuple it travelled as;
        # only a sender seen twice pays for a merged set
        by_sender = self._acks
        more = self._more_acks
        if more:
            by_sender = dict(by_sender)
            for sender, collection in more:
                merged = set(by_sender[sender])
                merged.update(collection)
                by_sender[sender] = merged
        if not required_senders <= by_sender.keys():
            return None
        full = tuple(map(by_sender.__getitem__, required_full))
        partial = tuple(map(by_sender.__getitem__, required_partial))
        if more:
            return _fast_decision(full, partial, *_pid_sets(self.n, self.f)[:2])
        key = (self.n, self.f, tuple(map(id, full)), tuple(map(id, partial)))
        hit = _VERDICTS.get(key)
        if hit is not None and hit[0] == full and hit[1] == partial:
            return hit[2]
        decision = _fast_decision(full, partial, *_pid_sets(self.n, self.f)[:2])
        if len(_VERDICTS) >= _VERDICT_CAP:
            del _VERDICTS[next(iter(_VERDICTS))]
        _VERDICTS[key] = (full, partial, decision)
        return decision

    def _cons_propose(self, value: int) -> None:
        self.proposed = True
        self.proposal = value
        self.iuc.propose(value)

    def on_consensus_decide(self, value: Any) -> None:
        if not self.decided:
            self._record_branch(BRANCH_CONSENSUS_DECIDE)
            self.decide_once(value)

    # ------------------------------------------------------------------ #
    # <inbac, Propose | v>
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.val = COMMIT if value else ABORT
        self.vote = self.val
        if self.fast_abort and self.val == ABORT:
            # Section 5.2 remark: a process voting 0 may tell everyone and
            # decide immediately; receivers decide 0 on receipt.
            self.send_all(("V0",), include_self=False)
            self._record_branch(BRANCH_FAST_ABORT)
            self.decide_once(ABORT)
            # it still participates as a backup so that others terminate
        # to B_P (and, for P1..Pf, to itself: local and uncounted)
        backups = range(1, self.f + 2) if self.pid <= self.f else self.first_f()
        self.send_many(backups, ("V", self.val))
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
            self._collection0.add((src, payload[1]))
        elif kind == "V0" and self.fast_abort:
            if not self.decided:
                self._record_branch(BRANCH_FAST_ABORT)
                self.decide_once(ABORT)
        elif kind == "C":
            collection = payload[1]
            first = self._acks.setdefault(src, collection)
            if (
                first is not collection
                and first != collection
                and (src, collection) not in self._more_acks
            ):
                self._more_acks.append((src, collection))
            self.cnt += 1
            if self.wait:
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
        # the ack is immutable: one object for all destinations (the
        # _VERDICTS memo relies on receivers seeing the same tuple)
        if 1 <= self.pid <= self.f:
            self.send_all(("C", tuple(sorted(self.collection0))))
        elif self.pid == self.f + 1:
            self.send_many(self.first_f(), ("C", tuple(sorted(self.collection0))))
        self.phase = 1
        self.set_timer(2)

    # -- processes P_{f+1} .. P_n ---------------------------------------- #
    def _phase1_timeout_outsider(self) -> None:
        self.phase = 2
        # collection0 := collection0 ∪ (∪ collection1) ∪ {(p, val)}, folded
        # in by the first reader (a HELP reply); acknowledgements arriving
        # after this point are not part of it
        self._union_at_timeout = (self._acked_collections(), (self.pid, self.val))
        first_f = _pid_sets(self.n, self.f)[1]
        decision = self._full_backups(first_f, first_f)
        if decision is not None:
            self._record_branch(BRANCH_FAST_DECIDE)
            self.decide_once(decision)
            return
        if self.cnt >= 1:
            all_votes = self._all_acked_votes()
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
        self.send_many(self.beyond_f(), ("HELP",))

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
        first_f = _pid_sets(self.n, self.f)[1]
        decision = self._full_backups(first_f, first_f)
        if decision is not None:
            self._record_branch(BRANCH_HELPED_FAST)
            self.decide_once(decision)
            return
        if self.cnt >= 1:
            help_votes = self._all_acked_votes()
        else:
            help_votes = self._all_votes_from(self.collection_help)
        if help_votes is not None:
            self._record_branch(BRANCH_HELPED_CONS_AND)
            self._cons_propose(logical_and(help_votes.values()))
        else:
            self._record_branch(BRANCH_HELPED_CONS_ZERO)
            self._cons_propose(ABORT)

    # -- processes P_1 .. P_f --------------------------------------------- #
    def _phase1_timeout_backup(self) -> None:
        _, first_f, first_f1, next_after_f = _pid_sets(self.n, self.f)
        decision = self._full_backups(first_f1, first_f, next_after_f)
        if decision is not None:
            self._record_branch(BRANCH_FAST_DECIDE)
            self.decide_once(decision)
            return
        all_votes = self._all_acked_votes()
        if all_votes is not None:
            self._record_branch(BRANCH_CONS_AND)
            self._cons_propose(logical_and(all_votes.values()))
        else:
            self._record_branch(BRANCH_CONS_ZERO)
            self._cons_propose(ABORT)
