"""The client / transaction coordinator process.

The coordinator submits transactions according to a workload schedule: for
every transaction it sends an ``EXEC`` request to each participant partition
carrying that partition's operations and the agreed commit-round start time
(one message-delay bound after submission, so every participant has prepared
before the commit protocol's "time 0").  It then records the outcome and the
latency when the first participant reports ``DONE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.db.transaction import Transaction
from repro.env import Process
from repro.errors import ConfigurationError

_RETRY_TIMER_PREFIX = "retry/"
#: units from submission to the commit round's "time 0": one delay bound U,
#: so every participant has received its EXEC and prepared by then
_PREPARE_MARGIN = 1.0


#: the backoff added to the wait before retry ``k``: ``_BACKOFF_UNITS *
#: _BACKOFF_FACTOR ** (k - 1)``, capped at ``_MAX_BACKOFF_UNITS``, plus a
#: uniform draw from ``[0, _JITTER_UNITS)``
_BACKOFF_UNITS = 2.0
_BACKOFF_FACTOR = 2.0
_MAX_BACKOFF_UNITS = 16.0
_JITTER_UNITS = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic client-side retry for unacknowledged transactions.

    After each submission the coordinator waits ``timeout_units`` (plus, from
    the second attempt on, a bounded exponential backoff and a jitter term:
    2, 4, 8, then 16 U, each plus up to 0.5 U) for the first ``DONE`` ack;
    an unacknowledged transaction is resubmitted with the *same* transaction
    id, which partitions treat idempotently.  The jitter is drawn from the
    coordinator's per-process seeded RNG, so on the simulator backend
    retries are as fingerprint-deterministic as everything else.
    """

    #: total submissions, including the first
    max_attempts: int = 3
    #: per-attempt wait for the first DONE ack
    timeout_units: float = 12.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if not self.timeout_units > 0:  # NaN fails it too
            raise ConfigurationError("timeout_units must be positive")

    def backoff(self, retry_index: int, rng) -> float:
        """The backoff before retry number ``retry_index`` (1-based)."""
        base = min(
            _MAX_BACKOFF_UNITS, _BACKOFF_UNITS * _BACKOFF_FACTOR ** (retry_index - 1)
        )
        return base + rng.random() * _JITTER_UNITS


@dataclass(slots=True)
class TransactionOutcome:
    """What the coordinator observed for one transaction."""

    txn_id: str
    decision: Optional[int] = None
    submit_time: float = 0.0
    #: time at which the first participant decided (commit-protocol latency)
    decide_time: Optional[float] = None
    #: time at which the coordinator received the first DONE
    ack_time: Optional[float] = None
    #: the one participant tuple every EXEC of the transaction carries
    participants: Tuple[int, ...] = ()
    #: ``(sent_at, round_start)`` of each submission, first one first: when
    #: the EXEC requests went out and the commit-round start they carried
    submissions: Tuple[Tuple[float, float], ...] = ()

    @property
    def commit_latency(self) -> Optional[float]:
        """Message delays from submission to the first participant decision."""
        if self.decide_time is None:
            return None
        return self.decide_time - self.submit_time

    @property
    def completed(self) -> bool:
        return self.decision is not None


class ClientCoordinator(Process):
    """Submits a workload of transactions and collects their outcomes."""

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        env,
        workload: List[Transaction],
        retry_policy: Optional[RetryPolicy] = None,
    ):
        super().__init__(pid, n, f, env)
        self.workload = list(workload)
        self.retry_policy = retry_policy
        self.outcomes: Dict[str, TransactionOutcome] = {}
        #: submitted transactions still waiting for their first DONE; what
        #: all_completed() answers from, so it never re-walks ``outcomes``
        self._incomplete = 0
        self._txn_by_id: Dict[str, Transaction] = {}
        #: live submits registered but not yet handled here, by id: checked
        #: against, but outside the workload until handled
        self._registered: Dict[str, Transaction] = {}
        for txn in self.workload:
            if txn.txn_id in self._txn_by_id:
                raise ConfigurationError(
                    f"the workload repeats transaction id {txn.txn_id!r}"
                )
            self._txn_by_id[txn.txn_id] = txn
        #: optional callback fired when a transaction's outcome is recorded;
        #: used by the asyncio cluster service to resolve client futures and
        #: by the cluster drivers to detect completion without polling
        self.on_outcome: Optional[Callable[[TransactionOutcome], None]] = None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        for index, txn in enumerate(self.workload):
            self.set_timer(txn.submit_time, name=f"submit/{index}")

    def on_propose(self, value) -> None:  # pragma: no cover - not used
        pass

    def on_timeout(self, name: str) -> None:
        if name.startswith(_RETRY_TIMER_PREFIX):
            self._maybe_retry(name[len(_RETRY_TIMER_PREFIX):])
            return
        if not name.startswith("submit/"):
            return
        index = int(name.split("/", 1)[1])
        self._submit(self.workload[index])

    def submit_transaction(self, txn: Transaction) -> None:
        """Submit a transaction now (live clients, outside the workload plan).

        A new transaction id is appended to the workload, so completion
        queries and pending-transaction reports account for it like any
        planned one; a known one is sent again (partitions answer a
        duplicate EXEC idempotently), and a completed one is not sent at all.
        """
        known = self.outcomes.get(txn.txn_id)
        if known is not None and known.completed:
            return
        if txn.txn_id not in self._txn_by_id:
            self._registered.pop(txn.txn_id, None)
            self._txn_by_id[txn.txn_id] = txn
            self.workload.append(txn)
        self._submit(txn)

    def register(self, txn: Transaction) -> None:
        """Hold ``txn`` until :meth:`submit_transaction` handles it, refusing
        it if its id names a known or registered transaction with other
        operations; registering an equal transaction again passes."""
        known = self._txn_by_id.get(txn.txn_id)
        if known is None:
            known = self._registered.setdefault(txn.txn_id, txn)
        if known.operations != txn.operations:
            raise ConfigurationError(
                f"transaction id {txn.txn_id!r} is already used by a "
                f"transaction with different operations"
            )

    def _submit(self, txn: Transaction) -> None:
        start_time = self.now() + _PREPARE_MARGIN
        outcome = self.outcomes.get(txn.txn_id)
        if outcome is None:
            # latency is measured from the first submission; a retried
            # transaction keeps its original submit time
            outcome = self.outcomes[txn.txn_id] = TransactionOutcome(
                txn_id=txn.txn_id,
                submit_time=self.now(),
                participants=tuple(txn.participants()),
            )
            self._incomplete += 1
        outcome.submissions += ((self.now(), start_time),)
        # one tuple for every EXEC of every attempt: the partitions' commit
        # instances and PREPARE records hold this same object
        participants = outcome.participants
        for partition in participants:
            self.send(
                partition,
                (
                    "EXEC",
                    txn.txn_id,
                    start_time,
                    participants,
                    tuple(txn.read_set(partition)),
                    txn.write_set(partition),
                ),
            )
        self._arm_retry(txn.txn_id, len(outcome.submissions))

    # ------------------------------------------------------------------ #
    # retry (see RetryPolicy)
    # ------------------------------------------------------------------ #
    def _arm_retry(self, txn_id: str, attempts: int) -> None:
        policy = self.retry_policy
        if policy is None:
            return
        if attempts >= policy.max_attempts:
            return  # the final attempt gets no watchdog: nothing left to try
        wait = policy.timeout_units
        if attempts > 1:
            wait += policy.backoff(attempts - 1, self.env.random)
        self.set_timer(self.now() + wait, name=f"{_RETRY_TIMER_PREFIX}{txn_id}")

    def _maybe_retry(self, txn_id: str) -> None:
        # armed only under a policy, after _submit recorded the outcome
        outcome = self.outcomes[txn_id]
        if outcome.completed:
            return
        if len(outcome.submissions) >= self.retry_policy.max_attempts:
            return
        self._submit(self._txn_by_id[txn_id])

    # ------------------------------------------------------------------ #
    # outcome collection
    # ------------------------------------------------------------------ #
    def on_deliver(self, src: int, payload) -> None:
        if payload[0] == "OUTCOME?":
            # termination query from a recovering partition: answer when the
            # transaction's outcome has been observed here
            _, txn_id = payload
            known = self.outcomes.get(txn_id)
            if known is not None and known.completed:
                self.send(src, ("OUTCOME", txn_id, known.decision))
            return
        if payload[0] != "DONE":
            return
        _, txn_id, decision, decide_time = payload
        outcome = self.outcomes.get(txn_id)
        if outcome is None or outcome.completed:
            return
        outcome.decision = decision
        outcome.decide_time = decide_time
        outcome.ack_time = self.now()
        self._incomplete -= 1
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def release(self) -> None:
        """Also drop the outcome hook, which closes over this run."""
        super().release()
        self.on_outcome = None

    # ------------------------------------------------------------------ #
    # queries used by the cluster driver
    # ------------------------------------------------------------------ #
    def all_completed(self) -> bool:
        return self._incomplete == 0 and len(self.outcomes) == len(self.workload)

    def pending_transactions(self) -> List[str]:
        """Transaction ids without a recorded outcome, in workload order.

        Covers both submitted-but-undecided transactions and transactions
        never submitted at all (e.g. because this coordinator was crashed by
        a schedule controller before their submit timer fired) — the raw
        material for termination-anomaly reports.
        """
        return [
            txn.txn_id
            for txn in self.workload
            if txn.txn_id not in self.outcomes
            or not self.outcomes[txn.txn_id].completed
        ]
