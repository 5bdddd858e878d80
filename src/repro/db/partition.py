"""The partition server process.

A partition owns a shard of the key space.  For every distributed transaction
it participates in, it:

1. receives the client coordinator's ``EXEC`` request carrying its local
   operations and the agreed commit-round start time;
2. *prepares*: acquires no-wait locks for the read/write sets and logs a
   ``PREPARE`` record holding its vote (1 if the locks were granted, 0 on
   conflict), the writes, the participants and the round start;
3. runs an **embedded instance** of the configured atomic-commit protocol
   among the transaction's participants — any protocol from
   :mod:`repro.protocols` can be plugged in unchanged because the embedded
   environment exposes the same :class:`~repro.env.ProcessEnv`
   interface the simulator gives to stand-alone protocol processes;
4. on decision, logs ``COMMIT``/``ABORT``, applies the write set to the
   versioned store (commit only), releases the locks and acknowledges the
   coordinator.

What a prepared transaction is lives in the log: the PREPARE record and the
outcome record.  Beside it the partition keeps only the live commit instance
of each transaction this incarnation prepared, and the one coordinator pid
every ``DONE``, ``OUTCOME?`` and recovery ack goes to.  An instance retires
once it is :attr:`~repro.protocols.base.AtomicCommitProcess.finished` (2PC:
proposed and decided), after the event that finished it; a
single-participant transaction's entry retires once its outcome is logged.
Late traffic for a retired transaction then meets the log, as it does for
one an earlier incarnation prepared: a commit message is dropped, a timer
ignored and a duplicate ``EXEC`` answered with the logged outcome.  INBAC,
1NBAC, Paxos Commit and the other protocols never finish: their decided
processes keep answering peers, so their instances stay.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.db.locks import LockManager, LockMode
from repro.db.store import VersionedStore
from repro.db.wal import ABORT as WAL_ABORT
from repro.db.wal import COMMIT as WAL_COMMIT
from repro.db.wal import PREPARE as WAL_PREPARE
from repro.db.wal import WalRecord, WriteAheadLog, Writes
from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess
from repro.protocols.two_phase import TwoPhaseCommit
from repro.env import Process

_TXN_TAG = "__txn__"
_TIMER_PREFIX = "txn/"
_PROPOSE_TIMER = "__propose__"


class EmbeddedCommitEnv:
    """A :class:`ProcessEnv` that tunnels one commit instance through its host.

    Local process ids ``1..k`` of the embedded protocol map onto the global
    partition ids of the transaction's participants; timers are namespaced per
    transaction and shifted so that the protocol's "time 0" is the agreed
    commit-round start time.  The transaction id, the participants and the
    round start are read off the transaction's PREPARE record.
    """

    __slots__ = ("host", "record")

    def __init__(self, host: "PartitionServer", record: WalRecord):
        self.host = host
        self.record = record

    @property
    def participants(self) -> Tuple[int, ...]:
        return self.record.participants

    # -- id mapping -------------------------------------------------------- #
    def global_pid(self, local_pid: int) -> int:
        return self.record.participants[local_pid - 1]

    def local_pid(self, global_pid: int) -> int:
        return self.record.participants.index(global_pid) + 1

    # -- ProcessEnv interface ----------------------------------------------- #
    def send(self, dst: int, payload: Any, module: str = "main") -> None:
        self.host.env.send(
            self.global_pid(dst),
            (_TXN_TAG, self.record.txn_id, payload),
            module=f"commit:{module}",
        )

    def send_many(self, dsts: Iterable[int], payload: Any, module: str = "main") -> None:
        # mapped lazily, so a bad local pid fails where the loop of sends would
        participants = self.record.participants
        self.host.env.send_many(
            (participants[dst - 1] for dst in dsts),
            (_TXN_TAG, self.record.txn_id, payload),
            module=f"commit:{module}",
        )

    def set_timer(self, at_units: float, name: str = "timer") -> None:
        record = self.record
        self.host.env.set_timer(
            record.round_start + at_units,
            name=f"{_TIMER_PREFIX}{record.txn_id}/{name}",
        )

    def cancel_timer(self, name: str = "timer") -> None:
        self.host.env.cancel_timer(name=f"{_TIMER_PREFIX}{self.record.txn_id}/{name}")

    def decide(self, value: Any) -> None:
        self.host.on_commit_decision(self.record.txn_id, value)

    def now(self) -> float:
        return self.host.env.now() - self.record.round_start


def _release_instance(instance: AtomicCommitProcess) -> None:
    """Cut an embedded instance's edges: its components' and its env's."""
    instance.release()
    instance.env.host = None


class PartitionServer(Process):
    """One shard of the distributed store, embedded-commit capable.

    ``coordinator`` is the client coordinator's pid: where ``DONE`` acks and
    termination queries go.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        env,
        *,
        coordinator: int,
        commit_protocol: type = TwoPhaseCommit,
        commit_f: int = 1,
    ):
        super().__init__(pid, n, f, env)
        self.coordinator = coordinator
        self.store = VersionedStore()
        self.locks = LockManager()
        self.wal = WriteAheadLog()
        self.commit_protocol = commit_protocol
        self.commit_f = commit_f
        #: the commit instance of each transaction this incarnation prepared
        #: and has not retired; None for a single-participant one, decided
        #: when its round starts
        self.instances: Dict[str, Optional[AtomicCommitProcess]] = {}
        #: messages for transactions whose EXEC has not arrived yet; only
        #: for those this log never prepared (see _deliver_commit_message)
        self._early_messages: Dict[str, List[Tuple[int, Any]]] = {}
        #: optional callback fired with ``(pid, txn_id)`` once this WAL holds
        #: the transaction's outcome; the asyncio cluster service waits on it
        self.on_logged: Optional[Callable[[int, str], None]] = None

    def release(self) -> None:
        """Also cut every embedded commit instance's edge back to this server."""
        super().release()
        self.on_logged = None
        for instance in self.instances.values():
            if instance is not None:
                _release_instance(instance)

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:  # pragma: no cover - not used
        pass

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "EXEC":
            _, txn_id, start_time, participants, reads, writes = payload
            # held as sent, not copied: a payload is immutable once sent
            self._prepare(txn_id, start_time, participants, reads, writes)
        elif kind == _TXN_TAG:
            _, txn_id, inner = payload
            self._deliver_commit_message(src, txn_id, inner)
        elif kind == "READ":
            _, request_id, key = payload
            value = self.store.get_or_default(key)
            self.send(src, ("READ-REPLY", request_id, key, value))
        elif kind == "OUTCOME?":
            # termination query from a recovering peer: answer only when the
            # outcome is durably known here
            _, txn_id = payload
            decision = self._logged_decision(txn_id)
            if decision is not None:
                self.send(src, ("OUTCOME", txn_id, decision))
        elif kind == "OUTCOME":
            _, txn_id, decision = payload
            self._apply_recovered_outcome(txn_id, decision)

    def on_timeout(self, name: str) -> None:
        if not name.startswith(_TIMER_PREFIX):
            return
        # split at the last "/": a transaction id may contain one, no
        # protocol's timer name does ("timer", "timer0", "iuc:retry", ...)
        txn_id, _, timer_name = name[len(_TIMER_PREFIX):].rpartition("/")
        if txn_id not in self.instances:
            return  # retired, or prepared by an earlier incarnation
        instance = self.instances[txn_id]
        if instance is None:
            # single-participant transaction: its one timer is the propose
            # timer, and it decides locally
            self.on_commit_decision(txn_id, self.wal.prepare_record_of(txn_id).vote)
            del self.instances[txn_id]
            return
        if timer_name == _PROPOSE_TIMER:
            instance.on_propose(self.wal.prepare_record_of(txn_id).vote)
        else:
            instance.timeout(timer_name)
        self._retire_if_finished(txn_id, instance)

    # ------------------------------------------------------------------ #
    # prepare
    # ------------------------------------------------------------------ #
    def _prepare(
        self,
        txn_id: str,
        start_time: float,
        participants: Tuple[int, ...],
        reads: Tuple[str, ...],
        writes: Dict[str, object],
    ) -> None:
        # idempotent resubmission (client retry / duplicate EXEC): the first
        # EXEC stands.  A decided transaction gets its DONE re-sent (the
        # lost-ack retry path); an in-flight or in-doubt one is left to the
        # running commit round / termination query.
        decision = self._logged_decision(txn_id)
        if decision is not None:
            self.send(self.coordinator, ("DONE", txn_id, decision, self.now()))
            return
        if self.wal.prepare_record_of(txn_id) is not None:
            return
        keys_by_mode = {key: LockMode.SHARED for key in reads}
        keys_by_mode.update({key: LockMode.EXCLUSIVE for key in writes})
        granted = self.locks.try_acquire_all(txn_id, keys_by_mode)
        record = self.wal.append(
            WAL_PREPARE,
            txn_id,
            writes=writes,
            timestamp=self.now(),
            participants=participants,
            vote=COMMIT if granted else ABORT,
            round_start=start_time,
        )

        instance = None
        if len(participants) > 1:
            commit_env = EmbeddedCommitEnv(self, record)
            local_pid = commit_env.local_pid(self.pid)
            local_n = len(participants)
            # ClusterConfig.commit_f is at least 1; a transaction with few
            # participants tolerates at most all but one of them crashing
            local_f = min(self.commit_f, local_n - 1)
            instance = self.commit_protocol(local_pid, local_n, local_f, commit_env)
        self.instances[txn_id] = instance
        # align the start of the commit round across participants
        self.env.set_timer(start_time, name=f"{_TIMER_PREFIX}{txn_id}/{_PROPOSE_TIMER}")
        # replay any commit messages that raced ahead of the EXEC request
        for src, inner in self._early_messages.pop(txn_id, []):
            self._deliver_commit_message(src, txn_id, inner)

    # ------------------------------------------------------------------ #
    # the embedded commit instance
    # ------------------------------------------------------------------ #
    def _deliver_commit_message(self, src: int, txn_id: str, inner: Any) -> None:
        instance = self.instances.get(txn_id)
        if instance is None:
            # a transaction an earlier incarnation prepared never gets an
            # instance here (_prepare answers its EXEC from the log): its
            # messages are dropped, not kept for a replay that never comes
            if self.wal.prepare_record_of(txn_id) is None:
                self._early_messages.setdefault(txn_id, []).append((src, inner))
            return
        instance.deliver(instance.env.local_pid(src), inner)
        self._retire_if_finished(txn_id, instance)

    def _retire_if_finished(self, txn_id: str, instance: AtomicCommitProcess) -> None:
        """Drop a finished instance: nothing it could still do would send."""
        if instance.finished:
            del self.instances[txn_id]
            _release_instance(instance)

    def on_commit_decision(self, txn_id: str, decision: int) -> None:
        """Callback from the embedded commit instance (or local decision)."""
        if self.wal.outcome_of(txn_id) is not None:
            return
        self._log_outcome(txn_id, decision, self.wal.prepare_record_of(txn_id).writes)
        self.send(self.coordinator, ("DONE", txn_id, decision, self.now()))

    def _logged_decision(self, txn_id: str) -> Optional[int]:
        """COMMIT / ABORT as this log records the outcome, None if it has none."""
        outcome = self.wal.outcome_of(txn_id)
        if outcome is None:
            return None
        return COMMIT if outcome == WAL_COMMIT else ABORT

    def _log_outcome(self, txn_id: str, decision: int, writes: Writes) -> None:
        """Log the outcome, apply a commit's writes, release the locks.

        ``writes`` is the PREPARE record's tuple, which the COMMIT record
        shares; an ABORT record logs none.
        """
        if decision == COMMIT:
            self.wal.append(WAL_COMMIT, txn_id, writes=writes, timestamp=self.now())
            if writes:
                self.store.apply_many(writes, txn_id=txn_id)
        else:
            self.wal.append(WAL_ABORT, txn_id, timestamp=self.now())
        self.locks.release_all(txn_id)
        if self.on_logged is not None:
            self.on_logged(self.pid, txn_id)

    # ------------------------------------------------------------------ #
    # crash recovery: rejoin from the write-ahead log
    # ------------------------------------------------------------------ #
    def recover_from_wal(self, wal: WriteAheadLog) -> int:
        """Adopt the durable log of a crashed incarnation and rebuild state.

        The store is reconstructed from :meth:`WriteAheadLog.replay` (torn
        tail records are invisible, so a crash mid-append loses exactly that
        record); exclusive locks are re-installed for every in-doubt write
        set so no conflicting transaction can slip in before the outcome is
        known.  Nothing else is rebuilt: what the partition prepared, voted
        and decided stays in the log, where a report counts it.  Idempotent:
        calling it again replays into a fresh store and reaches the same
        state.  Returns the number of committed transactions in the log.
        """
        self.wal = wal
        self.store = VersionedStore()
        wal.replay(self.store)
        self.locks = LockManager()
        self.instances = {}
        self._early_messages = {}
        for txn_id in wal.in_doubt():
            writes = wal.prepare_record_of(txn_id).writes
            if writes:
                self.locks.try_acquire_all(
                    txn_id, {key: LockMode.EXCLUSIVE for key, _ in writes}
                )
        return len({txn_id for txn_id, _ in wal.committed_writes()})

    def on_recover(self) -> None:
        """Rejoin hook: issue termination queries for in-doubt transactions."""
        self.resolve_in_doubt()

    def resolve_in_doubt(self) -> List[str]:
        """Ask the coordinator and every peer participant for the outcome of
        each in-doubt transaction; returns the queried transaction ids."""
        unresolved = self.wal.in_doubt()
        for txn_id in unresolved:
            peers = self.wal.prepare_record_of(txn_id).participants
            targets = {self.coordinator, *peers} - {self.pid}
            for dst in sorted(targets):
                self.send(dst, ("OUTCOME?", txn_id))
        return unresolved

    def _apply_recovered_outcome(self, txn_id: str, decision: int) -> None:
        """Install a termination-query answer for an in-doubt transaction."""
        if self.wal.outcome_of(txn_id) is not None:
            return  # already resolved; duplicate replies are expected
        record = self.wal.prepare_record_of(txn_id)
        if record is None:
            return  # never prepared here: a stray reply
        self._log_outcome(txn_id, decision, record.writes)
        self.send(self.coordinator, ("DONE", txn_id, decision, self.now()))
