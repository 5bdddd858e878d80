"""Single-decree Paxos: the uniform-consensus module of every commit protocol.

Every process plays all three roles (proposer, acceptor, learner).  Proposers
use ballots of the form ``pid + attempt * n`` so that ballots are globally
unique and each proposer can always pick a fresh, higher ballot.  A proposer
that does not learn a decision within its (exponentially backed-off,
per-process staggered) retry period starts a new round — this is what provides
termination once the system stabilises, while the usual Paxos quorum rules
provide uniform agreement and validity under arbitrary asynchrony.

Message flow (module-tagged, so it never pollutes the commit protocol's
best-case message counts):

* ``("PREPARE", b)``                     proposer -> all acceptors
* ``("PROMISE", b, ab, av)``             acceptor -> proposer
* ``("ACCEPT", b, v)``                   proposer -> all acceptors
* ``("ACCEPTED", b, v)``                 acceptor -> all learners
* ``("DECIDED", v)``                     any decided process -> all (fast learn)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.env import Process, ProcessComponent

_NO_BALLOT = -1


class PaxosConsensus(ProcessComponent):
    """Uniform consensus (the paper's ``uc`` / ``iuc``) as single-decree Paxos
    hosted inside a protocol process.

    Interface
    ---------
    ``propose(value)``
        The host proposes ``value``; may be called at most once per instance.
    ``on_decide`` callback
        Invoked exactly once with the decided value (on every correct host
        whose component learns the decision), regardless of whether this host
        proposed.

    Properties (Definition 5 of the paper):

    * *Validity* — the decided value was proposed by some process.
    * *Agreement* — no two processes decide differently.
    * *Termination* — every correct process eventually decides, provided a
      majority of processes is correct and the system is eventually
      synchronous.
    """

    #: base retry period, in units of the message-delay bound U
    RETRY_PERIOD = 4.0
    #: per-attempt additive backoff, staggered by pid to avoid duelling
    RETRY_BACKOFF = 2.0

    def __init__(self, host: Process, name: str, on_decide: Callable[[Any], None]):
        super().__init__(host, name)
        self.on_decide = on_decide
        self.proposed = False
        self.decided = False
        self.decision: Any = None
        self.proposal: Any = None
        # acceptor state
        self._promised: int = _NO_BALLOT
        self._accepted_ballot: int = _NO_BALLOT
        self._accepted_value: Any = None
        # proposer state
        self._attempt = 0
        self._current_ballot: Optional[int] = None
        self._promises: Dict[int, Tuple[int, Any]] = {}
        self._accept_sent = False
        self._accept_value: Any = None
        self._highest_ballot_seen: int = _NO_BALLOT
        # learner state
        self._accepted_votes: Dict[int, Dict[int, Any]] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def propose(self, value: Any) -> None:
        """Propose ``value``; starts a proposal round led by this process."""
        if self.proposed or self.decided:
            return
        self.proposed = True
        self.proposal = value
        self._start_round()

    def release(self) -> None:
        super().release()
        self.on_decide = None

    def majority(self) -> int:
        """Size of a strict majority of the host's process group."""
        return self.host.n // 2 + 1

    # ------------------------------------------------------------------ #
    # proposer
    # ------------------------------------------------------------------ #
    def _ballot(self) -> int:
        return self.host.pid + self._attempt * self.host.n

    def _start_round(self) -> None:
        if self.decided:
            return
        self._current_ballot = self._ballot()
        self._promises = {}
        self._accept_sent = False
        self._accept_value = None
        self.broadcast(("PREPARE", self._current_ballot))
        self._arm_retry()

    def _arm_retry(self) -> None:
        retry_in = self.RETRY_PERIOD + self._attempt * self.RETRY_BACKOFF + self.host.pid * 0.25
        self.set_timer(self.now() + retry_in, name="retry")

    def _retransmit_round(self) -> None:
        """Re-send the current round's messages without changing the ballot.

        With reliable (but possibly very slow) channels this is what provides
        liveness: a proposer that sees no competing ballot keeps its round
        alive instead of restarting with a higher ballot, so a round whose
        replies are merely late can still complete.
        """
        if self._accept_sent:
            self.broadcast(("ACCEPT", self._current_ballot, self._accept_value))
        else:
            self.broadcast(("PREPARE", self._current_ballot))
        self._arm_retry()

    def _on_promise(self, src: int, ballot: int, accepted_ballot: int, accepted_value: Any) -> None:
        if self.decided or self._accept_sent:
            return
        if ballot != self._current_ballot:
            return
        self._promises[src] = (accepted_ballot, accepted_value)
        if len(self._promises) < self.majority():
            return
        # choose the value accepted with the highest ballot, else our proposal
        best_ballot = _NO_BALLOT
        chosen = self.proposal
        for acc_ballot, acc_value in self._promises.values():
            if acc_ballot > best_ballot and acc_ballot != _NO_BALLOT:
                best_ballot = acc_ballot
                chosen = acc_value
        self._accept_sent = True
        self._accept_value = chosen
        self.broadcast(("ACCEPT", ballot, chosen))

    # ------------------------------------------------------------------ #
    # acceptor
    # ------------------------------------------------------------------ #
    def _on_prepare(self, src: int, ballot: int) -> None:
        self._note_ballot(ballot, src)
        if ballot > self._promised:
            self._promised = ballot
            self.send(src, ("PROMISE", ballot, self._accepted_ballot, self._accepted_value))

    def _on_accept(self, src: int, ballot: int, value: Any) -> None:
        self._note_ballot(ballot, src)
        if ballot >= self._promised:
            self._promised = ballot
            self._accepted_ballot = ballot
            self._accepted_value = value
            self.broadcast(("ACCEPTED", ballot, value))

    def _note_ballot(self, ballot: int, src: int) -> None:
        """Track competing ballots to decide between retransmitting and re-balloting."""
        if src != self.host.pid and ballot > self._highest_ballot_seen:
            self._highest_ballot_seen = ballot

    # ------------------------------------------------------------------ #
    # learner
    # ------------------------------------------------------------------ #
    def _on_accepted(self, src: int, ballot: int, value: Any) -> None:
        votes = self._accepted_votes.setdefault(ballot, {})
        votes[src] = value
        if len(votes) >= self.majority() and not self.decided:
            self._decide(value)

    def _deliver_decision(self, value: Any) -> None:
        """Record the decision and fire the host callback exactly once."""
        if self.decided:
            return
        self.decided = True
        self.decision = value
        if self.on_decide is not None:
            self.on_decide(value)

    def _decide(self, value: Any) -> None:
        self._deliver_decision(value)
        self.broadcast(("DECIDED", value), include_self=False)

    # ------------------------------------------------------------------ #
    # component event handlers
    # ------------------------------------------------------------------ #
    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "PREPARE":
            self._on_prepare(src, payload[1])
        elif kind == "PROMISE":
            self._on_promise(src, payload[1], payload[2], payload[3])
        elif kind == "ACCEPT":
            self._on_accept(src, payload[1], payload[2])
        elif kind == "ACCEPTED":
            self._on_accepted(src, payload[1], payload[2])
        elif kind == "DECIDED":
            if not self.decided:
                self._deliver_decision(payload[1])

    def on_timeout(self, name: str) -> None:
        if name != "retry" or self.decided or not self.proposed:
            return
        self._attempt += 1
        if self._attempt > 200:  # safety valve for pathological adversaries
            return
        if (
            self._current_ballot is not None
            and self._highest_ballot_seen <= self._current_ballot
        ):
            # no competing proposer observed: the round is merely slow, keep it
            self._retransmit_round()
            return
        # a higher ballot is out there: restart above it
        while self._ballot() <= self._highest_ballot_seen:
            self._attempt += 1
        self._start_round()
