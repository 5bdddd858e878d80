"""Base class shared by every atomic-commit protocol implementation.

All protocols follow the paper's module interface (Appendix A): they receive a
``Propose(v)`` event carrying the local vote (1 = willing to commit, 0 =
abort) and eventually trigger a single ``Decide(d)`` event.  The base class
adds:

* vote / decision bookkeeping with an idempotent :meth:`decide_once`;
* a factory for the underlying uniform-consensus module (the paper's ``uc`` /
  ``iuc``), :class:`~repro.consensus.paxos.PaxosConsensus`;
* small helpers mirroring the paper's notation (``AND`` of votes, process
  ranges such as ``{P1, ..., Pf}``).

Timer-origin convention
-----------------------
Most pseudocode in the paper sets timers on an absolute scale where one unit
is the message-delay bound ``U`` and time 0 is the moment every process
proposes.  The chain-style protocols of Appendix E instead state that "the
timer starts at time 1 when the first sending event happens"; subclasses that
follow that convention set :attr:`timer_origin_shift` to ``1`` so that the
pseudocode's timer values can be used verbatim while the simulator still works
on the propose-at-0 scale.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.consensus.paxos import PaxosConsensus
from repro.env import Process, ProcessEnv

COMMIT = 1
ABORT = 0


def logical_and(values: Iterable[int]) -> int:
    """The logical AND of a collection of 0/1 votes (the paper's ``AND``)."""
    return COMMIT if all(values) else ABORT


class AtomicCommitProcess(Process):
    """Base class of all atomic-commit protocol processes.

    Parameters
    ----------
    pid, n, f, env:
        See :class:`~repro.env.Process`.
    """

    #: human-readable protocol name used in traces and result tables
    protocol_name: str = "atomic-commit"
    #: see the class docstring; chain protocols of Appendix E use 1
    timer_origin_shift: float = 0.0
    #: True once no event can make this process send, set a timer or decide
    #: again, so a host may drop it (:class:`repro.db.partition.PartitionServer`
    #: retires a finished commit instance).  A protocol whose decided
    #: processes keep answering peers leaves it False.
    finished: bool = False

    def __init__(self, pid: int, n: int, f: int, env: ProcessEnv):
        super().__init__(pid, n, f, env)
        self.vote: Optional[int] = None
        self.decision: Optional[int] = None
        self.decided: bool = False

    # ------------------------------------------------------------------ #
    # decision plumbing
    # ------------------------------------------------------------------ #
    def decide_once(self, value: int) -> bool:
        """Decide ``value`` unless a decision was already taken.

        Returns True if this call performed the decision.  The single-decision
        (integrity) property is also enforced by the scheduler; this guard
        keeps protocol code close to the pseudocode's ``if not decided`` tests.
        """
        if self.decided:
            return False
        self.decided = True
        self.decision = COMMIT if value else ABORT
        self.env.decide(self.decision)
        return True

    # ------------------------------------------------------------------ #
    # consensus module factory
    # ------------------------------------------------------------------ #
    def make_consensus(self, name: str) -> PaxosConsensus:
        """Create and attach the underlying uniform-consensus module (``uc`` or
        ``iuc``), whose decision reaches :meth:`on_consensus_decide`."""
        component = PaxosConsensus(self, name, self.on_consensus_decide)
        self.attach_component(component)
        return component

    def on_consensus_decide(self, value: Any) -> None:
        """Upon Decide of the consensus module: adopt its decision."""
        self.decide_once(value)

    # ------------------------------------------------------------------ #
    # notation helpers
    # ------------------------------------------------------------------ #
    def first_f(self) -> range:
        """``{P1, ..., Pf}``."""
        return range(1, self.f + 1)

    def beyond_f(self) -> range:
        """``{Pf+1, ..., Pn}``."""
        return range(self.f + 1, self.n + 1)

    def set_timer_units(self, t: float, name: str = "timer") -> None:
        """Set a timer using the protocol's pseudocode time scale."""
        self.set_timer(t - self.timer_origin_shift, name=name)

    # ------------------------------------------------------------------ #
    # default handlers
    # ------------------------------------------------------------------ #
    def on_deliver(self, src: int, payload: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_timeout(self, name: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_propose(self, value: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
