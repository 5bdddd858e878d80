"""Abstract interface of the consensus module used by the commit protocols."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.env import Process, ProcessComponent


class ConsensusComponent(ProcessComponent):
    """Uniform consensus as a hosted sub-protocol (the paper's ``uc`` / ``iuc``).

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

    def __init__(
        self,
        host: Process,
        name: str = "cons",
        on_decide: Optional[Callable[[Any], None]] = None,
    ):
        super().__init__(host, name)
        self.on_decide = on_decide
        self.proposed = False
        self.decided = False
        self.decision: Any = None
        self.proposal: Any = None

    # -- public API ------------------------------------------------------ #
    def propose(self, value: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def release(self) -> None:
        super().release()
        self.on_decide = None

    # -- shared plumbing -------------------------------------------------- #
    def _deliver_decision(self, value: Any) -> None:
        """Record the decision and fire the host callback exactly once."""
        if self.decided:
            return
        self.decided = True
        self.decision = value
        if self.on_decide is not None:
            self.on_decide(value)

    def majority(self) -> int:
        """Size of a strict majority of the host's process group."""
        return self.host.n // 2 + 1
