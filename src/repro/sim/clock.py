"""Virtual time for the discrete-event simulator.

Time is a non-negative float.  By convention protocols express timer deadlines
in *units* of the known message-delay upper bound ``U`` (the paper's Section 2
assumes "one unit at the timer at every process is set to the known upper
bound of the message delay"), and one unit of virtual time *is* one ``U``:
timer units, message delays and virtual time coincide, which makes the
paper's complexity accounting ("number of message delays") directly readable
off decision timestamps.
"""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """Monotonically advancing virtual clock, in units of ``U``."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        The simulator only ever moves time forward; attempting to move it
        backwards indicates a scheduling bug and raises
        :class:`~repro.errors.SimulationError`.
        """
        if t < self._now - 1e-12:
            raise SimulationError(
                f"clock cannot move backwards: now={self._now}, requested={t}"
            )
        self._now = max(self._now, t)

    def reset(self) -> None:
        """Reset the clock to time zero (used when a simulation is reused)."""
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now})"
