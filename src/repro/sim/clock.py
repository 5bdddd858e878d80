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


class VirtualClock:
    """Monotonically advancing virtual clock, in units of ``U``.

    Only :meth:`repro.sim.runner.Scheduler.run` moves it, and it refuses an
    event that would run time backwards with a
    :class:`~repro.errors.SimulationError`.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now})"
