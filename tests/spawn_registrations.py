"""A delay model and a schedule strategy registered at import time, for the
spawn-worker test.

Nothing else imports this module, so a ``spawn`` pool worker knows the names
``"probe-fixed"`` and ``"probe-walk"`` only if it imports the module itself.
"""

from __future__ import annotations

from repro.exp.registry import register_delay_model, register_schedule_strategy
from repro.explore.strategies import RandomWalk
from repro.sim.network import DelayModel, FixedDelay


def build_probe_fixed(seed: int, delay_units: float = 1.0) -> DelayModel:
    return FixedDelay(delay_units)


class ProbeWalk(RandomWalk):
    """A random walk that crashes often enough to show in a small grid."""

    strategy_name = "probe-walk"

    def __init__(self, seed: int = 0):
        super().__init__(seed, defer_prob=0.3, crash_prob=0.2)


register_delay_model("probe-fixed", build_probe_fixed)
register_schedule_strategy(ProbeWalk.strategy_name, ProbeWalk)
