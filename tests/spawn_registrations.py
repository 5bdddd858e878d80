"""A delay model registered at import time, for the spawn-worker test.

Nothing else imports this module, so a ``spawn`` pool worker knows the name
``"probe-fixed"`` only if it imports the module itself.
"""

from __future__ import annotations

from repro.exp.registry import register_delay_model
from repro.sim.network import DelayModel, FixedDelay


def build_probe_fixed(seed: int, u: float = 1.0) -> DelayModel:
    return FixedDelay(u)


register_delay_model("probe-fixed", build_probe_fixed)
