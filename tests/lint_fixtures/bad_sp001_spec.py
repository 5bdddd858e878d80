"""Fixture: SP001 — lambda / local closure in a spec field."""

from repro.exp import (
    GridSpec,
    register_fault_plan,
    register_schedule_strategy,
    register_vote_pattern,
)


def build():
    def local_delay(seed):
        return None

    return GridSpec(
        protocols=["2PC"],
        systems=[(3, 1)],
        delays=[("slow", lambda seed: seed)],
        workloads=[("w", local_delay)],
    )


register_fault_plan("x", lambda: None)
register_vote_pattern("y", lambda n, seed: [1] * n)
register_schedule_strategy("z", lambda seed: None)
