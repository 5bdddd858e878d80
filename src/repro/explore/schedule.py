"""Schedule decisions, replayable schedule traces, and the controller base.

The scheduler's controller hook (see :mod:`repro.sim.runner`) offers every
popped event to a controller, which may answer with one of three *actions*:

* ``("defer", extra)``  — postpone the delivery by ``extra`` time units;
* ``("crash", pid)``    — crash ``pid`` before the event is dispatched;
* ``("recover", pid)``  — rejoin a previously crashed ``pid`` (only applies
  when the scheduler has a recovery factory installed, i.e. on cluster runs
  where partitions rebuild from their write-ahead log).

A controller therefore explores exactly the adversary's power in the paper's
model: it may extend message delays (possibly beyond the bound ``U``, turning
the run into a network-failure execution) and pick crash points, but can never
reorder timers or drop messages.  The scheduler records every decision that
*applied* as a ``(step, kind, arg)`` tuple, and the full run is reproducible
from ``(strategy, seed, decisions)`` alone — which is what
:class:`ScheduleTrace` serialises and :class:`ReplayController` replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: the decision kinds a controller may emit
DECISION_KINDS = ("defer", "crash", "recover")

#: one applied decision: (intercept step, kind, argument)
Decision = Tuple[int, str, Any]


def _normalise_decision(entry: Any) -> Decision:
    step, kind, arg = entry
    if kind not in DECISION_KINDS:
        raise ConfigurationError(
            f"unknown schedule decision kind {kind!r}; expected one of {DECISION_KINDS}"
        )
    return (int(step), str(kind), float(arg) if kind == "defer" else int(arg))


@dataclass
class ScheduleTrace:
    """A compact, serialisable record of one explored schedule.

    ``decisions`` holds the decisions that actually applied, in intercept-step
    order.  Replaying them through a :class:`ReplayController` on the same
    trial (same protocol, votes, delay model, fault plan and derived seed)
    reproduces the execution byte-identically — asserted via
    :meth:`repro.sim.trace.Trace.fingerprint`.
    """

    strategy: str
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    decisions: List[Decision] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.decisions = [_normalise_decision(d) for d in self.decisions]

    def __len__(self) -> int:
        return len(self.decisions)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "params": dict(self.params),
            "decisions": [list(d) for d in self.decisions],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ScheduleTrace":
        return cls(
            strategy=data["strategy"],
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
            decisions=[tuple(d) for d in data.get("decisions", [])],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScheduleTrace":
        return cls.from_jsonable(json.loads(text))

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def without_decision(self, index: int) -> "ScheduleTrace":
        """A copy with the ``index``-th decision dropped (used by shrinking)."""
        pruned = [d for i, d in enumerate(self.decisions) if i != index]
        return ScheduleTrace(
            strategy=self.strategy, seed=self.seed,
            params=dict(self.params), decisions=pruned,
        )

    def describe(self) -> List[str]:
        """Human-readable one-liner per decision (for reports and examples)."""
        out = []
        for step, kind, arg in self.decisions:
            if kind == "crash":
                out.append(f"step {step}: crash P{arg}")
            elif kind == "recover":
                out.append(f"step {step}: rejoin P{arg} from its WAL")
            else:
                out.append(f"step {step}: defer delivery by {arg} time units")
        return out


class ScheduleController:
    """Base controller: strict timestamp order (every intercept says "fire").

    Subclasses implement :meth:`intercept` and may use :meth:`begin` (called
    once by the scheduler before the first event) for setup that needs the
    scheduler.  Controllers are single-use: one controller instance drives
    one execution.
    """

    strategy_name = "timestamp-order"

    def __init__(self, seed: int = 0, **params: Any):
        self.seed = seed
        self.params = dict(params)

    def begin(self, scheduler: Any) -> None:
        """Called by the scheduler once, before the first event fires."""

    def intercept(self, scheduler: Any, event: Any, step: int) -> Optional[tuple]:
        """Offered each event before dispatch; return an action or ``None``.

        The applied decisions land in ``scheduler.applied_schedule_actions``
        (and ``trace.metadata["schedule_decisions"]``), from which the sweep
        engine builds the run's :class:`ScheduleTrace`.
        """
        return None


class ReplayController(ScheduleController):
    """Re-applies a recorded decision list, step for step.

    Decisions from a *shrunk* list may no longer apply at their step (the
    earlier decisions that shaped the event order are gone); the scheduler
    ignores inapplicable actions deterministically, so replaying any decision
    subset is still a well-defined execution.
    """

    strategy_name = "replay"

    def __init__(self, seed: int = 0, decisions: Any = (), **params: Any):
        super().__init__(seed=seed, **params)
        normalised = [_normalise_decision(d) for d in decisions]
        self._by_step: Dict[int, Tuple[str, Any]] = {
            step: (kind, arg) for step, kind, arg in normalised
        }

    def intercept(self, scheduler: Any, event: Any, step: int) -> Optional[tuple]:
        action = self._by_step.get(step)
        if action is None:
            return None
        return action
