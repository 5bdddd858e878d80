"""The exploration driver: search schedules, collect violations, shrink them.

:func:`explore` turns the reproduction from a *measuring* tool into a
*checking* one: instead of running hand-written fault plans, it searches the
space of admissible schedules — message-delivery reorderings and crash points
— for executions that violate the paper's Definition 1 properties.  The
search fans out over :func:`repro.exp.run_sweep`'s process pool (exploration
is just a sweep over the ``schedules`` axis), every explored schedule is
replayable from ``(strategy, seed, decisions)``, and each violating schedule
is greedily shrunk to a minimal counterexample by dropping decisions while
the violation persists.

Which violations count is cell-aware: by default all three properties are
required, but passing the protocol's problem cell (``cell=``, a
:class:`~repro.core.lattice.PropertyPair`) checks only the properties the
cell requires for each execution's class — e.g. a synchronous NBAC protocol
is *allowed* to lose agreement once a schedule delays a message beyond the
bound, and such runs are not violations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.checker import required_properties
from repro.core.lattice import ALL_PROPS, Prop, PropertyPair
from repro.errors import ConfigurationError
from repro.exp.engine import run_trial, run_trials
from repro.exp.results import _PROPERTIES, TrialResult
from repro.exp.spec import GridSpec, ScheduleSpec, TrialSpec, coerce_axis
from repro.explore.schedule import ScheduleTrace

#: Prop -> TrialResult attribute, read off repro.exp.results' one table
_PROP_ATTRS = {Prop(label): attr for label, attr in _PROPERTIES}

_PROP_BY_NAME = {
    **{attr: prop for prop, attr in _PROP_ATTRS.items()},
    **{prop.value: prop for prop in _PROP_ATTRS},
    # cluster-invariant aliases: for workload trials the engine maps the
    # repro.db.invariants battery onto the property flags (atomicity ->
    # agreement, durability & lock safety -> validity), so the invariants
    # can be named directly when hunting transaction anomalies
    "atomicity": Prop.AGREEMENT,
    "durability": Prop.VALIDITY,
    "lock-safety": Prop.VALIDITY,
}

#: default required properties for cluster (workload) exploration: the
#: safety invariants only — an injected crash legitimately leaves in-doubt
#: transactions behind, so termination is opt-in (properties=..., or cell=)
CLUSTER_SAFETY_PROPS = frozenset({Prop.AGREEMENT, Prop.VALIDITY})

#: exploration presets, the crash-point plans :func:`explore` expands over a
#: cluster: preset -> (processes enumerated past the ``n`` partitions, rejoin
#: gaps in phase boundaries, label template).  ``cluster-anomaly`` crashes
#: each partition and the client coordinator ``n + 1`` once; ``cluster-rejoin``
#: crashes each partition and rejoins it 2 or 5 boundaries later, hunting
#: recovery bugs (the coordinator's outcome log is volatile: it cannot rejoin)
EXPLORATION_PRESETS: Dict[str, Tuple[int, Tuple[Optional[int], ...], str]] = {
    "cluster-anomaly": (1, (None,), "crash[P{pid}@{point}]"),
    "cluster-rejoin": (0, (2, 5), "rejoin[P{pid}@{point}+{gap}]"),
}


def _coerce_properties(properties: Optional[Sequence[Union[str, Prop]]]):
    if properties is None:
        return None
    out = []
    for prop in properties:
        if isinstance(prop, Prop):
            out.append(prop)
            continue
        try:
            out.append(_PROP_BY_NAME[prop])
        except KeyError:
            known = ", ".join(sorted(k for k in _PROP_BY_NAME if len(k) > 1))
            raise ConfigurationError(
                f"unknown property {prop!r}; known: {known}"
            ) from None
    return frozenset(out)


@dataclass
class Violation:
    """One property-violating schedule, plus its shrunk counterexample."""

    trial_index: int
    base_seed: int
    derived_seed: int
    execution_class: str
    #: names of the required properties that failed ("termination", ...)
    properties: Tuple[str, ...]
    #: the schedule as explored (every applied decision)
    schedule: ScheduleTrace
    #: fingerprint of the violating execution's trace
    fingerprint: str
    #: greedily-minimised schedule still producing a violation (None until
    #: shrinking ran; equals ``schedule`` when nothing could be dropped)
    shrunk: Optional[ScheduleTrace] = None
    #: fingerprint of the shrunk schedule's execution
    shrunk_fingerprint: Optional[str] = None
    #: cluster-invariant violation details (empty for bare protocol trials):
    #: the repro.db.invariants strings naming partitions, transactions, keys
    details: Tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            f"violated: {', '.join(self.properties)} "
            f"({self.execution_class} execution, seed {self.base_seed})",
        ]
        for detail in self.details:
            lines.append(f"  {detail}")
        lines.append(f"explored schedule: {len(self.schedule)} decisions")
        minimal = self.shrunk if self.shrunk is not None else self.schedule
        lines.append(f"minimal counterexample: {len(minimal)} decisions")
        for line in minimal.describe():
            lines.append(f"  {line}")
        return "\n".join(lines)


@dataclass
class ExplorationReport:
    """Everything one :func:`explore` call found."""

    protocol: str
    n: int
    f: int
    strategy: str
    schedules_run: int
    violations: List[Violation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return bool(self.violations)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def violations_of(self, prop: str) -> List[Violation]:
        return [v for v in self.violations if prop in v.properties]

    def summary_row(self) -> Dict[str, Any]:
        minimal = min(
            (len(v.shrunk if v.shrunk is not None else v.schedule)
             for v in self.violations),
            default=None,
        )
        return {
            "protocol": self.protocol,
            "n": self.n,
            "f": self.f,
            "strategy": self.strategy,
            "schedules": self.schedules_run,
            "violations": self.violation_count,
            "violated": ",".join(
                sorted({p for v in self.violations for p in v.properties})
            ) or "-",
            "min_counterexample": minimal,
        }


def _required_props(
    properties: Optional[frozenset],
    cell: Optional[PropertyPair],
    execution_class: str,
) -> frozenset:
    if properties is not None:
        return properties
    if cell is not None:
        return required_properties(cell, execution_class)
    return ALL_PROPS


def _violated_props(
    trial: TrialResult,
    properties: Optional[frozenset],
    cell: Optional[PropertyPair],
) -> Tuple[str, ...]:
    required = {
        _PROP_ATTRS[prop]
        for prop in _required_props(properties, cell, trial.execution_class)
    }
    return tuple(sorted(attr for attr in trial.broken() if attr in required))


def _crash_points(
    budget: int,
    label: str,
    pids: Sequence[int],
    gaps: Sequence[Optional[int]] = (None,),
    points: Optional[int] = None,
    /,
    **params: Any,
) -> Tuple[List[ScheduleSpec], List[int]]:
    """``crash-point`` schedules, point-major, clipped to ``budget``.

    One spec per ``(point, pid, gap)``, in that nesting, so a small budget
    still covers every process at the earliest phase boundaries; a ``gap``
    other than ``None`` rejoins the crashed process that many boundaries
    later (``recover_after``).  ``label`` is a template over ``pid``,
    ``point`` and ``gap``.  Without ``points``, enough boundaries to fill
    the budget, and at least 2.  ``params`` go to every spec (positional-only
    arguments leave any strategy parameter name free for them).  The
    strategy is seed-insensitive, so the seed axis is one seed.
    """
    if points is None:
        points = max(2, -(-budget // (len(pids) * len(gaps))))
    specs = []
    for point in range(points):
        for pid in pids:
            for gap in gaps:
                spec = {**params, "pid": pid, "point": point}
                if gap is not None:
                    spec["recover_after"] = gap
                name = label.format(pid=pid, point=point, gap=gap)
                specs.append(coerce_axis("schedules", (name, "crash-point", spec)))
    return specs[:budget], [0]


def _schedule_specs(
    strategy: str,
    params: Optional[Dict[str, Any]],
    budget: int,
    n: int,
) -> Tuple[List[ScheduleSpec], List[int]]:
    """Expand the strategy into (schedules axis, seeds axis) within budget.

    Seeded strategies use one spec and ``budget`` seeds.  ``crash-point`` is
    deterministic (seed-insensitive): without an explicit ``point`` it
    enumerates its ``(pid, point)`` space as separate axis values, clipped to
    the budget; with one, exactly one schedule runs — repeating a
    seed-insensitive strategy across seeds would re-run identical executions.
    """
    params = dict(params or {})
    if strategy != "crash-point":
        return [coerce_axis("schedules", (strategy, strategy, params))], list(range(budget))
    if "point" in params:
        return [coerce_axis("schedules", (strategy, strategy, params))], [0]
    # enumerate phase-boundary ordinals; each boundary's owning process is
    # crashed unless an explicit pid pins the victim
    pid = params.pop("pid", 0)
    points = int(params.pop("points", max(4, 2 * n)))
    return _crash_points(
        budget, "crash-point[pid={pid},point={point}]", (pid,), (None,), points, **params
    )


def explore(
    protocol: Any,
    n: int,
    f: int,
    budget: int = 200,
    *,
    strategy: str = "random-walk",
    params: Optional[Dict[str, Any]] = None,
    preset: Optional[str] = None,
    properties: Optional[Sequence[Union[str, Prop]]] = None,
    cell: Optional[PropertyPair] = None,
    votes: Any = "all-yes",
    delay: Any = None,
    fault: Any = None,
    workload: Any = None,
    seed: int = 0,
    max_time: float = 500.0,
    workers: Optional[int] = 1,
    shrink: bool = True,
    max_counterexamples: int = 5,
) -> ExplorationReport:
    """Search ``budget`` schedules of one protocol for property violations.

    The search runs as a :mod:`repro.exp` sweep over the ``schedules`` axis
    (``workers>1`` fans it out over the process pool; results are identical
    at any worker count), checks every execution against the required
    properties, and greedily shrinks up to ``max_counterexamples`` violating
    schedules to minimal counterexamples.

    Parameters mirror the sweep axes: ``votes`` / ``delay`` / ``fault`` /
    ``workload`` take any axis shorthand
    :class:`~repro.exp.spec.GridSpec` accepts.  Pass
    ``properties=("termination",)`` to hunt one property, or ``cell=`` to
    check a protocol against its own problem cell (class-aware requirements).

    Passing a ``workload`` turns the search into a *transaction-anomaly*
    hunt: every schedule drives a full :mod:`repro.db` cluster (``n``
    partitions, the protocol embedded as the commit layer), and the checked
    properties default to the cluster-invariant battery
    (:mod:`repro.db.invariants` — atomicity and durability/lock safety;
    termination is opt-in because injected crashes legitimately leave
    in-doubt transactions).  ``preset="cluster-anomaly"`` replaces the
    seeded strategy with deterministic crash-point enumeration over every
    partition and the client coordinator; ``preset="cluster-rejoin"``
    enumerates crash-*and-rejoin* points over the partitions instead,
    hunting WAL-recovery bugs.
    """
    if budget < 1:
        raise ConfigurationError(f"budget must be positive, got {budget}")
    props = _coerce_properties(properties)
    if props is None and cell is None and workload is not None:
        props = CLUSTER_SAFETY_PROPS
    if preset is not None:
        if preset not in EXPLORATION_PRESETS:
            known = ", ".join(EXPLORATION_PRESETS)
            raise ConfigurationError(
                f"unknown exploration preset {preset!r}; known: {known}"
            )
        if strategy != "random-walk" or params:
            # a preset replaces the strategy wholesale; silently discarding
            # an explicit strategy/params would misreport what was searched
            raise ConfigurationError(
                f"preset={preset!r} defines the search plan itself and cannot "
                f"be combined with strategy={strategy!r} / params={params!r}; "
                f"drop the preset or the strategy arguments"
            )
        if workload is None:
            raise ConfigurationError(
                f"preset={preset!r} explores cluster trials; pass a "
                f"workload= (any GridSpec workloads-axis shorthand, e.g. "
                f"'uniform' or ('label', 'uniform', {{'transactions': 8}}))"
            )
        extra_pids, gaps, label = EXPLORATION_PRESETS[preset]
        schedules, seed_axis = _crash_points(
            budget, label, range(1, n + 1 + extra_pids), gaps
        )
        strategy_label = preset
    else:
        schedules, seed_axis = _schedule_specs(strategy, params, budget, n)
        strategy_label = strategy
    base_seeds = [seed + s for s in seed_axis]
    grid = GridSpec(
        protocols=[protocol],
        systems=[(n, f)],
        delays=[delay],
        faults=[fault],
        votes=[votes],
        workloads=[workload],
        schedules=schedules,
        seeds=base_seeds,
        max_time=max_time,
    )
    trials = grid.trials()
    sweep = run_trials(trials, workers=workers, mode="full")

    report = ExplorationReport(
        protocol=trials[0].protocol.label if trials else str(protocol),
        n=n,
        f=f,
        strategy=strategy_label,
        schedules_run=len(trials),
        meta=dict(sweep.meta),
    )
    if preset is not None:
        report.meta["preset"] = preset
    trials_by_index = {t.index: t for t in trials}
    for result in sweep:
        if result.error is not None:
            report.errors.append(result.error)
            continue
        violated = _violated_props(result, props, cell)
        if not violated:
            continue
        schedule = ScheduleTrace.from_jsonable(result.extra["schedule_trace"])
        violation = Violation(
            trial_index=result.index,
            base_seed=result.base_seed,
            derived_seed=result.derived_seed,
            execution_class=result.execution_class,
            properties=violated,
            schedule=schedule,
            fingerprint=result.extra["trace_fingerprint"],
            details=tuple(result.extra.get("invariant_violations", ())),
        )
        report.violations.append(violation)
    if shrink:
        for violation in report.violations[:max_counterexamples]:
            shrink_violation(
                trials_by_index[violation.trial_index], violation,
                properties=props, cell=cell,
            )
    return report


# --------------------------------------------------------------------------- #
# replay and shrinking
# --------------------------------------------------------------------------- #


def replay_trial(trial: TrialSpec, schedule: ScheduleTrace) -> TrialResult:
    """Re-run one explored trial under a stored schedule.

    The trial's coordinates (and therefore its derived seed — the schedule is
    deliberately not part of it) pin the underlying execution; the replayed
    decisions pin the event order.  The returned result's
    ``extra["trace_fingerprint"]`` must equal the original run's fingerprint
    — the subsystem's replay-determinism guarantee.
    """
    replay_spec = ScheduleSpec(
        label="replay",
        name="replay",
        params=(("decisions", tuple(tuple(d) for d in schedule.decisions)),),
    )
    replayed = dataclasses.replace(trial, schedule=replay_spec)
    return run_trial(replayed)


def shrink_violation(
    trial: TrialSpec,
    violation: Violation,
    *,
    properties: Optional[frozenset] = None,
    cell: Optional[PropertyPair] = None,
) -> Violation:
    """Greedily minimise a violating schedule in place.

    Repeatedly tries to drop each decision (re-running the trial each time);
    a drop is kept when the violation persists, and the loop restarts until
    no single decision can be removed — a 1-minimal counterexample in the
    delta-debugging sense.  The shrunk schedule's decision list is re-read
    from the replay's applied decisions, so decisions that became
    inapplicable after earlier drops disappear from the counterexample too.
    """

    def still_violates(schedule: ScheduleTrace):
        result = replay_trial(trial, schedule)
        if result.error is not None:
            return None
        violated = _violated_props(result, properties, cell)
        if not set(violation.properties) <= set(violated):
            return None
        return result

    current = violation.schedule
    current_result = still_violates(current)
    if current_result is None:  # pragma: no cover - a violation must replay
        raise ConfigurationError(
            "stored schedule no longer reproduces its violation; the trial "
            "spec does not match the one it was explored on"
        )
    # normalise to the replay's applied decisions before shrinking
    current = ScheduleTrace.from_jsonable(current_result.extra["schedule_trace"])
    reduced = True
    while reduced and len(current):
        reduced = False
        for index in range(len(current)):
            candidate = current.without_decision(index)
            result = still_violates(candidate)
            if result is None:
                continue
            current = ScheduleTrace.from_jsonable(
                result.extra["schedule_trace"]
            )
            current_result = result
            reduced = True
            break
    violation.shrunk = ScheduleTrace(
        strategy=violation.schedule.strategy,
        seed=violation.schedule.seed,
        params=dict(violation.schedule.params),
        decisions=current.decisions,
    )
    violation.shrunk_fingerprint = current_result.extra["trace_fingerprint"]
    # re-read the invariant details from the *shrunk* run: dropping decisions
    # may have changed which transactions/partitions the violation names
    violation.details = tuple(
        current_result.extra.get("invariant_violations", ())
    )
    return violation
