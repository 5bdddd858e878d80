"""Declarative experiment grids: what to run, not how to run it.

A :class:`GridSpec` names one value set per experimental axis —

* **protocol** — registry names, process classes, or ``(label, class)`` pairs;
* **system size** — ``(n, f)`` pairs;
* **delay model** — factories so each trial gets a *fresh*, per-trial-seeded
  model (stateful models such as :class:`~repro.sim.network.UniformDelay`
  carry an RNG and must never be shared between trials);
* **fault plan** — plans or plan factories, rebuilt per trial because
  :class:`~repro.sim.faults.DelayRule` tracks match counts internally;
* **votes** — named vote patterns, functions of ``n``;
* **workload** — optional :mod:`repro.db` transaction batteries; a trial with
  a workload runs a simulated cluster (``n`` partitions, the protocol axis
  embedded as the commit protocol) instead of a bare protocol execution;
* **schedule** — optional schedule-exploration strategies (see
  :mod:`repro.explore`): a trial carrying a :class:`ScheduleSpec` runs under
  a schedule controller built from ``(strategy, params, derived seed)``
  instead of strict timestamp order;
* **seed** — base seeds, one full grid repetition each

— and expands their cross product into a flat list of :class:`TrialSpec`
records.  Each trial carries a *derived* seed computed from the base seed and
the trial's coordinates, so the seed a trial uses is a pure function of what
the trial *is*, never of where in the sweep (or on which worker process) it
runs.  That property is what makes parallel and serial sweeps bit-identical.

For batteries that are not cross products (e.g. hand-picked scenario lists
where votes and fault plan vary together), build :class:`TrialSpec` lists
directly with :func:`make_cases`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.faults import FaultPlan
from repro.sim.network import DelayModel
from repro.sim.trace import TRACE_LEVELS

# --------------------------------------------------------------------------- #
# vote patterns
# --------------------------------------------------------------------------- #


def all_yes(n: int) -> List[int]:
    """Every process votes 1 (the nice-execution vote vector)."""
    return [1] * n


def all_no(n: int) -> List[int]:
    return [0] * n


class _OneNoPattern:
    """Everyone votes 1 except one process (picklable, unlike a closure)."""

    __slots__ = ("pid",)

    def __init__(self, pid: int):
        self.pid = pid

    def __call__(self, n: int) -> List[int]:
        if not 1 <= self.pid <= n:
            raise ConfigurationError(f"one_no({self.pid}) used with n={n}")
        votes = [1] * n
        votes[self.pid - 1] = 0
        return votes


def one_no(pid: int) -> Callable[[int], List[int]]:
    """Everyone votes 1 except process ``pid``."""
    return _OneNoPattern(pid)


class _FixedVotesPattern:
    """A literal vote vector (picklable, unlike a closure)."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]):
        self.values = tuple(values)

    def __call__(self, n: int) -> List[int]:
        if len(self.values) != n:
            raise ConfigurationError(
                f"fixed vote vector has {len(self.values)} entries but n={n}"
            )
        return list(self.values)


def fixed_votes(values: Sequence[int]) -> Callable[[int], List[int]]:
    """A literal vote vector; only valid for the matching ``n``."""
    return _FixedVotesPattern(values)


class _WeightedVotesPattern:
    """Weighted random votes, drawn per trial from the trial's derived seed."""

    __slots__ = ("no_probability",)

    def __init__(self, no_probability: float):
        if not 0.0 <= no_probability <= 1.0:
            raise ConfigurationError(
                f"no_probability must be in [0, 1], got {no_probability}"
            )
        self.no_probability = no_probability

    def __call__(self, n: int, seed: int) -> List[int]:
        from repro.workloads.votes import random_votes

        return random_votes(n, no_probability=self.no_probability, seed=seed)


def mixed_votes(no_probability: float, label: Optional[str] = None) -> "VoteSpec":
    """A mixed-vote axis value: each trial draws a fresh weighted vote vector.

    The vector is a pure function of ``(n, derived seed)``, so a trial's votes
    are identical wherever (and however many times) it runs, while the seeds
    axis sweeps genuinely different vote mixes through one grid cell.
    """
    if label is None:
        label = f"mixed({no_probability:g})"
    return VoteSpec(label=label, seeded=_WeightedVotesPattern(no_probability))


# --------------------------------------------------------------------------- #
# axis specs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol column of the sweep."""

    label: str
    cls: type
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def protocol_kwargs(self) -> Dict[str, Any]:
        return dict(self.kwargs)


@dataclass(frozen=True)
class DelaySpec:
    """A named delay-model factory; called once per trial with the trial seed."""

    label: str
    factory: Callable[[int], DelayModel]


@dataclass(frozen=True)
class FaultSpec:
    """A named fault-plan factory; called once per trial (plans are stateful)."""

    label: str
    factory: Callable[[], FaultPlan]


@dataclass(frozen=True)
class VoteSpec:
    """A named vote pattern: a function of ``n``, or of ``(n, trial seed)``.

    Exactly one of ``pattern`` (deterministic in ``n``; resolvable once per
    grid cell) or ``seeded`` (drawn per trial from the derived seed, e.g.
    weighted random vote mixes — see :func:`mixed_votes`) must be set.
    """

    label: str
    pattern: Optional[Callable[[int], List[int]]] = None
    seeded: Optional[Callable[[int, int], List[int]]] = None

    def __post_init__(self) -> None:
        if (self.pattern is None) == (self.seeded is None):
            raise ConfigurationError(
                f"VoteSpec {self.label!r} needs exactly one of pattern= or seeded="
            )

    @property
    def per_trial(self) -> bool:
        """Whether the vote vector depends on the trial seed."""
        return self.seeded is not None

    def resolve(self, n: int, seed: int) -> List[int]:
        if self.seeded is not None:
            return self.seeded(n, seed)
        return self.pattern(n)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named transaction-workload factory for :mod:`repro.db` cluster trials.

    A trial carrying a workload runs a *cluster* battery instead of a bare
    protocol execution: ``n`` becomes the partition count, ``f`` the embedded
    commit protocol's resilience, and ``factory(n, seed)`` produces the
    transaction list (rebuilt per trial so workloads can scale with the
    partition count and reseed with the trial).  The votes axis does not apply
    to cluster trials — votes come from lock conflicts inside the partitions.
    """

    label: str
    factory: Callable[[int, int], Sequence[Any]]


@dataclass(frozen=True)
class ScheduleSpec:
    """A named schedule-exploration strategy for the ``schedules`` axis.

    Pure plain data — a registry strategy name plus parameter pairs — so a
    grid carrying schedules pickles under any multiprocessing start method.
    ``build(seed)`` resolves the name against
    :mod:`repro.explore.strategies` and returns a fresh controller seeded
    with the trial's derived seed (controllers are single-use).
    """

    label: str
    strategy: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def strategy_params(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self, seed: int):
        # resolved lazily: repro.explore sits above the sim layer and is only
        # needed by trials that actually explore
        from repro.explore.strategies import make_strategy

        return make_strategy(self.strategy, seed=seed, **dict(self.params))


# Accepted shorthand for each axis (normalised by the coerce_* helpers below).
ProtocolLike = Union[str, type, Tuple[str, type], ProtocolSpec]
DelayLike = Union[None, str, DelayModel, Tuple[str, Callable[..., DelayModel]], DelaySpec]
FaultLike = Union[None, str, FaultPlan, Tuple[str, Union[FaultPlan, Callable[[], FaultPlan]]], FaultSpec]
VoteLike = Union[str, Tuple[str, Callable[[int], List[int]]], VoteSpec]
WorkloadLike = Union[None, str, Tuple[str, Any], WorkloadSpec]
ScheduleLike = Union[None, str, Tuple[str, str], Tuple[str, str, Dict[str, Any]], ScheduleSpec]

_NAMED_PATTERNS: Dict[str, Callable[[int], List[int]]] = {
    "all-yes": all_yes,
    "all-no": all_no,
}


def coerce_protocol(value: ProtocolLike) -> ProtocolSpec:
    if isinstance(value, ProtocolSpec):
        return value
    if isinstance(value, str):
        # resolved against the registry lazily to avoid import cycles
        from repro.protocols.registry import get_protocol

        info = get_protocol(value)
        return ProtocolSpec(label=value, cls=info.cls)
    if isinstance(value, tuple):
        label, cls = value
        return ProtocolSpec(label=label, cls=cls)
    if isinstance(value, type):
        return ProtocolSpec(label=getattr(value, "protocol_name", value.__name__), cls=value)
    raise ConfigurationError(f"cannot interpret {value!r} as a protocol axis value")


class _TemplateDelayFactory:
    """Per-trial deep copy of a delay-model instance, reseeded with the trial.

    A model instance on the axis must be deep-copied per trial so RNG state
    is never shared, then reseeded with the trial seed — otherwise every seed
    on the seeds axis would replay the identical delay sequence.  Picklable
    whenever the template model is.
    """

    __slots__ = ("template",)

    def __init__(self, template: DelayModel):
        self.template = template

    def __call__(self, seed: int) -> DelayModel:
        model = copy.deepcopy(self.template)
        rng = getattr(model, "_rng", None)
        if isinstance(rng, random.Random):
            rng.seed(seed)
        return model


def coerce_delay(value: DelayLike) -> DelaySpec:
    # resolved lazily to keep module import order simple
    from repro.exp.registry import NamedDelayFactory, named_delay

    if isinstance(value, DelaySpec):
        return value
    if value is None:
        return DelaySpec(label="U=1", factory=NamedDelayFactory("fixed", {}))
    if isinstance(value, str):
        # a registry name: always spawn-safe (see repro.exp.registry)
        return named_delay(value)
    if isinstance(value, tuple):
        if len(value) == 3:
            label, name, params = value
            if not isinstance(name, str):
                raise ConfigurationError(
                    f"cannot interpret {value!r} as a delay axis value: a "
                    f"3-tuple must be (label, registry_name, params)"
                )
            return named_delay(name, label=label, **dict(params))
        label, factory = value
        if isinstance(factory, str):
            return named_delay(factory, label=label)
        return DelaySpec(label=label, factory=_seed_aware(factory))
    if hasattr(value, "delay") and hasattr(value, "bound"):
        return DelaySpec(
            label=type(value).__name__, factory=_TemplateDelayFactory(value)
        )
    raise ConfigurationError(f"cannot interpret {value!r} as a delay axis value")


class _SeedAwareFactory:
    """Adapter letting a factory take the trial seed or no argument at all.

    Picklable whenever the wrapped factory is (a lambda still is not — use a
    registry name for spawn-safe grids).
    """

    __slots__ = ("factory", "takes_seed")

    def __init__(self, factory: Callable[..., DelayModel], takes_seed: bool):
        self.factory = factory
        self.takes_seed = takes_seed

    def __call__(self, seed: int) -> DelayModel:
        return self.factory(seed) if self.takes_seed else self.factory()


def _seed_aware(factory: Callable[..., DelayModel]) -> Callable[[int], DelayModel]:
    """Wrap a factory so it may take the trial seed or no argument at all.

    Arity is decided by signature inspection, not by catching TypeError — a
    TypeError raised *inside* the factory body must propagate as-is rather
    than trigger a misleading second, argument-less call.
    """
    try:
        takes_seed = any(
            p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
            for p in inspect.signature(factory).parameters.values()
        )
    except (TypeError, ValueError):  # builtins / C callables without signatures
        takes_seed = True
    return _SeedAwareFactory(factory, takes_seed)


def _fresh_plan(plan: FaultPlan) -> FaultPlan:
    """Rebuild a plan with pristine DelayRules (their match counters reset)."""
    rules = [dataclasses.replace(rule) for rule in plan.delay_rules]
    return FaultPlan(
        crashes=dict(plan.crashes),
        delay_rules=rules,
        description=plan.description,
        recoveries=dict(plan.recoveries),
    )


class _PlanTemplateFactory:
    """Per-trial fresh copy of a literal fault plan.

    Picklable whenever the plan is (plans whose DelayRules carry lambda
    predicates still are not — those need the fork start method).
    """

    __slots__ = ("plan",)

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def __call__(self) -> FaultPlan:
        return _fresh_plan(self.plan)


def coerce_fault(value: FaultLike) -> FaultSpec:
    # resolved lazily to keep module import order simple
    from repro.exp.registry import named_fault

    if isinstance(value, FaultSpec):
        return value
    if value is None:
        return FaultSpec(label="failure-free", factory=FaultPlan.failure_free)
    if isinstance(value, str):
        # a registry name ("failure-free", "crash", "rejoin", ...):
        # always spawn-safe (see repro.exp.registry)
        return named_fault(value)
    if isinstance(value, FaultPlan):
        label = value.description or "fault-plan"
        return FaultSpec(label=label, factory=_PlanTemplateFactory(value))
    if isinstance(value, tuple):
        if len(value) == 3:
            label, name, params = value
            if not isinstance(name, str) or not isinstance(params, dict):
                raise ConfigurationError(
                    f"cannot interpret {value!r} as a fault axis value: a "
                    f"3-tuple must be (label, registry_name, params_dict)"
                )
            return named_fault(name, label=label, **params)
        label, plan_or_factory = value
        if isinstance(plan_or_factory, FaultPlan):
            return FaultSpec(label=label, factory=_PlanTemplateFactory(plan_or_factory))
        if plan_or_factory is None:
            return FaultSpec(label=label, factory=FaultPlan.failure_free)
        if isinstance(plan_or_factory, str):
            return named_fault(plan_or_factory, label=label)
        return FaultSpec(label=label, factory=plan_or_factory)
    raise ConfigurationError(f"cannot interpret {value!r} as a fault axis value")


def coerce_votes(value: VoteLike) -> VoteSpec:
    if isinstance(value, VoteSpec):
        return value
    if isinstance(value, str):
        if value in _NAMED_PATTERNS:
            return VoteSpec(label=value, pattern=_NAMED_PATTERNS[value])
        # parameterised registry names, always spawn-safe:
        #   "one-no:3"    -> everyone votes 1 except P3
        #   "mixed:0.25"  -> per-trial weighted random votes, P(no) = 0.25
        if ":" in value:
            name, _, arg = value.partition(":")
            try:
                if name == "one-no":
                    return VoteSpec(label=value, pattern=_OneNoPattern(int(arg)))
                if name == "mixed":
                    return VoteSpec(
                        label=value, seeded=_WeightedVotesPattern(float(arg))
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"malformed vote pattern {value!r}: {exc}"
                ) from None
        known = ", ".join(sorted(_NAMED_PATTERNS) + ["one-no:<pid>", "mixed:<p>"])
        raise ConfigurationError(f"unknown vote pattern {value!r}; known: {known}")
    if isinstance(value, tuple):
        label, pattern = value
        if not callable(pattern):
            pattern = fixed_votes(pattern)
        return VoteSpec(label=label, pattern=pattern)
    raise ConfigurationError(f"cannot interpret {value!r} as a votes axis value")


class _VerbatimWorkload:
    """A fixed transaction list replayed identically in every trial."""

    __slots__ = ("transactions",)

    def __init__(self, transactions: Sequence[Any]):
        self.transactions = list(transactions)

    def __call__(self, n: int, seed: int) -> Sequence[Any]:
        return self.transactions


def _workload_factory(source: Any) -> Callable[[int, int], Sequence[Any]]:
    """Normalise a workload source into a ``factory(n, seed)`` callable.

    Accepted sources: a factory callable, a
    :class:`~repro.workloads.transactions.TransactionWorkload`, or a plain
    transaction sequence (the latter two are replayed verbatim per trial).
    """
    if callable(source):
        return source
    return _VerbatimWorkload(getattr(source, "transactions", source))


def coerce_workload(value: WorkloadLike) -> Optional[WorkloadSpec]:
    if value is None:
        return None
    if isinstance(value, WorkloadSpec):
        return value
    if isinstance(value, str):
        # a registry name: always spawn-safe (see repro.exp.registry)
        from repro.exp.registry import named_workload

        return named_workload(value)
    if isinstance(value, tuple):
        if len(value) == 3:
            label, name, params = value
            if not isinstance(name, str) or not isinstance(params, dict):
                raise ConfigurationError(
                    f"cannot interpret {value!r} as a workload axis value: a "
                    f"3-tuple must be (label, registry_name, params_dict)"
                )
            from repro.exp.registry import named_workload

            return named_workload(name, label=label, **params)
        label, source = value
        if isinstance(source, str):
            from repro.exp.registry import named_workload

            return named_workload(source, label=label)
        return WorkloadSpec(label=label, factory=_workload_factory(source))
    raise ConfigurationError(f"cannot interpret {value!r} as a workload axis value")


def coerce_schedule(value: ScheduleLike) -> Optional[ScheduleSpec]:
    """Normalise a schedules-axis value.

    Accepted shorthand: ``None`` (strict timestamp order — the default
    scheduling, no controller attached), a strategy name string, a
    ``(label, strategy)`` pair, or ``(label, strategy, params)`` with a
    plain-data params dict.
    """
    if value is None:
        return None
    if isinstance(value, ScheduleSpec):
        return value
    if isinstance(value, str):
        return ScheduleSpec(label=value, strategy=value)
    if isinstance(value, tuple):
        if len(value) == 2:
            label, strategy = value
            params: Dict[str, Any] = {}
        elif len(value) == 3:
            label, strategy, params = value
        else:
            raise ConfigurationError(
                f"cannot interpret {value!r} as a schedules axis value"
            )
        return ScheduleSpec(
            label=label, strategy=strategy, params=tuple(sorted(dict(params).items()))
        )
    raise ConfigurationError(f"cannot interpret {value!r} as a schedules axis value")


# --------------------------------------------------------------------------- #
# trials
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TrialSpec:
    """One fully-determined simulation run of a sweep.

    A trial with ``workload=None`` runs a bare protocol execution; a trial
    carrying a :class:`WorkloadSpec` runs a :mod:`repro.db` cluster battery
    with ``n`` partitions and the protocol embedded as the commit protocol.
    """

    index: int
    protocol: ProtocolSpec
    n: int
    f: int
    delay: DelaySpec
    fault: FaultSpec
    votes: VoteSpec
    base_seed: int
    max_time: float = 500.0
    workload: Optional[WorkloadSpec] = None
    #: ``None`` defers to the engine (aggregate-mode sweeps run "counters",
    #: everything else "full"); an explicit level pins this trial.  Not part
    #: of :meth:`key`, so the derived seed — and therefore every measurement
    #: — is identical across trace levels.
    trace_level: Optional[str] = None
    #: optional schedule-exploration strategy (see :mod:`repro.explore`).
    #: Like ``trace_level``, deliberately *not* part of :meth:`key`: the
    #: derived seed fixes the underlying execution (votes, delays, faults),
    #: and the schedule only perturbs its event order — so strategies compare
    #: apples to apples, and a stored schedule replays against the same seed.
    schedule: Optional[ScheduleSpec] = None

    @property
    def workload_label(self) -> str:
        return self.workload.label if self.workload is not None else "-"

    @property
    def schedule_label(self) -> str:
        return self.schedule.label if self.schedule is not None else "-"

    def key(self) -> Tuple[str, int, int, str, str, str, str]:
        """The trial's grid coordinates (everything except seed and schedule)."""
        return (
            self.protocol.label,
            self.n,
            self.f,
            self.delay.label,
            self.fault.label,
            self.votes.label,
            self.workload_label,
        )

    @property
    def derived_seed(self) -> int:
        """Per-trial seed: a pure function of coordinates + base seed.

        Independent of trial order and of which worker runs the trial, which
        is what makes parallel sweeps reproduce serial ones exactly.
        """
        material = "|".join(str(part) for part in (self.base_seed, *self.key()))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")


@dataclass
class GridSpec:
    """The cross product protocol x (n, f) x delay x fault x votes x workload x schedule x seed."""

    protocols: Sequence[ProtocolLike] = ()
    systems: Sequence[Tuple[int, int]] = ((5, 2),)
    delays: Sequence[DelayLike] = (None,)
    faults: Sequence[FaultLike] = (None,)
    votes: Sequence[VoteLike] = ("all-yes",)
    workloads: Sequence[WorkloadLike] = (None,)
    schedules: Sequence[ScheduleLike] = (None,)
    seeds: Sequence[int] = (0,)
    max_time: float = 500.0
    #: ``None`` (default) lets the engine pick per sweep mode: "counters"
    #: for aggregate-mode sweeps, "full" otherwise.  Set explicitly to pin.
    trace_level: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trace_level is not None and self.trace_level not in TRACE_LEVELS:
            raise ConfigurationError(
                f"unknown trace_level {self.trace_level!r}; "
                f"expected one of {TRACE_LEVELS} (or None to defer to the engine)"
            )
        if not self.protocols:
            # registry-driven default: sweep every implemented protocol
            from repro.protocols.registry import protocol_names

            self.protocols = tuple(protocol_names())
        self._protocol_specs = [coerce_protocol(p) for p in self.protocols]
        self._delay_specs = [coerce_delay(d) for d in self.delays]
        self._fault_specs = [coerce_fault(fp) for fp in self.faults]
        self._vote_specs = [coerce_votes(v) for v in self.votes]
        self._workload_specs = [coerce_workload(w) for w in self.workloads]
        self._schedule_specs = [coerce_schedule(s) for s in self.schedules]
        schedule_labels = [s.label for s in self._schedule_specs if s is not None]
        if len(set(schedule_labels)) != len(schedule_labels):
            raise ConfigurationError(
                f"duplicate schedule labels in grid: {schedule_labels}"
            )
        for n, f in self.systems:
            if not 1 <= f <= n - 1:
                raise ConfigurationError(f"invalid system size (n={n}, f={f})")
        labels = [p.label for p in self._protocol_specs]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate protocol labels in grid: {labels}")
        # cluster trials derive their votes from lock conflicts, so crossing a
        # workload with a multi-valued votes axis would just replay identical
        # cluster runs under different vote labels — misleading, not useful.
        # (schedules x workloads, by contrast, is a supported grid: a cluster
        # trial carrying a ScheduleSpec runs under the schedule controller.)
        if any(w is not None for w in self._workload_specs) and len(self._vote_specs) > 1:
            workload_labels = [
                w.label for w in self._workload_specs if w is not None
            ]
            vote_labels = [v.label for v in self._vote_specs]
            raise ConfigurationError(
                f"unsupported axis combination: workloads={workload_labels!r} "
                f"cannot be crossed with the multi-valued votes axis "
                f"votes={vote_labels!r} — cluster trials derive their votes "
                f"from lock conflicts inside the partitions, so every vote "
                f"label would replay the identical cluster run; sweep the "
                f"votes axis in a separate, workload-free grid"
            )

    @property
    def size(self) -> int:
        return (
            len(self._protocol_specs)
            * len(self.systems)
            * len(self._delay_specs)
            * len(self._fault_specs)
            * len(self._vote_specs)
            * len(self._workload_specs)
            * len(self._schedule_specs)
            * len(self.seeds)
        )

    def trials(self) -> List[TrialSpec]:
        """Expand the grid into its flat, deterministically-ordered trial list."""
        out: List[TrialSpec] = []
        index = 0
        for protocol in self._protocol_specs:
            for n, f in self.systems:
                for delay in self._delay_specs:
                    for fault in self._fault_specs:
                        for votes in self._vote_specs:
                            for workload in self._workload_specs:
                                for schedule in self._schedule_specs:
                                    for seed in self.seeds:
                                        out.append(
                                            TrialSpec(
                                                index=index,
                                                protocol=protocol,
                                                n=n,
                                                f=f,
                                                delay=delay,
                                                fault=fault,
                                                votes=votes,
                                                base_seed=seed,
                                                max_time=self.max_time,
                                                workload=workload,
                                                trace_level=self.trace_level,
                                                schedule=schedule,
                                            )
                                        )
                                        index += 1
        return out


def make_cases(
    cases: Sequence[Dict[str, Any]],
    *,
    max_time: float = 500.0,
    base_seed: int = 0,
) -> List[TrialSpec]:
    """Build trials from explicit per-case dicts (for non-cross-product batteries).

    Each case dict may contain ``protocol``, ``n``, ``f``, ``delay``,
    ``fault``, ``votes``, ``seed`` and ``max_time``; missing entries fall back
    to the defaults above.  Example::

        trials = make_cases([
            {"protocol": "INBAC", "n": 5, "f": 2, "votes": ("one-no", [1, 1, 0, 1, 1])},
            {"protocol": "INBAC", "n": 5, "f": 2, "fault": ("crash P1", FaultPlan.crash(1))},
        ])
    """
    out: List[TrialSpec] = []
    for index, case in enumerate(cases):
        unknown = set(case) - {
            "protocol", "n", "f", "delay", "fault", "votes", "workload", "seed",
            "max_time", "trace_level", "schedule",
        }
        if unknown:
            raise ConfigurationError(f"unknown case keys: {sorted(unknown)}")
        trace_level = case.get("trace_level")
        if trace_level is not None and trace_level not in TRACE_LEVELS:
            raise ConfigurationError(
                f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}"
            )
        out.append(
            TrialSpec(
                index=index,
                protocol=coerce_protocol(case.get("protocol", "INBAC")),
                n=int(case.get("n", 5)),
                f=int(case.get("f", 2)),
                delay=coerce_delay(case.get("delay")),
                fault=coerce_fault(case.get("fault")),
                votes=coerce_votes(case.get("votes", "all-yes")),
                base_seed=int(case.get("seed", base_seed)),
                max_time=float(case.get("max_time", max_time)),
                workload=coerce_workload(case.get("workload")),
                trace_level=trace_level,
                schedule=coerce_schedule(case.get("schedule")),
            )
        )
    return out
