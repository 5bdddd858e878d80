"""Declarative experiment grids: what to run, not how to run it.

A :class:`GridSpec` names one value set per experimental axis — protocol,
system size ``(n, f)``, delay model, fault plan, votes, workload, schedule,
base seed — and expands their cross product into a flat list of
:class:`TrialSpec` records.  Each trial carries a *derived* seed computed
from the base seed and the trial's coordinates, so the seed a trial uses is a
pure function of what the trial *is*, never of where in the sweep (or on
which worker process) it runs.  That property is what makes parallel and
serial sweeps bit-identical.

Axis values
-----------
``protocols`` takes registry names, process classes or ``(label, class)``
pairs; ``systems`` takes ``(n, f)`` pairs; ``seeds`` takes integers, one full
grid repetition each.  A value of the other five axes is **a label, a
registry name and plain-data parameters** — nothing is built until a trial
runs, and then it is built fresh from the trial's derived seed (delay models
and controllers carry RNG state and must never be shared between trials).
:func:`coerce_axis` accepts, on every one of the five:

========================== ========= ================================== ===========
form                       axes      what a trial builds                spawn-safe?
========================== ========= ================================== ===========
``None``                   delays    ``fixed`` (label ``U=1``)          yes
..                         faults    ``failure-free``                   yes
..                         votes     ``all-yes``                        yes
..                         workloads nothing: a bare protocol trial     yes
..                         schedules nothing: strict timestamp order    yes
``"name"``                 all five  the registered builder, no params  yes
``"one-no:3"``             votes     ``one-no`` with ``pid=3``          yes
``"mixed:0.3"``            votes     ``mixed``, ``no_probability=0.3``  yes
``(label, "name")``        all five  the same, under another label      yes
``(label, "name", {...})`` all five  the builder with those parameters  if the
                                                                        values are
``(label, FaultPlan)``,    faults    ``plan``: that plan object, which  unless a
bare ``FaultPlan``                   holds no per-execution state       rule holds
                                                                        a lambda
``(label, [1, 1, 0])``     votes     ``fixed``: that vote vector        yes
``(label, transactions)``  workloads ``verbatim``: that transaction     yes
                                     list (or ``TransactionWorkload``)
a spec instance            its axis  itself                             as above
========================== ========= ================================== ===========

The label is the trial's grid coordinate (:meth:`TrialSpec.key`, hence its
derived seed and its aggregate row), so labels must be unique per axis.  A
bare ``"name"`` is its own label; a bare plan is labelled by its
``description``.  Names resolve against :mod:`repro.exp.registry`
(``register_delay_model`` / ``register_fault_plan`` / ``register_vote_pattern``
/ ``register_workload`` / ``register_schedule_strategy``) when the grid is
constructed — an unknown name, or a parameter the builder does not take, is
a :class:`~repro.errors.ConfigurationError` there, not a per-trial failure.
**Callables and delay-model instances are not axis values**: register the
builder at import time and name it.  The only closures a grid can carry are
predicates inside a literal ``FaultPlan`` (and collectors, and protocol
classes), which is what :func:`~repro.exp.engine.ensure_spawn_safe` is for.

For batteries that are not cross products (e.g. hand-picked scenario lists
where votes and fault plan vary together), build :class:`TrialSpec` lists
directly with :func:`make_cases`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.exp.registry import DELAYS, FAULTS, SCHEDULES, VOTES, WORKLOADS, Registry
from repro.sim.faults import FaultPlan

# --------------------------------------------------------------------------- #
# axis specs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol column of the sweep."""

    label: str
    cls: type


@dataclass(frozen=True)
class NamedSpec:
    """One labelled axis value: a registry name plus plain-data parameters.

    Pure plain data, so equal specs compare equal and a grid built from them
    pickles under any multiprocessing start method (as long as the parameter
    values do).  ``params`` is a tuple of ``(key, value)`` pairs.
    ``build(...)`` takes what the engine knows per trial — see each subclass
    — and resolves the name in :mod:`repro.exp.registry` *in the process
    running the trial*.
    """

    label: str
    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    axis: ClassVar[str]  # the GridSpec field, for error messages
    registry: ClassVar[Registry]

    def __post_init__(self) -> None:
        try:
            self.registry.check(self.name, dict(self.params))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.axis}[{self.label!r}]: {exc}") from None

    def build(self, *supplied: Any) -> Any:
        return self.registry.build(self.name, self.params, *supplied)

    def builder_module(self) -> Optional[str]:
        return self.registry.module_of(self.name)


class DelaySpec(NamedSpec):
    """``build(seed)`` -> a fresh :class:`~repro.sim.network.DelayModel`."""

    axis, registry = "delays", DELAYS


class FaultSpec(NamedSpec):
    """``build()`` -> the trial's :class:`~repro.sim.faults.FaultPlan`."""

    axis, registry = "faults", FAULTS


class VoteSpec(NamedSpec):
    """``build(n, seed)`` -> the trial's vote vector."""

    axis, registry = "votes", VOTES


class WorkloadSpec(NamedSpec):
    """``build(n, seed)`` -> the transactions of a :mod:`repro.db` cluster trial.

    ``n`` is the partition count there and ``f`` the embedded commit
    protocol's resilience; the votes axis does not apply — votes come from
    lock conflicts inside the partitions.
    """

    axis, registry = "workloads", WORKLOADS


class ScheduleSpec(NamedSpec):
    """``build(seed)`` -> a fresh, single-use schedule controller.

    The names are :mod:`repro.explore.strategies`'s, registered in
    :data:`~repro.exp.registry.SCHEDULES` when that module is imported.
    """

    axis, registry = "schedules", SCHEDULES

    def __post_init__(self) -> None:
        # registers the built-in strategies; imported here, not at module
        # level, because repro.explore imports the engine, which imports this
        import repro.explore.strategies  # noqa: F401

        super().__post_init__()


# --------------------------------------------------------------------------- #
# the axis grammar (the table in the module docstring)
# --------------------------------------------------------------------------- #

ProtocolLike = Union[str, type, Tuple[str, type], ProtocolSpec]
AxisLike = Union[None, str, tuple, FaultPlan, NamedSpec]


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


#: a literal-data form: source -> (registry name, params, label of the bare
#: form or None when it has none), or None when the source is not that literal
Literal = Callable[[Any], Optional[Tuple[str, Dict[str, Any], Optional[str]]]]


def _literal_plan(source: Any):
    if isinstance(source, FaultPlan):
        return "plan", {"plan": source}, source.description or "fault-plan"
    return None


def _literal_votes(source: Any):
    if isinstance(source, Sequence):
        return "fixed", {"values": tuple(source)}, None
    return None


def _literal_transactions(source: Any):
    # a TransactionWorkload or a plain transaction sequence
    transactions = getattr(source, "transactions", source)
    if isinstance(transactions, Sequence):
        return "verbatim", {"transactions": tuple(transactions)}, None
    return None


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {value}")
    return value


#: GridSpec field -> what its axis adds to the shared grammar, in expansion
#: order: the spec class; the (label, name) that ``None`` stands for (no pair:
#: the axis is unused); the literal-data form; the string sugar
#: "<name>:<text>" -> (the parameter the text sets, its parser); and where a
#: callable belongs instead of on the axis
_AXES: Dict[str, Tuple[type, Optional[Tuple[str, str]], Optional[Literal], dict, str]] = {
    "delays": (DelaySpec, ("U=1", "fixed"), None, {}, "register_delay_model"),
    "faults": (
        FaultSpec, ("failure-free", "failure-free"), _literal_plan, {}, "register_fault_plan"
    ),
    "votes": (
        VoteSpec,
        ("all-yes", "all-yes"),
        _literal_votes,
        {"one-no": ("pid", int), "mixed": ("no_probability", _probability)},
        "register_vote_pattern",
    ),
    "workloads": (WorkloadSpec, None, _literal_transactions, {}, "register_workload"),
    "schedules": (ScheduleSpec, None, None, {}, "register_schedule_strategy"),
}


def coerce_axis(axis: str, value: AxisLike) -> Optional[NamedSpec]:
    """Normalise one value of ``axis`` (a GridSpec field name) into its spec.

    The one parser of the axis grammar (module docstring); returns ``None``
    where the axis is unused.  Everything it rejects is a
    :class:`~repro.errors.ConfigurationError` naming the axis and, where the
    value has one, the label.
    """
    spec_cls, default, literal, sugar, registrar = _AXES[axis]
    if isinstance(value, spec_cls):
        return value
    label, source, params = None, value, None
    if isinstance(value, tuple):
        if len(value) == 2:
            label, source = value
        elif len(value) == 3:
            label, source, params = value
        else:
            raise ConfigurationError(
                f"cannot interpret {value!r} as a {axis} axis value: a tuple "
                f"must be (label, name) or (label, name, params)"
            )
    where = axis if label is None else f"{axis}[{label!r}]"
    # `natural` is the label of the bare form, for the forms that have one
    if source is None and default is not None:
        natural, source = default
    elif source is None and label is None:
        return None
    elif isinstance(source, str):
        natural = source
    else:
        if callable(source) or callable(getattr(source, "delay", None)):
            # a factory, a vote function or a model instance: an object on the
            # axis would be shared by the cell's trials, or need reseeding from
            # outside; a name is built per trial from the derived seed
            raise ConfigurationError(
                f"{where}: {source!r} is not an axis value — callables and "
                f"delay-model instances are not accepted; register a builder at "
                f"import time with {registrar}(name, builder) and put the name "
                f"(with its parameters) on the axis instead"
            )
        # a literal-data form stands for a registered name and its parameters
        found = literal(source) if literal is not None and params is None else None
        if found is None or (label is None and found[2] is None):
            raise ConfigurationError(
                f"{where}: cannot interpret {source!r} as a {axis} axis value "
                f"(the accepted forms, all but a bare plan labelled, are "
                f"tabulated in repro.exp.spec)"
            )
        source, params, natural = found
    if params is None:
        params = {}
    elif not isinstance(params, dict):
        raise ConfigurationError(
            f"{where}: a 3-tuple must be (label, registry_name, params_dict), "
            f"but the parameters given for {source!r} are {params!r}"
        )
    name, colon, text = source.partition(":")
    if colon and name in sugar:
        key, parse = sugar[name]
        try:
            source, params = name, {key: parse(text), **params}
        except ValueError as exc:
            raise ConfigurationError(f"{where}: malformed {source!r}: {exc}") from None
    label = natural if label is None else label
    return spec_cls(label, source, tuple(sorted(params.items())))


def mixed_votes(no_probability: float) -> VoteSpec:
    """``"mixed:<p>"`` under the label ``"mixed(<p>)"``."""
    label = f"mixed({no_probability:g})"
    return coerce_axis("votes", (label, "mixed", {"no_probability": no_probability}))


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
    #: optional schedule-exploration strategy (see :mod:`repro.explore`).
    #: Deliberately *not* part of :meth:`key`: the derived seed fixes the
    #: underlying execution (votes, delays, faults), and the schedule only
    #: perturbs its event order — so strategies compare apples to apples,
    #: and a stored schedule replays against the same seed.
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


#: GridSpec axis field -> TrialSpec attribute: the spec fields that cross a
#: ``spawn`` pool boundary.  One table for both checks:
#: :func:`repro.exp.engine.ensure_spawn_safe` pickles these attributes at run
#: time, and the static analyser's SP001 rule (``python -m tools.lint``)
#: scans the same ``GridSpec`` keywords for lambdas and local closures.
SPAWN_AXIS_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("protocols", "protocol"),
    ("delays", "delay"),
    ("faults", "fault"),
    ("votes", "votes"),
    ("workloads", "workload"),
    ("schedules", "schedule"),
)


@dataclass
class GridSpec:
    """The cross product protocol x (n, f) x delay x fault x votes x workload x schedule x seed."""

    protocols: Sequence[ProtocolLike] = ()
    systems: Sequence[Tuple[int, int]] = ((5, 2),)
    delays: Sequence[AxisLike] = (None,)
    faults: Sequence[AxisLike] = (None,)
    votes: Sequence[AxisLike] = ("all-yes",)
    workloads: Sequence[AxisLike] = (None,)
    schedules: Sequence[AxisLike] = (None,)
    seeds: Sequence[int] = (0,)
    max_time: float = 500.0

    def __post_init__(self) -> None:
        if not self.protocols:
            # registry-driven default: sweep every implemented protocol
            from repro.protocols.registry import protocol_names

            self.protocols = tuple(protocol_names())
        self._specs: Dict[str, list] = {
            "protocols": [coerce_protocol(p) for p in self.protocols]
        }
        for axis in _AXES:
            self._specs[axis] = [coerce_axis(axis, v) for v in getattr(self, axis)]
        for axis, specs in self._specs.items():
            # the label is the coordinate: two values under one label would
            # share their derived seeds and fold into one aggregate row
            labels = [spec.label if spec is not None else "-" for spec in specs]
            for label in labels:
                if labels.count(label) > 1:
                    raise ConfigurationError(
                        f"duplicate label {label!r} on the {axis} axis "
                        f"(labels: {labels}); every value of an axis needs "
                        f"its own label"
                    )
        for n, f in self.systems:
            if not 1 <= f <= n - 1:
                raise ConfigurationError(f"invalid system size (n={n}, f={f})")
        # cluster trials derive their votes from lock conflicts, so crossing a
        # workload with a multi-valued votes axis would just replay identical
        # cluster runs under different vote labels — misleading, not useful.
        # (schedules x workloads, by contrast, is a supported grid: a cluster
        # trial carrying a ScheduleSpec runs under the schedule controller.)
        workload_labels = [w.label for w in self._specs["workloads"] if w is not None]
        vote_labels = [v.label for v in self._specs["votes"]]
        if workload_labels and len(vote_labels) > 1:
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
        axes = (*self._specs.values(), self.systems, self.seeds)
        return math.prod(len(values) for values in axes)

    def trials(self) -> List[TrialSpec]:
        """Expand the grid into its flat, deterministically-ordered trial list."""
        specs = self._specs
        cells = itertools.product(
            specs["protocols"], self.systems, specs["delays"], specs["faults"],
            specs["votes"], specs["workloads"], specs["schedules"], self.seeds,
        )
        return [
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
                schedule=schedule,
            )
            for index, (
                protocol, (n, f), delay, fault, votes, workload, schedule, seed
            ) in enumerate(cells)
        ]


def make_cases(cases: Sequence[Dict[str, Any]]) -> List[TrialSpec]:
    """Build trials from explicit per-case dicts (for non-cross-product batteries).

    Each case dict may contain ``protocol``, ``n``, ``f``, ``delay``,
    ``fault``, ``votes``, ``seed`` and ``max_time``; missing entries fall back
    to INBAC at (5, 2), the axes' defaults, seed 0 and a horizon of 500
    units.  Example::

        trials = make_cases([
            {"protocol": "INBAC", "n": 5, "f": 2, "votes": ("one-no", [1, 1, 0, 1, 1])},
            {"protocol": "INBAC", "n": 5, "f": 2, "fault": ("crash P1", FaultPlan.crash(1))},
        ])
    """
    out: List[TrialSpec] = []
    for index, case in enumerate(cases):
        unknown = set(case) - {
            "protocol", "n", "f", "delay", "fault", "votes", "workload", "seed",
            "max_time", "schedule",
        }
        if unknown:
            raise ConfigurationError(f"unknown case keys: {sorted(unknown)}")
        out.append(
            TrialSpec(
                index=index,
                protocol=coerce_protocol(case.get("protocol", "INBAC")),
                n=int(case.get("n", 5)),
                f=int(case.get("f", 2)),
                delay=coerce_axis("delays", case.get("delay")),
                fault=coerce_axis("faults", case.get("fault")),
                votes=coerce_axis("votes", case.get("votes")),
                base_seed=int(case.get("seed", 0)),
                max_time=float(case.get("max_time", 500.0)),
                workload=coerce_axis("workloads", case.get("workload")),
                schedule=coerce_axis("schedules", case.get("schedule")),
            )
        )
    return out
