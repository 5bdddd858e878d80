"""How a name becomes an object: the registries behind the sweep axes.

An axis value of a sweep is a label, a registry name and plain-data
parameters (:mod:`repro.exp.spec` states the grammar); this module owns the
other half — the tables that turn ``(name, params)`` into a delay model, a
fault plan, a vote vector, a transaction list or a reducer, per trial, in
whichever process runs the trial.  That is what makes a grid *spawn-safe* by
construction: the ``spawn`` start method (the only one on Windows, the macOS
default) pickles everything it ships to a worker, a spec holding a name and
plain data pickles, and the worker re-resolves the name against its own copy
of these tables.  For that to work, custom registrations must happen at
*import time* (module level) — a name registered only in the parent's
``__main__`` block does not exist in a spawn worker.

One :class:`Registry` per kind, each with its builder calling convention:

* delay models — ``builder(seed, **params)``: ``fixed``, ``uniform``,
  ``lognormal``, ``flaky-link``, ``link``; :func:`register_delay_model`,
  :func:`named_delay`;
* fault plans — ``builder(**params)`` returning a plan whose rules the
  scheduler resets: ``failure-free``, ``crash``, ``rejoin``, and ``plan``
  (a literal :class:`~repro.sim.faults.FaultPlan`, returned as is);
  :func:`register_fault_plan`, :func:`named_fault`;
* vote patterns — ``builder(n, seed, **params)``: ``all-yes``, ``all-no``,
  ``one-no``, ``mixed``, and ``fixed`` (a literal vote vector);
  :func:`register_vote_pattern`;
* transaction workloads — ``builder(n, seed, **params)`` with the trial's
  partition count and derived seed: ``uniform``, ``hotspot``,
  ``bank-transfer``, and ``verbatim`` (a literal transaction sequence);
  :func:`register_workload`, :func:`named_workload`;
* reducers — ``builder()``: ``aggregate``, ``robustness``, ``violations``;
  :func:`register_reducer`, :func:`make_reducer`
  (``run_sweep(reducer="violations")``).

Schedule strategies are registry-named at the source
(:mod:`repro.explore.strategies`), so every
:class:`~repro.exp.spec.ScheduleSpec` is spawn-safe already.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exp.results import RobustnessFold, SweepAggregate
from repro.sim.faults import FaultPlan
from repro.sim.network import (
    DelayModel,
    FixedDelay,
    FlakyLinkDelay,
    LinkDelay,
    LinkPolicy,
    LognormalDelay,
    UniformDelay,
)


class Registry:
    """One table ``name -> builder`` and the two moments a name is resolved.

    :meth:`check` runs where a spec is *written* (grid construction): the
    name must be known and the parameters must bind to the builder's
    signature.  :meth:`build` runs where a trial *executes* — possibly a
    spawn worker that unpickled the name and has only its own import-time
    registrations — and calls ``builder(*supplied, **params)``.
    """

    def __init__(self, kind: str, supplied: Tuple[str, ...] = ()):
        self.kind = kind  # what the errors call an entry, e.g. "delay model"
        self.supplied = supplied  # leading arguments the engine passes to build()
        #: name -> (builder, its signature or None)
        self._entries: Dict[str, Tuple[Callable[..., Any], Optional[inspect.Signature]]] = {}

    def register(self, name: str, builder: Callable[..., Any]) -> None:
        """Register ``builder`` under ``name`` (the public ``register_*`` calls).

        A trial calls it as ``builder(*supplied, **params)`` with the
        parameters written on the axis.  It must be a module-level callable,
        registered at import time, for the name to be spawn-safe.
        """
        try:
            signature = inspect.signature(builder)
        except (TypeError, ValueError):  # builtins / C callables without signatures
            signature = None
        self._entries[name] = (builder, signature)

    def names(self) -> List[str]:
        return list(self._entries)

    def check(self, name: str, params: Dict[str, Any]) -> None:
        """Reject an unknown name, or parameters the builder cannot take.

        Parameter *names* only: whether a value fits the trial (a vote
        vector's length against ``n``) is only known per trial, where it is
        captured in ``TrialResult.error`` like any other failure.
        """
        if name not in self._entries:
            known = ", ".join(sorted(self._entries))
            raise ConfigurationError(f"unknown {self.kind} {name!r}; known: {known}")
        signature = self._entries[name][1]
        if signature is not None:
            try:
                signature.bind(*self.supplied, **params)
            except TypeError as exc:
                raise ConfigurationError(f"{self.kind} {name!r}: {exc}") from None

    def build(self, name: str, params: Any, *supplied: Any) -> Any:
        try:
            builder = self._entries[name][0]
        except KeyError:
            known = ", ".join(sorted(self._entries))
            raise ConfigurationError(
                f"{self.kind} {name!r} is not registered in this process "
                f"(known: {known}); under the spawn start method its "
                f"registration must run at import time (module level) so "
                f"workers re-register it"
            ) from None
        return builder(*supplied, **dict(params))


DELAYS = Registry("delay model", supplied=("seed",))
FAULTS = Registry("fault plan")
VOTES = Registry("vote pattern", supplied=("n", "seed"))
WORKLOADS = Registry("workload", supplied=("n", "seed"))
REDUCERS = Registry("reducer")

register_delay_model = DELAYS.register
register_fault_plan = FAULTS.register
register_vote_pattern = VOTES.register
register_workload = WORKLOADS.register
register_reducer = REDUCERS.register

delay_model_names = DELAYS.names
fault_plan_names = FAULTS.names
workload_names = WORKLOADS.names
reducer_names = REDUCERS.names


def _named(axis: str, name: str, label: Optional[str], params: Dict[str, Any]):
    """What ``named_*`` return: the ``(label, name, params)`` shorthand, coerced."""
    # spec imports this module at load, so the reverse edge resolves lazily
    from repro.exp.spec import coerce_axis

    if label is None:
        label = name if not params else "{}({})".format(
            name, ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        )
    return coerce_axis(axis, (label, name, params))


# --------------------------------------------------------------------------- #
# delay models: builder(seed, **params) -> DelayModel
# --------------------------------------------------------------------------- #


def named_delay(name: str, label: str = None, **params: Any):
    """A spawn-safe :class:`~repro.exp.spec.DelaySpec` from a registry name."""
    return _named("delays", name, label, params)


def _build_fixed(seed: int, u: float = 1.0) -> DelayModel:
    return FixedDelay(u)


def _build_uniform(
    seed: int, lo: float = 0.3, hi: float = 1.0, u: float = None
) -> DelayModel:
    return UniformDelay(lo, hi, u=u, seed=seed)


def _build_lognormal(
    seed: int, median: float = 0.3, sigma: float = 0.6, u: float = 1.0
) -> DelayModel:
    return LognormalDelay(median=median, sigma=sigma, u=u, seed=seed)


def _build_flaky_link(
    seed: int,
    u: float = 1.0,
    jitter: float = 0.2,
    slow_pairs: tuple = (((1, 2), 3.0),),
    outages: tuple = ((2, 1, 4.0, 8.0),),
) -> DelayModel:
    # gray-failure profile: P1->P2 slow-but-alive, P2->P1 partitioned over
    # [4, 8) then healed — an asymmetric degradation, not a clean crash.
    # Parameters are nested tuples (not dicts) so the spec stays hashable
    # and spawn-picklable.
    return FlakyLinkDelay(
        u=u,
        jitter=jitter,
        slow_pairs={tuple(pair): factor for pair, factor in slow_pairs},
        outages=tuple(tuple(w) for w in outages),
        seed=seed,
    )


def _build_link(
    seed: int,
    u: float = 1.0,
    delay_units: float = 1.0,
    jitter_units: float = 0.0,
    slow_factor: float = 1.0,
    outages: tuple = (),
) -> DelayModel:
    # one policy on every link, a fixed 1 U link by default; outages are
    # nested tuples (not lists) so the spec stays hashable and spawn-picklable
    return LinkDelay(
        LinkPolicy(
            delay_units, jitter_units, slow_factor, tuple(tuple(w) for w in outages)
        ),
        u=u,
        seed=seed,
    )


register_delay_model("fixed", _build_fixed)
register_delay_model("uniform", _build_uniform)
register_delay_model("lognormal", _build_lognormal)
register_delay_model("flaky-link", _build_flaky_link)
register_delay_model("link", _build_link)


# --------------------------------------------------------------------------- #
# fault plans: builder(**params) -> FaultPlan
# --------------------------------------------------------------------------- #


def named_fault(name: str, label: str = None, **params: Any):
    """A spawn-safe :class:`~repro.exp.spec.FaultSpec` from a registry name."""
    return _named("faults", name, label, params)


def _build_crash(pid: int = 1, at: float = 5.0) -> FaultPlan:
    return FaultPlan.crash(pid, at=at)


def _build_rejoin(
    pid: int = 1, at: float = 6.0, rejoin_at: float = 18.0
) -> FaultPlan:
    return FaultPlan.crash_recover(pid, at=at, rejoin_at=rejoin_at)


def _build_literal_plan(plan: FaultPlan) -> FaultPlan:
    # the literal form ``(label, FaultPlan)``: every trial of the cell gets
    # the one plan object, and Scheduler.__init__ zeroes its rules' match
    # counters, so no per-trial copy is needed.  Spawn-safe whenever the plan
    # pickles (a DelayRule with a lambda predicate does not: fork only).
    return plan


register_fault_plan("failure-free", FaultPlan.failure_free)
register_fault_plan("crash", _build_crash)
register_fault_plan("rejoin", _build_rejoin)
register_fault_plan("plan", _build_literal_plan)


# --------------------------------------------------------------------------- #
# vote patterns: builder(n, seed, **params) -> vote vector
# --------------------------------------------------------------------------- #


@functools.cache
def _vocabulary():
    # repro.workloads.votes, imported on first use: that package pulls in the
    # whole repro.db stack, which a bare protocol sweep otherwise never loads
    from repro.workloads import votes

    return votes


def _build_all_yes(n: int, seed: int) -> List[int]:
    return _vocabulary().all_yes(n)


def _build_all_no(n: int, seed: int) -> List[int]:
    return _vocabulary().all_no(n)


def _build_one_no(n: int, seed: int, pid: int) -> List[int]:
    return _vocabulary().one_no(n, which=pid)


def _build_mixed_votes(n: int, seed: int, no_probability: float) -> List[int]:
    # a pure function of (n, derived seed): a trial's votes are identical
    # wherever (and however many times) it runs, while the seeds axis sweeps
    # genuinely different vote mixes through one grid cell
    return _vocabulary().random_votes(n, no_probability=no_probability, seed=seed)


def _build_fixed_votes(n: int, seed: int, values: Sequence[int]) -> List[int]:
    # the literal form ``(label, [1, 1, 0])``; only valid for the matching n
    if len(values) != n:
        raise ConfigurationError(
            f"fixed vote vector has {len(values)} entries but n={n}"
        )
    return list(values)


register_vote_pattern("all-yes", _build_all_yes)
register_vote_pattern("all-no", _build_all_no)
register_vote_pattern("one-no", _build_one_no)
register_vote_pattern("mixed", _build_mixed_votes)
register_vote_pattern("fixed", _build_fixed_votes)


# --------------------------------------------------------------------------- #
# transaction workloads: builder(n, seed, **params) -> sequence of Transactions
# --------------------------------------------------------------------------- #


def named_workload(name: str, label: str = None, **params: Any):
    """A spawn-safe :class:`~repro.exp.spec.WorkloadSpec` from a registry name."""
    return _named("workloads", name, label, params)


def _build_uniform_txns(n: int, seed: int, transactions: int = 6, **params: Any):
    from repro.workloads.transactions import uniform_workload

    params.setdefault("participants_per_txn", min(3, n))
    return uniform_workload(transactions, n, seed=seed, **params).transactions


def _build_hotspot_txns(n: int, seed: int, transactions: int = 6, **params: Any):
    from repro.workloads.transactions import hotspot_workload

    params.setdefault("participants_per_txn", min(2, n))
    return hotspot_workload(transactions, n, seed=seed, **params).transactions


def _build_bank_transfer_txns(
    n: int, seed: int, transactions: int = 6, **params: Any
):
    from repro.workloads.transactions import bank_transfer_workload

    return bank_transfer_workload(transactions, n, seed=seed, **params).transactions


def _build_verbatim_txns(n: int, seed: int, transactions: Sequence[Any]):
    # the literal form ``(label, transactions)``: replayed identically in
    # every trial, whatever n and the seed
    return transactions


register_workload("uniform", _build_uniform_txns)
register_workload("hotspot", _build_hotspot_txns)
register_workload("bank-transfer", _build_bank_transfer_txns)
register_workload("verbatim", _build_verbatim_txns)


# --------------------------------------------------------------------------- #
# reducers: builder() -> streaming sink
# --------------------------------------------------------------------------- #


def make_reducer(name: str) -> Any:
    """Instantiate a registered reducer (``run_sweep(reducer="...")``)."""
    REDUCERS.check(name, {})
    return REDUCERS.build(name, ())


def _build_violations():
    # lazily: repro.explore sits above the sim layer
    from repro.explore.fold import ViolationFold

    return ViolationFold()


register_reducer("aggregate", SweepAggregate)
register_reducer("robustness", RobustnessFold)
register_reducer("violations", _build_violations)
