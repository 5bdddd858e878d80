"""Structured sweep results and their deterministic aggregation.

Workers return :class:`TrialResult` records — plain picklable data, no traces
and no live process objects — and the engine folds them into a sink.  Two
sinks ship here:

* :class:`SweepResult` keeps the flat trial list: per-trial selection and a
  canonical fingerprint used to assert that two sweeps (e.g. a serial and a
  parallel run of the same grid) produced byte-identical trials;
* :class:`SweepAggregate` keeps per-coordinate accumulators instead, for
  sweeps too large to hold every trial (the engine's ``mode="aggregate"``):
  counts, commit/abort tallies, message totals, exact value ->
  multiplicity digests for latencies and decision times, and the first few
  violating explored schedules (replayable).

What a trial showed is decided in one place, :meth:`TrialResult.broken`:
the properties whose flag is False, or all three when the trial errored.
Every verdict below reads it — ``solved_rate``, ``properties``, an explored
cell's ``violations``, the robustness labels and the violation samples.

Both give the shapes the rest of the repo consumes — per-coordinate
aggregate rows for :func:`repro.analysis.render.render_table` and
robustness summaries in the style of Table 5's bottom row — from the same
accumulators: a :class:`SweepResult` folds its trials through a
:class:`SweepAggregate`.  Every accumulator statistic is *order-independent*
(integer tallies, digests, set unions; the float reductions are computed
from sorted digests at row time), so partial accumulators folded on
different workers merge (:meth:`SweepAggregate.merge`) to the same bytes as
a single-stream fold.  Memory stays bounded by the number of grid cells
(plus distinct latency values), never by the number of trials.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Collection, Dict, List, Optional, Set, Tuple

from repro.sim.trace import digest_percentile, digest_sum

#: grid-cell coordinates; trials explored under a schedule strategy carry an
#: eighth element (the schedule label) so strategies aggregate separately
GroupKey = Tuple[str, ...]

#: property label + the TrialResult attribute that records whether it held
_PROPERTIES = (("A", "agreement"), ("V", "validity"), ("T", "termination"))

#: what an errored trial shows: none of the three properties
_ALL_BROKEN = tuple(attr for _, attr in _PROPERTIES)


def _label(broken: Collection[str]) -> str:
    """Compact ``"AVT"``-style label of the properties *not* in ``broken``."""
    return "".join(label for label, attr in _PROPERTIES if attr not in broken)


@dataclass
class TrialResult:
    """Everything measured in one simulated execution, ready to pickle.

    ``decision_latencies`` holds each deciding process' decision time in
    units of the delay bound ``U``, sorted ascending — the raw material for
    latency distributions across a sweep.  Virtual time is counted in ``U``
    (:data:`repro.sim.network.U`, which no delay model can change), so the
    decision times need no rescaling.
    """

    index: int
    protocol: str
    n: int
    f: int
    delay_label: str
    fault_label: str
    votes_label: str
    base_seed: int
    derived_seed: int
    workload_label: str = "-"
    schedule_label: str = "-"
    execution_class: str = "failure-free"
    decisions: Dict[int, Any] = field(default_factory=dict)
    decision_latencies: List[float] = field(default_factory=list)
    first_decision: Optional[float] = None
    last_decision: Optional[float] = None
    messages_total: int = 0
    messages_main: int = 0
    messages_consensus: int = 0
    messages_until_last_decision: int = 0
    agreement: bool = True
    validity: bool = True
    termination: bool = True
    crashes: Dict[int, float] = field(default_factory=dict)
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> GroupKey:
        base = (
            self.protocol,
            self.n,
            self.f,
            self.delay_label,
            self.fault_label,
            self.votes_label,
            self.workload_label,
        )
        # the schedule coordinate exists only for explored trials, so grids
        # without a schedules axis keep their pre-existing keys (and
        # therefore their aggregate fingerprints) byte for byte
        if self.schedule_label != "-":
            return base + (self.schedule_label,)
        return base

    @property
    def decided(self) -> int:
        return len(self.decisions)

    @property
    def all_committed(self) -> bool:
        return bool(self.decisions) and set(self.decisions.values()) == {1}

    def broken(self) -> Tuple[str, ...]:
        """The properties this trial did not demonstrate, in A, V, T order.

        The one verdict rule every fold and view reads: the flags that are
        False, or all three when the trial errored — a trial that raised
        demonstrated nothing.
        """
        if self.error is not None:
            return _ALL_BROKEN
        if self.agreement and self.validity and self.termination:
            return ()
        return tuple(attr for _, attr in _PROPERTIES if not getattr(self, attr))


class CellAccumulator:
    """Streaming aggregate of all trials sharing one grid coordinate.

    Every statistic is kept in an *order-independent* representation —
    integer tallies, value → multiplicity digests, a set of broken
    properties — and the floating-point reductions (means, percentiles) are
    computed from the digests at :meth:`row` time over sorted distinct
    values.  The produced row is therefore a pure function of the trial
    *set*, which makes per-trial folds and worker-side partial accumulators
    combined with :meth:`merge` byte-identical by construction.

    State is O(1) per cell plus the digests (one entry per *distinct*
    latency / last-decision value — bounded by the delay model's support,
    not by the trial count, for the deterministic models large sweeps use).
    """

    __slots__ = (
        "key", "first_index", "execution_class", "count", "commits", "solved",
        "last_counts", "n_last", "latency_counts", "n_latencies",
        "sum_messages", "sum_messages_sent", "broken",
    )

    def __init__(self, key: GroupKey, first_index: int, execution_class: str):
        self.key = key
        self.first_index = first_index
        self.execution_class = execution_class
        self.count = 0
        self.commits = 0
        self.solved = 0
        self.last_counts: Dict[float, int] = {}
        self.n_last = 0
        self.latency_counts: Dict[float, int] = {}
        self.n_latencies = 0
        self.sum_messages = 0
        self.sum_messages_sent = 0
        #: the properties some trial of the cell did not demonstrate
        self.broken: Set[str] = set()

    def fold(self, trial: "TrialResult") -> None:
        broken = trial.broken()
        self.count += 1
        if trial.all_committed:
            self.commits += 1
        if not broken:
            self.solved += 1
        if trial.last_decision is not None:
            last = trial.last_decision
            self.last_counts[last] = self.last_counts.get(last, 0) + 1
            self.n_last += 1
        for latency in trial.decision_latencies:
            self.latency_counts[latency] = self.latency_counts.get(latency, 0) + 1
            self.n_latencies += 1
        self.sum_messages += trial.messages_until_last_decision
        self.sum_messages_sent += trial.messages_total
        if broken:
            self.broken.update(broken)

    def merge(self, other: "CellAccumulator") -> None:
        """Fold another accumulator of the *same cell* into this one.

        Exact for every statistic: tallies add, digests add multiplicities,
        broken-property sets unite — no float summation order is involved,
        so a chunked worker-side fold merges to the same bytes a per-trial
        fold produces.
        """
        if other.first_index < self.first_index:
            self.first_index = other.first_index
            self.execution_class = other.execution_class
        self.count += other.count
        self.commits += other.commits
        self.solved += other.solved
        for value, count in other.last_counts.items():
            self.last_counts[value] = self.last_counts.get(value, 0) + count
        self.n_last += other.n_last
        for value, count in other.latency_counts.items():
            self.latency_counts[value] = self.latency_counts.get(value, 0) + count
        self.n_latencies += other.n_latencies
        self.sum_messages += other.sum_messages
        self.sum_messages_sent += other.sum_messages_sent
        self.broken |= other.broken

    def row(self) -> Dict[str, Any]:
        protocol, n, f, delay, fault, votes, workload = self.key[:7]
        row = {
            "protocol": protocol,
            "n": n,
            "f": f,
            "delay": delay,
            "fault": fault,
            "votes": votes,
            "workload": workload,
            "trials": self.count,
            "class": self.execution_class,
            "commit_rate": round(self.commits / self.count, 6),
            "solved_rate": round(self.solved / self.count, 6),
            "mean_delays": _round_opt(
                digest_sum(self.last_counts) / self.n_last if self.n_last else None
            ),
            "max_delays": max(self.last_counts) if self.last_counts else None,
            "p50_latency": _round_opt(
                digest_percentile(self.latency_counts, self.n_latencies, 50)
            ),
            "p99_latency": _round_opt(
                digest_percentile(self.latency_counts, self.n_latencies, 99)
            ),
            "mean_messages": _round_opt(self.sum_messages / self.count),
            "mean_messages_sent": _round_opt(self.sum_messages_sent / self.count),
            "properties": _label(self.broken),
        }
        if len(self.key) > 7:
            # schedule-explored cells: name the strategy and count violations
            # (trials whose broken() is not empty, errored ones included)
            row["schedule"] = self.key[7]
            row["violations"] = self.count - self.solved
        return row


@dataclass
class SweepResult:
    """All trials of one sweep plus how the sweep was executed.

    The engine's sink for ``mode="full"``: :meth:`fold` appends (the engine
    folds in trial-index order) and :meth:`merge` extends by a pooled
    chunk's partial.  The aggregate views fold the trial list through a
    :class:`SweepAggregate`, so they are the streaming mode's bytes by
    construction.
    """

    trials: List[TrialResult] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def fold(self, trial: TrialResult) -> None:
        self.trials.append(trial)

    def merge(self, other: "SweepResult") -> None:
        self.trials.extend(other.trials)

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def errors(self) -> List[TrialResult]:
        return [t for t in self.trials if t.error is not None]

    def select(self, **criteria: Any) -> List[TrialResult]:
        """Trials whose attributes match all keyword criteria.

        >>> from repro.exp import GridSpec, run_sweep
        >>> sweep = run_sweep(GridSpec(protocols=["INBAC", "2PC"], systems=[(4, 1)]),
        ...                   workers=1)
        >>> [(t.protocol, t.broken()) for t in sweep.select(protocol="INBAC")]
        [('INBAC', ())]
        """
        out = []
        for trial in self.trials:
            if all(getattr(trial, attr) == wanted for attr, wanted in criteria.items()):
                out.append(trial)
        return out

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def _aggregate(self) -> "SweepAggregate":
        """The trial list folded, in order, into a :class:`SweepAggregate`."""
        aggregate = SweepAggregate()
        for trial in self.trials:
            aggregate.fold(trial)
        return aggregate

    def aggregate_rows(self) -> List[Dict[str, Any]]:
        """One row per grid cell, averaged over seeds — ready for render_table."""
        return self._aggregate().aggregate_rows()

    def robustness_rows(self) -> List[Dict[str, Any]]:
        """Per protocol, which properties held in *every* trial of each class.

        The paper's quantifier ("every crash-failure execution satisfies X"),
        computed across whatever fault plans the sweep ran: one row per
        protocol with one ``A``/``V``/``T`` label per execution class seen.
        """
        return self._aggregate().robustness_rows()

    # ------------------------------------------------------------------ #
    # reproducibility
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Canonical digest of all trial data (excludes execution metadata).

        Two sweeps of the same grid — serial or parallel, any worker count —
        must produce the same fingerprint; determinism tests assert exactly
        that.
        """
        canonical = json.dumps(
            [_canonical_trial(t) for t in self.trials],
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def aggregate_fingerprint(self) -> str:
        """Digest of the aggregate rows only (what reports are built from)."""
        return self._aggregate().aggregate_fingerprint()


class RobustnessFold:
    """Streaming robustness summary: protocol x execution class -> A/V/T fold."""

    def __init__(self) -> None:
        #: protocol -> execution class -> properties some trial broke
        self._broken: Dict[str, Dict[str, Set[str]]] = {}
        self._classes_seen: List[str] = []

    def fold(self, trial: "TrialResult") -> None:
        per_class = self._broken.setdefault(trial.protocol, {})
        broken = per_class.get(trial.execution_class)
        if broken is None:
            broken = per_class[trial.execution_class] = set()
            if trial.execution_class not in self._classes_seen:
                self._classes_seen.append(trial.execution_class)
        broken.update(trial.broken())

    def merge(self, other: "RobustnessFold") -> None:
        """Unite another fold's broken sets (exact: the quantifier is associative)."""
        for cls in other._classes_seen:
            if cls not in self._classes_seen:
                self._classes_seen.append(cls)
        for protocol, per_class in other._broken.items():
            mine = self._broken.setdefault(protocol, {})
            for cls, broken in per_class.items():
                mine.setdefault(cls, set()).update(broken)

    def rows(self) -> List[Dict[str, Any]]:
        rows = []
        for protocol in sorted(self._broken):
            row: Dict[str, Any] = {"protocol": protocol}
            for cls in self._classes_seen:
                broken = self._broken[protocol].get(cls)
                row[cls] = "-" if broken is None else _label(broken)
            rows.append(row)
        return rows


class SweepAggregate:
    """Aggregate-only view of a sweep: per-cell accumulators, no trial list.

    The engine's streaming mode folds every :class:`TrialResult` into this
    object *in trial-index order* and discards it, so a million-trial sweep
    holds one accumulator per grid cell instead of a million records.  The
    shapes exposed (``aggregate_rows`` / ``robustness_rows`` /
    ``aggregate_fingerprint``) match :class:`SweepResult` byte-for-byte on the
    same grid and seeds; per-trial views (``trials``, ``select``,
    ``fingerprint``) intentionally do not exist here.

    Violating schedules: the first few explored trials (those run under a
    schedule controller) that broke a property are kept in
    ``sample_violations``, one dict each — ``index``, ``key``, ``base_seed``,
    ``properties`` (the trial's :meth:`TrialResult.broken`),
    ``schedule_trace`` and ``trace_fingerprint`` — enough to replay the
    schedule (:func:`repro.explore.replay_trial`).  Their per-cell counts
    are the explored rows' ``violations`` column, and
    :meth:`robustness_rows` names the broken properties per class.

    Error handling: an errored trial demonstrates no property
    (:meth:`TrialResult.broken` is all three), so it counts against
    ``solved_rate``, ``properties``, the robustness labels and an explored
    cell's ``violations``; its other measurements are the defaults it
    carries, folded exactly as the in-memory path would.  The first few
    tracebacks are kept in ``sample_errors`` for diagnosis, and an errored
    trial is never a ``sample_violations`` entry.  Both sample lists keep
    the first trials in trial-index order, pooled or serial.
    """

    #: how many failing-trial tracebacks to retain
    MAX_SAMPLE_ERRORS = 5
    #: how many violating explored trials to retain
    MAX_SAMPLE_VIOLATIONS = 10

    def __init__(self) -> None:
        self._cells: Dict[GroupKey, CellAccumulator] = {}
        self._robustness = RobustnessFold()
        self.meta: Dict[str, Any] = {}
        self.total_trials = 0
        self.error_count = 0
        self.sample_errors: List[str] = []
        self.sample_violations: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return self.total_trials

    def fold(self, trial: TrialResult) -> None:
        """Fold one trial into the aggregates (called in trial-index order)."""
        self.total_trials += 1
        if trial.error is not None:
            self.error_count += 1
            if len(self.sample_errors) < self.MAX_SAMPLE_ERRORS:
                self.sample_errors.append(trial.error)
        elif (
            len(self.sample_violations) < self.MAX_SAMPLE_VIOLATIONS
            and "schedule_trace" in trial.extra
            and trial.broken()
        ):
            self.sample_violations.append(
                {
                    "index": trial.index,
                    "key": trial.key(),
                    "base_seed": trial.base_seed,
                    "properties": trial.broken(),
                    "schedule_trace": trial.extra["schedule_trace"],
                    "trace_fingerprint": trial.extra["trace_fingerprint"],
                }
            )
        key = trial.key()
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = CellAccumulator(
                key=key, first_index=trial.index, execution_class=trial.execution_class
            )
        cell.fold(trial)
        self._robustness.fold(trial)

    def merge(self, other: "SweepAggregate") -> None:
        """Combine a partial aggregate (one worker's contiguous trial chunk).

        The engine's chunk fold calls this once per chunk *in trial-index
        order*; because every cell statistic is order-independent (see
        :meth:`CellAccumulator.merge`), the merged aggregate is byte-identical
        to folding the same trials one at a time, samples included.
        """
        self.total_trials += other.total_trials
        self.error_count += other.error_count
        room = self.MAX_SAMPLE_ERRORS - len(self.sample_errors)
        self.sample_errors.extend(other.sample_errors[:room])
        room = self.MAX_SAMPLE_VIOLATIONS - len(self.sample_violations)
        self.sample_violations.extend(other.sample_violations[:room])
        for key, cell in other._cells.items():
            mine = self._cells.get(key)
            if mine is None:
                self._cells[key] = cell
            else:
                mine.merge(cell)
        self._robustness.merge(other._robustness)

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def aggregate_rows(self) -> List[Dict[str, Any]]:
        """Identical rows (and row order) to ``SweepResult.aggregate_rows``."""
        cells = sorted(self._cells.values(), key=lambda cell: cell.first_index)
        return _cell_rows(cells)

    def robustness_rows(self) -> List[Dict[str, Any]]:
        return self._robustness.rows()

    def aggregate_fingerprint(self) -> str:
        """Digest of the aggregate rows (comparable across execution modes)."""
        canonical = json.dumps(
            self.aggregate_rows(), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cell_rows(cells: List[CellAccumulator]) -> List[Dict[str, Any]]:
    """Render cell accumulators to rows, harmonising the schedule columns.

    A grid mixing unexplored cells (``schedules=[None, ...]``) with explored
    ones would otherwise produce heterogeneous rows, and column-driven
    renderers (``render_table`` keys off the first row) would drop the
    schedule/violations columns entirely.  Grids without any schedules axis
    keep their exact historical rows — and fingerprints — byte for byte.
    """
    rows = [cell.row() for cell in cells]
    if any(len(cell.key) > 7 for cell in cells):
        for cell, row in zip(cells, rows):
            if "schedule" not in row:
                row["schedule"] = "-"
                row["violations"] = cell.count - cell.solved
    return rows


@dataclass
class _Extra:
    """Lets ``asdict`` recurse over a trial's ``extra`` and nothing else."""

    extra: Dict[str, Any]


_TRIAL_FIELDS = tuple(f.name for f in fields(TrialResult))


def _canonical_trial(trial: TrialResult) -> Dict[str, Any]:
    # what ``asdict(trial)`` holds, without its deep copy of every container
    # ``json.dumps`` is only going to read; ``extra`` alone keeps the
    # recursion (a collector may return a nested dataclass)
    data = {name: getattr(trial, name) for name in _TRIAL_FIELDS}
    data["extra"] = asdict(_Extra(trial.extra))["extra"]
    # dict keys become strings in JSON; make that explicit and ordered
    data["decisions"] = {str(k): v for k, v in sorted(trial.decisions.items())}
    data["crashes"] = {str(k): v for k, v in sorted(trial.crashes.items())}
    if data.get("schedule_label") == "-":
        # absent for unexplored trials, keeping pre-schedule-axis sweep
        # fingerprints byte-identical
        del data["schedule_label"]
    return data


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)
