"""Tests for the transaction spans read off a cluster report, and their
Chrome trace-event export.

The golden (``tests/goldens/trace_2pc_sim.json``) pins the byte-exact export
of the default fixed-seed simulator run: tracing is observability, but under
the simulator it inherits full determinism — same seed, same bytes.  Under
the asyncio backend the span *structure* (every committed transaction
carries EXEC / PREPARE-vote / decision / DONE) is the invariant.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.db.cluster import ClusterConfig, run_cluster
from repro.db.coordinator import RetryPolicy
from repro.db.wal import ABORT as WAL_ABORT
from repro.exp import GridSpec, run_sweep
from repro.obs import CHROME_US_PER_UNIT, Span, TXN_PHASES, TraceContext
from repro.obs.export import main as export_main
from repro.obs.export import traced_cluster_run
from repro.protocols.base import ABORT, COMMIT
from repro.sim.faults import FaultPlan
from repro.workloads import uniform_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "trace_2pc_sim.json")


def spans_of(context, txn_id):
    return [span for span in context.spans if span.txn_id == txn_id]


def phases_of(context, txn_id):
    """Distinct span names of one transaction, in first-recorded order."""
    return list(dict.fromkeys(span.name for span in spans_of(context, txn_id)))


def faulty_run(protocol, rejoin_at):
    """P1 crashes at 5 and rejoins; the client retries unacknowledged txns."""
    config = ClusterConfig(
        num_partitions=3, commit_protocol=protocol, commit_f=1, seed=1,
        max_time=300.0,
        fault_plan=FaultPlan.crash_recover(1, at=5.0, rejoin_at=rejoin_at),
        retry_policy=RetryPolicy(max_attempts=3, timeout_units=6.0),
    )
    workload = uniform_workload(
        num_transactions=8, num_partitions=3, participants_per_txn=3, seed=1,
        inter_arrival=2.0,
    )
    report = run_cluster(config, workload.transactions)
    return report, TraceContext.from_report(report)


class TestTraceContext:
    def test_queries(self):
        spans = TraceContext([
            Span("EXEC", "tx-1", 1, 0.0, 1.0),
            Span("PREPARE-vote", "tx-0", 2, 1.0, 2.0),
            Span("PREPARE-vote", "tx-1", 2, 1.0, 2.0),
            Span("EXEC", "tx-1", 1, 3.0, 4.0),  # retry: same phase twice
        ])
        assert spans.transaction_ids() == ["tx-1", "tx-0"]
        assert phases_of(spans, "tx-1") == ["EXEC", "PREPARE-vote"]
        assert len(spans_of(spans, "tx-1")) == 3

    def test_span_jsonable_sorts_args(self):
        span = Span(name="EXEC", txn_id="tx-0", pid=1, start=0.0, end=1.0,
                    args={"b": 2, "a": 1})
        assert list(span.to_jsonable()["args"]) == ["a", "b"]

    def test_end_never_precedes_start(self):
        # 1NBAC decides some of the rejoined P1's rounds before they start
        _, spans = faulty_run("1NBAC", rejoin_at=12.0)
        assert all(span.end >= span.start for span in spans.spans)
        assert any(span.duration == 0.0 for span in spans.spans)


class TestChromeExport:
    def _spans(self):
        return TraceContext([
            Span("PREPARE-vote", "tx-1", 2, 1.0, 2.5, {"vote": 1}),
            Span("EXEC", "tx-0", 1, 0.0, 1.0),
            Span("EXEC", "tx-1", 1, 0.5, 1.0),
        ])

    def test_layout_processes_and_lanes(self):
        chrome = self._spans().to_chrome()
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert [m["pid"] for m in meta] == [1, 2]
        assert [m["args"]["name"] for m in meta] == ["P1", "P2"]
        # lanes numbered by first appearance in start order: tx-0 starts first
        lanes = {e["args"]["txn_id"]: e["tid"] for e in spans}
        assert lanes == {"tx-0": 1, "tx-1": 2}
        # one unit of U renders as 1 ms (1000 us)
        prepare = next(e for e in spans if e["name"] == "PREPARE-vote")
        assert prepare["ts"] == 1.0 * CHROME_US_PER_UNIT
        assert prepare["dur"] == 1.5 * CHROME_US_PER_UNIT
        assert prepare["args"]["vote"] == 1

    def test_chrome_json_is_loadable_and_stable(self):
        first = self._spans().chrome_json()
        second = self._spans().chrome_json()
        assert first == second
        payload = json.loads(first)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["us_per_unit"] == CHROME_US_PER_UNIT


class TestTracedSimRun:
    def test_every_committed_txn_has_all_phases(self):
        report, spans = traced_cluster_run()
        assert report.committed == len(report.outcomes) == 4
        for txn_id in spans.transaction_ids():
            phases = phases_of(spans, txn_id)
            for phase in TXN_PHASES:
                assert phase in phases, (txn_id, phases)
            assert "txn" in phases  # the submission-to-ack envelope

    def test_fixed_seed_export_matches_the_golden(self):
        """Same seed, same bytes — the tracing determinism pin.

        Regenerate after an intentional trace-shape change with::

            PYTHONPATH=src python -c "from repro.obs.export import *; \
r, t = traced_cluster_run(); write_chrome(t, 'tests/goldens/trace_2pc_sim.json')"
        """
        _, spans = traced_cluster_run()
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()
        assert spans.chrome_json() + "\n" == golden


class TestSpansOfAFaultyRun:
    """A crash, a rejoin and client retries, read off the report."""

    def test_the_rejoined_partition_queries_from_rejoin_to_outcome(self):
        report, spans = faulty_run("PaxosCommit", rejoin_at=20.0)
        [event] = report.recovery_events
        assert (event.pid, event.rejoined_at, event.in_doubt_at_rejoin) == (
            1, 20.0, ("tx-1",)
        )
        [record] = [
            r for r in report.wal_records[1]
            if r.txn_id == "tx-1" and r.kind == WAL_ABORT
        ]
        [query] = [s for s in spans.spans if s.name == "OUTCOME?"]
        assert (query.pid, query.txn_id) == (1, "tx-1")
        assert (query.start, query.end) == (event.rejoined_at, record.timestamp) == (20.0, 22.0)
        assert query.args == {"decision": ABORT}
        # the recovered outcome is the query's, not a commit round's
        assert not [
            s for s in spans_of(spans, "tx-1") if s.pid == 1 and s.name == "decision"
        ]

    def test_each_submission_is_an_exec_span_and_retry_counts_agree(self):
        report, spans = faulty_run("PaxosCommit", rejoin_at=20.0)
        client = report.num_partitions + 1
        retried = {}
        for outcome in report.outcomes:
            execs = sorted(
                (s for s in spans_of(spans, outcome.txn_id) if s.name == "EXEC"),
                key=lambda s: s.start,
            )
            assert [s.args["attempt"] for s in execs] == list(
                range(1, len(outcome.submissions) + 1)
            )
            assert [(s.pid, s.start, s.end) for s in execs] == [
                (client, sent_at, round_start)
                for sent_at, round_start in outcome.submissions
            ]
            if len(execs) > 1:
                retried[outcome.txn_id] = len(execs) - 1
        assert report.retry_counts == retried
        assert retried == {
            "tx-1": 2, "tx-2": 2, "tx-3": 2, "tx-4": 2, "tx-5": 2, "tx-6": 2,
            "tx-7": 1,
        }

    def test_a_round_decided_before_it_starts_is_a_zero_length_span(self):
        """The one case where the view adds spans: P1, rejoined at 12, gets
        the retried EXEC after its peers aborted and decides at once.  A
        recorder opening the span at the round start lost these."""
        _, spans = faulty_run("1NBAC", rejoin_at=12.0)
        early = [
            (s.txn_id, s.start, s.args["decision"])
            for s in spans.spans
            if s.pid == 1 and s.name == "decision" and s.duration == 0.0
        ]
        assert early == [("tx-3", 13.0, ABORT), ("tx-4", 15.0, ABORT), ("tx-5", 17.0, ABORT)]

    def test_a_sweep_trials_report_needs_nothing_attached(self):
        missing = {}

        def collector(trial, report):
            spans = TraceContext.from_report(report)
            for outcome in report.outcomes:
                if outcome.decision == COMMIT:
                    phases = phases_of(spans, outcome.txn_id)
                    missing[(trial.index, outcome.txn_id)] = [
                        phase for phase in TXN_PHASES if phase not in phases
                    ]
            return {}

        sweep = run_sweep(
            GridSpec(
                protocols=["2PC", "INBAC"],
                systems=[(3, 1)],
                workloads=[("uniform3", "uniform", {"transactions": 4})],
                seeds=[1, 2],
                max_time=150.0,
            ),
            workers=1,
            collector=collector,
        )
        assert sweep.errors() == []
        assert missing and all(phases == [] for phases in missing.values())


@pytest.mark.runtime
class TestTracedAsyncRun:
    def test_asyncio_backend_traces_every_commit(self):
        report, spans = traced_cluster_run(backend="asyncio", txns=3, seed=3)
        assert report.backend == "asyncio"
        assert report.committed >= 1
        from repro.protocols.base import COMMIT

        committed = {
            outcome.txn_id for outcome in report.outcomes
            if outcome.decision == COMMIT
        }
        assert spans.clock == "wall-units"
        for txn_id in sorted(committed):
            phases = phases_of(spans, txn_id)
            for phase in TXN_PHASES:
                assert phase in phases, (txn_id, phases)


class TestExportCli:
    def test_cli_writes_trace_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        rc = export_main(["--chrome", out])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["backend"] == "sim"
        assert summary["committed"] == 4
        assert summary["transactions_traced"] == 4
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert set(TXN_PHASES) <= names
