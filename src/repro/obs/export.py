"""Chrome trace-event export: ``python -m repro.obs.export --chrome trace.json``.

Runs one fixed-seed cluster workload, reads its per-phase transaction spans
off the report (:meth:`~repro.obs.tracing.TraceContext.from_report`) and
writes them as Chrome trace-event JSON — open the file in
``chrome://tracing`` (or Perfetto's legacy loader) to see where each
commit's time went, phase by phase, process by process.

``--backend sim`` (default) runs the deterministic simulator: the same seed
always exports the same bytes, which is what the golden test pins.
``--backend asyncio`` runs the wall-clock transport runtime: span durations
are real milliseconds (scaled to units of U), different on every run — the
point of the runtime — while the *structure* (every committed transaction
carries EXEC / PREPARE-vote / decision / DONE spans) is invariant.

The module is also the programmatic seam: :func:`traced_cluster_run` returns
``(report, spans)`` for tests and notebooks, and :func:`write_chrome` dumps
any :class:`~repro.obs.tracing.TraceContext` to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.obs.tracing import TraceContext


def traced_cluster_run(
    protocol: str = "2PC",
    partitions: int = 3,
    txns: int = 4,
    seed: int = 7,
    backend: str = "sim",
):
    """Run one cluster workload; returns ``(report, spans)``."""
    # imported lazily so `python -m repro.obs.export --help` stays instant
    from repro.db.cluster import ClusterConfig, run_cluster
    from repro.workloads import uniform_workload

    config = ClusterConfig(
        num_partitions=partitions,
        commit_protocol=protocol,
        commit_f=1,
        seed=seed,
        max_time=400.0,
    )
    workload = uniform_workload(
        num_transactions=txns,
        num_partitions=partitions,
        participants_per_txn=min(3, partitions),
        seed=seed,
    )
    report = run_cluster(config, workload.transactions, backend=backend)
    return report, TraceContext.from_report(report)


def write_chrome(spans: TraceContext, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans.chrome_json())
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Export a traced cluster run as Chrome trace-event JSON.",
    )
    parser.add_argument("--chrome", metavar="PATH", required=True,
                        help="where to write the trace-event JSON")
    parser.add_argument("--backend", choices=("sim", "asyncio"), default="sim",
                        help="sim (deterministic, default) or asyncio (wall clock)")
    parser.add_argument("--protocol", default="2PC",
                        help="commit protocol registry name (default: 2PC)")
    parser.add_argument("--partitions", type=int, default=3)
    parser.add_argument("--txns", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    report, spans = traced_cluster_run(
        protocol=args.protocol,
        partitions=args.partitions,
        txns=args.txns,
        seed=args.seed,
        backend=args.backend,
    )
    write_chrome(spans, args.chrome)
    summary = {
        "backend": report.backend,
        "protocol": report.protocol,
        "txns": len(report.outcomes),
        "committed": report.committed,
        "spans": len(spans.spans),
        "transactions_traced": len(spans.transaction_ids()),
        "out": args.chrome,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
