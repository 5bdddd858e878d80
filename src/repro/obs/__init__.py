"""repro.obs — out-of-band telemetry, tracing, and live sweep progress.

Everything under this package observes; nothing here may influence what the
simulator, the runtimes, or the sweep engine compute.  The contract is
enforced from both sides:

* the OBS001 lint rule forbids deterministic layers (``repro.sim``,
  ``repro.core``, ``repro.protocols``, ``repro.consensus``, ``repro.db``,
  and the spec / results modules of ``repro.exp``) from importing this
  package — obs objects reach them only as duck-typed constructor
  arguments (``AsyncClusterService(metrics=...)``,
  ``LinkDelay(metrics=...)``), and transaction spans are read off a
  finished run's report rather than recorded during it;
* the determinism-under-observation battery pins that sweep aggregates and
  trace fingerprints are byte-identical with observability on and off,
  across trace levels, fold paths, and start methods.

In exchange, this package is scoped *out* of the DET002 wall-clock rule:
telemetry timestamps, rates, and profiler clocks are its purpose.

Modules: :mod:`~repro.obs.metrics` (counters and histograms with exact
merges), :mod:`~repro.obs.progress` (the ``run_sweep(progress=...)``
protocol and its reporters), :mod:`~repro.obs.tracing` (transaction spans
read off a cluster report + Chrome trace-event export),
:mod:`~repro.obs.export` (the export CLI), :mod:`~repro.obs.profile`
(``REPRO_PROFILE`` cProfile hooks and the folding report CLI).
"""

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.progress import (
    JsonlProgressReporter,
    PROGRESS_PHASES,
    ProgressCallback,
    ProgressEvent,
    TTYProgressReporter,
    read_jsonl,
    resolve_progress,
)
from repro.obs.tracing import CHROME_US_PER_UNIT, Span, TXN_PHASES, TraceContext

__all__ = [
    "CHROME_US_PER_UNIT",
    "Counter",
    "Histogram",
    "JsonlProgressReporter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PROGRESS_PHASES",
    "ProgressCallback",
    "ProgressEvent",
    "Span",
    "TTYProgressReporter",
    "TXN_PHASES",
    "TraceContext",
    "read_jsonl",
    "resolve_progress",
]
