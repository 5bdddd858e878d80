"""Live sweep progress: the ``run_sweep(progress=...)`` callback protocol.

The engine (:mod:`repro.exp.engine`) emits :class:`ProgressEvent` records at
its sanctioned hook points — one ``start``, one per completed chunk (or
per-trial batch), one ``summary`` — always from the *parent* process, after
results have crossed the worker queue.  Two consequences, both load-bearing:

* progress callbacks never cross a process boundary, so closures are fine
  even under the ``spawn`` start method (the spec itself still has to be
  spawn-safe, exactly as without progress);
* the engine hands over raw counts only.  Rates and elapsed time are
  computed *here*, on the reporter's own clock — the engine stays under the
  DET002 wall-clock rule while this package is scoped out of it.

Any callable taking one :class:`ProgressEvent` is a reporter (``events.append``
on a list collects the stream).  The bundled ones:

* :class:`TTYProgressReporter` — a live one-line display on a stream;
* :class:`JsonlProgressReporter` — one sorted-keys JSON line per event,
  appended to a file and enriched with ``elapsed_s`` and ``trials_per_s``;
  :func:`read_jsonl` parses such a file back.

``resolve_progress`` turns the string forms ``"tty"`` and ``"jsonl:PATH"``
into reporters so CLI layers can pass progress through a flag.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError

#: the phases a ProgressEvent can carry
PROGRESS_PHASES = ("start", "chunk", "summary")


@dataclass(frozen=True)
class ProgressEvent:
    """One progress observation from the sweep engine (plain data, picklable).

    Counts only — no wall-clock fields; reporters add timing on receipt.
    ``queue_depth`` is the number of chunks (or per-trial batches) still
    outstanding, the engine's proxy for how much work the pool holds.
    """

    phase: str
    trials_total: int
    trials_done: int
    chunks_total: int
    chunks_done: int
    queue_depth: int
    workers: int
    mode: str  # "serial" | "parallel"
    fold: str  # "trial" | "chunk"

    @property
    def fraction_done(self) -> float:
        if self.trials_total == 0:
            return 1.0
        return self.trials_done / self.trials_total


ProgressCallback = Callable[[ProgressEvent], None]


class TTYProgressReporter:
    """A live one-line progress display (carriage-return rewrites)."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._t0: Optional[float] = None

    def __call__(self, event: ProgressEvent) -> None:
        now = time.monotonic()
        if event.phase == "start" or self._t0 is None:
            self._t0 = now
        elapsed = max(now - self._t0, 1e-9)
        rate = event.trials_done / elapsed
        line = (
            f"sweep [{event.mode}/{event.fold} x{event.workers}] "
            f"{event.trials_done}/{event.trials_total} trials "
            f"({100.0 * event.fraction_done:5.1f}%) "
            f"{rate:8.1f} t/s  queue={event.queue_depth}"
        )
        end = "\n" if event.phase == "summary" else "\r"
        self.stream.write("\r" + line + end)


class JsonlProgressReporter:
    """One JSON line per progress event, with reporter-side timing.

    The file is opened for appending at each sweep's ``start`` and closed at
    its ``summary``, so one reporter serves any number of sweeps in turn.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = None
        self._t0: Optional[float] = None

    def __call__(self, event: ProgressEvent) -> None:
        now = time.monotonic()
        if event.phase == "start" or self._handle is None:
            # a handle still open here belongs to a sweep that never summarised
            self.close()
            self._handle = open(self.path, "a", encoding="utf-8")
            self._t0 = now
        elapsed = now - self._t0
        record = {
            "event": "sweep.progress",
            "wall_time": time.time(),
            "phase": event.phase,
            "trials_total": event.trials_total,
            "trials_done": event.trials_done,
            "chunks_total": event.chunks_total,
            "chunks_done": event.chunks_done,
            "queue_depth": event.queue_depth,
            "workers": event.workers,
            "mode": event.mode,
            "fold": event.fold,
            "elapsed_s": round(elapsed, 6),
            "trials_per_s": (
                round(event.trials_done / elapsed, 3) if elapsed > 0 else None
            ),
        }
        self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        if event.phase == "summary":
            self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSON-lines file back into dicts (validation helper)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def resolve_progress(progress: Any) -> Optional[ProgressCallback]:
    """Normalise the engine's ``progress=`` argument to a callback.

    Accepts ``None``, any callable, ``"tty"`` or ``"jsonl:PATH"``; anything
    else raises :class:`~repro.errors.ConfigurationError` naming the value.
    """
    if progress is None or callable(progress):
        return progress
    if isinstance(progress, str):
        if progress == "tty":
            return TTYProgressReporter()
        if progress.startswith("jsonl:") and len(progress) > len("jsonl:"):
            return JsonlProgressReporter(progress[len("jsonl:"):])
    raise ConfigurationError(
        f"progress must be a callable, 'tty' or 'jsonl:PATH', got {progress!r}"
    )


__all__ = [
    "JsonlProgressReporter",
    "PROGRESS_PHASES",
    "ProgressCallback",
    "ProgressEvent",
    "TTYProgressReporter",
    "read_jsonl",
    "resolve_progress",
]
