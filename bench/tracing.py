"""Tracing from outside the program: harness-side spans and a layer fold.

The benchmark changes no file of the program, so layers are measured from
outside.  Two instruments, both kept in memory and written out when the run
ends:

* :class:`Tracer` records one span (name, start, end, parent, run id) around
  every public call the harness makes — grid expansion, each ``run_sweep``
  slice, fingerprinting, ``service.start``, every ``submit``, ``shutdown``.
  A span's self time is its duration minus what its child spans cover.
* :class:`LayerProfile` wraps the same calls in :mod:`cProfile` and folds the
  result by module path: every function's ``tottime`` is charged to the layer
  that owns its file (``src/repro/sim/runner.py`` -> ``sim.runner``), and the
  self time of C builtins — which have no file — is charged to the layer that
  called them, so ``list.append`` inside the scheduler counts as scheduler
  time.  Event-loop idle time (``epoll.poll``) is kept out of the shares.

cProfile charges every Python call but no native work, which shifts the
proportions; every number derived from it is qualified by the run's
``trace.overhead_ratio``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from stats import BENCH_DIR, REPO_ROOT

_REPRO_DIR = os.path.join(REPO_ROOT, "src", "repro") + os.sep

#: first matching prefix of the path below ``src/repro/`` names the layer
_REPRO_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/runner", "sim.runner"),
    ("sim/batch", "sim.batch"),
    ("sim/network", "sim.network"),
    ("sim/trace", "sim.trace"),
    ("sim/faults", "sim.faults"),
    ("sim/", "sim.other"),
    ("protocols/", "protocols"),
    ("consensus/", "consensus"),
    ("core/", "core"),
    ("env/", "env"),
    ("exp/spec", "exp.spec"),
    ("exp/registry", "exp.registry"),
    ("exp/engine", "exp.engine"),
    ("exp/results", "exp.results"),
    ("explore/", "explore"),
    ("db/partition", "db.partition"),
    ("db/coordinator", "db.coordinator"),
    ("db/wal", "db.wal"),
    ("db/locks", "db.locks"),
    ("db/store", "db.store"),
    ("db/invariants", "db.invariants"),
    ("db/", "db.other"),
    ("workloads/", "workloads"),
    ("runtime/transport", "runtime.transport"),
    ("runtime/node", "runtime.node"),
    ("runtime/runtime", "runtime.runtime"),
    ("runtime/cluster", "runtime.cluster"),
    ("", "repro.other"),
)

#: every layer a self-time share is reported for; the shares sum to 1
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in _REPRO_LAYERS)
) + ("stdlib.asyncio", "stdlib.other", "bench")

_ASYNCIO_DIR = os.sep + "asyncio" + os.sep
#: builtins that only wait (event-loop idle, pool result wait): not busy time
_IDLE_BUILTINS = ("select.epoll", "select.poll", "select.select", "_thread.lock")

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The layer owning a Python source file."""
    if filename.startswith(_REPRO_DIR):
        relative = filename[len(_REPRO_DIR):].replace(os.sep, "/")
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench"
    if _ASYNCIO_DIR in filename:
        return "stdlib.asyncio"
    return "stdlib.other"


def func_key(function: Callable) -> FuncKey:
    """The pstats key of a Python function or method."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder; parents are explicit so coroutines can nest."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []

    def begin(self, name: str, parent: Optional[int] = None, **attrs: object) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "run": self.run_id,
                **attrs,
            }
        )
        return len(self.spans) - 1

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, **attrs: object
    ) -> Iterator[int]:
        span_id = self.begin(name, parent, **attrs)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def self_seconds(self) -> Dict[str, float]:
        """Span self time by name: duration minus the direct children's."""
        own = [
            (s["end"] - s["start"]) if s["end"] is not None else 0.0
            for s in self.spans
        ]
        for span, seconds in zip(self.spans, list(own)):
            if span["parent"] is not None and span["end"] is not None:
                own[span["parent"]] -= min(
                    seconds, span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals


class NullTracer:
    """Tracing off: every span is a no-op."""

    enabled = False

    def span(self, name: str, parent: Optional[int] = None, **attrs: object):
        return nullcontext()


# --------------------------------------------------------------------------- #
# the profile fold
# --------------------------------------------------------------------------- #
class LayerProfile:
    """cProfile around harness calls, folded to layers and call counts."""

    def __init__(self) -> None:
        self._profiler = cProfile.Profile()
        self._stats: Optional[Dict] = None

    @contextmanager
    def recording(self) -> Iterator[None]:
        self._profiler.enable()
        try:
            yield
        finally:
            self._profiler.disable()
            self._stats = None

    @property
    def stats(self) -> Dict:
        """``FuncKey -> (cc, ncalls, tottime, cumtime, callers)``."""
        if self._stats is None:
            self._stats = pstats.Stats(self._profiler).stats
        return self._stats

    def fold(self) -> Tuple[Dict[str, float], float]:
        """``(layer -> self seconds, idle seconds)`` of everything recorded."""
        seconds = {layer: 0.0 for layer in LAYERS}
        idle = 0.0
        for (filename, _, name), (_, _, tottime, _, callers) in self.stats.items():
            if filename != "~":
                seconds[layer_of(filename)] += tottime
            elif any(marker in name for marker in _IDLE_BUILTINS):
                idle += tottime
            elif callers:
                # a builtin has no file: charge each caller's layer its part
                for (caller_file, _, _), (_, _, caller_tt, _) in callers.items():
                    layer = (
                        "stdlib.other" if caller_file == "~" else layer_of(caller_file)
                    )
                    seconds[layer] += caller_tt
            else:
                seconds["stdlib.other"] += tottime
        return seconds, idle

    def shares(self) -> Dict[str, float]:
        """Layer self-time shares of the busy time; they sum to 1."""
        seconds, _ = self.fold()
        total = sum(seconds.values())
        return {
            layer: (value / total if total > 0 else 0.0)
            for layer, value in seconds.items()
        }

    def calls(self, functions: Iterable[Callable]) -> int:
        """Exact number of calls of the given functions."""
        return sum(self.stats.get(func_key(f), (0, 0))[1] for f in functions)

    def cumulative(self, functions: Iterable[Callable]) -> float:
        """Seconds spent inside the given functions, callees included."""
        return sum(
            self.stats.get(func_key(f), (0, 0, 0.0, 0.0))[3] for f in functions
        )

    def calls_named(self, layer: str, name: str) -> int:
        """Exact number of calls of functions called ``name`` in ``layer``."""
        return sum(
            entry[1]
            for (filename, _, func_name), entry in self.stats.items()
            if func_name == name and filename != "~" and layer_of(filename) == layer
        )
