"""Opt-in sweep profiling: ``REPRO_PROFILE=1`` + ``python -m repro.obs.profile``.

When the environment variable ``REPRO_PROFILE`` is truthy, the sweep engine
wraps each unit of work — every chunk a pool worker runs, whatever the sink,
or the whole of a serial sweep — in :class:`cProfile.Profile` and dumps one
``.prof`` file per unit into ``REPRO_PROFILE_DIR`` (default
``.repro_profile/``).  Dumping happens in whatever process ran the work, so
pooled runs produce one file per (process, chunk) pair; filenames carry
``os.getpid()`` plus a per-process sequence number to stay collision-free.

Beside each ``.prof`` lands a ``.gc.json`` sidecar: what the cycle collector
did during the unit (collections and seconds, timed by a ``gc.callbacks``
hook) and the unit's wall time.  cProfile charges a collection to whichever
frame happened to allocate when it started, so the collector's cost is
invisible in the stats themselves; the sidecar is where it shows.

Profiling is observability, not measurement: it perturbs wall-clock timings
(so benchmarks refuse to certify overhead bars under it) but never the
aggregates — the determinism battery runs a profiled sweep and checks the
fingerprint is unchanged.

``python -m repro.obs.profile [DIR]`` folds every ``.prof`` file in DIR into
one :class:`pstats.Stats` report, sorted by cumulative time by default, and
ends it with one ``cycle collector: N collections, X ms (Y % of profiled
wall)`` line folded from the sidecars.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import glob
import io
import json
import os
import pstats
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence

#: environment flag that turns sweep profiling on
ENV_FLAG = "REPRO_PROFILE"

#: environment variable overriding where .prof dumps land
ENV_DIR = "REPRO_PROFILE_DIR"

#: default dump directory (relative to the working directory)
DEFAULT_DIR = ".repro_profile"

#: suffix of the cycle-collector sidecar written beside each ``.prof``
GC_SUFFIX = ".gc.json"

_SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls", "filename", "name")

# per-process sequence number so parallel chunks in one worker don't collide
_sequence = 0


def profile_dir(environ=None) -> str:
    environ = os.environ if environ is None else environ
    return environ.get(ENV_DIR, "") or DEFAULT_DIR


class _CollectorClock:
    """A ``gc.callbacks`` hook: how many collections ran, and for how long."""

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.collections += 1
            self.seconds += time.perf_counter() - self._started
            self._started = None


@contextmanager
def profiled(label: str, directory: Optional[str] = None) -> Iterator[None]:
    """Profile the enclosed block and dump stats to ``DIR/label-pid-seq.prof``.

    The cycle collector's share of the block lands beside it, in
    ``DIR/label-pid-seq.gc.json``.
    """
    global _sequence
    directory = profile_dir() if directory is None else directory
    os.makedirs(directory, exist_ok=True)
    profiler = cProfile.Profile()
    collector = _CollectorClock()
    gc.callbacks.append(collector)
    started = time.perf_counter()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        wall = time.perf_counter() - started
        gc.callbacks.remove(collector)
        _sequence += 1
        stem = os.path.join(directory, f"{label}-{os.getpid()}-{_sequence:04d}")
        profiler.dump_stats(stem + ".prof")
        with open(stem + GC_SUFFIX, "w") as handle:
            json.dump(
                {
                    "collections": collector.collections,
                    "collector_s": collector.seconds,
                    "wall_s": wall,
                },
                handle,
            )


def fold_profiles(directory: str) -> Optional[pstats.Stats]:
    """Merge every ``.prof`` file under ``directory``; None when there are none."""
    paths = sorted(glob.glob(os.path.join(directory, "*.prof")))
    if not paths:
        return None
    stats = pstats.Stats(paths[0])
    for path in paths[1:]:
        stats.add(path)
    return stats


def fold_collector(directory: str) -> Optional[Dict[str, float]]:
    """Sum every cycle-collector sidecar under ``directory``; None when there are none."""
    paths = sorted(glob.glob(os.path.join(directory, "*" + GC_SUFFIX)))
    if not paths:
        return None
    totals = {"collections": 0, "collector_s": 0.0, "wall_s": 0.0}
    for path in paths:
        with open(path) as handle:
            unit = json.load(handle)
        for key in totals:
            totals[key] += unit[key]
    return totals


def render_collector(totals: Dict[str, float]) -> str:
    """The one-line cycle-collector summary ``main`` ends its report with."""
    share = 100.0 * totals["collector_s"] / totals["wall_s"] if totals["wall_s"] else 0.0
    return (
        f"cycle collector: {totals['collections']} collections, "
        f"{1000.0 * totals['collector_s']:.1f} ms ({share:.1f} % of profiled wall)"
    )


def render_report(
    stats: pstats.Stats, sort: str = "cumulative", limit: int = 25
) -> str:
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats(sort).print_stats(limit)
    return buffer.getvalue()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Fold REPRO_PROFILE .prof dumps into one sortable report.",
    )
    parser.add_argument(
        "directory", nargs="?", default=None,
        help=f"dump directory (default: ${ENV_DIR} or {DEFAULT_DIR}/)",
    )
    parser.add_argument("--sort", choices=_SORT_KEYS, default="cumulative")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows to print (default: 25)")
    args = parser.parse_args(argv)

    directory = args.directory if args.directory is not None else profile_dir()
    stats = fold_profiles(directory)
    if stats is None:
        print(f"no .prof files under {directory!r}; "
              f"run a sweep with {ENV_FLAG}=1 first", file=sys.stderr)
        return 1
    print(render_report(stats, sort=args.sort, limit=args.limit), end="")
    totals = fold_collector(directory)
    if totals is not None:
        print(render_collector(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
