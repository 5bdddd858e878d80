"""Opt-in sweep profiling: ``REPRO_PROFILE=1`` + ``python -m repro.obs.profile``.

When the environment variable ``REPRO_PROFILE`` is truthy, the sweep engine
wraps each unit of work — every chunk a pool worker runs, whatever the sink,
or the whole of a serial sweep — in :class:`cProfile.Profile` and dumps one
``.prof`` file per unit into ``REPRO_PROFILE_DIR`` (default
``.repro_profile/``).  Dumping happens in whatever process ran the work, so
pooled runs produce one file per (process, chunk) pair; filenames carry
``os.getpid()`` plus a per-process sequence number to stay collision-free.

Profiling is observability, not measurement: it perturbs wall-clock timings
(so benchmarks refuse to certify overhead bars under it) but never the
aggregates — the determinism battery runs a profiled sweep and checks the
fingerprint is unchanged.

``python -m repro.obs.profile [DIR]`` folds every ``.prof`` file in DIR into
one :class:`pstats.Stats` report, sorted by cumulative time by default.
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import io
import os
import pstats
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

#: environment flag that turns sweep profiling on
ENV_FLAG = "REPRO_PROFILE"

#: environment variable overriding where .prof dumps land
ENV_DIR = "REPRO_PROFILE_DIR"

#: default dump directory (relative to the working directory)
DEFAULT_DIR = ".repro_profile"

_SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls", "filename", "name")

# per-process sequence number so parallel chunks in one worker don't collide
_sequence = 0


def is_enabled(environ=None) -> bool:
    """True when ``REPRO_PROFILE`` is set to a non-empty, non-"0" value."""
    environ = os.environ if environ is None else environ
    value = environ.get(ENV_FLAG, "")
    return value not in ("", "0", "false", "False")


def profile_dir(environ=None) -> str:
    environ = os.environ if environ is None else environ
    return environ.get(ENV_DIR, "") or DEFAULT_DIR


@contextmanager
def profiled(label: str, directory: Optional[str] = None) -> Iterator[None]:
    """Profile the enclosed block and dump stats to ``DIR/label-pid-seq.prof``."""
    global _sequence
    directory = profile_dir() if directory is None else directory
    os.makedirs(directory, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        _sequence += 1
        path = os.path.join(
            directory, f"{label}-{os.getpid()}-{_sequence:04d}.prof"
        )
        profiler.dump_stats(path)


def fold_profiles(directory: str) -> Optional[pstats.Stats]:
    """Merge every ``.prof`` file under ``directory``; None when there are none."""
    paths = sorted(glob.glob(os.path.join(directory, "*.prof")))
    if not paths:
        return None
    stats = pstats.Stats(paths[0])
    for path in paths[1:]:
        stats.add(path)
    return stats


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
