"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish configuration mistakes from protocol violations
detected at runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A simulation, protocol or database component was misconfigured.

    Examples: ``f`` outside ``[1, n - 1]``, an unknown protocol name, a fault
    plan that crashes more processes than the protocol tolerates.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class SweepError(ReproError):
    """A sweep was abandoned because a pool worker process died.

    Raised by :func:`repro.exp.run_trials` in place of waiting forever on a
    lost peer; the message names the start method, the worker count and the
    trial-index range of the first chunk that did not come back.  Failures
    *inside* a trial never raise this: they are captured per trial in
    ``TrialResult.error``.
    """


class DeterminismError(ReproError):
    """The runtime determinism sanitizer observed order-dependent bytes.

    Raised only under ``REPRO_SANITIZE=1`` (see :mod:`repro.sanitizer`):
    a trace fingerprint or an accumulator row changed when the insertion
    order of its underlying containers was perturbed, or a message payload
    carried an unordered ``set``/``frozenset`` into the trace.
    """


class ProtocolViolationError(ReproError):
    """A protocol implementation violated one of its invariants at runtime.

    This is raised by defensive checks inside protocol implementations (for
    instance a process attempting to decide twice), not by the offline
    property checker, which reports violations as data instead of raising.
    """


class StorageError(ReproError):
    """The key-value store substrate rejected an operation."""
