"""repro.lint — determinism & spawn-safety static analysis for this repo.

The repo's load-bearing guarantee is that sweep aggregates and schedule
traces are byte-identical across trace levels × fold paths × serial/fork/
spawn execution.  This package enforces the coding rules that guarantee
rests on, *before* an end-to-end fingerprint test can catch a violation:

======  ==============================================================
rule    what it flags
======  ==============================================================
DET001  iteration over a bare ``set``/``frozenset`` whose order escapes
DET002  wall-clock reads / interpreter-global ``random.*`` calls
DET003  ``id()``/``hash()``-keyed ordering
FP001   ``json.dumps`` without ``sort_keys=True`` in a digest function
FP002   ``set``/``frozenset`` inside a sent message payload
FP003   order-sensitive iteration in fold/merge/row/digest code
SP001   lambda / local closure in a spawn-crossing spec field
LNT000  allowlist pragma without a justification
======  ==============================================================

Run it::

    python -m repro.lint src benchmarks tests examples scripts
    python -m repro.lint --format=json src
    python -m repro.lint --sanitize          # runtime sanitizer + hash-seed diff

Suppress a finding (justification mandatory)::

    # lint: allow[DET001] all entries share one value, so order cannot matter

The runtime twin lives in :mod:`repro.lint.sanitizer`: setting
``REPRO_SANITIZE=1`` wraps the trace/accumulator digest pipeline with
insertion-order perturbation checks, and the hash-seed harness re-runs a
reference sweep under two ``PYTHONHASHSEED`` values and diffs fingerprints.
"""

from repro.lint.ast_checks import (
    FileContext,
    Rule,
    lint_file,
    lint_paths,
    load_context,
)
from repro.lint.report import Finding, LintReport
from repro.lint.rules import default_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "default_rules",
    "lint_file",
    "lint_paths",
    "load_context",
]
