"""The repo's static checker: determinism, spawn-safety and dead-code rules.

A developer tool, not part of the installed package.  Run it from the
repository root with ``src`` on ``PYTHONPATH``::

    python -m tools.lint src benchmarks tests examples scripts tools
    python -m tools.lint --list-rules
    python -m tools.lint --sanitize     # + the runtime sanitizer and hash-seed diff

The engine (:mod:`tools.lint.ast_checks`) parses each file once and hands
it to every rule; the rule set is :func:`tools.lint.rules.default_rules`.
``docs/determinism.md`` describes each rule, the ``# lint: allow[RULE] why``
pragma and the allow tables.
"""
