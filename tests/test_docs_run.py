"""The docstring examples of the public entry points run as written."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = ["repro", "repro.sim.runner", "repro.explore", "repro.exp", "repro.exp.results"]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_run(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
