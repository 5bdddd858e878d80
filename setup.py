"""Setuptools entry point — the project's single source of packaging truth.

There is deliberately no ``pyproject.toml``: offline containers without the
``wheel`` package (no PEP 517 build isolation) must still be able to install
with ``pip install -e . --no-build-isolation`` or ``python setup.py develop``,
so everything lives here.

Packages are *discovered*, never listed by hand: ``find_packages(where="src")``
picks up every ``__init__.py``-bearing directory under ``src/``, so a new
subpackage (as ``repro.runtime`` and ``repro.env`` once were) ships the moment
it exists.  ``tests/test_packaging.py`` installs the discovered set into a
scratch site-packages layout and asserts ``import repro.runtime`` works from
it — a hand-maintained list would fail that test the day it went stale.
"""

from setuptools import find_packages, setup

setup(
    name="repro-inbac",
    version="0.7.0",
    description=(
        "Reproduction of Guerraoui & Wang, 'How fast can a distributed "
        "transaction commit?' (PODS 2017): commit protocols, a deterministic "
        "discrete-event simulator, an asyncio transport runtime, and a "
        "transactional key-value cluster driven by both."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    zip_safe=False,
)
