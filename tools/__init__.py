"""Developer tools, run from the repository root (``python -m tools.lint``).

Not part of the installed ``repro`` package: ``setup.py`` discovers packages
under ``src/`` only, and ``import repro`` loads nothing from here.
"""
