"""Packaging discovery: every subpackage ships, and the wheel layout imports.

The failure mode this battery exists for: a new subpackage (``repro.runtime``
was the latest) works fine under ``PYTHONPATH=src`` but silently never ships
because a hand-maintained package list went stale.  ``setup.py`` therefore
uses ``find_packages(where="src")``; these tests pin that choice and prove it
by emulating what setuptools installs — copying exactly the discovered
packages' modules into a scratch site-packages directory — and importing the
runtime from there in a clean subprocess (no ``src/`` on the path).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from setuptools import find_packages

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def discovered_packages():
    return sorted(find_packages(where=str(SRC)))


class TestDiscovery:
    def test_every_init_bearing_directory_is_discovered(self):
        on_disk = sorted(
            str(init.parent.relative_to(SRC)).replace("/", ".")
            for init in SRC.rglob("__init__.py")
            if "__pycache__" not in init.parts
        )
        assert discovered_packages() == on_disk

    def test_the_new_subsystems_are_included(self):
        packages = discovered_packages()
        for required in ("repro", "repro.env", "repro.runtime", "repro.db",
                         "repro.sim"):
            assert required in packages, f"{required} missing from discovery"
        # the static analyser is a developer tool (tools/lint), not shipped
        assert not any(p.startswith("repro.lint") for p in packages)

    def test_setup_py_uses_discovery_not_a_hand_list(self):
        text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert "find_packages" in text
        assert 'package_dir={"": "src"}' in text


class TestInstalledLayout:
    def test_import_repro_runtime_from_installed_wheel_layout(self, tmp_path):
        """Emulate the installed layout and import the runtime from it.

        Copies exactly what setuptools would install — each *discovered*
        package's own ``*.py`` modules, nothing recursive — into a scratch
        site-packages; a subpackage absent from discovery is then absent from
        the layout and the import below fails.
        """
        site = tmp_path / "site-packages"
        for package in discovered_packages():
            pkg_dir = site / Path(*package.split("."))
            pkg_dir.mkdir(parents=True, exist_ok=True)
            src_dir = SRC / Path(*package.split("."))
            for module in sorted(src_dir.glob("*.py")):
                shutil.copy(module, pkg_dir / module.name)
        probe = (
            "import repro.runtime, repro.env, repro.db.cluster\n"
            "from repro.runtime import run_commit, AsyncClusterService\n"
            "from repro.protocols.registry import protocol_names\n"
            "assert len(protocol_names()) >= 10\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(site), "PATH": "/usr/bin:/bin"},
            cwd=str(tmp_path),  # not the repo root: src/ must not leak in
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
