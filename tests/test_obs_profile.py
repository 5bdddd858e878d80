"""Tests for :mod:`repro.obs.profile` — the opt-in cProfile sweep wrapper."""

from __future__ import annotations

import gc
import glob
import json
import os
import re

import pytest

from repro.obs import profile


def _burn():
    return sum(i * i for i in range(2000))


def _cycles(count: int = 200) -> int:
    """Leave ``count`` two-object cycles behind and collect them.

    The automatic collector is held off while they are made, and the last
    pair is unbound, so the one explicit collection finds all ``2 * count``
    objects whatever garbage earlier tests left.
    """
    gc.disable()
    try:
        for _ in range(count):
            first, second = [], []
            first.append(second)
            second.append(first)
        del first, second
    finally:
        gc.enable()
    return gc.collect()


COLLECTOR_LINE = re.compile(
    r"^cycle collector: (\d+) collections, (\d+\.\d) ms \((\d+\.\d) % of profiled wall\)$",
    re.MULTILINE,
)


class TestEnvironmentGate:
    @pytest.mark.parametrize("value", ["1", "yes", "true", "on"])
    def test_truthy_values_enable(self, value):
        assert profile.is_enabled({profile.ENV_FLAG: value}) is True

    @pytest.mark.parametrize("value", ["", "0", "false", "False"])
    def test_falsey_values_disable(self, value):
        assert profile.is_enabled({profile.ENV_FLAG: value}) is False

    def test_unset_disables(self):
        assert profile.is_enabled({}) is False

    def test_profile_dir_override(self):
        assert profile.profile_dir({}) == profile.DEFAULT_DIR
        assert profile.profile_dir({profile.ENV_DIR: "/tmp/x"}) == "/tmp/x"


class TestProfiledContext:
    def test_dump_lands_in_the_directory(self, tmp_path):
        directory = str(tmp_path / "prof")
        with profile.profiled("chunk0001", directory=directory):
            _burn()
        (path,) = glob.glob(os.path.join(directory, "*.prof"))
        name = os.path.basename(path)
        assert name.startswith("chunk0001-")
        assert name.endswith(".prof")
        assert str(os.getpid()) in name

    def test_sequence_numbers_avoid_collisions(self, tmp_path):
        directory = str(tmp_path / "prof")
        for _ in range(2):
            with profile.profiled("serial", directory=directory):
                _burn()
        assert len(glob.glob(os.path.join(directory, "*.prof"))) == 2

    def test_dump_happens_even_when_the_block_raises(self, tmp_path):
        directory = str(tmp_path / "prof")
        with pytest.raises(RuntimeError):
            with profile.profiled("boom", directory=directory):
                raise RuntimeError("work failed")
        assert glob.glob(os.path.join(directory, "*.prof"))


class TestFoldAndReport:
    def test_fold_merges_every_dump(self, tmp_path):
        directory = str(tmp_path / "prof")
        for _ in range(3):
            with profile.profiled("chunk", directory=directory):
                _burn()
        stats = profile.fold_profiles(directory)
        assert stats is not None
        report = profile.render_report(stats, sort="cumulative", limit=5)
        assert "_burn" in report
        assert "cumulative" in report

    def test_fold_of_empty_directory_is_none(self, tmp_path):
        assert profile.fold_profiles(str(tmp_path)) is None


class TestCli:
    def test_report_over_a_directory(self, tmp_path, capsys):
        directory = str(tmp_path / "prof")
        with profile.profiled("chunk", directory=directory):
            _burn()
        assert profile.main([directory, "--sort", "tottime", "--limit", "5"]) == 0
        assert "tottime" in capsys.readouterr().out

    def test_no_dumps_is_a_loud_nonzero_exit(self, tmp_path, capsys):
        assert profile.main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert profile.ENV_FLAG in err


class TestCycleCollector:
    def test_each_unit_records_its_collections_beside_the_dump(self, tmp_path):
        directory = str(tmp_path / "prof")
        with profile.profiled("chunk", directory=directory):
            assert _cycles() >= 400
        (prof,) = glob.glob(os.path.join(directory, "*.prof"))
        with open(prof[: -len(".prof")] + profile.GC_SUFFIX) as handle:
            unit = json.load(handle)
        assert unit["collections"] >= 1
        assert 0.0 < unit["collector_s"] <= unit["wall_s"]

    def test_the_hook_is_removed_when_the_block_ends(self, tmp_path):
        before = list(gc.callbacks)
        with pytest.raises(RuntimeError):
            with profile.profiled("boom", directory=str(tmp_path)):
                raise RuntimeError("work failed")
        assert gc.callbacks == before

    def test_fold_sums_every_unit(self, tmp_path):
        directory = str(tmp_path / "prof")
        for _ in range(3):
            with profile.profiled("chunk", directory=directory):
                _cycles()
        totals = profile.fold_collector(directory)
        assert totals["collections"] >= 3
        assert 0.0 < totals["collector_s"] <= totals["wall_s"]
        assert profile.fold_collector(str(tmp_path)) is None

    def test_the_line_states_count_time_and_share(self):
        line = profile.render_collector(
            {"collections": 7, "collector_s": 0.0125, "wall_s": 0.25}
        )
        assert line == "cycle collector: 7 collections, 12.5 ms (5.0 % of profiled wall)"

    def test_the_cli_ends_its_report_with_the_line(self, tmp_path, capsys):
        directory = str(tmp_path / "prof")
        with profile.profiled("chunk", directory=directory):
            _cycles()
        assert profile.main([directory, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        (match,) = COLLECTOR_LINE.finditer(out)
        assert int(match.group(1)) >= 1
        assert out.rstrip().endswith(match.group(0))
