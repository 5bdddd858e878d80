"""The repro.lint rule set against its fixture corpus and the live tree.

Every rule gets a fixture-backed positive test (the known-bad snippet fires
at the expected file:line) and rides the shared negative tests (the
known-good snippets produce zero findings).  The battery also pins the
engine-level behaviours the determinism contract depends on: the allowlist
pragma policy, fixture-directory exclusion from normal walks, the JSON
report shape, CLI exit codes, and the shared spawn-safety rule table that
keeps the static rule and :func:`repro.exp.engine.ensure_spawn_safe` from
drifting apart.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.lint import default_rules, lint_file, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.rules.spawn_safety import SPAWN_AXIS_FIELDS

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def findings_of(name: str, kind: str = "src"):
    report = lint_file(FIXTURES / name, kind=kind, root=REPO_ROOT)
    return report


def locations(report, rule: str):
    return [(f.rule, f.line) for f in report.findings if f.rule == rule]


# --------------------------------------------------------------------------- #
# positive fixtures: each rule fires at the expected line
# --------------------------------------------------------------------------- #
class TestBadFixtures:
    def test_det001_loop_and_list_escape(self):
        report = findings_of("bad_det001_set_iteration.py")
        assert locations(report, "DET001") == [("DET001", 6), ("DET001", 13)]

    def test_det002_wall_clock_and_global_random(self):
        report = findings_of("bad_det002_wall_clock.py")
        assert locations(report, "DET002") == [
            ("DET002", 7),
            ("DET002", 8),
            ("DET002", 9),
        ]
        messages = " ".join(f.message for f in report.findings)
        assert "random.random()" in messages
        assert "time.time()" in messages
        assert "datetime.now()" in messages

    def test_det002_numpy_global_random(self):
        report = findings_of("bad_det002_numpy_random.py")
        # the import of a module-level sampler, both global-state call
        # spellings, and np.random.seed itself; seeded RandomState /
        # default_rng constructions never fire
        assert locations(report, "DET002") == [
            ("DET002", 5),
            ("DET002", 7),
            ("DET002", 8),
            ("DET002", 9),
        ]
        messages = " ".join(f.message for f in report.findings)
        assert "np.random.seed()" in messages
        assert "numpy.random.rand()" in messages
        assert "RandomState" in messages

    def test_det003_id_and_hash_keyed_sorts(self):
        report = findings_of("bad_det003_hash_sort.py")
        assert locations(report, "DET003") == [("DET003", 5), ("DET003", 9)]

    def test_fp001_json_dumps_without_sort_keys(self):
        report = findings_of("bad_fp001_digest.py")
        assert locations(report, "FP001") == [("FP001", 8)]
        assert "sort_keys=True" in report.findings[0].message

    def test_fp002_set_in_payload_direct_and_via_local(self):
        report = findings_of("bad_fp002_payload.py")
        assert locations(report, "FP002") == [("FP002", 6), ("FP002", 9)]

    def test_fp003_unsorted_fold_in_row(self):
        report = findings_of("bad_fp003_fold.py")
        assert locations(report, "FP003") == [("FP003", 10)]

    def test_sp001_lambda_and_local_closure_in_spec(self):
        report = findings_of("bad_sp001_spec.py", kind="benchmarks")
        assert locations(report, "SP001") == [
            ("SP001", 18), ("SP001", 19), ("SP001", 23), ("SP001", 24), ("SP001", 25),
        ]

    def test_sp001_covers_examples(self):
        report = findings_of("bad_sp001_spec.py", kind="examples")
        assert len(locations(report, "SP001")) == 5

    def test_lnt000_pragma_without_justification(self):
        report = findings_of("bad_lnt000_pragma.py")
        rules = {f.rule for f in report.findings}
        # the malformed pragma is itself a finding AND does not suppress
        assert rules == {"LNT000", "DET001"}


# --------------------------------------------------------------------------- #
# negative fixtures: sanctioned idioms never fire
# --------------------------------------------------------------------------- #
class TestGoodFixtures:
    def test_clean_idioms_have_zero_findings(self):
        report = findings_of("good_clean.py")
        assert report.findings == []
        assert report.suppressed == []

    def test_justified_pragma_suppresses(self):
        report = findings_of("good_pragma.py")
        assert report.findings == []
        assert [s.rule for s in report.suppressed] == ["DET001"]
        assert report.suppressed[0].justification.startswith("snapshot order")
        assert report.ok


# --------------------------------------------------------------------------- #
# engine behaviours
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_fixture_directory_skipped_by_normal_walks(self):
        report = lint_paths([Path(__file__).resolve().parent], root=REPO_ROOT)
        assert not any("lint_fixtures" in f.path for f in report.findings)

    def test_full_tree_is_clean(self):
        report = lint_paths(
            [REPO_ROOT / name for name in ("src", "benchmarks", "tests", "examples")],
            root=REPO_ROOT,
        )
        assert report.ok, report.render_text()

    def test_examples_are_a_kind_of_their_own(self):
        from repro.lint.ast_checks import classify_path

        path = REPO_ROOT / "examples" / "quickstart.py"
        assert classify_path(path, REPO_ROOT) == ("examples", "examples/quickstart.py")

    def test_json_report_shape(self):
        report = findings_of("bad_fp001_digest.py")
        data = json.loads(report.render_json())
        assert data["ok"] is False
        assert data["counts"] == {"FP001": 1}
        assert data["findings"][0]["rule"] == "FP001"
        assert data["findings"][0]["line"] == 8
        assert data["files_checked"] == 1

    def test_rule_ids_are_unique_and_scoped(self):
        rules = default_rules()
        ids = [r.rule_id for r in rules]
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "DET001", "DET002", "DET003", "FP001", "FP002", "FP003",
            "OBS001", "SP001",
        }
        for rule in rules:
            assert rule.kinds and all(
                k in ("src", "benchmarks", "tests", "examples") for k in rule.kinds
            )


# --------------------------------------------------------------------------- #
# per-package rule scoping (SCOPE_EXEMPTIONS)
# --------------------------------------------------------------------------- #
class TestScopeExemptions:
    def test_policy_table_names_known_rules_and_posix_prefixes(self):
        from repro.lint.rules import SCOPE_EXEMPTIONS

        known = {r.rule_id for r in default_rules()}
        for rule_id, prefixes in SCOPE_EXEMPTIONS.items():
            assert rule_id in known
            assert prefixes, rule_id
            for prefix in prefixes:
                assert "\\" not in prefix and prefix.endswith("/"), prefix

    def test_det002_is_the_only_scoped_rule(self):
        # policy: only the two packages that exist to read the wall clock are
        # exempt, and only from DET002 (OBS001 keeps obs out of deterministic
        # layers)
        from repro.lint.rules import SCOPE_EXEMPTIONS

        assert SCOPE_EXEMPTIONS == {
            "DET002": ("src/repro/runtime/", "src/repro/obs/")
        }

    def test_det002_scoped_out_of_the_runtime_package(self):
        # the exemption must be load-bearing: the runtime really reads the
        # wall clock, and DET002 really stays silent about it
        runtime_py = REPO_ROOT / "src" / "repro" / "runtime" / "runtime.py"
        assert "time.monotonic()" in runtime_py.read_text(encoding="utf-8")
        report = lint_file(runtime_py, root=REPO_ROOT)
        assert locations(report, "DET002") == []

    def test_det002_still_fires_outside_the_exempt_prefix(self):
        report = findings_of("bad_det002_wall_clock.py")
        assert locations(report, "DET002")

    def test_other_rules_still_cover_the_runtime_package(self):
        from repro.lint.ast_checks import load_context
        from repro.lint.rules import (
            UnorderedIterationRule,
            WallClockAndGlobalRandomRule,
        )

        ctx = load_context(
            REPO_ROOT / "src" / "repro" / "runtime" / "runtime.py",
            root=REPO_ROOT,
        )
        assert ctx.relpath == "src/repro/runtime/runtime.py"
        scoped = {r.rule_id: r for r in default_rules()}
        assert not scoped["DET002"].applies_to(ctx)
        assert scoped["DET001"].applies_to(ctx)
        # fresh instances carry no exemption: the policy lives in the
        # registry, not hard-coded into the rule classes
        assert WallClockAndGlobalRandomRule().applies_to(ctx)
        assert UnorderedIterationRule().applies_to(ctx)

    def test_exempt_prefix_does_not_leak_to_sibling_paths(self):
        from repro.lint.ast_checks import load_context

        ctx = load_context(
            REPO_ROOT / "src" / "repro" / "sim" / "runner.py", root=REPO_ROOT
        )
        scoped = {r.rule_id: r for r in default_rules()}
        assert scoped["DET002"].applies_to(ctx)

    def test_det002_scoped_out_of_the_obs_package(self):
        # load-bearing like the runtime exemption: the obs reporters really
        # read the wall clock, and DET002 really stays silent about it
        progress_py = REPO_ROOT / "src" / "repro" / "obs" / "progress.py"
        assert "time.monotonic()" in progress_py.read_text(encoding="utf-8")
        report = lint_file(progress_py, root=REPO_ROOT)
        assert locations(report, "DET002") == []


# --------------------------------------------------------------------------- #
# OBS001: observability stays out of the deterministic layers
# --------------------------------------------------------------------------- #
class TestObsIsolation:
    def _lint_under(self, tmp_path, relpath: str, source: str):
        """Lint ``source`` as if it lived at ``relpath`` in a repo tree."""
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        return lint_file(path, root=tmp_path)

    def test_obs_import_in_sim_fires(self, tmp_path):
        report = self._lint_under(
            tmp_path,
            "src/repro/sim/bad.py",
            "import repro.obs\n",
        )
        assert locations(report, "OBS001") == [("OBS001", 1)]

    def test_obs_from_import_in_protocols_fires(self, tmp_path):
        report = self._lint_under(
            tmp_path,
            "src/repro/protocols/bad.py",
            "from repro.obs.metrics import MetricsRegistry\n",
        )
        assert locations(report, "OBS001") == [("OBS001", 1)]
        assert "duck-typed" in report.findings[0].message

    def test_obs_subpackage_alias_in_db_fires(self, tmp_path):
        report = self._lint_under(
            tmp_path,
            "src/repro/db/bad.py",
            "from repro import obs\n",
        )
        assert locations(report, "OBS001") == [("OBS001", 1)]

    def test_results_and_spec_modules_are_protected(self, tmp_path):
        for relpath in ("src/repro/exp/results.py", "src/repro/exp/spec.py"):
            report = self._lint_under(
                tmp_path, relpath, "from repro.obs import MetricsRegistry\n"
            )
            assert locations(report, "OBS001") == [("OBS001", 1)], relpath

    def test_sanctioned_layers_may_import_obs(self, tmp_path):
        # the engine's lazy hooks, the analysis layer, and obs itself
        for relpath in (
            "src/repro/exp/engine.py",
            "src/repro/analysis/report.py",
            "src/repro/obs/progress.py",
        ):
            report = self._lint_under(
                tmp_path, relpath, "from repro.obs.progress import resolve_progress\n"
            )
            assert locations(report, "OBS001") == [], relpath

    def test_non_obs_imports_never_fire(self, tmp_path):
        report = self._lint_under(
            tmp_path,
            "src/repro/sim/fine.py",
            "import repro.observability_notes\nfrom repro import errors\n",
        )
        assert locations(report, "OBS001") == []

    def test_live_deterministic_tree_is_obs_free(self):
        # both directions pinned: the rule exists AND the real tree obeys it
        from repro.lint.rules.obs_isolation import PROTECTED_PREFIXES

        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert locations(report, "OBS001") == []
        assert any(p.startswith("src/repro/db") for p in PROTECTED_PREFIXES)


class TestCli:
    def test_cli_exit_zero_on_clean_tree(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "benchmarks", "tests"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_cli_exit_one_on_findings(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        # DET003 also covers tests/, so the fixture fires even at kind=tests
        path = FIXTURES / "bad_det003_hash_sort.py"
        assert lint_main([str(path)]) == 1
        assert "DET003" in capsys.readouterr().out

    def test_cli_json_format(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["--format=json", "src"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "FP001", "FP002", "FP003",
            "OBS001", "SP001",
        ):
            assert rule_id in out


# --------------------------------------------------------------------------- #
# shared rule table: static and runtime spawn-safety check the same fields
# --------------------------------------------------------------------------- #
class TestSharedRuleTable:
    def test_axis_fields_match_trialspec_attributes(self):
        from repro.exp.spec import TrialSpec

        attrs = {f.name for f in dataclasses.fields(TrialSpec)}
        for grid_field, attr in SPAWN_AXIS_FIELDS:
            assert attr in attrs, (grid_field, attr)

    def test_runtime_check_iterates_the_shared_table(self):
        import inspect

        from repro.exp.engine import ensure_spawn_safe

        assert "SPAWN_AXIS_FIELDS" in inspect.getsource(ensure_spawn_safe)
