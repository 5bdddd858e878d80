"""The tools.lint rule set against its fixture corpus and the live tree.

Every rule gets a fixture-backed positive test (the known-bad snippet fires
at the expected file:line) and the per-file rules ride the shared negative
tests (the known-good snippets produce zero findings).  The live trees are
linted once, in a pass every per-rule assertion shares.  The battery also
pins the engine-level behaviours the determinism contract depends on: the
allowlist pragma policy, the allow tables of the whole-system rules (a stale
entry is a finding), fixture-directory exclusion from normal walks, the JSON
report shape, CLI exit codes, and the shared spawn-safety rule table that
keeps the static rule and :func:`repro.exp.engine.ensure_spawn_safe` from
drifting apart.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.exp.spec import SPAWN_AXIS_FIELDS
from tools.lint.ast_checks import (
    LIVE_TREES,
    ProjectRule,
    iter_python_files,
    lint_paths,
)
from tools.lint.cli import main as lint_main
from tools.lint.rules import (
    NoCallerRule,
    UnsetFieldRule,
    UnsetParameterRule,
    default_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: the per-file rules: a fixture linted with these reads no other file
FILE_RULES = [rule for rule in default_rules() if not isinstance(rule, ProjectRule)]

ALL_RULE_IDS = (
    "DET001", "DET002", "DET003", "FP001", "FP002", "FP003",
    "OBS001", "SP001", "IMP001", "CALL001", "KNOB001", "KNOB002",
)


@pytest.fixture(scope="module")
def live():
    """One lint pass over every live tree, shared by the assertions below."""
    return lint_paths([REPO_ROOT / name for name in LIVE_TREES], root=REPO_ROOT)


def findings_of(name: str, kind: str = "src", rules=FILE_RULES):
    return lint_paths([FIXTURES / name], rules=rules, kind=kind, root=FIXTURES)


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

    def test_imp001_unused_imports_by_scope(self):
        report = findings_of("bad_imp001_unused.py")
        # json and Tuple at module level, re inside f(); os (read as
        # os.path), List, the noqa'd sys, the __all__ export and the
        # function-local chain are all used
        assert locations(report, "IMP001") == [
            ("IMP001", 3), ("IMP001", 5), ("IMP001", 13),
        ]
        names = sorted(f.message.split("'")[1] for f in report.findings)
        assert names == ["Tuple", "json", "re"]

    def test_imp001_covers_every_tree(self):
        for kind in ("tests", "benchmarks", "examples", "other"):
            report = findings_of("bad_imp001_unused.py", kind=kind)
            assert len(locations(report, "IMP001")) == 3, kind

    def test_call001_definitions_without_a_caller(self):
        report = findings_of("bad_call001_orphan.py", rules=[NoCallerRule()])
        # helper, Widget and size are referenced; a method read only as a
        # bare name (shadowed) is not; dunders and visit_* never fire
        assert locations(report, "CALL001") == [
            ("CALL001", 4), ("CALL001", 16), ("CALL001", 19), ("CALL001", 29),
        ]

    def test_knob001_defaulted_parameters_no_call_sets(self):
        report = findings_of("bad_knob001_unset.py", rules=[UnsetParameterRule()])
        # factor is set by position, width by keyword, label through the
        # subclass, splatted's by a * splat; strategy is registered
        assert locations(report, "KNOB001") == [("KNOB001", 4), ("KNOB001", 9)]
        messages = " ".join(f.message for f in report.findings)
        assert "'offset'" in messages and "'height'" in messages
        assert "Box.__init__" in messages

    def test_knob002_defaulted_dataclass_fields_no_call_sets(self):
        report = findings_of("bad_knob002_unset.py", rules=[UnsetFieldRule()])
        # dst is set by keyword, delay by position through the subclass,
        # extra by cls(...) in a classmethod, window by replace(), label by
        # an attribute store, Plan's fields by a ** splat; seen and matched
        # are state, kind a ClassVar, and Manual writes its own __init__
        assert locations(report, "KNOB002") == [("KNOB002", 12), ("KNOB002", 26)]
        messages = " ".join(f.message for f in report.findings)
        assert "'nth' of 'bad_knob002_unset.Rule'" in messages
        assert "'late' of 'bad_knob002_unset.LateRule'" in messages


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
        walked = list(iter_python_files([Path(__file__).resolve().parent]))
        assert walked and not any("lint_fixtures" in p.parts for p in walked)

    def test_live_trees_are_clean(self, live):
        assert live.ok, live.render_text()
        assert live.files_checked >= 150

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_live_trees_have_no_finding_of(self, live, rule_id):
        assert locations(live, rule_id) == []

    def test_examples_are_a_kind_of_their_own(self):
        from tools.lint.ast_checks import classify_path

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
        assert set(ids) == set(ALL_RULE_IDS)
        for rule in rules:
            assert rule.kinds and all(
                k in ("src", "benchmarks", "tests", "examples", "other")
                for k in rule.kinds
            )


# --------------------------------------------------------------------------- #
# allow tables of the whole-system rules
# --------------------------------------------------------------------------- #
_PACKAGE = {
    "src/repro/__init__.py": "",
    "src/repro/mod.py": (
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n\n\n"
        "def knob(x=1):  # lint: allow[CALL001] the probe of a pragma\n"
        "    return x\n\n\n"
        "VALUE = used()\n"
    ),
    "scripts/run.py": "from repro.mod import orphan\n",
}


class TestAllowTables:
    @pytest.fixture
    def package(self, tmp_path):
        for relpath, text in _PACKAGE.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return tmp_path

    @staticmethod
    def _rule(cls, allowed):
        rule = cls()
        rule.allowed = allowed
        return rule

    def test_allowed_names_are_silent_and_stale_entries_are_findings(self, package):
        rule = self._rule(NoCallerRule, {
            "mod.orphan": "kept for the probe",
            "mod.used": "gained a caller",
            "mod.gone": "deleted",
        })
        report = lint_paths([package / "src"], rules=[rule], root=package)
        stale = sorted(f.message.split("'")[1] for f in report.findings)
        assert stale == ["mod.gone", "mod.used"]
        # the pragma'd knob() is suppressed with its reason, not dropped
        assert [f.justification for f in report.suppressed] == ["the probe of a pragma"]

    def test_a_caller_outside_the_linted_trees_counts_and_a_test_never(self, package):
        # scripts/ is a caller tree even when the run lints src/ alone; a
        # test's call keeps nothing alive, even when the run lints tests/
        rule = self._rule(NoCallerRule, {})
        calls = "from repro.mod import orphan, knob\n{}()\n"
        (package / "scripts" / "run.py").write_text(calls.format("orphan"))
        (package / "tests").mkdir()
        (package / "tests" / "test_mod.py").write_text(calls.format("knob"))
        report = lint_paths([package / "src", package / "tests"], rules=[rule], root=package)
        assert report.findings == []
        assert [f.snippet for f in report.suppressed] == [
            "def knob(x=1):  # lint: allow[CALL001] the probe of a pragma"
        ]

    def test_stale_parameter_entries_are_findings(self, package):
        rule = self._rule(UnsetParameterRule, {
            "mod.knob(x=)": "kept for the probe",
            "mod.knob(y=)": "a parameter that was deleted",
        })
        report = lint_paths([package / "src"], rules=[rule], root=package)
        assert [f.message.split("'")[1] for f in report.findings] == ["mod.knob(y=)"]

    def test_stale_field_entries_are_findings(self, package):
        (package / "src" / "repro" / "box.py").write_text(
            "from dataclasses import dataclass\n\n\n@dataclass\nclass Box:\n    x: int = 1\n"
        )
        rule = self._rule(UnsetFieldRule, {
            "box.Box(x=)": "kept for the probe",
            "box.Box(y=)": "a field that was deleted",
        })
        report = lint_paths([package / "src"], rules=[rule], root=package)
        assert [f.message.split("'")[1] for f in report.findings] == ["box.Box(y=)"]

    def test_a_field_store_counts_only_where_the_class_is_named(self, package):
        src = package / "src" / "repro"
        (src / "box.py").write_text(
            "from dataclasses import dataclass\n\n\n@dataclass\nclass Box:\n"
            "    x: int = 1\n    y: int = 2\n    z: int = 3\n\n\n"
            "class Crate(Box):\n    pass\n\n\nCrate(z=0)\n"
        )
        (src / "user.py").write_text(
            "from repro.box import Box\n\n\ndef grow(box: Box):\n    box.x = 5\n"
        )
        (src / "other.py").write_text("def push(cart):\n    cart.y = 5\n")
        report = lint_paths([package / "src"], rules=[self._rule(UnsetFieldRule, {})],
                            root=package)
        # x is stored where Box is named, z is bound through the plain
        # subclass's inherited __init__; y's store is on something else
        assert [f.message.split("'")[1] for f in report.findings] == ["y"]

    def test_a_partial_run_judges_no_entry(self, package):
        rule = self._rule(NoCallerRule, {"mod.gone": "deleted"})
        mod = package / "src" / "repro" / "mod.py"
        report = lint_paths([mod], rules=[rule], root=package)
        assert [f.rule for f in report.findings] == ["CALL001"]  # orphan() only
        assert "'orphan'" in report.findings[0].message


# --------------------------------------------------------------------------- #
# per-package rule scoping (SCOPE_EXEMPTIONS)
# --------------------------------------------------------------------------- #
class TestScopeExemptions:
    def test_policy_table_names_known_rules_and_posix_prefixes(self):
        from tools.lint.rules import SCOPE_EXEMPTIONS

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
        from tools.lint.rules import SCOPE_EXEMPTIONS

        assert SCOPE_EXEMPTIONS == {
            "DET002": ("src/repro/runtime/", "src/repro/obs/")
        }

    def test_det002_scoped_out_of_the_runtime_package(self):
        # the exemption must be load-bearing: the runtime really reads the
        # wall clock, and DET002 really stays silent about it
        runtime_py = REPO_ROOT / "src" / "repro" / "runtime" / "runtime.py"
        assert "time.monotonic()" in runtime_py.read_text(encoding="utf-8")
        report = lint_paths([runtime_py], rules=FILE_RULES, root=REPO_ROOT)
        assert locations(report, "DET002") == []

    def test_det002_still_fires_outside_the_exempt_prefix(self):
        report = findings_of("bad_det002_wall_clock.py")
        assert locations(report, "DET002")

    def test_other_rules_still_cover_the_runtime_package(self):
        from tools.lint.ast_checks import load_context
        from tools.lint.rules import (
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
        from tools.lint.ast_checks import load_context

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
        report = lint_paths([progress_py], rules=FILE_RULES, root=REPO_ROOT)
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
        rules = [rule for rule in FILE_RULES if rule.rule_id == "OBS001"]
        return lint_paths([path], rules=rules, root=tmp_path)

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

    def test_live_deterministic_tree_is_obs_free(self, live):
        # both directions pinned: the rule exists AND the real tree obeys it
        from tools.lint.rules.obs_isolation import PROTECTED_PREFIXES

        assert locations(live, "OBS001") == []
        assert any(p.startswith("src/repro/db") for p in PROTECTED_PREFIXES)


class TestCli:
    def test_cli_exit_zero_on_clean_tree(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["examples"]) == 0
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
        assert lint_main(["--format=json", "examples"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
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

    def test_static_rule_scans_the_axis_keywords_only(self, tmp_path):
        path = tmp_path / "grid.py"
        path.write_text(
            "GridSpec(delays=[lambda s: s], seeds=[lambda: 0])\n", encoding="utf-8"
        )
        report = lint_paths([path], rules=FILE_RULES, root=tmp_path, kind="benchmarks")
        assert [f.col for f in report.findings if f.rule == "SP001"] == [18]
