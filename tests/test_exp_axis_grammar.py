"""The axis grammar, as one table: every accepted form, every rejected one.

An axis value is a label, a registry name and plain-data parameters
(:mod:`repro.exp.spec`); :func:`~repro.exp.spec.coerce_axis` is the one
parser, on the delay, fault, votes, workload and schedule axes alike.  This
file pins the grammar form by form, and pins — with fingerprints recorded at
the last commit that still accepted callables on the axes (``eb12e5a``) —
that spelling the callable forms as names moved no byte.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    GridSpec,
    ScheduleSpec,
    make_cases,
    mixed_votes,
    named_delay,
    named_fault,
    named_workload,
    register_delay_model,
    register_vote_pattern,
    run_sweep,
    run_trial,
)
from repro.exp.registry import DELAYS, WORKLOADS
from repro.exp.spec import coerce_axis
from repro.explore.strategies import RandomWalk
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import FixedDelay, LognormalDelay, UniformDelay
from repro.workloads import bank_transfer_workload, hotspot_workload, uniform_workload

AXES = ("delays", "faults", "votes", "workloads", "schedules")

PLAN = FaultPlan.crash(1, at=0.5)  # description "crash P1 at t=0.5"-style
BARE_PLAN = FaultPlan(delay_rules=[DelayRule(src=1, delay=3.0)])  # no description
WORKLOAD = bank_transfer_workload(num_transfers=3, num_partitions=4, seed=13)
TXNS = tuple(WORKLOAD.transactions)


def alternating_votes(n, seed, start=1):
    """A registered vote pattern: 1, 0, 1, ... or 0, 1, 0, ... by ``start``."""
    return [(start + i) % 2 for i in range(n)]


# at import time, as a registration must be
register_vote_pattern("test-alternating", alternating_votes)


def a_factory(*args):  # what the axes used to accept
    return None


#: axis, value -> (label, name, params), what build(*args) is called with,
#: and the type it returns
ACCEPTED = [
    # None: the axis default
    ("delays", None, ("U=1", "fixed", {}), (7,), FixedDelay),
    ("faults", None, ("failure-free", "failure-free", {}), (), FaultPlan),
    ("votes", None, ("all-yes", "all-yes", {}), (4, 7), list),
    # "name": its own label
    ("delays", "uniform", ("uniform", "uniform", {}), (7,), UniformDelay),
    ("delays", "lognormal", ("lognormal", "lognormal", {}), (7,), LognormalDelay),
    ("faults", "crash", ("crash", "crash", {}), (), FaultPlan),
    ("votes", "all-no", ("all-no", "all-no", {}), (4, 7), list),
    ("votes", "test-alternating", ("test-alternating", "test-alternating", {}), (4, 7), list),
    ("workloads", "uniform", ("uniform", "uniform", {}), (4, 7), list),
    ("schedules", "random-walk", ("random-walk", "random-walk", {}), (7,), RandomWalk),
    # votes string sugar: the text after the colon is the one parameter
    ("votes", "one-no:3", ("one-no:3", "one-no", {"pid": 3}), (4, 7), list),
    ("votes", "mixed:0.3", ("mixed:0.3", "mixed", {"no_probability": 0.3}), (4, 7), list),
    ("votes", ("p2", "one-no:2"), ("p2", "one-no", {"pid": 2}), (4, 7), list),
    # (label, name) and (label, None): another label for the same thing
    ("delays", ("net", "lognormal"), ("net", "lognormal", {}), (7,), LognormalDelay),
    ("delays", ("unit", None), ("unit", "fixed", {}), (7,), FixedDelay),
    ("faults", ("ff", None), ("ff", "failure-free", {}), (), FaultPlan),
    ("faults", ("c", "crash"), ("c", "crash", {}), (), FaultPlan),
    ("workloads", ("hot", "hotspot"), ("hot", "hotspot", {}), (4, 7), list),
    ("schedules", ("rw", "random-walk"), ("rw", "random-walk", {}), (7,), RandomWalk),
    # (label, name, params)
    ("delays", ("u", "uniform", {"lo": 0.2, "hi": 1.0}),
     ("u", "uniform", {"lo": 0.2, "hi": 1.0}), (7,), UniformDelay),
    ("faults", ("c2", "crash", {"pid": 2, "at": 0.5}),
     ("c2", "crash", {"pid": 2, "at": 0.5}), (), FaultPlan),
    ("votes", ("p2", "one-no", {"pid": 2}), ("p2", "one-no", {"pid": 2}), (4, 7), list),
    ("votes", ("alt0", "test-alternating", {"start": 0}),
     ("alt0", "test-alternating", {"start": 0}), (4, 7), list),
    ("workloads", ("w", "uniform", {"transactions": 4}),
     ("w", "uniform", {"transactions": 4}), (4, 7), list),
    ("schedules", ("rw", "random-walk", {"crash_prob": 0.1}),
     ("rw", "random-walk", {"crash_prob": 0.1}), (7,), RandomWalk),
    # literal data: a registered name like any other
    ("faults", PLAN, (PLAN.description, "plan", {"plan": PLAN}), (), FaultPlan),
    ("faults", BARE_PLAN, ("fault-plan", "plan", {"plan": BARE_PLAN}), (), FaultPlan),
    ("faults", ("late", PLAN), ("late", "plan", {"plan": PLAN}), (), FaultPlan),
    ("votes", ("lit", [1, 1, 0, 1]), ("lit", "fixed", {"values": (1, 1, 0, 1)}), (4, 7), list),
    ("workloads", ("bank", WORKLOAD), ("bank", "verbatim", {"transactions": TXNS}), (4, 7), tuple),
    ("workloads", ("bank", list(TXNS)), ("bank", "verbatim", {"transactions": TXNS}), (4, 7), tuple),
    # a spec instance: itself (the named_* helpers and mixed_votes return these)
    ("delays", named_delay("uniform", lo=0.5),
     ("uniform(lo=0.5)", "uniform", {"lo": 0.5}), (7,), UniformDelay),
    ("faults", named_fault("crash", at=0.5), ("crash(at=0.5)", "crash", {"at": 0.5}), (), FaultPlan),
    ("votes", mixed_votes(0.3), ("mixed(0.3)", "mixed", {"no_probability": 0.3}), (4, 7), list),
    ("workloads", named_workload("hotspot", label="hot", transactions=3),
     ("hot", "hotspot", {"transactions": 3}), (4, 7), list),
    ("schedules", ScheduleSpec("cp", "crash-point", (("point", 2),)),
     ("cp", "crash-point", {"point": 2}), (7,), object),
]


def shape(spec):
    return spec.label, spec.name, dict(spec.params)


class TestAcceptedForms:
    @pytest.mark.parametrize("axis,value,expected,args,built", ACCEPTED)
    def test_form_coerces_to_label_name_params_and_builds(
        self, axis, value, expected, args, built
    ):
        spec = coerce_axis(axis, value)
        assert shape(spec) == expected
        assert isinstance(spec.build(*args), built)
        # coercion is idempotent: a spec is an axis value, and it is itself
        assert coerce_axis(axis, spec) is spec

    @pytest.mark.parametrize("axis,value,expected,args,built", ACCEPTED)
    def test_every_form_pickles_to_an_equal_spec(self, axis, value, expected, args, built):
        spec = coerce_axis(axis, value)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and type(clone) is type(spec)
        assert shape(clone)[:2] == expected[:2]

    @pytest.mark.parametrize("axis", ["workloads", "schedules"])
    def test_none_means_the_axis_is_unused(self, axis):
        assert coerce_axis(axis, None) is None

    def test_params_are_canonical_whatever_the_dict_order(self):
        a = coerce_axis("delays", ("u", "uniform", {"lo": 0.2, "hi": 1.0}))
        b = coerce_axis("delays", ("u", "uniform", {"hi": 1.0, "lo": 0.2}))
        assert a == b and a.params == (("hi", 1.0), ("lo", 0.2))

    def test_literal_plan_is_handed_to_the_trial_as_is(self):
        assert coerce_axis("faults", ("late", PLAN)).build() is PLAN

    def test_built_values(self):
        assert coerce_axis("votes", "one-no:3").build(4, 0) == [1, 1, 0, 1]
        assert coerce_axis("votes", "all-no").build(3, 0) == [0, 0, 0]
        assert coerce_axis("votes", ("alt0", "test-alternating", {"start": 0})).build(
            4, 0
        ) == [0, 1, 0, 1]
        model = coerce_axis("delays", ("u", "uniform", {"lo": 0.2, "hi": 0.9})).build(7)
        assert (model.lo, model.hi) == (0.2, 0.9)
        assert coerce_axis("faults", ("c2", "crash", {"pid": 2})).build().crashes == {2: 5.0}

    def test_default_labels_of_the_named_helpers_are_unchanged(self):
        assert named_delay("uniform").label == "uniform"
        assert named_delay("uniform", lo=0.5, hi=1.0).label == "uniform(hi=1.0,lo=0.5)"
        assert named_fault("crash", at=0.5).label == "crash(at=0.5)"
        assert named_workload("uniform", transactions=5).label == "uniform(transactions=5)"


#: axis, value, fragments the message must contain (besides the axis name)
REJECTED = [
    # callables: the forms this grammar replaced
    *[(axis, ("old", a_factory), ["'old'", "register_"]) for axis in AXES],
    *[(axis, a_factory, ["register_"]) for axis in AXES],
    ("delays", ("old", lambda seed: FixedDelay(1.0)), ["'old'", "register_delay_model"]),
    ("faults", ("old", FaultPlan.failure_free), ["'old'", "register_fault_plan"]),
    ("votes", ("old", lambda n: [1] * n), ["'old'", "register_vote_pattern"]),
    ("workloads", ("old", lambda n, seed: []), ["'old'", "register_workload"]),
    ("schedules", ("old", lambda seed: None),
     ["'old'", "register_schedule_strategy(name, builder)"]),
    # delay-model instances
    ("delays", UniformDelay(0.2, 1.0), ["register_delay_model"]),
    ("delays", ("inst", FixedDelay(1.0)), ["'inst'", "register_delay_model"]),
    # wrong tuple length
    *[(axis, ("only-a-label",), ["(label, name)"]) for axis in AXES],
    *[(axis, ("a", "b", {}, "extra"), ["(label, name, params)"]) for axis in AXES],
    # non-dict params: the same error on every axis
    *[(axis, ("lbl", "x", 4), ["'lbl'", "params_dict", "4"]) for axis in AXES],
    *[(axis, ("lbl", "x", [("k", 1)]), ["'lbl'", "params_dict"]) for axis in AXES],
    # a literal where the name belongs in a 3-tuple
    ("faults", ("lbl", PLAN, {}), ["'lbl'"]),
    # unknown names: every axis resolves its names where the grid is built
    ("delays", "no-such", ["unknown delay model 'no-such'", "known: fixed"]),
    ("faults", ("f", "no-such"), ["'f'", "unknown fault plan 'no-such'"]),
    ("votes", "most-yes", ["unknown vote pattern 'most-yes'", "known: all-no, all-yes"]),
    ("votes", "most-yes:3", ["unknown vote pattern 'most-yes:3'"]),
    ("workloads", ("w", "no-such", {}), ["'w'", "unknown workload 'no-such'"]),
    ("schedules", "no-such-strategy",
     ["schedules['no-such-strategy']: unknown schedule strategy", "known: crash-point"]),
    # unknown / missing parameters, named
    ("delays", ("u", "uniform", {"low": 0.2}), ["'u'", "'low'"]),
    ("delays", ("u", "uniform", {"seed": 3}), ["'u'", "'seed'"]),
    ("faults", ("c", "crash", {"when": 1.0}), ["'c'", "'when'"]),
    ("votes", ("v", "one-no", {"pid": 1, "who": 1}), ["'v'", "'who'"]),
    ("votes", "one-no", ["'one-no'", "'pid'"]),
    ("votes", "fixed", ["'values'"]),
    ("workloads", ("w", "verbatim", {"transactions": [], "txns": []}), ["'w'", "'txns'"]),
    ("workloads", ("w", "uniform", {"participants_per_tx": 2}), ["'w'", "'participants_per_tx'"]),
    ("workloads", ("w", "hotspot", {"hot_key": 3}), ["'w'", "'hot_key'"]),
    ("workloads", ("w", "bank-transfer", {"accounts": 5}), ["'w'", "'accounts'"]),
    ("schedules", ("rw", "random-walk", {"defer_probability": 0.3}),
     ["'rw'", "schedule strategy 'random-walk'", "'defer_probability'"]),
    ("schedules", ("dr", "delay-reorder", {"seed": 3}), ["'dr'", "'seed'"]),
    ("schedules", ("cp", "crash-point", {"points": 2}), ["'cp'", "'points'"]),
    # malformed sugar
    ("votes", "one-no:zero", ["malformed 'one-no:zero'"]),
    ("votes", "mixed:1.5", ["malformed 'mixed:1.5'", "[0, 1]"]),
    # values that are nothing at all
    *[(axis, 42, ["42"]) for axis in AXES],
    ("workloads", ("lbl", None), ["'lbl'"]),
    ("schedules", ("lbl", None), ["'lbl'"]),
    ("delays", ("lbl", [1, 2]), ["'lbl'"]),
    ("faults", named_delay("uniform"), ["DelaySpec"]),
    # a literal without a label
    ("votes", [1, 1, 0], ["[1, 1, 0]", "labelled"]),
]


class TestRejectedForms:
    @pytest.mark.parametrize("axis,value,fragments", REJECTED)
    def test_rejected_with_a_configuration_error_naming_the_axis(
        self, axis, value, fragments
    ):
        with pytest.raises(ConfigurationError) as err:
            coerce_axis(axis, value)
        message = str(err.value)
        assert axis in message
        for fragment in fragments:
            assert fragment in message, message

    @pytest.mark.parametrize("axis", AXES)
    def test_gridspec_rejects_a_callable_at_construction(self, axis):
        with pytest.raises(ConfigurationError, match=axis):
            GridSpec(protocols=["2PC"], **{axis: [("old", a_factory)]})

    def test_gridspec_rejects_an_unknown_strategy_at_construction(self):
        """Fails at the parent: the grid built, and ``run_sweep`` returned one
        captured ``TrialResult.error`` per trial instead."""
        with pytest.raises(ConfigurationError, match=r"schedules\['no-such-strategy'\]"):
            GridSpec(protocols=["2PC"], schedules=["no-such-strategy"])

    def test_gridspec_rejects_an_unknown_strategy_parameter_at_construction(self):
        """Fails at the parent as above: a misspelt parameter was one
        ``TypeError`` captured per trial."""
        with pytest.raises(ConfigurationError, match=r"schedules\['rw'\].*'defer_p'"):
            GridSpec(protocols=["2PC"], schedules=[("rw", "random-walk", {"defer_p": 0.3})])

    def test_gridspec_rejects_a_model_instance_at_construction(self):
        with pytest.raises(ConfigurationError, match="delays"):
            GridSpec(protocols=["2PC"], delays=[UniformDelay(0.2, 1.0)])

    @pytest.mark.parametrize("key", ["delay", "fault", "votes", "workload", "schedule"])
    def test_make_cases_rejects_a_callable(self, key):
        with pytest.raises(ConfigurationError, match=key):
            make_cases([{"protocol": "2PC", key: ("old", a_factory)}])

    def test_explore_rejects_a_callable(self):
        from repro.explore import explore

        with pytest.raises(ConfigurationError, match="delays"):
            explore("2PC", n=4, f=1, budget=2, delay=("old", a_factory))
        with pytest.raises(ConfigurationError, match="workloads"):
            explore("2PC", n=4, f=1, budget=2, workload=("old", a_factory))


class TestTheThreeDefects:
    """Each of these constructed fine at eb12e5a and went wrong later."""

    DUPLICATES = {
        "delays": [("net", "uniform", {"lo": 0.2}), ("net", "lognormal", {})],
        "faults": [("f", "crash"), ("f", "rejoin")],
        "votes": [("v", "all-yes"), ("v", "all-no")],
        "workloads": [("w", "uniform"), ("w", "hotspot")],
        "schedules": [("s", "random-walk"), ("s", "delay-reorder")],
        "protocols": ["2PC", ("2PC", "INBAC")],
    }

    @pytest.mark.parametrize("axis", sorted(DUPLICATES))
    def test_duplicate_labels_are_rejected_on_every_labelled_axis(self, axis):
        # they used to fold two models' trials into one row, on identical seeds
        kwargs = {"protocols": ["2PC"], axis: self.DUPLICATES[axis]}
        with pytest.raises(ConfigurationError) as err:
            GridSpec(**kwargs)
        label = self.DUPLICATES[axis][0]
        label = label if isinstance(label, str) else label[0]
        assert axis in str(err.value) and repr(label) in str(err.value)

    def test_two_unused_slots_on_one_axis_are_duplicates_too(self):
        with pytest.raises(ConfigurationError, match="workloads"):
            GridSpec(protocols=["2PC"], workloads=[None, None])

    def test_unknown_builder_parameter_is_found_per_grid_not_per_trial(self):
        # it used to construct, then fail every trial with a captured TypeError
        with pytest.raises(ConfigurationError) as err:
            GridSpec(protocols=["2PC"], delays=[("u", "uniform", {"low": 0.2})])
        assert "delays['u']" in str(err.value) and "'low'" in str(err.value)

    def test_unknown_workload_parameter_is_found_per_grid_not_per_trial(self):
        """The workload builders used to take ``**params``, so the grid built
        and every trial failed with a captured TypeError."""
        with pytest.raises(ConfigurationError) as err:
            GridSpec(
                protocols=["2PC"],
                systems=[(3, 1)],
                workloads=[("w", "uniform", {"participants_per_tx": 2})],
            )
        assert "workloads['w']" in str(err.value)
        assert "'participants_per_tx'" in str(err.value)

    @pytest.mark.parametrize(
        "name,generator",
        [
            ("uniform", uniform_workload),
            ("hotspot", hotspot_workload),
            ("bank-transfer", bank_transfer_workload),
        ],
    )
    def test_workload_builders_keep_their_generators_defaults(self, name, generator):
        # a builder spells its generator's keywords out; a default that
        # drifted from the generator's would move the bytes of every grid
        builder = inspect.signature(WORKLOADS._entries[name][0]).parameters
        own = inspect.signature(generator).parameters
        shared = set(builder) - {"n", "seed", "transactions", "participants_per_txn"}
        assert shared <= set(own)
        assert {k: builder[k].default for k in shared} == {k: own[k].default for k in shared}

    def test_non_dict_params_on_delays_is_a_configuration_error(self):
        # it used to be a bare TypeError: 'int' object is not iterable
        with pytest.raises(ConfigurationError, match="delays"):
            GridSpec(protocols=["2PC"], delays=[("u", "uniform", 4)])

    def test_arity_against_n_is_still_a_captured_per_trial_error(self):
        # parameter *names* bind per grid; whether a vote vector fits n is
        # only known per trial
        grid = GridSpec(
            protocols=["2PC"], systems=[(4, 1), (5, 2)], votes=[("four", [1, 1, 0, 1])]
        )
        fits, short = run_sweep(grid, workers=1).trials
        assert fits.error is None
        assert "fixed vote vector has 4 entries but n=5" in short.error


class TestBuiltPerTrial:
    def test_literal_plan_rule_counter_is_fresh_in_every_trial_of_a_cell(self):
        # the plan object is shared by the cell's trials (no per-trial copy);
        # the scheduler zeroes nth_match counters before each execution
        rule = DelayRule(nth_match=0, delay=50.0)
        plan = FaultPlan(delay_rules=[rule], description="first msg late")
        grid = GridSpec(
            protocols=["2PC"], systems=[(4, 1)], faults=[("late-first", plan)],
            seeds=range(4),
        )
        trials = grid.trials()
        assert all(t.fault.build() is plan for t in trials)
        results = [run_trial(t) for t in trials]
        assert rule._matches_seen > 1  # the one shared rule did the counting
        # a spent counter would let the first vote through and 2PC commit;
        # every trial instead sees it late, times out and aborts
        assert [r.all_committed for r in results] == [False] * 4
        assert {r.execution_class for r in results} == {"network-failure"}

    def test_votes_are_built_per_trial_not_per_cell(self):
        grid = GridSpec(
            protocols=["2PC"], systems=[(6, 2)], votes=["mixed:0.5"], seeds=range(8)
        )
        built = [tuple(t.votes.build(t.n, t.derived_seed)) for t in grid.trials()]
        assert len(set(built)) > 1
        sweep = run_sweep(grid, workers=1)
        assert not sweep.errors()
        assert [t.all_committed for t in sweep.trials] == [all(v) for v in built]

    def test_cells_differing_only_in_votes_do_not_share_a_vote_vector(self):
        grid = GridSpec(
            protocols=["2PC"], systems=[(4, 1)], votes=["all-yes", "all-no", "one-no:2"]
        )
        yes, no, one = run_sweep(grid, workers=1).trials
        assert yes.all_committed and not no.all_committed and not one.all_committed

    def test_name_missing_in_the_building_process_is_a_named_trial_error(self):
        # what a spawn worker sees when the registration ran only in the
        # parent's __main__: the spec unpickles, the name does not resolve
        register_delay_model("test-ephemeral", lambda seed: FixedDelay(1.0))
        trial = make_cases([{"protocol": "2PC", "delay": "test-ephemeral"}])[0]
        del DELAYS._entries["test-ephemeral"]
        with pytest.raises(ConfigurationError, match="not registered in this process"):
            trial.delay.build(0)
        assert "not registered in this process" in run_trial(trial).error


class TestSpawnPool:
    def test_names_a_literal_plan_and_a_literal_vote_vector_cross_the_pool(self):
        grid = GridSpec(
            protocols=["2PC", "INBAC"],
            systems=[(5, 2)],
            delays=[None, ("u", "uniform", {"lo": 0.2, "hi": 1.0})],
            faults=[None, ("crash P1", FaultPlan.crash(1, at=0.5)),
                    ("late", FaultPlan(delay_rules=[DelayRule(src=2, nth_match=1, delay=9.0)]))],
            votes=["all-yes", ("p3-no", [1, 1, 0, 1, 1]), "mixed:0.4"],
            seeds=range(2),
        )
        serial = run_sweep(grid, workers=1)
        spawned = run_sweep(grid, workers=2, start_method="spawn")
        assert spawned.meta["start_method"] == "spawn"
        assert not serial.errors()
        assert spawned.fingerprint() == serial.fingerprint()
        assert spawned.aggregate_fingerprint() == serial.aggregate_fingerprint()


#: fingerprint(), aggregate_fingerprint() of the grids whose axes were spelt
#: with callables at eb12e5a, recorded there before they were ported to names
PARENT = {
    "test_exp_sweep.stochastic_grid": (
        "3c53b164f2dd89f99d140f99aa67856f02291ce0507bd0080467f87f6c06b028",
        "1202c9750db38dd4c58f48b4eec5826dc6605eb70b44320e9be42931b39367c7",
    ),
    # test_exp_aggregate, test_exp_chunk_fold and test_exp_trace_levels share one grid
    "stochastic_grid(3 seeds)": (
        "d2759ed6429f4b3f4379dd8a1395d0562d0018dc7c01f710041bedec9fb34bf4",
        "8210361d17dd05d89e5a4ef7d69a9d65972cd9475b3388447f55fb370a965040",
    ),
    "test_exp_chunk_fold.cell_grid": (
        "7207b79647f59a50809bdd6458d2747aab8b5061afb402d5660f5d9eb48bb199",
        "8f3f12ae363b0f6d57914c99f21f75f371d4032153da810b7b297ca602e6d36f",
    ),
    "test_exp_sweep.one_no_grid": (
        "bae182901fa8d8bdb3b0d903dc1ff3fa09fb0667c66482a5e84f33c7512bcb35",
        "ac951425dfc874a1336befa4f981fa4d8de258b7867cac71c1a3fbf78903ed39",
    ),
    "examples.aggregate_sweep.grid(40)": (
        "a922e315d640eee06796b8e97dd58448c88459c87a8d0f8c9c5fb5f11024c323",
        "b2a96a3a41b5640f3f18806e2f197dc7fc01797d382d2a7dbe1463d85228cf0f",
    ),
}


#: derived seeds of test_exp_sweep.stochastic_grid()'s first six trials, ditto
PARENT_SEEDS = [
    13896791072658749082, 11758299882122376811, 15509728808487231589,
    13887243521696658933, 13172089726120104961, 16998311564207097060,
]


def _example_grid(seeds):
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "examples", "aggregate_sweep.py")
    spec = importlib.util.spec_from_file_location("aggregate_sweep_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.grid(seeds)


def _ported_grids():
    import test_exp_aggregate
    import test_exp_chunk_fold
    import test_exp_sweep
    import test_exp_trace_levels

    shared = "stochastic_grid(3 seeds)"
    return [
        ("test_exp_sweep.stochastic_grid", test_exp_sweep.stochastic_grid()),
        (shared, test_exp_aggregate.stochastic_grid()),
        (shared, test_exp_chunk_fold.stochastic_grid()),
        (shared, test_exp_trace_levels.stochastic_grid()),
        ("test_exp_chunk_fold.cell_grid", GridSpec(
            protocols=["2PC"], systems=[(5, 2)],
            delays=[("uniform", "uniform", {"lo": 0.2, "hi": 1.0})], seeds=range(9),
        )),
        ("test_exp_sweep.one_no_grid", GridSpec(
            protocols=["INBAC", "2PC", "PaxosCommit", "3PC"],
            systems=[(5, 2)],
            faults=[("late tuples", FaultPlan(delay_rules=[
                DelayRule(predicate=lambda p: isinstance(p, tuple), delay=30.0)]))],
            votes=[("one-no", "one-no:1")],
        )),
        ("examples.aggregate_sweep.grid(40)", _example_grid(40)),
    ]


class TestThePortMovedNoByte:
    def test_ported_grids_reproduce_the_fingerprints_recorded_at_the_parent(self):
        for name, grid in _ported_grids():
            sweep = run_sweep(grid, workers=1)
            assert not sweep.errors(), name
            assert (sweep.fingerprint(), sweep.aggregate_fingerprint()) == PARENT[name], name

    def test_labels_and_derived_seeds_of_a_ported_grid(self):
        # the label is the coordinate: keeping it keeps every derived seed
        import test_exp_sweep

        trials = test_exp_sweep.stochastic_grid().trials()
        assert [list(t.key()) for t in trials[:3]] == [
            ["INBAC", 4, 1, "U=1", "failure-free", "all-yes", "-"],
            ["INBAC", 4, 1, "U=1", "failure-free", "all-yes", "-"],
            ["INBAC", 4, 1, "U=1", "crash P1", "all-yes", "-"],
        ]
        uniform = [t for t in trials if t.delay.label == "uniform"]
        assert uniform[0].key() == ("INBAC", 4, 1, "uniform", "failure-free", "all-yes", "-")
        assert [t.derived_seed for t in trials[:6]] == PARENT_SEEDS
