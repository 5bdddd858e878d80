"""``U`` is the unit of time: a delay model delivers within it or past it.

Every protocol arms its timers in multiples of the known delay bound
(``set_timer(2)`` waits 2U), so the bound is one constant,
:data:`repro.sim.network.U`, and nothing can move it:

* a grid or a model that asks for another bound is refused, and the
  synchronous models (``fixed``, ``uniform``, ``lognormal``) refuse any
  parameter that would draw past ``U``;
* a run is classed ``network-failure`` exactly when one of its counted
  messages took longer than ``U``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.exp import GridSpec, named_delay
from repro.explore.strategies import RandomWalk
from repro.protocols.registry import get_protocol
from repro.sim.network import U, FixedDelay, LognormalDelay, UniformDelay
from repro.sim.runner import Simulation


def test_a_grid_asking_for_another_bound_is_refused():
    with pytest.raises(ConfigurationError, match=r"delays\['U=2'\]"):
        GridSpec(systems=[(3, 1)], delays=[("U=2", "fixed", {"u": 2.0})])


@pytest.mark.parametrize(
    "build",
    [
        lambda: FixedDelay(1.5),
        lambda: UniformDelay(0.2, 1.5),
        lambda: LognormalDelay(median=1.0, sigma=0.5),
    ],
    ids=["fixed", "uniform", "lognormal"],
)
def test_a_synchronous_model_that_could_draw_past_U_is_refused(build):
    with pytest.raises(ConfigurationError):
        build()


_UNITS = st.floats(min_value=-1.0, max_value=3.0, allow_nan=False)
_SYNCHRONOUS = st.one_of(
    st.tuples(st.just("fixed"), st.fixed_dictionaries({"delay_units": _UNITS})),
    st.tuples(st.just("uniform"), st.fixed_dictionaries({"lo": _UNITS, "hi": _UNITS})),
    st.tuples(
        st.just("lognormal"),
        st.fixed_dictionaries(
            {
                "median": st.floats(min_value=1e-3, max_value=3.0),
                "sigma": st.floats(min_value=0.0, max_value=3.0),
            }
        ),
    ),
)


@given(_SYNCHRONOUS, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=80, deadline=None)
def test_every_draw_of_a_synchronous_registry_model_lies_in_0_U(case, seed):
    name, params = case
    try:
        model = named_delay(name, **params).build(seed)
    except ConfigurationError:
        return  # parameters the model refuses draw nothing
    draws = [model.draw() for _ in range(500)]
    assert all(0.0 < d <= U for d in draws), (name, params, max(draws))


def test_a_run_is_late_iff_some_counted_transit_exceeds_U():
    # sub-U links, so whether a run crosses the bound is the deferrals' doing
    disagreements = []
    for seed in range(200):
        result = Simulation(
            n=4, f=1, process_class=get_protocol("INBAC").cls, trace_level="full"
        ).run(
            [1] * 4,
            delay_model=FixedDelay(0.5),
            seed=seed,
            controller=RandomWalk(seed=seed, defer_prob=0.3, crash_prob=0.0),
        )
        late = any(
            m.recv_time - m.send_time > U for m in result.trace.messages if m.counted
        )
        labelled = result.trace.metadata["execution_class"] == "network-failure"
        if late != labelled:
            disagreements.append(seed)
    assert disagreements == []
