"""A delay is drawn when a message needs one — once, and from one stream.

A delay model whose delays do not depend on the message offers a zero-argument
``draw()`` and defines ``delay(src, dst, payload, send_time)`` as that draw;
the scheduler calls ``draw`` once per counted message when no override rule
is installed and ``FaultPlan.transit_delay`` (hence ``delay``) otherwise.  Three
things are held here:

* the contract — ``draw()`` and ``delay(...)`` are one stream in any
  interleaving, and models keyed on the message offer no ``draw``;
* the count — *draws == counted messages*, exactly, with and without a delay
  rule (the number the per-trial cost of a jittered sweep rests on);
* reuse — two runs on one model instance consume one contiguous stream.
"""

from __future__ import annotations

import random

import pytest

from repro.exp import named_delay
from repro.protocols import INBAC, PaxosCommit, TwoPhaseCommit
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import (
    AdversarialDelay,
    FixedDelay,
    FlakyLinkDelay,
    LognormalDelay,
    UniformDelay,
)
from repro.sim.runner import Simulation

DRAWING_MODELS = {
    "fixed": lambda: FixedDelay(0.7),
    "uniform": lambda: UniformDelay(0.2, 1.0, seed=11),
    "lognormal": lambda: LognormalDelay(median=0.3, sigma=1.0, seed=11),
}

MESSAGE_KEYED_MODELS = {
    "flaky-link": lambda: FlakyLinkDelay(
        jitter=0.4, slow_pairs={(1, 2): 3.0}, seed=11
    ),
    "adversarial": lambda: AdversarialDelay(lambda src, dst, payload, at: 0.5),
}


def rng_state(model):
    rng = getattr(model, "_rng", None)
    return None if rng is None else rng.getstate()


class TestDrawContract:
    @pytest.mark.parametrize("name", sorted(DRAWING_MODELS))
    def test_draw_and_delay_are_one_stream_in_any_interleaving(self, name):
        k = 200
        by_draw, by_delay, mixed = (DRAWING_MODELS[name]() for _ in range(3))
        expected = [by_draw.draw() for _ in range(k)]
        assert [by_delay.delay(1, 2, None, 0.0) for _ in range(k)] == expected
        coin = random.Random(3)
        got = [
            mixed.draw() if coin.random() < 0.5 else mixed.delay(4, 1, ("m",), 2.5)
            for _ in range(k)
        ]
        assert got == expected  # byte-identical, not approx
        assert rng_state(by_draw) == rng_state(by_delay) == rng_state(mixed)

    @pytest.mark.parametrize("name", sorted(MESSAGE_KEYED_MODELS))
    def test_message_keyed_models_offer_no_draw_and_are_asked_per_message(self, name):
        # their delays depend on (src, dst, send_time): the scheduler must
        # hand them every counted message through transit_delay
        model = MESSAGE_KEYED_MODELS[name]()
        assert not hasattr(model, "draw")
        asked = []
        delay = model.delay
        model.delay = lambda src, dst, payload, at: (
            asked.append((src, dst)) or delay(src, dst, payload, at)
        )
        sim = Simulation(n=4, f=1, process_class=TwoPhaseCommit, delay_model=model)
        trace = sim.run([1] * 4).trace
        assert asked == [(m.src, m.dst) for m in trace.messages if m.counted]
        assert len(asked) == trace.message_count() > 0


FAULTS = {
    "failure-free": FaultPlan.failure_free,
    # one rule is enough to route every message through transit_delay; the
    # nominal delay must still be drawn for each, overridden or not
    "nth-match-rule": lambda: FaultPlan(
        delay_rules=[DelayRule(src=1, nth_match=2, delay=7.5)]
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("delay", ["uniform", "lognormal"])
@pytest.mark.parametrize("system", [(4, 1), (8, 3)], ids=["n4f1", "n8f3"])
@pytest.mark.parametrize("protocol", [TwoPhaseCommit, INBAC, PaxosCommit])
def test_draws_equal_counted_messages(protocol, system, delay, fault):
    n, f = system
    model = named_delay(delay).build(7)
    reference = named_delay(delay).build(7)
    draws = 0
    draw = model.draw

    def counting_draw():
        nonlocal draws
        draws += 1
        return draw()

    model.draw = counting_draw  # delay(...) is self.draw(): both paths count
    sim = Simulation(
        n=n,
        f=f,
        process_class=protocol,
        delay_model=model,
        fault_plan=FAULTS[fault](),
        trace_level="counters",
    )
    trace = sim.run([1] * n).trace
    messages = trace.message_count()
    assert messages > 0
    assert draws == messages  # exactly one per counted message, none for self-sends
    # ... and the RNG moved by exactly that many draws: nothing was pre-drawn
    for _ in range(messages):
        reference.draw()
    assert rng_state(model) == rng_state(reference)


def test_two_runs_on_one_model_consume_one_contiguous_stream():
    # a reused model used to resume 512 draws in (the pre-draw surplus of the
    # first run was thrown away); it now resumes where the first run stopped
    model = UniformDelay(0.2, 1.0, seed=5)
    reference = random.Random(5)
    sim = Simulation(n=4, f=1, process_class=TwoPhaseCommit, delay_model=model)
    for _ in range(2):
        trace = sim.run([1] * 4).trace
        counted = [m for m in trace.messages if m.counted]
        assert counted
        for message in sorted(counted, key=lambda m: m.msg_id):
            assert message.recv_time == message.send_time + reference.uniform(0.2, 1.0)
        assert model._rng.getstate() == reference.getstate()
