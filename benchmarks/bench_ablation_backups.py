"""E8 — ablation: why INBAC needs ``f`` backups and ``f`` acknowledgements.

Lemma 1 (backups) and Lemma 5 (quick acknowledgements) prove that any 2-delay
indulgent protocol must back up every vote at ``f`` processes and collect
``f`` acknowledgements — ``2fn`` messages in total.  This ablation makes the
lower bound tangible:

* it measures how many messages a (hypothetical) INBAC variant with an
  ``f - 1``-sized backup set saves on the nice path, and
* it replays the adversarial construction behind Lemma 1 against that
  weakened variant: with one backup too few, a network-failure schedule can
  show one process a complete ack while hiding it from everyone else, so the
  fast decision (commit) and the consensus-settled decision (abort) disagree.

The genuine INBAC, run under the very same schedule, stays in agreement —
which is exactly what the extra ``f``-th backup/acknowledgement buys.

Both batteries (nice-path message counts, Lemma 1 adversary replay) run as
:mod:`repro.exp` sweeps over the two protocol variants instead of hand-rolled
``Simulation`` loops.
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows
from repro.analysis import render_table
from repro.exp import GridSpec, run_sweep
from repro.protocols.base import logical_and
from repro.protocols.inbac import INBAC
from repro.sim.faults import DelayRule, FaultPlan


class WeakINBAC(INBAC):
    """INBAC with ``f - 1`` backups per vote: below the Lemma 1 requirement."""

    protocol_name = "INBAC-weak-backups"

    def backup_set(self):
        full = sorted(super().backup_set())
        return set(full[: max(1, self.f - 1)])

    def on_propose(self, value):
        # same schedule as INBAC, but votes go to the reduced backup set only
        self.val = 1 if value else 0
        self.vote = self.val
        for q in sorted(self.backup_set()):
            self.send(q, ("V", self.val))
        if 1 <= self.pid <= self.f + 1:
            self.set_timer(1)
        else:
            self.set_timer(2)
            self.phase = 1

    def _phase1_timeout_outsider(self):
        # fast-decide from however few acknowledgements cover all the votes
        self.phase = 2
        union = set()
        for _, c in self.collection1:
            union.update(c)
        all_votes = self._all_votes_from(union)
        if all_votes is not None and len(self.collection1) >= max(1, self.f - 1):
            self._record_branch("weak-fast-decide")
            self.decide_once(logical_and(all_votes.values()))
            return
        super()._phase1_timeout_outsider()


VARIANTS = [("INBAC (f backups)", INBAC), ("ablated (f-1 backups)", WeakINBAC)]


def measure_message_savings(n, f):
    sweep = run_sweep(GridSpec(protocols=VARIANTS, systems=[(n, f)]))
    assert not sweep.errors(), [t.error for t in sweep.errors()]
    rows = []
    for trial in sweep.trials:
        rows.append(
            {
                "variant": trial.protocol,
                "n": n,
                "f": f,
                "protocol_messages": trial.messages_main,
                "delays": trial.last_decision,
                "all_commit": "yes" if trial.all_committed else "no",
            }
        )
    return rows


def lemma1_adversary() -> FaultPlan:
    """The Lemma 1 style adversary (a pure network-failure schedule).

    The acknowledgements of backup ``P1`` reach only ``P5``; everything ``P5``
    says after it decides is delayed past every other decision.  No process
    crashes, so this is a legitimate network-failure execution in which an
    indulgent protocol must still solve NBAC.
    """
    rules = [DelayRule(src=1, dst=dst, after_time=1.0, delay=150.0) for dst in (2, 3, 4)]
    rules.append(DelayRule(src=5, after_time=2.0, delay=150.0))
    return FaultPlan(delay_rules=rules, description="Lemma 1 adversary")


def run_adversary_sweep(n=5, f=2):
    """Both variants under the very same Lemma 1 schedule, one sweep."""
    grid = GridSpec(
        protocols=VARIANTS,
        systems=[(n, f)],
        faults=[("Lemma 1 adversary", lemma1_adversary())],
        seeds=[2],
        max_time=500,
    )
    sweep = run_sweep(grid)
    assert not sweep.errors(), [t.error for t in sweep.errors()]
    weak = sweep.select(protocol="ablated (f-1 backups)")[0]
    full = sweep.select(protocol="INBAC (f backups)")[0]
    return weak, full


@pytest.mark.parametrize("n,f", [(5, 2), (8, 3)])
def test_ablation_backup_set_size(benchmark, n, f):
    rows = benchmark.pedantic(measure_message_savings, args=(n, f), rounds=2, iterations=1)
    full_messages = rows[0]["protocol_messages"]
    weak_messages = rows[1]["protocol_messages"]
    assert full_messages == 2 * f * n
    assert weak_messages < full_messages  # the ablation does save messages ...
    attach_rows(benchmark, f"ablation_n{n}_f{f}", rows)
    print()
    print(render_table(rows, title=f"E8 — backup-set ablation (n={n}, f={f})"))


def test_ablation_agreement_counter_example(benchmark):
    weak, full = benchmark.pedantic(run_adversary_sweep, rounds=1, iterations=1)
    # ... but it is unsafe: the Lemma 1 adversary makes the weakened variant
    # violate agreement, demonstrating that f backups/acks are necessary ...
    assert not weak.agreement, (
        "expected the weakened variant to violate agreement under the Lemma 1 "
        f"schedule, got decisions {weak.decisions}"
    )
    # ... while the genuine INBAC stays safe under the very same schedule
    assert full.agreement
    assert full.termination
    print()
    print("E8 — Lemma 1 adversary, ablated variant decisions:", weak.decisions)
    print("E8 — Lemma 1 adversary, genuine INBAC decisions:  ", full.decisions)
