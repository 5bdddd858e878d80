"""E10 — large-scenario grids the sweep engine makes cheap.

The paper evaluates at small n; the ROADMAP pushes the reproduction towards
production scale.  This battery exercises the scenario axes that only became
tractable with :mod:`repro.exp` sweeps, all in streaming ``mode="aggregate"``
so memory stays bounded by the grid's cell count:

* **system scale** — n into the hundreds (message complexity grows with the
  paper's formulas, delays stay optimal);
* **f/n resilience ratio** — INBAC's 2fn-message backup cost vs the f-free
  2PC as the resilience fraction climbs;
* **heavy-tailed delays** — ``LognormalDelay`` axes with seed-replicated
  latency distributions (p50/p99 across hundreds of trials);
* **crash storms** — many staggered crashes right at the resilience budget;
  indulgent protocols must keep all of A/V/T.
"""

from __future__ import annotations

from _helpers import attach_rows
from repro.analysis import render_table
from repro.exp import GridSpec, named_delay, run_sweep
from repro.sim.faults import FaultPlan


def sweep_scale_grid():
    """INBAC vs 2PC vs the message-optimal protocol, n up to 200."""
    agg = run_sweep(
        GridSpec(
            protocols=["INBAC", "2PC", "(2n-2+f)NBAC"],
            systems=[(50, 5), (100, 5), (200, 5)],
            # the chain protocol's nice execution takes ~2n delay bounds, so
            # n=200 needs head-room well past the default 500
            max_time=1000,
        ),
        mode="aggregate",
    )
    assert agg.error_count == 0, agg.sample_errors
    return agg.aggregate_rows()


def test_scale_to_hundreds_of_processes(benchmark):
    rows = benchmark.pedantic(sweep_scale_grid, rounds=1, iterations=1)
    by_cell = {(r["protocol"], r["n"]): r for r in rows}
    for n in (50, 100, 200):
        # the paper's formulas keep holding at two orders of magnitude
        # beyond its own tables: 2fn for INBAC, 2n-2+f for the msg-optimal
        assert by_cell[("INBAC", n)]["mean_messages"] == 2 * 5 * n
        assert by_cell[("(2n-2+f)NBAC", n)]["mean_messages"] == 2 * n - 2 + 5
        assert by_cell[("INBAC", n)]["mean_delays"] == 2.0
        assert by_cell[("INBAC", n)]["properties"] == "AVT"
    attach_rows(benchmark, "scale_hundreds", rows)
    print()
    print(render_table(rows, title="E10 — scale grid (n up to 200, f=5)"))


def sweep_resilience_ratio():
    """f/n from 1/30 to 29/30 at fixed n: the cost of resilience."""
    agg = run_sweep(
        GridSpec(
            protocols=["INBAC", "2PC"],
            systems=[(30, f) for f in (1, 3, 7, 15, 29)],
            max_time=400,
        ),
        mode="aggregate",
    )
    assert agg.error_count == 0, agg.sample_errors
    return agg.aggregate_rows()


def test_resilience_ratio_sweep(benchmark):
    rows = benchmark.pedantic(sweep_resilience_ratio, rounds=1, iterations=1)
    inbac = sorted(
        (r for r in rows if r["protocol"] == "INBAC"), key=lambda r: r["f"]
    )
    two_pc = sorted(
        (r for r in rows if r["protocol"] == "2PC"), key=lambda r: r["f"]
    )
    # INBAC pays 2fn messages: strictly increasing in f, always 2 delays
    messages = [r["mean_messages"] for r in inbac]
    assert messages == sorted(messages) and len(set(messages)) == len(messages)
    assert all(r["mean_messages"] == 2 * r["f"] * 30 for r in inbac)
    assert all(r["mean_delays"] == 2.0 for r in inbac)
    # 2PC is blind to f: same cost at every resilience level
    assert len({r["mean_messages"] for r in two_pc}) == 1
    attach_rows(benchmark, "resilience_ratio", rows)
    print()
    print(render_table(rows, title="E10 — f/n resilience ratio sweep (n=30)"))


def sweep_lognormal_latency():
    """Seed-replicated latency distributions under heavy-tailed delays."""
    agg = run_sweep(
        GridSpec(
            protocols=["2PC", "INBAC", "PaxosCommit"],
            systems=[(8, 2)],
            delays=[named_delay("lognormal", label="lognormal", median=0.3, sigma=0.6)],
            seeds=range(200),
            max_time=400,
        ),
        mode="aggregate",
    )
    assert agg.error_count == 0, agg.sample_errors
    return agg.aggregate_rows()


def test_lognormal_delay_distributions(benchmark):
    rows = benchmark.pedantic(sweep_lognormal_latency, rounds=1, iterations=1)
    by_protocol = {r["protocol"]: r for r in rows}
    for row in rows:
        assert row["trials"] == 200
        assert row["properties"] == "AVT"
        assert row["p50_latency"] <= row["p99_latency"]
    # 2PC's chain commits faster than the bound when delays run below it;
    # its decisions stay within the 2U the synchronous analysis allows
    assert by_protocol["2PC"]["p99_latency"] <= 2.0
    # INBAC outsiders decide at their 2U timer regardless of how fast the
    # network runs, so the heavy tail never pushes p99 past the bound either
    assert by_protocol["INBAC"]["p99_latency"] <= 2.0
    attach_rows(benchmark, "lognormal_latency", rows)
    print()
    print(render_table(rows, title="E10 — lognormal delay sweep (200 seeds, n=8, f=2)"))


def crash_storm(width: int, n: int = 20):
    """``width`` staggered crashes in the first two delay bounds.

    The storm takes out the *highest* pids: the paper's protocols anchor
    their special roles (INBAC's backups, the consensus leaders) on the low
    pids, and a plan that crashes all of P1..Pf is outside what any of them
    — or the lower bounds — promise to survive.
    """
    return FaultPlan.crashes_at(
        {pid: 0.5 * (pid % 4) for pid in range(n - width + 1, n + 1)}
    )


def sweep_crash_storms():
    # f = 9 < n/2: the embedded consensus modules need a live majority to
    # terminate, so the resilience budget for indulgent protocols tops out
    # just below half the system — exactly the classic consensus bound
    agg = run_sweep(
        GridSpec(
            protocols=["INBAC", "PaxosCommit", "FasterPaxosCommit", "(2n-2+f)NBAC"],
            systems=[(20, 9)],
            faults=[
                ("storm-4", crash_storm(4)),
                ("storm-7", crash_storm(7)),
                ("storm-9", crash_storm(9)),
            ],
            seeds=[0, 1],
            max_time=400,
        ),
        mode="aggregate",
    )
    assert agg.error_count == 0, agg.sample_errors
    return agg


def test_crash_storms_at_resilience_budget(benchmark):
    agg = benchmark.pedantic(sweep_crash_storms, rounds=1, iterations=1)
    rows = agg.aggregate_rows()
    # every storm is a legitimate crash-failure execution (9 = f crashes at
    # most), so all four indulgent/synchronous protocols must keep A/V/T
    for row in rows:
        assert row["class"] == "crash-failure"
        assert row["properties"] == "AVT", row
    robustness = {r["protocol"]: r for r in agg.robustness_rows()}
    assert all(r["crash-failure"] == "AVT" for r in robustness.values())
    attach_rows(benchmark, "crash_storms", rows)
    print()
    print(render_table(rows, title="E10 — crash storms at the resilience budget (n=20, f=9)"))
