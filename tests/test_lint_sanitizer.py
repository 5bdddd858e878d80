"""The runtime determinism sanitizer (``repro.sanitizer``).

The wrappers must (a) stay invisible on the deterministic code paths the
repo actually runs — clean traces and accumulators produce the same bytes
with the sanitizer armed — and (b) turn latent order-dependence into a loud
:class:`~repro.errors.DeterminismError`: payloads carrying bare sets,
fingerprints that change under dict-insertion-order perturbation, and
aggregate rows that depend on digest fold order.
"""

from __future__ import annotations

import pytest

from repro.errors import DeterminismError
from repro.exp.results import CellAccumulator
from repro import sanitizer
from repro.sim import FaultPlan, Simulation
from repro.sim.trace import CounterTrace, Trace


@pytest.fixture(autouse=True)
def _pristine_wrappers():
    """Every test starts and ends with the wrappers uninstalled."""
    sanitizer.uninstall()
    yield
    sanitizer.uninstall()


def _accumulator(last_counts):
    acc = CellAccumulator(
        key=("2PC", 3, 1, "uniform", "none", "all-yes", "-"),
        first_index=0,
        execution_class="failure-free",
    )
    acc.count = sum(last_counts.values())
    acc.n_last = acc.count
    acc.last_counts = dict(last_counts)
    return acc


class TestInstall:
    def test_install_is_idempotent_and_uninstall_restores(self):
        original = Trace.fingerprint
        sanitizer.install()
        wrapped = Trace.fingerprint
        assert wrapped is not original
        sanitizer.install()  # second install must not re-wrap
        assert Trace.fingerprint is wrapped
        assert sanitizer.is_installed()
        sanitizer.uninstall()
        assert Trace.fingerprint is original
        assert not sanitizer.is_installed()



class TestPayloadRejection:
    def test_full_trace_rejects_frozenset_payload(self):
        sanitizer.install()
        trace = Trace(n=3, f=1, protocol="X")
        with pytest.raises(DeterminismError, match="unordered frozenset"):
            trace.record_send(1, 1, 2, ("ACK", frozenset({1, 2})), 0.0, 1.0, True)

    def test_counter_trace_rejects_nested_set(self):
        sanitizer.install()
        trace = CounterTrace(n=3, f=1, protocol="X")
        with pytest.raises(DeterminismError, match="unordered set"):
            trace.record_send(1, 1, 2, ("C", ({1, 2},)), 0.0, 1.0, True)

    def test_sorted_tuple_payload_passes(self):
        sanitizer.install()
        trace = Trace(n=3, f=1, protocol="X")
        before = sanitizer.observations["record_send"]
        trace.record_send(1, 1, 2, ("ACK", (1, 2)), 0.0, 1.0, True)
        assert sanitizer.observations["record_send"] == before + 1
        assert len(trace.messages) == 1


class TestFingerprintPerturbation:
    def test_order_dependent_canonical_is_detected(self):
        class BadTrace(Trace):
            def _canonical(self):
                # depends on metadata insertion order — the defect class
                # the perturbation check exists to catch
                return {"first": next(iter(self.metadata), None)}

        sanitizer.install()
        trace = BadTrace(n=3, f=1, protocol="X")
        trace.metadata["a"] = 1
        trace.metadata["b"] = 2
        with pytest.raises(DeterminismError, match="insertion order"):
            trace.fingerprint()

    def test_clean_execution_fingerprints_unchanged(self):
        from repro.protocols import TwoPhaseCommit

        def run():
            sim = Simulation(n=3, f=1, process_class=TwoPhaseCommit, seed=7)
            return sim.run(votes=[1, 1, 1]).trace.fingerprint()

        bare = run()
        sanitizer.install()
        sanitized = run()
        assert sanitized == bare
        assert sanitizer.observations["fingerprint"] > 0


class TestRowPerturbation:
    def test_order_dependent_digest_reduction_is_detected(self, monkeypatch):
        # simulate the pre-PR-3 defect: a float reduction that walks the
        # digest in insertion order instead of sorted(counts)
        monkeypatch.setattr(
            "repro.exp.results.digest_sum",
            lambda counts: next(iter(counts), 0.0),
        )
        sanitizer.install()
        acc = _accumulator({1.0: 1, 2.0: 1})
        with pytest.raises(DeterminismError, match="mean_delays"):
            acc.row()

    def test_clean_accumulator_row_unchanged(self):
        bare = _accumulator({1.0: 1, 2.0: 1}).row()
        sanitizer.install()
        sanitized = _accumulator({1.0: 1, 2.0: 1}).row()
        assert sanitized == bare
        assert sanitizer.observations["row"] > 0


class TestSanitizedSweep:
    def test_reference_sweep_runs_clean_under_wrappers(self):
        from tools.lint.hashseed import run_sanitized_sweep

        out = run_sanitized_sweep()
        assert set(out["fingerprints"]) == {
            "serial:aggregate",
            "serial:trials",
            "serial:replay",
        }
        assert out["observations"]["record_send"] > 0
        # run_sanitized_sweep restores the pristine state it found
        assert not sanitizer.is_installed()

    def test_help_path_execution_is_sanitizer_clean(self):
        """INBAC's ASK_HELP/HELPED path sends collection payloads; with the
        sanitizer armed the run must complete without a DeterminismError."""
        from repro.protocols import INBAC

        sanitizer.install()
        sim = Simulation(
            n=5,
            f=2,
            process_class=INBAC,
            fault_plan=FaultPlan.crashes_at({1: 0.0, 2: 0.0}),
            seed=3,
        )
        result = sim.run(votes=[1] * 5)
        assert result.trace.decisions
