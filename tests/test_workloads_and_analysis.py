"""Tests for the workload generators and the analysis helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    render_table,
)
from repro.analysis.formulas import (
    one_delay_message_lower_bound,
    paper_table4,
    paper_table5_delays,
    paper_table5_messages,
    paper_table5_problem,
    two_delay_message_lower_bound,
)
from repro.errors import ConfigurationError
from repro.workloads import (
    all_yes,
    bank_transfer_workload,
    hotspot_workload,
    one_no,
    random_votes,
    uniform_workload,
)


class TestVoteGenerators:
    def test_all_yes(self):
        assert all_yes(4) == [1, 1, 1, 1]

    def test_one_no(self):
        assert one_no(4, which=3) == [1, 1, 0, 1]
        with pytest.raises(ConfigurationError):
            one_no(4, which=5)

    def test_random_votes_reproducible_and_bounded(self):
        a = random_votes(50, no_probability=0.3, seed=9)
        b = random_votes(50, no_probability=0.3, seed=9)
        assert a == b
        assert set(a) <= {0, 1}
        assert 0 < sum(1 for v in a if v == 0) < 50

    def test_random_votes_validation(self):
        with pytest.raises(ConfigurationError):
            random_votes(5, no_probability=1.5)


class TestTransactionWorkloads:
    def test_uniform_workload_shape(self):
        wl = uniform_workload(10, num_partitions=5, participants_per_txn=3, seed=1)
        assert len(wl) == 10
        assert all(len(t.participants()) == 3 for t in wl.transactions)
        # submit times are spaced by the inter-arrival gap
        assert wl.transactions[1].submit_time > wl.transactions[0].submit_time

    def test_uniform_workload_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_workload(5, num_partitions=2, participants_per_txn=3)

    def test_uniform_workload_deterministic(self):
        a = uniform_workload(5, num_partitions=4, seed=3)
        b = uniform_workload(5, num_partitions=4, seed=3)
        assert [t.write_set() for t in a.transactions] == [
            t.write_set() for t in b.transactions
        ]

    def test_hotspot_workload_concentrates_on_hot_keys(self):
        wl = hotspot_workload(
            50, num_partitions=4, hot_keys=1, hot_probability=0.9, seed=2
        )
        hot_writes = sum(
            1
            for t in wl.transactions
            for key in t.write_set()
            if key.endswith(":k0")
        )
        total_writes = sum(len(t.write_set()) for t in wl.transactions)
        assert hot_writes / total_writes > 0.6

    def test_bank_transfer_workload_spans_two_partitions(self):
        wl = bank_transfer_workload(12, num_partitions=5, seed=4)
        assert all(len(t.participants()) == 2 for t in wl.transactions)
        with pytest.raises(ConfigurationError):
            bank_transfer_workload(3, num_partitions=1)


class TestPaperFormulas:
    def test_table5_formulas_at_reference_point(self):
        n, f = 6, 2
        assert paper_table5_messages("1NBAC", n, f) == 30
        assert paper_table5_messages("(n-1+f)NBAC", n, f) == 7
        assert paper_table5_messages("INBAC", n, f) == 24
        assert paper_table5_messages("2PC", n, f) == 10
        assert paper_table5_messages("PaxosCommit", n, f) == 22
        assert paper_table5_messages("FasterPaxosCommit", n, f) == 30
        # the printed delays, as ints: the paper counts (n-1+f)NBAC's chain
        # from its first send, 2f + n - 1
        delays = {
            "1NBAC": 1,
            "(n-1+f)NBAC": 9,
            "INBAC": 2,
            "2PC": 2,
            "PaxosCommit": 3,
            "FasterPaxosCommit": 2,
        }
        for protocol, printed in delays.items():
            measured = paper_table5_delays(protocol, n, f)
            assert (type(measured), measured) == (int, printed), protocol
        assert paper_table5_delays("(n-1+f)NBAC", 5, 1) == 6
        assert paper_table5_delays("(n-1+f)NBAC", 8, 3) == 13

    def test_table5_problem_row(self):
        assert paper_table5_problem("2PC") == "Blocking"
        assert paper_table5_problem("INBAC") == "Indulgent"
        assert paper_table5_problem("1NBAC") == "Sync. NBAC"
        assert paper_table5_problem("(n-1+f)NBAC") == "Sync. NBAC"
        assert paper_table5_problem("PaxosCommit") == "Indulgent"
        assert paper_table5_problem("FasterPaxosCommit") == "Indulgent"

    def test_special_case_f1_inbac_vs_2pc(self):
        n = 9
        assert paper_table5_messages("INBAC", n, 1) == 2 * n
        assert paper_table5_messages("2PC", n, 1) == 2 * n - 2

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            paper_table5_messages("INBAC", 3, 3)

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda: paper_table5_delays("3PC", 5, 2),
            lambda: paper_table5_messages("inbac", 5, 2),
            lambda: paper_table5_problem("3PC"),
        ],
        ids=["delays", "messages", "problem"],
    )
    def test_a_protocol_outside_table5_is_a_configuration_error(self, lookup):
        with pytest.raises(ConfigurationError, match="not a Table 5 column.*FasterPaxosCommit"):
            lookup()

    def test_table4_and_theorem5_bounds(self):
        table = paper_table4(8, 3)
        assert table["indulgent atomic commit (this paper)"]["messages"] == 17
        assert table["synchronous NBAC (this paper)"]["messages"] == 10
        assert two_delay_message_lower_bound(8, 3) == 48
        assert one_delay_message_lower_bound(8, 3) == 56


class TestTableBuilders:
    def test_build_table1_has_27_rows_and_all_bounds_met(self):
        rows = build_table1(5, 2)
        assert len(rows) == 27
        measured = [r for r in rows if "meets_message_bound" in r]
        assert measured and all(r["meets_message_bound"] == "yes" for r in measured)
        delays = [r for r in rows if "meets_delay_bound" in r]
        assert delays and all(r["meets_delay_bound"] == "yes" for r in delays)

    def test_build_table2_all_delay_optimal(self):
        rows = build_table2(5, 2)
        assert len(rows) == 4
        assert all(r["optimal"] == "yes" for r in rows)

    def test_build_table3_all_message_optimal(self):
        rows = build_table3(5, 2)
        assert len(rows) == 6
        assert all(r["optimal"] == "yes" for r in rows)

    def test_build_table4_contains_both_problems(self):
        rows = build_table4(5, 2)
        assert rows[0]["problem"] == "indulgent atomic commit"
        assert rows[0]["measured_delays"] == 2
        assert rows[1]["measured_messages"] == 6  # n - 1 + f

    def test_build_table5_message_counts_match_paper_exactly(self):
        rows = build_table5(6, 2)
        assert len(rows) == 6
        assert all(r["measured_messages"] == r["paper_messages"] for r in rows)
        # delays match for all but the chain protocol's off-by-one convention
        delay_mismatches = {
            r["protocol"] for r in rows if r["measured_delays"] != r["paper_delays"]
        }
        assert delay_mismatches <= {"(n-1+f)NBAC"}


class TestRendering:
    def test_render_table_alignment_and_missing_values(self):
        text = render_table(
            [{"a": 1, "b": None}, {"a": 22, "b": "x"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in lines[3]  # None rendered as dash
        assert "22" in lines[4]

    def test_render_table_empty(self):
        assert "(empty)" in render_table([], title="nothing")

    def test_render_table_float_formatting(self):
        text = render_table([{"x": 2.0, "y": 2.345}])
        assert "2 " in text or text.rstrip().endswith("2") or "2  " in text
        assert "2.35" in text or "2.34" in text

    def test_render_table_column_order_follows_columns(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b", "c", "a"])
        header, rule, row = text.splitlines()
        assert header.split() == ["b", "c", "a"]
        assert row.split() == ["2", "-", "1"]  # the absent column renders as a dash
