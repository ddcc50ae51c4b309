"""Experiment harness: plans, engines, step accounting, and the cost model."""

import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msms import (
    CSV_HEADER,
    CostDescriptor,
    SimulationConfig,
    Strategy,
    baseline_steps,
    codec_names,
    complexity_audit,
    draw_plan,
    get_codec,
    run_comparison,
    run_simulation,
    step_cost,
    theoretical_cost,
)


def small_config(**kwargs):
    kwargs.setdefault("n_ops", 2000)
    kwargs.setdefault("per_op_probability", 0.005)
    kwargs.setdefault("seed", 13)
    return SimulationConfig(**kwargs)


class TestStepCost:
    @pytest.mark.parametrize(
        "strategy,priority,width,expected",
        [
            ("none", False, 8, 4),
            ("none", True, 8, 4),
            ("enhanced", False, 8, 4),
            ("enhanced", True, 8, 10),
            ("full", False, 8, 10),
            ("full", True, 8, 10),
            ("none", False, 5, 3),
            ("full", False, 5, 8),
            ("enhanced", True, 16, 18),
        ],
    )
    def test_per_operation_costs(self, strategy, priority, width, expected):
        assert step_cost(strategy, priority, width) == expected

    @pytest.mark.parametrize("width,expected", [(1, 1), (2, 1), (7, 4), (8, 4), (9, 5)])
    def test_baseline_rounds_up(self, width, expected):
        assert baseline_steps(width) == expected

    @given(st.integers(1, 64), st.booleans())
    def test_checked_cost_is_twice_baseline_plus_two(self, width, priority):
        b = baseline_steps(width)
        assert step_cost(Strategy.FULL, priority, width) == 2 * b + 2
        expected_enhanced = 2 * b + 2 if priority else b
        assert step_cost(Strategy.ENHANCED, priority, width) == expected_enhanced


class TestConfig:
    @pytest.mark.parametrize(
        "changes",
        [
            {"n_ops": 0},
            {"word_width": 0},
            {"word_width": 65},
            {"priority_fraction": -0.1},
            {"priority_fraction": 1.1},
            {"per_op_probability": 2.0},
            {"strategy": "paranoid"},
            {"codec": "hamming"},
            {"seed": -1},
            {"priority_mode": "alternating"},
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises((ValueError, KeyError)):
            SimulationConfig(**changes)

    def test_replaced_returns_a_new_config(self):
        cfg = small_config()
        other = cfg.replaced(strategy="full")
        assert other.strategy is Strategy.FULL
        assert cfg.strategy is Strategy.ENHANCED
        assert other.n_ops == cfg.n_ops

    def test_to_dict_round_trips_through_json(self):
        cfg = small_config()
        decoded = json.loads(json.dumps(cfg.to_dict()))
        assert SimulationConfig(**decoded) == cfg


class TestPlan:
    def test_same_seed_same_plan(self):
        a, b = draw_plan(small_config()), draw_plan(small_config())
        assert np.array_equal(a.words, b.words)
        assert np.array_equal(a.priority, b.priority)
        assert np.array_equal(a.inject, b.inject)
        assert np.array_equal(a.bit_draws, b.bit_draws)

    def test_different_seed_different_plan(self):
        a = draw_plan(small_config(seed=1))
        b = draw_plan(small_config(seed=2))
        assert not np.array_equal(a.words, b.words)

    def test_quota_mode_hits_the_exact_priority_count(self):
        cfg = small_config(n_ops=1000, priority_fraction=0.15, priority_mode="quota")
        assert int(draw_plan(cfg).priority.sum()) == 150

    def test_bits_stay_in_the_data_domain_by_default(self):
        _, records = run_simulation(small_config(per_op_probability=0.2), engine="fast")
        bits = records.error_bit[records.error_bit >= 0]
        assert bits.size > 0
        assert bits.max() < 8

    def test_check_zone_extends_the_domain_for_checked_ops(self):
        cfg = small_config(
            n_ops=30_000,
            per_op_probability=0.2,
            strategy="full",
            codec="dup",
            inject_check_zone=True,
        )
        _, records = run_simulation(cfg, engine="fast")
        # duplication stores 16 check bits at width 8: domain is 24
        assert records.error_bit.max() >= 8
        assert records.error_bit.max() < 24


class TestEngines:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("inject_check_zone", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(
        codec=st.sampled_from(codec_names()),
        word_width=st.integers(1, 64),
        priority_mode=st.sampled_from(["bernoulli", "quota"]),
        per_op_probability=st.sampled_from([0.0, 0.05, 1.0]),
        n_ops=st.integers(1, 1100),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(
        codec="parity", word_width=8, priority_mode="bernoulli", per_op_probability=0.005, n_ops=2000, seed=13
    )
    def test_fast_and_store_engines_agree_bit_for_bit(self, strategy, inject_check_zone, **sweep):
        cfg = SimulationConfig(strategy=strategy, inject_check_zone=inject_check_zone, **sweep)
        fast_report, fast_records = run_simulation(cfg, engine="fast")
        store_report, store_records = run_simulation(cfg, engine="store")
        assert fast_report.totals == store_report.totals
        a, b = io.StringIO(), io.StringIO()
        fast_records.write_csv(a)
        store_records.write_csv(b)
        # Rows, not one string: pytest's diff of two long strings takes
        # minutes, and a failing sweep would pay it for every shrink step.
        assert a.getvalue().split("\n") == b.getvalue().split("\n")

    def test_auto_uses_the_store_for_small_runs(self):
        report, _ = run_simulation(small_config(), engine="auto")
        assert report.engine == "store"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(small_config(), engine="warp")

    def test_capture_store_exposes_the_final_state(self):
        sink = []
        run_simulation(small_config(n_ops=50), engine="store", capture_store=sink)
        assert len(sink) == 1
        ok, _ = sink[0].verify_audit_chain()
        assert ok

    def test_capture_store_needs_the_store_engine(self):
        with pytest.raises(ValueError):
            run_simulation(small_config(), engine="fast", capture_store=[])

    @pytest.mark.parametrize("engine", ["fast", "store"])
    @pytest.mark.parametrize("inject_check_zone", [False, True])
    def test_comparison_equals_independent_runs(self, engine, inject_check_zone):
        cfg = small_config(
            codec="dup", word_width=13, per_op_probability=0.05, inject_check_zone=inject_check_zone
        )
        for strategy, (report, records) in run_comparison(cfg, engine=engine).items():
            alone_report, alone_records = run_simulation(cfg.replaced(strategy=strategy), engine=engine)
            assert report == alone_report
            a, b = io.StringIO(), io.StringIO()
            records.write_csv(a)
            alone_records.write_csv(b)
            assert a.getvalue() == b.getvalue()


class TestTotals:
    def test_enhanced_equals_none_plus_priority_extra(self):
        results = run_comparison(small_config(), engine="fast", keep_records=False)
        none_t = results[Strategy.NONE][0].totals
        enh_t = results[Strategy.ENHANCED][0].totals
        b = baseline_steps(8)
        assert enh_t.total_steps == none_t.total_steps + enh_t.priority_ops * (b + 2)

    def test_full_total_is_flat_per_op(self):
        report, _ = run_simulation(small_config(strategy="full"), engine="fast", keep_records=False)
        assert report.totals.total_steps == report.totals.ops * 10

    def test_detection_by_strategy(self):
        results = run_comparison(small_config(), engine="fast")
        assert results[Strategy.NONE][0].totals.errors_detected == 0
        full_t = results[Strategy.FULL][0].totals
        assert full_t.errors_detected == full_t.errors_injected > 0

    def test_enhanced_detects_exactly_the_priority_hits(self):
        report, records = run_simulation(small_config(), engine="fast")
        hits = [r for r in records if r.error_injected and r.priority]
        assert report.totals.errors_detected == len(hits)

    def test_miss_rate_none_when_nothing_injected(self):
        report, _ = run_simulation(
            small_config(per_op_probability=0.0), engine="fast", keep_records=False
        )
        assert report.totals.miss_rate is None
        assert report.totals.to_dict()["miss_rate"] == "n/a"

    def test_report_dict_is_json_ready(self):
        report, _ = run_simulation(small_config(), engine="fast", keep_records=False)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["tool"] == "msms"
        assert payload["config"]["strategy"] == "enhanced"
        assert payload["totals"]["ops"] == 2000


class TestRecords:
    def test_csv_header_is_pinned(self):
        assert CSV_HEADER == "op_id,priority,strategy,error_injected,error_bit,detected,steps"

    @pytest.mark.parametrize(
        "cfg",
        [
            small_config(n_ops=1, per_op_probability=0.05),
            small_config(n_ops=10, per_op_probability=0.05),
            small_config(n_ops=200, per_op_probability=0.05),
            # Crosses a 65,536-row chunk and the 5->6 digit op_id boundary;
            # check-zone flips land at bit positions >= 64.
            small_config(
                n_ops=100_050,
                codec="dup",
                inject_check_zone=True,
                word_width=64,
                per_op_probability=0.05,
            ),
        ],
        ids=["n1", "n10", "n200", "n100050-dup-check-zone-w64"],
    )
    def test_csv_rows_match_the_records(self, cfg):
        _, records = run_simulation(cfg, engine="fast")
        buf = io.StringIO()
        records.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == cfg.n_ops + 1
        assert buf.getvalue().endswith("\n")
        for line, record in zip(lines[1:], records):
            op_id, pri, strat, injected, bit, detected, steps = line.split(",")
            assert op_id == str(record.op_id)
            assert pri == ("true" if record.priority else "false")
            assert strat == "enhanced"
            assert injected == ("true" if record.error_injected else "false")
            assert bit == ("" if record.error_bit is None else str(record.error_bit))
            assert detected == ("true" if record.detected else "false")
            assert int(steps) == record.steps

    def test_indexing_and_bounds(self):
        _, records = run_simulation(small_config(n_ops=50), engine="fast")
        assert len(records) == 50
        assert records[0].op_id == 0
        assert records[-1].op_id == 49
        with pytest.raises(IndexError):
            records[50]

    def test_steps_column_sums_to_the_total(self):
        report, records = run_simulation(small_config(), engine="fast")
        assert int(records.steps.sum()) == report.totals.total_steps


class _HashSink:
    """Write-only text sink that hashes what ``write_csv`` emits."""

    def __init__(self):
        self.h = hashlib.sha256()

    def write(self, text: str) -> None:
        self.h.update(text.encode())


# sha256 of each strategy's records CSV, pinned on the original row-by-row
# writer.  Full scale seed 0 matches the benchmark's golden digests; the
# check-zone config crosses a 65,536-row chunk boundary and the 5->6 digit
# op_id boundary, with flipped check bits at positions >= 64.
GOLDEN_CSV = {
    "full-scale-seed-0": (
        SimulationConfig(seed=0),
        {
            "none": "de4b826213bc73524b50b7523069495f69fb6f0eb5640dc277e1e684bee6939b",
            "enhanced": "876fdd8f5c6ede24e549b0b71250076a4ddf70f1ca919ff1b5cc32051f35b5af",
            "full": "3ed42c410c58cba2d469e51c4ee76263784a77589d3d471526ac1cb41551035a",
        },
    ),
    "dup-check-zone-w64": (
        SimulationConfig(
            n_ops=100_050,
            codec="dup",
            inject_check_zone=True,
            word_width=64,
            per_op_probability=0.05,
        ),
        {
            "none": "0967fd56aa4b0c08bb1bb92ba43cf363e23339ffecae6c845df1060ec0643c48",
            "enhanced": "3e136e8b72cf034f8584f3efe4bb96a295c74319435918c2d99f32dffd914a82",
            "full": "a6e31306e79b91a0cd236c0454ba28abdba48a36673ecb1d4deceabb281994d0",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CSV))
@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_csv_bytes_match_golden_digests(case, strategy):
    cfg, digests = GOLDEN_CSV[case]
    _, records = run_simulation(cfg.replaced(strategy=strategy), engine="fast")
    sink = _HashSink()
    records.write_csv(sink)
    assert sink.h.hexdigest() == digests[strategy]


class TestCostModel:
    def test_default_rows_are_exact(self):
        result = theoretical_cost(0.15, get_codec("dup").cost())
        assert [(r.time_units, r.space_units) for r in result.rows()] == [
            (100, 100),
            (300, 400),
            (145, 160),
        ]

    def test_values_are_exact_fractions(self):
        result = theoretical_cost(0.15, get_codec("dup").cost())
        assert result.combined.time_units == Fraction(145)
        assert result.combined.time_units.denominator == 1

    def test_priority_zero_collapses_to_the_baseline(self):
        result = theoretical_cost(0, get_codec("dup").cost())
        assert result.combined.time_units == 100
        assert result.combined.space_units == 100

    def test_half_priority(self):
        result = theoretical_cost(0.5, CostDescriptor(3, 4))
        assert result.combined.time_units == 250
        assert result.combined.space_units == 300

    def test_weighted_formula(self):
        result = theoretical_cost(0.15, CostDescriptor(3, 4), formula="weighted")
        assert result.combined.time_units == 130
        assert result.combined.space_units == 145

    @given(st.fractions(min_value=0, max_value=1))
    def test_combined_row_is_affine_in_p(self, p):
        tech = CostDescriptor(3, 4)
        result = theoretical_cost(p, tech)
        assert result.combined.time_units == 100 + p * 300
        assert result.combined.space_units == 100 + p * 400

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2])
    def test_priority_fraction_bounds(self, p):
        with pytest.raises(ValueError):
            theoretical_cost(p, CostDescriptor(3, 4))

    def test_unknown_formula_rejected(self):
        with pytest.raises(ValueError):
            theoretical_cost(0.5, CostDescriptor(3, 4), formula="geometric")

    def test_dict_form_uses_plain_numbers(self):
        payload = theoretical_cost(0.15, CostDescriptor(3, 4)).to_dict()
        assert payload["rows"][2] == {"system": "msms", "time_units": 145, "space_units": 160}
        assert payload["priority_fraction"] == 0.15


class TestComplexityAudit:
    def test_full_strategy_steps_are_linear_in_width(self):
        result = complexity_audit(widths=(8, 16, 32))
        assert result.per_op_steps == (10.0, 18.0, 34.0)
        assert result.steps_linear
        assert result.max_residual <= 1e-9
        assert result.slope == pytest.approx(1.0)
        assert result.intercept == pytest.approx(2.0)

    def test_parity_check_storage_is_constant(self):
        result = complexity_audit(widths=(8, 16, 32, 64))
        assert result.check_bits == (1, 1, 1, 1)
        assert result.check_bits_constant

    def test_needs_at_least_three_widths(self):
        with pytest.raises(ValueError):
            complexity_audit(widths=(8, 16))


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(1, 16),
    strategy=st.sampled_from(list(Strategy)),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_level_invariants(width, strategy, seed):
    cfg = SimulationConfig(
        n_ops=400, word_width=width, per_op_probability=0.01, strategy=strategy, seed=seed
    )
    report, records = run_simulation(cfg, engine="fast")
    b = baseline_steps(width)
    detected_total = 0
    for r in records:
        # detection implies injection, and a checked op under the strategy
        if r.detected:
            assert r.error_injected
        checked = strategy is Strategy.FULL or (strategy is Strategy.ENHANCED and r.priority)
        assert r.steps == (2 * b + 2 if checked else b)
        if r.error_injected and checked:
            # parity catches every single data-zone flip
            assert r.detected
        detected_total += r.detected
    assert detected_total == report.totals.errors_detected
