"""Experiment harness: plans, engines, step accounting, and the cost model."""

import dataclasses
import hashlib
import io
import json
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msms import (
    CSV_HEADER,
    CostDescriptor,
    ProtectedStore,
    ReadResult,
    RecordSet,
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
    Validity,
)
from msms import simulation
from msms.cli import main


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
            ("enhanced", np.bool_(True), 8, 10),
            ("enhanced", 2, 8, 10),
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

    def test_bounds_are_inclusive(self):
        for p, width in ((0.0, 1), (1.0, 64)):
            cfg = small_config(n_ops=50, word_width=width, priority_fraction=p, per_op_probability=p)
            plan = draw_plan(cfg)
            assert plan.priority_count == len(plan.injected) == 50 * p

    def test_results_are_frozen(self):
        cfg = small_config(n_ops=10)
        report, _ = run_simulation(cfg)
        cost = theoretical_cost(0.15, CostDescriptor(3, 4))
        for value, field in (
            (cfg, "seed"),
            (report, "engine"),
            (report.totals, "ops"),
            (draw_plan(cfg), "priority"),
            (cost, "formula"),
            (cost.combined, "system"),
            (complexity_audit(), "slope"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, None)

    def test_replaced_returns_a_new_config(self):
        cfg = small_config()
        other = replace(cfg, strategy="full")
        assert other.strategy is Strategy.FULL
        assert cfg.strategy is Strategy.ENHANCED
        assert other.n_ops == cfg.n_ops
        with pytest.raises(ValueError):
            replace(cfg, word_width=0)

    def test_to_dict_round_trips_through_json(self):
        cfg = small_config()
        decoded = json.loads(json.dumps(cfg.to_dict()))
        assert SimulationConfig(**decoded) == cfg

    @pytest.mark.parametrize("field", ["n_ops", "word_width", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "2"])
    def test_a_non_integer_count_width_or_seed_is_refused(self, field, value):
        with pytest.raises(TypeError):
            SimulationConfig(**{field: value})

    def test_a_numpy_seed_is_the_plain_seed_and_its_report_serialises(self):
        cfg = small_config(n_ops=50, seed=np.uint64(3))
        assert cfg == small_config(n_ops=50, seed=3)
        assert type(cfg.seed) is int
        report, _ = run_simulation(cfg)
        assert json.loads(json.dumps(report.to_dict()))["config"]["seed"] == 3

    def test_the_report_carries_the_values_the_run_used(self):
        cfg = small_config(n_ops=np.int64(50), word_width=True, seed=np.int32(4))
        assert (cfg.n_ops, cfg.word_width, cfg.seed) == (50, 1, 4)
        config = json.loads(json.dumps(run_simulation(cfg)[0].to_dict()))["config"]
        assert [type(config[k]) for k in ("n_ops", "word_width", "seed")] == [int, int, int]
        assert (config["n_ops"], config["word_width"], config["seed"]) == (50, 1, 4)
        assert run_simulation(cfg)[0].totals == run_simulation(small_config(n_ops=50, word_width=1, seed=4))[0].totals

    def test_a_width_out_of_range_names_the_rule(self):
        with pytest.raises(ValueError, match=r"^word_width must be in \[1, 64\], got 65$"):
            small_config(word_width=65)


class TestPlan:
    def test_same_seed_same_plan(self):
        a, b = draw_plan(small_config()), draw_plan(small_config())
        ops = np.arange(a.n_ops)
        assert np.array_equal(a.words_at(ops), b.words_at(ops))
        assert np.array_equal(a.priority, b.priority)
        assert np.array_equal(a.injected, b.injected)
        assert np.array_equal(a.bit_draws, b.bit_draws)

    def test_different_seed_different_plan(self):
        a = draw_plan(small_config(seed=1))
        b = draw_plan(small_config(seed=2))
        ops = np.arange(a.n_ops)
        assert not np.array_equal(a.words_at(ops), b.words_at(ops))

    def test_quota_mode_hits_the_exact_priority_count(self):
        cfg = small_config(n_ops=1000, priority_fraction=0.15, priority_mode="quota")
        assert int(draw_plan(cfg).priority.sum()) == 150

    def test_bits_stay_in_the_data_domain_by_default(self):
        _, records = run_simulation(small_config(per_op_probability=0.2), engine="fast")
        bits = records.flip_bits
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
        assert records.flip_bits.max() >= 8
        assert records.flip_bits.max() < 24


def _generator_plan(config):
    """``(words, priority, injected, bit_draws)`` as numpy's ``Generator`` draws them.

    This is the draw protocol with every word drawn by
    ``Generator.integers``, kept as the reference for ``draw_plan``,
    which skips the words and rebuilds them from the raw PCG64 stream.
    NEP 19 keeps a bit generator's stream stable across numpy releases
    but lets ``Generator`` methods change, so a numpy upgrade that
    changes these draws fails here first.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n, w = config.n_ops, config.word_width
    words = rng.integers(0, (1 << w) - 1, size=n, dtype=np.uint64, endpoint=True)
    if config.priority_mode == "quota":
        priority = np.zeros(n, dtype=bool)
        priority[rng.permutation(n)[: round(config.priority_fraction * n)]] = True
        u = rng.random(n)
    else:
        priority = rng.random(n) < config.priority_fraction
        u = rng.random(n)
    injected = np.flatnonzero(u < config.per_op_probability)
    return words, priority, injected, rng.random(len(injected))


@settings(max_examples=150, deadline=None)
@given(
    n_ops=st.integers(1, 3000),
    word_width=st.integers(1, 64),
    priority_mode=st.sampled_from(["bernoulli", "quota"]),
    per_op_probability=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
    picks=st.lists(st.integers(0, 2**32), max_size=40),
)
@example(n_ops=1, word_width=1, priority_mode="bernoulli", per_op_probability=0.3, seed=0, picks=[0])
@example(n_ops=7, word_width=8, priority_mode="quota", per_op_probability=0.3, seed=0, picks=[6, 5])
@example(n_ops=5, word_width=32, priority_mode="quota", per_op_probability=1.0, seed=1, picks=[4, 1])
@example(n_ops=3, word_width=33, priority_mode="quota", per_op_probability=1.0, seed=1, picks=[2])
# draw_plan draws its uniforms 65,536 at a time: n at and around the
# chunk seams, odd n at width <= 32 leaving a spare high half.
@example(n_ops=65535, word_width=8, priority_mode="bernoulli", per_op_probability=0.01, seed=2, picks=[65534, 0])
@example(n_ops=65535, word_width=40, priority_mode="quota", per_op_probability=0.3, seed=2, picks=[65534])
@example(n_ops=65536, word_width=64, priority_mode="bernoulli", per_op_probability=1.0, seed=3, picks=[65535])
@example(n_ops=65536, word_width=16, priority_mode="quota", per_op_probability=0.01, seed=3, picks=[0, 65535])
@example(n_ops=65537, word_width=32, priority_mode="bernoulli", per_op_probability=0.3, seed=4, picks=[65536, 65535])
@example(n_ops=65537, word_width=33, priority_mode="quota", per_op_probability=1.0, seed=4, picks=[65536])
@example(n_ops=131073, word_width=1, priority_mode="bernoulli", per_op_probability=0.01, seed=5, picks=[131072, 65536])
@example(n_ops=131073, word_width=31, priority_mode="quota", per_op_probability=0.3, seed=5, picks=[65535, 131072])
# A Bernoulli plan of more than one chunk draws its injection uniforms in
# a second thread from a PCG64 jumped past the priority draws: the last
# sequential and the first threaded n, empty and all-injected, with odd n
# at width <= 32 carrying the spare high half past the jump.
@example(n_ops=65536, word_width=7, priority_mode="bernoulli", per_op_probability=0.0, seed=6, picks=[65535])
@example(n_ops=65536, word_width=33, priority_mode="bernoulli", per_op_probability=1.0, seed=6, picks=[0])
@example(n_ops=65537, word_width=5, priority_mode="bernoulli", per_op_probability=1.0, seed=7, picks=[65536, 1])
@example(n_ops=65537, word_width=64, priority_mode="bernoulli", per_op_probability=0.0, seed=7, picks=[65536])
def test_plan_equals_the_generator_draws(picks, **fields):
    cfg = SimulationConfig(**fields)
    words, priority, injected, bit_draws = _generator_plan(cfg)
    plan = draw_plan(cfg)
    assert plan.n_ops == cfg.n_ops
    assert np.array_equal(plan.priority, priority)
    assert np.array_equal(plan.injected, injected)
    assert np.array_equal(plan.bit_draws, bit_draws)
    assert np.array_equal(plan.words_at(np.arange(cfg.n_ops)), words)
    # Any order and repeats; then a sub-plan of the distinct picks.
    ops = np.array(picks, dtype=np.int64) % cfg.n_ops
    assert np.array_equal(plan.words_at(ops), words[ops])
    idx = np.unique(ops)
    sub = plan.subset(idx)
    assert np.array_equal(sub.words_at(np.arange(len(idx))), words[idx])
    assert np.array_equal(sub.priority, priority[idx])
    kept = np.isin(injected, idx)
    assert np.array_equal(idx[sub.injected], injected[kept])
    assert np.array_equal(sub.bit_draws, bit_draws[kept])
    # A sub-plan's own subset still reads the original stream.
    inner = sub.subset(np.arange(1, len(idx)))
    assert np.array_equal(inner.words_at(np.arange(inner.n_ops)), words[idx[1:]])


@pytest.mark.parametrize("n_ops", [255, 256, 257, 65536, 65537])
def test_quota_plan_equals_the_permutation_where_the_index_type_widens(n_ops):
    # draw_plan shuffles the narrowest unsigned type that holds n - 1; one
    # too narrow wraps the last index to 0, so a full quota shows it.
    for fraction in (0.5, 1.0):
        cfg = SimulationConfig(n_ops=n_ops, priority_fraction=fraction, priority_mode="quota", seed=6)
        assert np.array_equal(draw_plan(cfg).priority, _generator_plan(cfg)[1]), fraction


@pytest.mark.parametrize("n_ops", [10, simulation._DRAW_CHUNK + 1])
def test_an_op_whose_uniform_equals_the_probability_is_not_injected(n_ops):
    # An op is injected when its uniform u < p, so P(injected) is p exactly.
    rng = np.random.Generator(np.random.PCG64(4))
    rng.integers(0, 255, size=n_ops, dtype=np.uint64, endpoint=True)
    rng.random(n_ops)
    u = rng.random(n_ops)
    op = n_ops // 2
    plan = draw_plan(SimulationConfig(n_ops=n_ops, seed=4, per_op_probability=float(u[op])))
    assert op not in plan.injected
    assert np.array_equal(plan.injected, np.flatnonzero(u < u[op]))


class TestPlanThreads:
    """A Bernoulli plan of more than one chunk draws its masks in two threads."""

    CHUNK = simulation._DRAW_CHUNK

    @pytest.mark.parametrize(
        "n_ops,priority_mode,threaded",
        [(CHUNK, "bernoulli", False), (CHUNK + 1, "bernoulli", True), (CHUNK + 1, "quota", False)],
    )
    def test_only_a_bernoulli_plan_of_more_than_one_chunk_starts_a_thread(
        self, monkeypatch, n_ops, priority_mode, threaded
    ):
        drawn_in = []
        injected_ops = simulation._injected_ops

        def recorded(*args):
            drawn_in.append(threading.current_thread())
            return injected_ops(*args)

        monkeypatch.setattr(simulation, "_injected_ops", recorded)
        draw_plan(SimulationConfig(n_ops=n_ops, seed=1, priority_mode=priority_mode))
        assert len(drawn_in) == 1
        assert (drawn_in[0] is not threading.current_thread()) == threaded

    @pytest.mark.parametrize(
        "n_ops,word_width,priority_mode",
        [
            (CHUNK + 1, 8, "bernoulli"),
            (CHUNK + 2, 8, "bernoulli"),
            (CHUNK + 1, 33, "bernoulli"),
            (CHUNK + 1, 8, "quota"),
            (999, 7, "bernoulli"),
        ],
    )
    def test_the_plan_leaves_its_generator_where_the_draws_in_turn_do(
        self, monkeypatch, n_ops, word_width, priority_mode
    ):
        sources = []

        class Recorded(simulation.RandomSource):
            def __init__(self, seed):
                super().__init__(seed)
                sources.append(self)

        monkeypatch.setattr(simulation, "RandomSource", Recorded)
        cfg = SimulationConfig(
            n_ops=n_ops, word_width=word_width, priority_mode=priority_mode, per_op_probability=0.3, seed=8
        )
        plan = draw_plan(cfg)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        rng.integers(0, (1 << word_width) - 1, size=n_ops, dtype=np.uint64, endpoint=True)
        if priority_mode == "quota":
            rng.permutation(n_ops)
        else:
            rng.random(n_ops)
        rng.random(n_ops)
        rng.random(len(plan.injected))
        (source,) = sources

        def pending(state):
            # A spent 32-bit half stays in "uinteger" with has_uint32 0.
            return state["state"], state["has_uint32"] and state["uinteger"]

        assert pending(source.generator.bit_generator.state) == pending(rng.bit_generator.state)

    def test_a_full_scale_plan_leaves_no_thread_behind(self):
        before = threading.active_count()
        draw_plan(SimulationConfig(seed=1))
        assert threading.active_count() == before

    def test_an_error_in_the_injection_half_surfaces_as_itself(self, monkeypatch):
        class InjectionHalfError(Exception):
            pass

        def failing(*args):
            raise InjectionHalfError("injection half")

        monkeypatch.setattr(simulation, "_injected_ops", failing)
        before = threading.active_count()
        with pytest.raises(InjectionHalfError, match="injection half"):
            draw_plan(SimulationConfig(n_ops=self.CHUNK + 1, seed=1))
        assert threading.active_count() == before

    def test_an_error_in_the_priority_half_waits_for_the_injection_half(self, monkeypatch):
        class PriorityHalfError(Exception):
            pass

        def failing(*args):
            raise PriorityHalfError("priority half")

        injected_ops = simulation._injected_ops

        def slow(*args):
            time.sleep(0.2)
            return injected_ops(*args)

        monkeypatch.setattr(simulation, "_priority_mask", failing)
        monkeypatch.setattr(simulation, "_injected_ops", slow)
        before = threading.active_count()
        with pytest.raises(PriorityHalfError, match="priority half"):
            draw_plan(SimulationConfig(n_ops=self.CHUNK + 1, seed=1))
        assert threading.active_count() == before

    def test_four_threads_draw_identical_plans(self):
        cfg = SimulationConfig(n_ops=4 * self.CHUNK + 3, word_width=7, per_op_probability=0.01, seed=9)
        expected = draw_plan(cfg)
        plans = [None] * 4

        def draw(i):
            plans[i] = draw_plan(cfg)

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for plan in plans:
            assert np.array_equal(plan.priority, expected.priority)
            assert np.array_equal(plan.injected, expected.injected)
            assert np.array_equal(plan.bit_draws, expected.bit_draws)
            assert plan.word_state == expected.word_state


def _peak_bytes(fn) -> int:
    """Peak bytes traced while ``fn()`` runs; tracemalloc sees numpy buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPlanMemory:
    N_OPS = 1_000_000

    def test_a_plan_peaks_below_four_bytes_per_op(self):
        draw_plan(small_config())  # numpy's lazy set-up is not the plan's
        cfg = SimulationConfig(n_ops=self.N_OPS, seed=3)
        # The priority mask holds one byte per op; the uniforms stream
        # through one small buffer instead of n-long float arrays.
        assert _peak_bytes(lambda: draw_plan(cfg)) < 4 * self.N_OPS

    def test_a_quota_plan_peaks_below_seven_bytes_per_op(self):
        draw_plan(small_config(priority_mode="quota"))
        cfg = SimulationConfig(n_ops=self.N_OPS, seed=3, priority_mode="quota")
        # The shuffled op order takes four bytes per op here, not eight.
        assert _peak_bytes(lambda: draw_plan(cfg)) < 7 * self.N_OPS

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_run_without_records_touches_only_the_injected_ops(self, strategy):
        cfg = SimulationConfig(n_ops=self.N_OPS, seed=3, strategy=strategy)
        plan = draw_plan(cfg)
        run_simulation(replace(cfg, n_ops=10))  # numpy's lazy set-up is not the run's
        peak = _peak_bytes(lambda: run_simulation(cfg, keep_records=False, plan=plan))
        assert peak < 0.1 * self.N_OPS


class _NullSink:
    def write(self, text: str) -> None:
        pass


class TestRecordMemory:
    N_OPS = 1_000_000

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_run_with_records_touches_only_the_injected_ops(self, strategy):
        cfg = SimulationConfig(n_ops=self.N_OPS, seed=3, strategy=strategy)
        plan = draw_plan(cfg)
        run_simulation(replace(cfg, n_ops=10))  # numpy's lazy set-up is not the run's
        # The records share the plan's priority mask and hold only the
        # injected ops' rows beside it.
        peak = _peak_bytes(lambda: run_simulation(cfg, plan=plan))
        assert peak < 0.1 * self.N_OPS

    def test_write_csv_memory_is_bounded_by_its_chunk(self):
        _, records = run_simulation(SimulationConfig(n_ops=self.N_OPS, seed=3))
        records.write_csv(_NullSink())  # first-call set-up is not the writer's
        # 10,000 rows of about 40 bytes, in a few copies; n rows would be 40 MB.
        assert _peak_bytes(lambda: records.write_csv(_NullSink())) < 16 * 2**20

    def test_the_strategies_share_one_priority_mask(self):
        runs = run_comparison(small_config())
        masks = [records.priority for _, records in runs.values()]
        assert masks[0] is masks[1] is masks[2]


class TestPlanWords:
    def test_an_index_outside_the_plan_is_rejected(self):
        plan = draw_plan(small_config(n_ops=10))
        for ops in ([10], [-1], [0, 10]):
            with pytest.raises(IndexError, match="plan of 10 ops"):
                plan.words_at(ops)
        assert plan.words_at([]).size == 0

    @pytest.mark.parametrize(
        "idx", [[1.7], [1.0], np.array([1.0]), np.array(["1"]), np.array([1, None], dtype=object)]
    )
    def test_non_integer_indices_are_refused(self, idx):
        plan = draw_plan(small_config(n_ops=10))
        with pytest.raises(TypeError, match="op indices must be integers"):
            plan.words_at(idx)
        with pytest.raises(TypeError, match="op indices must be integers"):
            plan.subset(idx)

    def test_integer_and_bool_indices_are_taken_by_value(self):
        plan = draw_plan(small_config(n_ops=10))
        expected = plan.words_at([1, 0, 3])
        for idx in (np.array([1, 0, 3], np.uint8), np.array([1, 0, 3], np.int16), [np.int64(1), 0, 3]):
            assert plan.words_at(idx).tolist() == expected.tolist()
        assert plan.words_at([True, False]).tolist() == expected[:2].tolist()
        assert plan.words_at(np.array([], dtype=np.int64)).size == 0

    @pytest.mark.parametrize("idx", [[3, 2], [2, 2], [-1, 0]])
    def test_subset_indices_must_ascend_within_the_plan(self, idx):
        with pytest.raises((ValueError, IndexError)):
            draw_plan(small_config(n_ops=10)).subset(idx)

    def test_a_plan_for_another_width_is_rejected(self):
        plan = draw_plan(small_config(word_width=16))
        with pytest.raises(ValueError, match="word_width=8"):
            run_simulation(small_config(), plan=plan)


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

    def test_store_engine_rejects_an_invalid_read_of_a_clean_op(self, monkeypatch):
        cfg = small_config(n_ops=50, per_op_probability=0.05)
        plan = draw_plan(cfg)
        clean = next(i for i in range(cfg.n_ops) if i not in plan.injected)
        assert len(plan.injected) > 0
        op_ids = iter(range(cfg.n_ops))  # the store engine reads each op once, in order
        real_read = ProtectedStore.store_read

        def store_read(store, addr):
            result = real_read(store, addr)
            if next(op_ids) == clean:
                return ReadResult(result.word, Validity.INVALID)
            return result

        monkeypatch.setattr(ProtectedStore, "store_read", store_read)
        with pytest.raises(RuntimeError, match=f"op {clean} was not injected"):
            run_simulation(cfg, engine="store", plan=plan)

    def test_fast_is_the_default_engine(self):
        report, _ = run_simulation(small_config(n_ops=50))
        assert report.engine == "fast"
        for report, _ in run_comparison(small_config(n_ops=50)).values():
            assert report.engine == "fast"

    def test_auto_is_an_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine 'auto'"):
            run_simulation(small_config(), engine="auto")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(small_config(), engine="warp")

    def test_capture_store_exposes_the_final_state(self):
        sink = []
        run_simulation(small_config(n_ops=50), engine="store", capture_store=sink)
        assert len(sink) == 1
        ok, _ = sink[0].verify_audit_chain()
        assert ok

    @pytest.mark.parametrize("n_ops", [1999, 2001])
    def test_a_plan_for_another_length_is_rejected(self, n_ops):
        plan = draw_plan(small_config(n_ops=n_ops))
        with pytest.raises(ValueError, match="n_ops"):
            run_simulation(small_config(), engine="fast", plan=plan)

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
            alone_report, alone_records = run_simulation(replace(cfg, strategy=strategy), engine=engine)
            assert report == alone_report
            a, b = io.StringIO(), io.StringIO()
            records.write_csv(a)
            alone_records.write_csv(b)
            assert a.getvalue() == b.getvalue()


ORACLE_SAMPLE = 1000  # ops sampled per full-scale plan, on top of every injected op


@pytest.mark.parametrize(
    "word_width, priority_mode, seed",
    [(1, "bernoulli", 0), (1, "quota", 1), (64, "bernoulli", 2), (64, "quota", 3)],
)
def test_store_engine_replays_full_scale_runs(word_width, priority_mode, seed):
    """The store engine checks full-scale fast runs on a sub-plan.

    The store engine gives op ``i`` the address ``(i // 512, i % 512)``,
    and no other op writes, corrupts or reads it: no two ops share an
    address.  So record row ``i`` depends only on op ``i``'s own plan
    entries (its word, its priority and, if it is injected, its flip
    draw), and a sub-plan that keeps some ops in order replays their rows
    exactly.  The sub-plan keeps every injected op, so ``bit_draws`` stays
    whole, plus a seeded sample of the rest.
    """
    base = SimulationConfig(word_width=word_width, priority_mode=priority_mode, seed=seed)
    plan = draw_plan(base)
    sample = np.random.default_rng(seed).integers(0, base.n_ops, ORACLE_SAMPLE)
    idx = np.union1d(plan.injected, sample)
    sub = plan.subset(idx)
    assert len(plan.injected) > 0
    check_zone_flips = 0
    for codec in codec_names():
        for inject_check_zone in (False, True):
            for strategy in Strategy:
                cfg = replace(base, codec=codec, inject_check_zone=inject_check_zone, strategy=strategy)
                _, fast = run_simulation(cfg, engine="fast", plan=plan)
                _, store = run_simulation(replace(cfg, n_ops=len(idx)), engine="store", plan=sub)
                assert np.array_equal(fast.priority[idx], store.priority), cfg
                assert np.array_equal(
                    np.take(fast.steps_by_priority, fast.priority[idx]),
                    np.take(store.steps_by_priority, store.priority),
                ), cfg
                # The sub-plan keeps every injected op, so both runs list
                # the same ops, flips and detections, in the same order.
                assert np.array_equal(fast.injected, idx[store.injected]), cfg
                assert np.array_equal(fast.flip_bits, store.flip_bits), cfg
                assert np.array_equal(fast.flip_detected, store.flip_detected), cfg
                check_zone_flips += int(np.count_nonzero(store.flip_bits >= word_width))
    # The replay reached the check-zone branch of the store engine.
    assert check_zone_flips > 0


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
        # Rows that were not injected hold no detection at all.
        hits = records.priority[records.injected]
        assert np.array_equal(records.flip_detected, hits)
        assert report.totals.errors_detected == int(hits.sum())

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
        "cfg, sink",
        [
            pytest.param(cfg, sink, id=case + suffix)
            for case, cfg in [
                ("n1", small_config(n_ops=1, per_op_probability=0.05)),
                ("n10", small_config(n_ops=10, per_op_probability=0.05)),
                ("n200", small_config(n_ops=200, per_op_probability=0.05)),
                # Crosses ten 10,000-row chunks and the 5->6 digit op_id
                # boundary; check-zone flips land at bit positions >= 64.
                (
                    "n100050-dup-check-zone-w64",
                    small_config(
                        n_ops=100_050,
                        codec="dup",
                        inject_check_zone=True,
                        word_width=64,
                        per_op_probability=0.05,
                    ),
                ),
            ]
            for sink, suffix in [(io.StringIO, ""), (io.BytesIO, "-bytes")]
        ],
    )
    def test_csv_rows_match_the_records(self, cfg, sink):
        _, records = run_simulation(cfg, engine="fast")
        assert len(records) == cfg.n_ops
        assert _csv_lines(records, sink) == [CSV_HEADER] + _expected_rows(records)

    def test_the_text_and_the_binary_sink_get_the_same_bytes(self):
        _, records = run_simulation(small_config(n_ops=20_001, per_op_probability=0.05))
        text, binary = io.StringIO(), io.BytesIO()
        records.write_csv(text)
        records.write_csv(binary)
        assert binary.getvalue() == text.getvalue().encode("ascii")

    def test_injected_rows_at_the_digit_and_chunk_edges(self):
        # Injected ops on both sides of each power of ten and of a
        # 10,000-row chunk edge, at one- and two-digit flip positions.
        injected = np.array([0, 9, 99, 999, 9_999, 10_000, 19_999, 20_000, 99_999, 100_000])
        priority = np.random.default_rng(7).random(100_001) < 0.3
        records = RecordSet(
            Strategy.FULL,
            priority,
            (5, 11),
            injected,
            np.arange(len(injected)) * 7 % 64,
            np.arange(len(injected)) % 3 == 0,
        )
        for sink in (io.StringIO, io.BytesIO):
            assert _csv_lines(records, sink) == [CSV_HEADER] + _expected_rows(records)

    def test_steps_column_sums_to_the_total(self):
        report, records = run_simulation(small_config(), engine="fast")
        steps = np.take(records.steps_by_priority, records.priority)
        assert int(steps.sum()) == report.totals.total_steps


def _csv_lines(records, sink_type):
    """The CSV ``write_csv`` writes to a fresh ``sink_type()``, split into lines."""
    sink = sink_type()
    records.write_csv(sink)
    out = sink.getvalue()
    text = out if isinstance(out, str) else out.decode("ascii")
    assert text.endswith("\n")
    return text.splitlines()


def _expected_rows(records):
    """Each operation's CSV row, formatted one at a time from the record set."""

    def text(flag):
        return "true" if flag else "false"

    flips = dict(
        zip(
            records.injected.tolist(),
            zip(records.flip_bits.tolist(), records.flip_detected.tolist()),
        )
    )
    expected = []
    for op_id, pri in enumerate(records.priority.tolist()):
        bit, det = flips.get(op_id, (-1, False))
        steps = records.steps_by_priority[pri]
        expected.append(
            f"{op_id},{text(pri)},{records.strategy.value},{text(bit >= 0)},"
            f"{bit if bit >= 0 else ''},{text(det)},{steps}"
        )
    return expected


class _HashSink:
    """Write-only text sink that hashes what ``write_csv`` emits."""

    def __init__(self):
        self.h = hashlib.sha256()

    def write(self, text: str) -> None:
        self.h.update(text.encode())


# sha256 of each strategy's records CSV, pinned on the original row-by-row
# writer.  Full scale seed 0 matches the benchmark's golden digests; the
# check-zone config crosses a 65,536-row chunk boundary and the 5->6 digit
# op_id boundary, with flipped check bits at positions >= 64.  The quota
# configs pin the permutation branch of draw_plan.  quota-odd-w8 has an odd
# n at a width <= 32, so its permutation starts on the spare high half of
# the last word's output; its digests were recorded while draw_plan still
# drew every word with Generator.integers.
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
    "quota-seed-4": (
        SimulationConfig(n_ops=100_050, priority_mode="quota", per_op_probability=0.01, seed=4),
        {
            "none": "1008eb53c7822673cf6ba7e69e92c533723082afe0393aba85ebf911d8f934c8",
            "enhanced": "34594c17a6969d610264b3242a11dcd5b834439029a23ae0e7177b56b941c836",
            "full": "0cde34ad4eb222fa25c7e52d19981b8e74a2ba02da89ae1ae2a05b1b382609f6",
        },
    ),
    "quota-odd-w8": (
        SimulationConfig(n_ops=100_051, priority_mode="quota", per_op_probability=0.01, seed=5),
        {
            "none": "edf0f95bbaa0f1faec19048a0e023a6c3f6f8787fcd767658931c0a63da95005",
            "enhanced": "72138154ba04ccdd9469b2da05108a41271567eaff73489d18d901e11b522286",
            "full": "601fd1db2a9ccac37c9609c0177539fad3971cc37644ef7d4cc8268eaa069898",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CSV))
@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_csv_bytes_match_golden_digests(case, strategy):
    cfg, digests = GOLDEN_CSV[case]
    _, records = run_simulation(replace(cfg, strategy=strategy), engine="fast")
    sink = _HashSink()
    records.write_csv(sink)
    assert sink.h.hexdigest() == digests[strategy]


def test_cli_compare_writes_the_golden_csv_bytes(tmp_path, capsys):
    """``simulate --compare`` writes the same bytes as ``run_simulation``."""
    code = main(
        ["simulate", "--compare", "--n", "100050", "--seed", "0", "--codec", "dup",
         "--inject-check-zone", "--width", "64", "--error-prob", "0.05", "--out", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 0
    _, digests = GOLDEN_CSV["dup-check-zone-w64"]
    for strategy, digest in digests.items():
        data = (tmp_path / f"records_{strategy}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, strategy


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

    def test_negative_base_rejected(self):
        # A negative baseline would price the technique below no technique.
        for base in [(-5, 100), (100, -1)]:
            with pytest.raises(ValueError, match="must be non-negative"):
                theoretical_cost(0.15, CostDescriptor(3, 4), base=base)
        zero = theoretical_cost(0.15, CostDescriptor(3, 4), base=(0, 0))
        assert (zero.combined.time_units, zero.combined.space_units) == (0, 0)

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


# The step model and the cost table price a check in two ways (ROADMAP
# item 8): a simulated `full` op costs 2B+2 steps against B under `none`,
# whatever the codec, while the table scales the baseline time by the
# codec's time multiplier.  Both prices are pinned side by side, per codec
# and width, so a change to either one shows here.
@pytest.mark.parametrize(
    "codec, width, step_ratio, time_ratio",
    [
        (codec, width, step_ratio, time_ratio)
        for codec, time_ratio in (("berger", 1), ("dup", 3), ("none", 1), ("parity", 1))
        for width, step_ratio in ((1, Fraction(4)), (8, Fraction(5, 2)), (64, Fraction(33, 16)))
    ],
)
def test_the_simulated_and_the_tabled_price_of_a_check(codec, width, step_ratio, time_ratio):
    steps = {
        strategy: run_simulation(
            small_config(n_ops=100, word_width=width, codec=codec, strategy=strategy),
            keep_records=False,
        )[0].totals.total_steps
        for strategy in (Strategy.FULL, Strategy.NONE)
    }
    table = theoretical_cost(0.15, get_codec(codec).cost())
    assert (
        Fraction(steps[Strategy.FULL], steps[Strategy.NONE]),
        table.technique.time_units / table.baseline.time_units,
    ) == (step_ratio, time_ratio)


class TestComplexityAudit:
    def test_full_strategy_steps_are_linear_in_width(self):
        result = complexity_audit(widths=(8, 16, 32))
        assert result.per_op_steps == (10.0, 18.0, 34.0)
        assert result.steps_linear
        assert result.max_residual <= 1e-9
        assert result.slope == pytest.approx(1.0)
        assert result.intercept == pytest.approx(2.0)

    def test_the_default_widths_are_8_16_32(self):
        assert complexity_audit() == complexity_audit(widths=(8, 16, 32))

    def test_steps_pinned_up_to_width_64(self):
        result = complexity_audit(widths=(8, 16, 32, 64))
        assert result.per_op_steps == (10.0, 18.0, 34.0, 66.0)
        assert result.per_op_steps == tuple(
            float(step_cost(Strategy.FULL, False, w)) for w in result.widths
        )
        assert result.steps_linear

    def test_parity_check_storage_is_constant(self):
        result = complexity_audit(widths=(8, 16, 32, 64))
        assert result.check_bits == (1, 1, 1, 1)
        assert result.check_bits_constant

    def test_needs_at_least_three_widths(self):
        for widths in ((8, 16), (8, 8, 8), (8, 8, 16)):
            with pytest.raises(ValueError, match="3 distinct word widths"):
                complexity_audit(widths=widths)


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(1, 16),
    strategy=st.sampled_from(list(Strategy)),
    seed=st.integers(0, 2**32 - 1),
    per_op_probability=st.sampled_from([0.0, 0.01, 1.0]),
    inject_check_zone=st.booleans(),
)
def test_record_level_invariants(width, strategy, seed, per_op_probability, inject_check_zone):
    cfg = SimulationConfig(
        n_ops=400,
        word_width=width,
        per_op_probability=per_op_probability,
        strategy=strategy,
        seed=seed,
        inject_check_zone=inject_check_zone,
    )
    report, records = run_simulation(cfg, engine="fast")
    b = baseline_steps(width)
    injected = records.injected
    assert np.all(np.diff(injected) > 0)
    assert len(records.flip_bits) == len(records.flip_detected) == len(injected)
    if per_op_probability == 0.0:
        assert injected.size == 0
    if per_op_probability == 1.0:
        assert np.array_equal(injected, np.arange(400))
    if strategy is Strategy.ENHANCED:
        checked = records.priority
    else:
        checked = np.full(400, strategy is Strategy.FULL)
    steps = np.take(records.steps_by_priority, records.priority)
    assert np.array_equal(steps, np.where(checked, 2 * b + 2, b))
    # A flip lands in the word, or in the one parity check bit of a
    # checked op when check-zone faults are on.
    domain = np.where(checked & inject_check_zone, width + 1, width)
    assert (records.flip_bits < domain[injected]).all()
    # Only injected ops carry a detection, and parity catches every
    # single flip of a checked op, in the word or in its check.
    assert np.array_equal(records.flip_detected, checked[injected])
    assert int(records.flip_detected.sum()) == report.totals.errors_detected
