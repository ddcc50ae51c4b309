"""Acceptance gate: the ten criteria the finished system must meet.

Each test prints one [PASS]/[FAIL] verdict line (run with ``-s`` or
``-rA`` to see them all) and then asserts, so the gate reads as a
checklist.  Statistical criteria pin their tolerances here; exact
criteria assert equality.  The full-scale sweep behind criteria 2-4 is
computed once per session.
"""

import io
import itertools
import json
import math
from statistics import NormalDist
from typing import NamedTuple, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from msms import (
    DEFAULT_ERROR_PROBABILITY,
    DEFAULT_N_OPS,
    ERROR_COUNT_TOLERANCE,
    EXPECTED_ERROR_COUNT,
    Address,
    CostDescriptor,
    ProtectedStore,
    RandomSource,
    SimulationConfig,
    Strategy,
    Word,
    baseline_steps,
    complexity_audit,
    flip_bit,
    flip_feng_shui_scenario,
    get_codec,
    run_comparison,
    run_simulation,
    single_flip_error_sets,
    theoretical_cost,
    verify_entry_dicts,
)
from msms.cli import EXIT_ATTACK_SUCCEEDED, EXIT_OK, main as cli_main

FULL_SCALE_SEEDS = 200  # >= the largest sample any statistical criterion needs


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def full_scale_sweep():
    """Totals for seeds 0..199 under each strategy at default scale.

    The per-seed operation stream is identical across strategies, so
    each seed's plan is drawn once and injected counts can be read from
    any one of them.
    """
    sweep = {strategy: [] for strategy in Strategy}
    for seed in range(FULL_SCALE_SEEDS):
        runs = run_comparison(SimulationConfig(seed=seed), engine="fast", keep_records=False)
        for strategy, (report, _) in runs.items():
            sweep[strategy].append(report.totals)
    return sweep


def test_criterion_01_published_cost_table_exact():
    result = theoretical_cost(0.15, get_codec("dup").cost(), base=(100, 100))
    rows = [(int(r.time_units), int(r.space_units)) for r in result.rows()]
    expected = [(100, 100), (300, 400), (145, 160)]
    exact = [
        (r.time_units, r.space_units) for r in result.rows()
    ] == expected  # Fraction equality, no rounding involved
    _verdict(
        "criterion 1 (cost table, exact)",
        exact,
        f"rows={rows} expected={expected}",
    )


def test_criterion_02a_mean_injected_errors(full_scale_sweep):
    counts = [t.errors_injected for t in full_scale_sweep[Strategy.NONE][:100]]
    mean = sum(counts) / len(counts)
    ok = 7.5 - 0.9 <= mean <= 7.5 + 0.9
    _verdict(
        "criterion 2a (mean injected errors, 100 seeds)",
        ok,
        f"mean={mean:.3f}, required within 7.5 +/- 0.9",
    )


# Criterion 2b: the per-run spread of injected-error counts.  Each run
# injects Binomial(DEFAULT_N_OPS, DEFAULT_ERROR_PROBABILITY) errors.  Two
# two-sided checks, each at SPREAD_ALPHA, ask whether the sweep's counts
# spread the way that model says: how many runs land in the band
# EXPECTED_ERROR_COUNT +/- ERROR_COUNT_TOLERANCE, and the dispersion index.
# Shifts in the mean belong to criterion 2a.
SPREAD_ALPHA = 0.01
BAND = (
    math.ceil(EXPECTED_ERROR_COUNT - ERROR_COUNT_TOLERANCE),
    math.floor(EXPECTED_ERROR_COUNT + ERROR_COUNT_TOLERANCE),
)


def _binomial_pmf(n: int, p: float, k_max: int = 80) -> list[float]:
    """P(X = k) for X ~ Binomial(n, p), k = 0..k_max, by the pmf recurrence."""
    pmf = [math.exp(n * math.log1p(-p))]
    for k in range(k_max):
        pmf.append(pmf[-1] * (n - k) / (k + 1) * p / (1 - p))
    return pmf


# Probability that one run's count lands in BAND under the documented model.
P_BAND = sum(_binomial_pmf(DEFAULT_N_OPS, DEFAULT_ERROR_PROBABILITY)[BAND[0] : BAND[1] + 1])


def _binomial_region(n: int, p: float, alpha: float) -> tuple:
    """Equal-tailed acceptance region [lo, hi] of Binomial(n, p).

    lo is the largest value with P(X < lo) <= alpha/2, hi the smallest
    with P(X > hi) <= alpha/2.
    """
    cdf = list(itertools.accumulate(_binomial_pmf(n, p, n)))
    lo = next(k for k, c in enumerate(cdf) if c > alpha / 2)
    hi = next(k for k, c in enumerate(cdf) if 1 - c <= alpha / 2)
    return lo, hi


def _chi2_region(df: int, alpha: float) -> tuple:
    """Equal-tailed chi-squared(df) region by the Wilson-Hilferty approximation."""
    z = NormalDist().inv_cdf(1 - alpha / 2)
    s = math.sqrt(2 / (9 * df))
    return tuple(df * (1 - 2 / (9 * df) + sign * z * s) ** 3 for sign in (-1, 1))


class PerRunSpread(NamedTuple):
    in_band: int
    band_region: tuple
    dispersion: float
    dispersion_region: tuple

    @property
    def band_ok(self) -> bool:
        return self.band_region[0] <= self.in_band <= self.band_region[1]

    @property
    def dispersion_ok(self) -> bool:
        return self.dispersion_region[0] <= self.dispersion <= self.dispersion_region[1]

    @property
    def ok(self) -> bool:
        return self.band_ok and self.dispersion_ok


def _per_run_spread(counts: Sequence[int]) -> PerRunSpread:
    """Test per-run injected-error counts against the documented model.

    The number of runs in BAND must lie in the Binomial(len, P_BAND)
    region, and the dispersion index D = sum((c - mean)^2) / mean in the
    chi-squared(len - 1) region it follows for Poisson-like counts.
    """
    mean = sum(counts) / len(counts)
    return PerRunSpread(
        in_band=sum(BAND[0] <= c <= BAND[1] for c in counts),
        band_region=_binomial_region(len(counts), P_BAND, SPREAD_ALPHA),
        dispersion=sum((c - mean) ** 2 for c in counts) / mean,
        dispersion_region=_chi2_region(len(counts) - 1, SPREAD_ALPHA),
    )


def test_criterion_02b_per_run_band(full_scale_sweep):
    counts = [t.errors_injected for t in full_scale_sweep[Strategy.NONE][:100]]
    spread = _per_run_spread(counts)
    band_lo, band_hi = spread.band_region
    d_lo, d_hi = spread.dispersion_region
    _verdict(
        f"criterion 2b (per-run spread: [{BAND[0]}, {BAND[1]}] band and dispersion, 100 seeds)",
        spread.ok,
        f"fraction in band={spread.in_band / len(counts):.2%} "
        f"(P_band={P_BAND:.3f}, required {band_lo}..{band_hi} of {len(counts)}), "
        f"D={spread.dispersion:.1f} (required {d_lo:.1f}..{d_hi:.1f})",
    )


def _quantile_counts(pmf: Sequence[float], runs: int = 100) -> list[int]:
    """Counts at the mid-point quantiles (i + 0.5) / runs of a pmf: a
    deterministic sample that follows the distribution with no seed."""
    cdf = list(itertools.accumulate(pmf))
    return [
        next(k for k, c in enumerate(cdf) if c >= (i + 0.5) / runs) for i in range(runs)
    ]


def _half_in_pairs_pmf() -> list[float]:
    """Mean 7.5, but half the expected errors arrive as pairs: singles at
    half the rate plus twice a count of pairs at a quarter of the rate."""
    singles = _binomial_pmf(DEFAULT_N_OPS, DEFAULT_ERROR_PROBABILITY / 2)
    pairs = _binomial_pmf(DEFAULT_N_OPS, DEFAULT_ERROR_PROBABILITY / 4)
    pmf = [0.0] * (len(singles) + 2 * len(pairs))
    for i, ps in enumerate(singles):
        for j, pp in enumerate(pairs):
            pmf[i + 2 * j] += ps * pp
    return pmf


@pytest.mark.parametrize(
    "counts, band_ok, dispersion_ok",
    [
        pytest.param([7, 8] * 50, False, False, id="no-spread"),
        pytest.param(
            _quantile_counts(_binomial_pmf(DEFAULT_N_OPS, 2 * DEFAULT_ERROR_PROBABILITY)),
            False,
            True,
            id="twice-the-rate",
        ),
        pytest.param(_quantile_counts(_half_in_pairs_pmf()), True, False, id="paired-arrivals"),
    ],
)
def test_criterion_02b_rejects_wrong_spread(counts, band_ok, dispersion_ok):
    # Negative control: each list breaks the documented model, and 2b
    # must reject it.  Between them the cases need both checks.
    spread = _per_run_spread(counts)
    assert not spread.ok, spread
    assert (spread.band_ok, spread.dispersion_ok) == (band_ok, dispersion_ok), spread


def test_criterion_03_detection_fractions(full_scale_sweep):
    enhanced = full_scale_sweep[Strategy.ENHANCED]
    injected = sum(t.errors_injected for t in enhanced)
    detected = sum(t.errors_detected for t in enhanced)
    pooled = detected / injected
    full_exact = all(
        t.errors_detected == t.errors_injected for t in full_scale_sweep[Strategy.FULL]
    )
    none_exact = all(t.errors_detected == 0 for t in full_scale_sweep[Strategy.NONE])
    ok = (0.15 - 0.075 <= pooled <= 0.15 + 0.075) and full_exact and none_exact
    _verdict(
        "criterion 3 (detection fractions, 200 seeds)",
        ok,
        f"enhanced pooled={pooled:.4f} (required 0.15 +/- 0.075), "
        f"full exact={full_exact}, none exact={none_exact}",
    )


def test_criterion_04_step_accounting_identity(full_scale_sweep):
    b = baseline_steps(8)
    identity = all(
        enh.total_steps == none.total_steps + enh.priority_ops * (b + 2)
        for none, enh in zip(full_scale_sweep[Strategy.NONE], full_scale_sweep[Strategy.ENHANCED])
    )
    full_flat = all(
        t.total_steps == t.ops * 10 for t in full_scale_sweep[Strategy.FULL]
    )
    ordering = all(
        n.total_steps < e.total_steps < f.total_steps
        for n, e, f in zip(
            full_scale_sweep[Strategy.NONE],
            full_scale_sweep[Strategy.ENHANCED],
            full_scale_sweep[Strategy.FULL],
        )
    )
    _verdict(
        "criterion 4 (step accounting identity, every seed)",
        identity and full_flat and ordering,
        f"identity={identity}, full per-op=10: {full_flat}, "
        f"ordering none<enhanced<full: {ordering}",
    )


def test_criterion_05_parity_exhaustive():
    parity = get_codec("parity")
    singles_detected = True
    doubles_pass = True
    for width in range(1, 13):
        for value in range(1 << width):
            word = Word(value, width)
            check = parity.encode(word)
            for pos in range(width):
                if parity.verify(flip_bit(word, pos), check).valid:
                    singles_detected = False
            for a, b in itertools.combinations(range(width), 2):
                if not parity.verify(flip_bit(flip_bit(word, a), b), check).valid:
                    doubles_pass = False
    _verdict(
        "criterion 5 (parity exhaustive, widths <= 12)",
        singles_detected and doubles_pass,
        f"all single flips detected={singles_detected}, all double flips pass={doubles_pass}",
    )


def test_criterion_06_berger_exhaustive():
    zero_errors, one_errors = single_flip_error_sets(Word.from_string("10110"))
    sets_exact = zero_errors == frozenset(
        Word.from_string(s) for s in ("00110", "10010", "10100")
    ) and one_errors == frozenset(Word.from_string(s) for s in ("11110", "10111"))

    berger = get_codec("berger")
    unidirectional_detected = True
    for width in range(1, 11):
        for value in range(1 << width):
            word = Word(value, width)
            check = berger.encode(word)
            ones = [i for i in range(width) if word.bit(i)]
            for r in range(1, len(ones) + 1):
                for subset in itertools.combinations(ones, r):
                    damaged = word
                    for pos in subset:
                        damaged = flip_bit(damaged, pos)
                    if berger.verify(damaged, check).valid:
                        unidirectional_detected = False
    _verdict(
        "criterion 6 (berger example + unidirectional exhaustive, widths <= 10)",
        sets_exact and unidirectional_detected,
        f"width-5 sets exact={sets_exact}, all 1->0 multi-bit detected={unidirectional_detected}",
    )


def test_criterion_07_attack_scenario_matrix(capsys):
    def attack(args):
        code = cli_main(["attack", "--seed", "5"] + args)
        out = capsys.readouterr().out
        return code, json.loads(out)["outcome"]

    cells_ok = []

    code, outcome = attack(["--strategy", "none"])
    cells_ok.append(
        code == EXIT_ATTACK_SUCCEEDED and outcome["flip_applied"] and not outcome["detected"]
    )
    for strategy in ("none", "enhanced", "full"):
        for victim in ([], ["--priority-victim"]):
            code, outcome = attack(["--strategy", strategy, "--protect-page"] + victim)
            cells_ok.append(code == EXIT_OK and not outcome["merged"] and not outcome["flip_applied"])
    code, outcome = attack(["--strategy", "enhanced", "--priority-victim"])
    cells_ok.append(code == EXIT_OK and outcome["detected"])
    for victim in ([], ["--priority-victim"]):
        code, outcome = attack(["--strategy", "full"] + victim)
        cells_ok.append(code == EXIT_OK and outcome["detected"])

    # determinism: the same seed reproduces the same outcome payload
    _, first = attack(["--strategy", "enhanced", "--priority-victim"])
    _, second = attack(["--strategy", "enhanced", "--priority-victim"])
    cells_ok.append(first == second)

    _verdict(
        "criterion 7 (attack scenario matrix)",
        all(cells_ok),
        f"{sum(cells_ok)}/{len(cells_ok)} cells as required",
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "flag", "rewrite"]),
            st.integers(0, 5),
            st.booleans(),
        ),
        max_size=30,
    )
)
def test_criterion_08a_flag_monotonicity(ops):
    store = ProtectedStore(words_per_page=8)
    high_water: dict[int, int] = {}
    written: set[int] = set()
    for op, offset, priority in ops:
        addr = Address(0, offset)
        if op == "write":
            store.store_write(addr, Word(offset, 8), priority=priority)
            written.add(offset)
        elif op == "flag" and offset in written:
            store.set_priority(addr)
        elif op == "rewrite" and offset in written:
            store.store_write(addr, Word(255 - offset, 8), priority=False)
        for off in written:
            flag = store.flag(Address(0, off))
            assert flag >= high_water.get(off, 0), "a priority flag went back down"
            high_water[off] = flag


def test_criterion_08_verdict_line():
    # the property above ran first; this prints the checklist line for 8a
    _verdict(
        "criterion 8a (flag monotonicity property)",
        True,
        "no generated operation sequence lowered a flag",
    )


def test_criterion_08b_audit_chain_mutations():
    store = ProtectedStore(words_per_page=16)
    for i in range(10):
        store.store_write(Address(0, i), Word(i * 3 % 256, 8), priority=i % 2 == 0)
        store.store_read(Address(0, i))
    pristine = store.dump_state()["zones"]["log"]

    mutations = {
        "sequence": lambda v: v + 1,
        "event": lambda v: "read" if v != "read" else "write",
        "address": lambda v: "8:7",
        "detail": lambda v: {"forged": 1},
        "digest_prev": lambda v: "f" * len(v),
        "digest_self": lambda v: "f" * len(v),
    }
    all_caught = True
    for index in range(len(pristine)):
        for field, mutate in mutations.items():
            entries = json.loads(json.dumps(pristine))
            entries[index][field] = mutate(entries[index][field])
            ok, broken = verify_entry_dicts(entries)
            if ok or broken != index:
                all_caught = False
    checked = len(pristine) * len(mutations)
    _verdict(
        "criterion 8b (audit chain tamper evidence)",
        all_caught,
        f"{checked} single-field mutations all caught at the mutated entry",
    )


def test_criterion_09_complexity_audit():
    result = complexity_audit(widths=(8, 16, 32))
    steps_exact = result.per_op_steps == (10.0, 18.0, 34.0)
    wide = complexity_audit(widths=(8, 16, 32, 64))
    storage_constant = wide.check_bits == (1, 1, 1, 1)
    _verdict(
        "criterion 9 (complexity audit)",
        steps_exact and result.steps_linear and storage_constant,
        f"per-op steps={result.per_op_steps} (expected (10, 18, 34)), "
        f"linear={result.steps_linear}, parity bits={wide.check_bits}",
    )


def test_criterion_10_deterministic_csv():
    cfg = SimulationConfig(n_ops=300_000, seed=4)
    outputs = []
    for _ in range(2):
        _, records = run_simulation(cfg, engine="fast")
        buf = io.StringIO()
        records.write_csv(buf)
        outputs.append(buf.getvalue())
    identical = outputs[0] == outputs[1]

    # engines must agree byte for byte as well
    small = SimulationConfig(n_ops=4000, per_op_probability=0.003, seed=4)
    engine_outputs = []
    for engine in ("fast", "store"):
        _, records = run_simulation(small, engine=engine)
        buf = io.StringIO()
        records.write_csv(buf)
        engine_outputs.append(buf.getvalue())
    engines_agree = engine_outputs[0] == engine_outputs[1]

    _verdict(
        "criterion 10 (deterministic CSV)",
        identical and engines_agree,
        f"repeated runs identical={identical}, fast/store engines identical={engines_agree}",
    )
