"""The overhead/detection experiment: N memory operations under a strategy.

Each simulated operation draws a random word, classifies it as priority
with probability P, writes it through the monitor, possibly suffers an
injected single-bit error, and is read back.  The run records detection
outcomes and step costs per operation and aggregates them into a
report.  Everything is deterministic per seed.

Randomness follows a fixed draw protocol so that runs replay exactly:
first the word values, then the priority classification, then the
injection events, and last the flipped bit positions (one draw per
injected operation).  Because the protocol is fixed, the vectorized
fast engine and the store-backed engine replay the same plan and
produce byte-identical records; the store engine additionally drives
every operation through a real :class:`~msms.store.ProtectedStore`.

Step accounting: the baseline cost of any operation is B = ceil(w/2)
steps (work done even with no detection, such as reading the word).  A
checked operation pays B extra for recomputing the check plus two flag
steps (one write and one read of the priority bit), so a fully checked
operation costs 2B + 2.  Aggregate cost under the enhanced strategy is
therefore the unprotected total plus (priority count) x (B + 2): the
S + P x S shape, with time linear in the word width and check storage
constant per word.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import IO, Optional, Union

import numpy as np

from ._version import __version__ as _version
from .codecs import CostDescriptor, get_codec
from .faults import DEFAULT_ERROR_PROBABILITY, DEFAULT_N_OPS
from .store import Address, ProtectedStore, ReadPolicy, Strategy, Validity
from .words import RandomSource, Word, flip_bit

CSV_HEADER = "op_id,priority,strategy,error_injected,error_bit,detected,steps"
_CSV_CHUNK = 65536  # most rows RecordSet.write_csv assembles at once

DEFAULT_PRIORITY_FRACTION = 0.15
DEFAULT_WORD_WIDTH = 8

# Largest run the store-backed engine picks up under engine="auto".
AUTO_STORE_MAX_OPS = 20_000


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one run; two configs compare equal iff they replay equally."""

    n_ops: int = DEFAULT_N_OPS
    word_width: int = DEFAULT_WORD_WIDTH
    priority_fraction: float = DEFAULT_PRIORITY_FRACTION
    per_op_probability: float = DEFAULT_ERROR_PROBABILITY
    strategy: Strategy = Strategy.ENHANCED
    codec: str = "parity"
    seed: int = 0
    inject_check_zone: bool = False
    priority_mode: str = "bernoulli"  # "quota" fixes the priority count exactly

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise ValueError("n_ops must be >= 1")
        if not 1 <= self.word_width <= 64:
            raise ValueError("word_width must be in [1, 64]")
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ValueError("priority_fraction must be in [0, 1]")
        if not 0.0 <= self.per_op_probability <= 1.0:
            raise ValueError("per_op_probability must be in [0, 1]")
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        get_codec(self.codec)
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.priority_mode not in ("bernoulli", "quota"):
            raise ValueError(f"unknown priority_mode {self.priority_mode!r}")

    def replaced(self, **changes) -> "SimulationConfig":
        fields = asdict(self)
        fields.update(changes)
        return SimulationConfig(**fields)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["strategy"] = self.strategy.value
        return out


@dataclass(frozen=True)
class OperationRecord:
    """Outcome of one simulated operation; one CSV row."""

    op_id: int
    priority: bool
    error_injected: bool
    error_bit: Optional[int]
    detected: bool
    steps: int


class RecordSet:
    """Columnar per-operation records for one run.

    Behaves as a sequence of :class:`OperationRecord`; kept columnar so
    full-scale runs stay cheap to aggregate and serialize.
    """

    def __init__(
        self,
        strategy: Strategy,
        priority: np.ndarray,
        error_bit: np.ndarray,  # int16, -1 where no injection
        detected: np.ndarray,
        steps: np.ndarray,
    ):
        self.strategy = strategy
        self.priority = priority
        self.error_bit = error_bit
        self.detected = detected
        self.steps = steps

    def __len__(self) -> int:
        return len(self.priority)

    def __getitem__(self, i: int) -> OperationRecord:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i = i % len(self)
        bit = int(self.error_bit[i])
        return OperationRecord(
            op_id=i,
            priority=bool(self.priority[i]),
            error_injected=bit >= 0,
            error_bit=bit if bit >= 0 else None,
            detected=bool(self.detected[i]),
            steps=int(self.steps[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def write_csv(self, fh: IO[str]) -> None:
        """Emit one row per operation under the fixed header.

        A row is its ``op_id`` followed by a suffix that is fixed by four
        columns, ``(priority, error_bit, detected, steps)``, and a run
        holds few distinct such tuples.  So each chunk of rows formats its
        distinct suffixes once and assembles its rows as bytes with numpy:
        each row gathers its suffix from a NUL-padded table, the op_id
        digits are written in front, and the padding is dropped.  Chunks
        also split at each power of ten, so all op_ids in a chunk have the
        same number of digits.  Only ``fh.write`` is called on ``fh``.
        """
        fh.write(CSV_HEADER + "\n")
        n = len(self)
        cuts = sorted({*range(0, n, _CSV_CHUNK), *(10**k for k in range(1, len(str(n)))), n})
        for start, stop in zip(cuts, cuts[1:]):
            # Pack (steps, error_bit + 1, detected, priority) into one
            # int64 per row; _csv_suffix unpacks it.
            key = self.steps[start:stop].astype(np.int64) << 16
            key += self.error_bit[start:stop]
            key += 1
            key <<= 1
            key += self.detected[start:stop]
            key <<= 1
            key += self.priority[start:stop]
            # Distinct keys by sort; np.unique is over ten times slower here.
            ordered = np.sort(key)
            keys = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]

            digits = len(str(start))
            table = np.array([b"\0" * digits + _csv_suffix(self.strategy, int(k)) for k in keys])
            table = table.view(np.uint8).reshape(len(keys), -1)
            rows = np.take(table, np.searchsorted(keys, key), axis=0)
            # Digits are built contiguously and copied in once; // by a
            # scalar is much faster than % on numpy integer arrays.
            ids = np.arange(start, stop, dtype=np.uint32 if stop <= 1 << 32 else np.uint64)
            id_digits = np.empty((digits, stop - start), dtype=np.uint8)
            for place in range(digits - 1, -1, -1):
                quotient = ids // 10
                id_digits[place] = ids - quotient * 10
                ids = quotient
            id_digits += ord("0")
            rows[:, :digits] = id_digits.T
            fh.write(rows.tobytes().replace(b"\0", b"").decode("ascii"))



def _csv_suffix(strategy: Strategy, key: int) -> bytes:
    """The row text after ``op_id`` for one of ``write_csv``'s packed keys."""
    pri, det, bit, steps = key & 1, key >> 1 & 1, (key >> 2 & 0xFFFF) - 1, key >> 18
    return (
        f",{_csv_bool(pri)},{strategy.value},{_csv_bool(bit >= 0)},"
        f"{bit if bit >= 0 else ''},{_csv_bool(det)},{steps}\n"
    ).encode("ascii")


def _csv_bool(x: bool) -> str:
    return "true" if x else "false"


@dataclass(frozen=True)
class Totals:
    ops: int
    priority_ops: int
    errors_injected: int
    errors_detected: int
    miss_rate: Optional[float]
    total_steps: int

    def to_dict(self) -> dict:
        out = asdict(self)
        out["miss_rate"] = "n/a" if self.miss_rate is None else self.miss_rate
        return out


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    totals: Totals
    engine: str

    def to_dict(self) -> dict:
        return {
            "tool": "msms",
            "version": _version,
            "engine": self.engine,
            "config": self.config.to_dict(),
            "totals": self.totals.to_dict(),
        }


@dataclass(frozen=True)
class OperationPlan:
    """Pre-drawn randomness for one run, in fixed protocol order.

    Nothing in a plan depends on the strategy, so one plan serves all
    three; each run turns ``bit_draws`` into flip positions itself.
    """

    words: np.ndarray  # uint64 word values, one per op
    priority: np.ndarray  # bool
    inject: np.ndarray  # bool
    bit_draws: np.ndarray  # float64 uniforms behind the flip positions, one per injected op


def baseline_steps(word_width: int) -> int:
    """Steps any operation pays with no detection; odd widths round up."""
    return (word_width + 1) // 2


def step_cost(strategy: Union[Strategy, str], priority: bool, word_width: int) -> int:
    """Steps one operation costs under a strategy.

    Unchecked operations pay the baseline B = ceil(width/2); checked
    ones pay B more for the check traversal plus two priority-bit steps.
    """
    strategy = Strategy(strategy)
    b = baseline_steps(word_width)
    if strategy is Strategy.FULL or (strategy is Strategy.ENHANCED and priority):
        return 2 * b + 2
    return b


def _checked_mask(strategy: Strategy, priority: np.ndarray) -> np.ndarray:
    if strategy is Strategy.FULL:
        return np.ones_like(priority)
    if strategy is Strategy.ENHANCED:
        return priority
    return np.zeros_like(priority)


def draw_plan(config: SimulationConfig) -> OperationPlan:
    """Draw all randomness for a run in the fixed protocol order."""
    rng = RandomSource(config.seed).generator
    n, w = config.n_ops, config.word_width
    words = rng.integers(0, (1 << w) - 1, size=n, dtype=np.uint64, endpoint=True)
    if config.priority_mode == "quota":
        quota = round(config.priority_fraction * n)
        priority = np.zeros(n, dtype=bool)
        priority[rng.permutation(n)[:quota]] = True
    else:
        priority = rng.random(n) < config.priority_fraction
    inject = rng.random(n) < config.per_op_probability
    bit_draws = rng.random(int(np.count_nonzero(inject)))
    return OperationPlan(words=words, priority=priority, inject=inject, bit_draws=bit_draws)


def _flip_positions(
    config: SimulationConfig, priority: np.ndarray, inject: np.ndarray, bit_draws: np.ndarray
) -> np.ndarray:
    """Flip position floor(u x domain) for each injected op's uniform draw u.

    The domain is the word width; with ``inject_check_zone`` it also
    covers the stored check of operations the strategy checks, so the
    positions depend on the strategy while the plan does not.
    """
    w = config.word_width
    domain = np.full(len(bit_draws), w, dtype=np.uint16)
    if config.inject_check_zone:
        # Faults may land in the stored check of a checked operation;
        # positions >= width address the check payload.
        checked = _checked_mask(config.strategy, priority)[np.flatnonzero(inject)]
        domain[checked] += get_codec(config.codec).check_bits(w)
    return np.floor(bit_draws * domain).astype(np.uint16)


def run_simulation(
    config: SimulationConfig,
    engine: str = "auto",
    keep_records: bool = True,
    capture_store: Optional[list] = None,
) -> tuple[SimulationReport, Optional[RecordSet]]:
    """Execute one run; returns the aggregate report and the records.

    ``engine="fast"`` evaluates the plan directly (codec verification
    still runs for every injected operation); ``engine="store"`` drives
    every operation through a real protected store, which is exact but
    only sensible for small runs.  Both produce identical records.
    With ``keep_records=False`` only the report is built.  Passing a
    list as ``capture_store`` appends the finished store after a
    store-engine run, for state dumps and audits.
    """
    return _run_plan(config, draw_plan(config), engine, keep_records, capture_store)


def _run_plan(
    config: SimulationConfig,
    plan: OperationPlan,
    engine: str,
    keep_records: bool,
    capture_store: Optional[list] = None,
):
    if engine == "auto":
        engine = "store" if config.n_ops <= AUTO_STORE_MAX_OPS else "fast"
    bits = _flip_positions(config, plan.priority, plan.inject, plan.bit_draws)
    if engine == "fast":
        if capture_store is not None:
            raise ValueError("state capture requires the store engine")
        return _run_fast(config, plan, bits, keep_records)
    if engine == "store":
        return _run_store(config, plan, bits, keep_records, capture_store)
    raise ValueError(f"unknown engine {engine!r}")


def _report(
    config: SimulationConfig,
    engine: str,
    priority_count: int,
    injected: int,
    detected: int,
    total_steps: int,
) -> SimulationReport:
    miss = None if injected == 0 else 1.0 - detected / injected
    totals = Totals(
        ops=config.n_ops,
        priority_ops=priority_count,
        errors_injected=injected,
        errors_detected=detected,
        miss_rate=miss,
        total_steps=total_steps,
    )
    return SimulationReport(config=config, totals=totals, engine=engine)


def _verify_injected_op(
    codec, word: Word, bit: int, checked: bool, width: int
) -> bool:
    """Detection outcome for one injected flip, via the real codec."""
    if not checked:
        return False
    check = codec.encode(word)
    if bit < width:
        return not codec.verify(flip_bit(word, bit), check).valid
    return not codec.verify(word, check.flip_payload_bit(bit - width)).valid


def _run_fast(config: SimulationConfig, plan: OperationPlan, bits: np.ndarray, keep_records: bool):
    n, w = config.n_ops, config.word_width
    codec = get_codec(config.codec)
    b = baseline_steps(w)
    checked = _checked_mask(config.strategy, plan.priority)
    checked_count = int(checked.sum())
    priority_count = int(plan.priority.sum())
    total_steps = n * b + checked_count * (b + 2)

    injected_idx = np.flatnonzero(plan.inject)
    detected_bits = []
    for k, i in enumerate(injected_idx):
        word = Word(int(plan.words[i]), w)
        hit = _verify_injected_op(codec, word, int(bits[k]), bool(checked[i]), w)
        detected_bits.append(hit)
    detected_count = sum(detected_bits)

    records = None
    if keep_records:
        steps = np.full(n, b, dtype=np.int32)
        steps[checked] += b + 2
        error_bit = np.full(n, -1, dtype=np.int16)
        error_bit[injected_idx] = bits.astype(np.int16)
        detected = np.zeros(n, dtype=bool)
        detected[injected_idx] = detected_bits
        records = RecordSet(config.strategy, plan.priority, error_bit, detected, steps)

    report = _report(
        config, "fast", priority_count, len(injected_idx), detected_count, total_steps
    )
    return report, records


def _run_store(
    config: SimulationConfig,
    plan: OperationPlan,
    bits: np.ndarray,
    keep_records: bool,
    capture_store: Optional[list] = None,
):
    n, w = config.n_ops, config.word_width
    store = ProtectedStore(
        codec=config.codec,
        strategy=config.strategy,
        read_policy=ReadPolicy.RETURN_MARKED_INVALID,
        word_width=w,
        allow_check_zone_faults=config.inject_check_zone,
    )
    wpp = store.words_per_page
    priority = plan.priority
    detected = np.zeros(n, dtype=bool)
    error_bit = np.full(n, -1, dtype=np.int16)
    steps = np.zeros(n, dtype=np.int32)
    bit_cursor = 0
    for i in range(n):
        addr = Address(i // wpp, i % wpp)
        word = Word(int(plan.words[i]), w)
        is_priority = bool(priority[i])
        store.store_write(addr, word, priority=is_priority)
        if plan.inject[i]:
            bit = int(bits[bit_cursor])
            bit_cursor += 1
            error_bit[i] = bit
            if bit < w:
                store.corrupt_data_bit(addr, bit)
            else:
                store.corrupt_check_bit(addr, bit - w)
        result = store.store_read(addr)
        detected[i] = result.validity is Validity.INVALID
        steps[i] = step_cost(config.strategy, is_priority, w)

    report = _report(
        config,
        "store",
        int(priority.sum()),
        int(plan.inject.sum()),
        int(detected.sum()),
        int(steps.sum()),
    )
    records = RecordSet(config.strategy, priority, error_bit, detected, steps) if keep_records else None
    if capture_store is not None:
        capture_store.append(store)
    return report, records


def run_comparison(
    config: SimulationConfig,
    engine: str = "auto",
    keep_records: bool = True,
) -> dict[Strategy, tuple[SimulationReport, Optional[RecordSet]]]:
    """Run all three strategies on the same seed (identical op stream).

    The plan is drawn once and shared, so every result equals that of
    ``run_simulation`` on the same config with the strategy replaced.
    """
    plan = draw_plan(config)
    return {
        strategy: _run_plan(config.replaced(strategy=strategy), plan, engine, keep_records)
        for strategy in (Strategy.NONE, Strategy.ENHANCED, Strategy.FULL)
    }


# -- theoretical cost model --------------------------------------------------


RationalLike = Union[int, float, str, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, float):
        # Read floats by their decimal rendering so 0.15 means 3/20 exactly.
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class CostModelRow:
    system: str
    time_units: Fraction
    space_units: Fraction

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "time_units": _number(self.time_units),
            "space_units": _number(self.space_units),
        }


def _number(x: Fraction) -> Union[int, float]:
    return int(x) if x.denominator == 1 else float(x)


@dataclass(frozen=True)
class CostModelResult:
    """Three-row time/space comparison, normalized to a 100/100 baseline."""

    baseline: CostModelRow
    technique: CostModelRow
    combined: CostModelRow
    priority_fraction: Fraction
    formula: str

    def rows(self) -> tuple[CostModelRow, CostModelRow, CostModelRow]:
        return (self.baseline, self.technique, self.combined)

    def to_dict(self) -> dict:
        return {
            "priority_fraction": _number(self.priority_fraction),
            "formula": self.formula,
            "rows": [r.to_dict() for r in self.rows()],
        }


def theoretical_cost(
    priority_fraction: RationalLike,
    technique: CostDescriptor,
    base: tuple[RationalLike, RationalLike] = (100, 100),
    formula: str = "additive",
) -> CostModelResult:
    """Price a technique applied selectively to the priority fraction.

    The technique row scales the baseline by the technique's
    multipliers.  The combined row is, under the default ``additive``
    formula, baseline + P x technique-row; the ``weighted`` alternative
    (1-P) x baseline + P x technique-row is available for comparison,
    since the additive form charges the baseline twice for priority
    operations.
    """
    p = _as_fraction(priority_fraction)
    if not 0 <= p <= 1:
        raise ValueError(f"priority fraction must be in [0, 1], got {priority_fraction}")
    if formula not in ("additive", "weighted"):
        raise ValueError(f"unknown formula {formula!r}")
    base_t, base_s = (_as_fraction(x) for x in base)
    tech_t = base_t * _as_fraction(technique.time_multiplier)
    tech_s = base_s * _as_fraction(technique.space_multiplier)
    if formula == "additive":
        comb_t, comb_s = base_t + p * tech_t, base_s + p * tech_s
    else:
        comb_t, comb_s = (1 - p) * base_t + p * tech_t, (1 - p) * base_s + p * tech_s
    return CostModelResult(
        baseline=CostModelRow("none", base_t, base_s),
        technique=CostModelRow("technique", tech_t, tech_s),
        combined=CostModelRow("msms", comb_t, comb_s),
        priority_fraction=p,
        formula=formula,
    )


# -- complexity audit ---------------------------------------------------------


@dataclass(frozen=True)
class ComplexityAuditResult:
    widths: tuple[int, ...]
    per_op_steps: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float
    steps_linear: bool
    check_bits: tuple[int, ...]
    check_bits_constant: bool


def complexity_audit(
    widths: tuple[int, ...] = (8, 16, 32),
    strategy: Union[Strategy, str] = Strategy.FULL,
    codec: str = "parity",
    n_ops: int = 256,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> ComplexityAuditResult:
    """Check that per-op steps grow linearly in width at constant check size.

    Runs the simulation at each width, fits mean steps per operation
    against width, and reports the largest residual of the linear fit
    alongside the per-word check storage at each width.  Odd widths
    round the traversal up, so exact linearity holds for same-parity
    width sets.
    """
    if len(widths) < 3:
        raise ValueError("complexity audit needs runs at >= 3 word widths")
    per_op = []
    bits = []
    codec_obj = get_codec(codec)
    for w in widths:
        cfg = SimulationConfig(
            n_ops=n_ops,
            word_width=w,
            strategy=Strategy(strategy),
            codec=codec,
            seed=seed,
        )
        report, _ = run_simulation(cfg, engine="fast", keep_records=False)
        per_op.append(report.totals.total_steps / report.totals.ops)
        bits.append(codec_obj.check_bits(w))
    slope, intercept = np.polyfit(widths, per_op, 1)
    fitted = slope * np.asarray(widths) + intercept
    max_residual = float(np.max(np.abs(fitted - np.asarray(per_op))))
    return ComplexityAuditResult(
        widths=tuple(widths),
        per_op_steps=tuple(per_op),
        slope=float(slope),
        intercept=float(intercept),
        max_residual=max_residual,
        steps_linear=max_residual <= tolerance,
        check_bits=tuple(bits),
        check_bits_constant=len(set(bits)) == 1,
    )
