"""The overhead/detection experiment: N memory operations under a strategy.

Each simulated operation draws a random word, classifies it as priority
with probability P, writes it through the monitor, possibly suffers an
injected single-bit error, and is read back.  The run records each
operation's step cost and detection outcome and aggregates them into a
report.  Everything is deterministic per seed.  Only checked words are
verified, so a record row is fixed by the op's priority flag and the
strategy except at the injected ops; a :class:`RecordSet` holds the
plan's priority mask, the strategy's two step costs and the injected
ops' rows, and nothing else n long.

Randomness follows a fixed draw protocol so that runs replay exactly:
first the word values, then the priority classification, then the
injection events, and last the flipped bit positions (one draw per
injected operation).  The priority and injection uniforms are drawn
65,536 at a time into a reused buffer (``_DRAW_CHUNK``), so no n-long
float array is held; the values are those of one ``rng.random(n)`` per
mask.  The injection uniforms are the n raw outputs after the priority
ones, and PCG64 can jump n outputs ahead in O(log n) steps, so a
Bernoulli plan of more than one chunk draws them in a second thread,
from a jumped copy of the generator with its own buffer, while the
calling thread draws the priority uniforms.  A quota plan draws them in
turn, since its shuffle spends a data-dependent number of outputs and
where the injection uniforms begin is known only once it ends.  So
does a plan of at most one chunk: starting and joining a thread takes
about 0.3 ms, as long as both its masks take in turn.  The words are
the generator's bounded integer draws, which at a power-of-two range
spend a fixed number of raw PCG64 outputs and never reject; so the plan
advances past them and rebuilds from the raw stream only the words a
run reads
(:meth:`OperationPlan.words_at`).  NEP 19 keeps a bit generator's raw
stream stable across numpy releases but lets ``Generator`` methods
change; the other draws still come from ``Generator`` methods, and the
tests keep the ``Generator`` draw of every word as the reference.
Because the protocol is fixed, the vectorized fast engine and the
store-backed engine replay the same plan and produce byte-identical
records.  An engine decides only which injected flips were caught: the
fast engine verifies each injected op's word alone, and the store engine
drives every operation through a real
:class:`~msms.store.ProtectedStore`.  The rest of a run follows from the
plan, the strategy and those flags, and ``run_simulation`` builds it
once for both engines.  The step total comes from the plan's priority
count (:attr:`OperationPlan.priority_count`), so with or without
records a fast run touches only the injected ops.

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

import io
import operator
import threading
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterator, Optional, Union

import numpy as np

from ._version import __version__ as _version
from .codecs import CostDescriptor, get_codec
from .faults import DEFAULT_ERROR_PROBABILITY, DEFAULT_N_OPS
from .store import CHECKED_BY_PRIORITY, Address, ProtectedStore, ReadPolicy, Strategy, Validity
from .words import RandomSource, Word, as_seed, as_width, flip_bit, word_maker

CSV_HEADER = "op_id,priority,strategy,error_injected,error_bit,detected,steps"
# "0000" to "9999", the last four digits of an op_id, built with numpy
# arithmetic: a list of 10,000 f-strings costs 50-odd ms at import.
_OP_ID_LOW = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_OP_ID_LOW = (_OP_ID_LOW % 10 + ord("0")).astype(np.uint8).view("S4")[:, 0]
_DRAW_CHUNK = 65536  # most uniforms draw_plan holds at once

DEFAULT_PRIORITY_FRACTION = 0.15
DEFAULT_WORD_WIDTH = 8


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
        object.__setattr__(self, "n_ops", operator.index(self.n_ops))
        object.__setattr__(self, "word_width", as_width(self.word_width))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.n_ops < 1:
            raise ValueError("n_ops must be >= 1")
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ValueError("priority_fraction must be in [0, 1]")
        if not 0.0 <= self.per_op_probability <= 1.0:
            raise ValueError("per_op_probability must be in [0, 1]")
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        get_codec(self.codec)
        if self.priority_mode not in ("bernoulli", "quota"):
            raise ValueError(f"unknown priority_mode {self.priority_mode!r}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["strategy"] = self.strategy.value
        return out


class RecordSet:
    """Per-operation records for one run; one CSV row per operation.

    Row ``i`` is operation ``i``.  A row is fixed by the op's priority
    flag and the strategy, except at the injected ops, so a record set
    holds only what differs:

    * ``priority``, the plan's mask, shared by the three strategies' runs;
    * ``steps_by_priority``, the steps of an op without and with the
      priority flag under this strategy (see ``step_cost``);
    * ``injected``, the ascending indices of the injected ops;
    * ``flip_bits`` and ``flip_detected``, each injected op's flip
      position and whether the read caught it, in ``injected`` order.

    No other array is n long; ``len()`` is the number of operations.
    """

    def __init__(
        self,
        strategy: Strategy,
        priority: np.ndarray,
        steps_by_priority: tuple[int, int],
        injected: np.ndarray,
        flip_bits: np.ndarray,
        flip_detected: np.ndarray,
    ):
        self.strategy = strategy
        self.priority = priority
        self.steps_by_priority = steps_by_priority
        self.injected = injected
        self.flip_bits = flip_bits
        self.flip_detected = flip_detected

    def __len__(self) -> int:
        return len(self.priority)

    def write_csv(self, fh: Union[IO[bytes], IO[str]]) -> None:
        """Emit one row per operation under the fixed header.

        The CSV is ASCII.  A binary sink (an ``io.RawIOBase`` or
        ``io.BufferedIOBase``, such as a file opened ``"wb"``) gets it as
        bytes; any other sink gets ``str``.  Only ``fh.write`` is called on
        ``fh``, with at most 10,000 rows at a time.

        A row is its ``op_id`` followed by a suffix.  The record set
        formats two plain suffixes, one per priority flag, plus one per
        distinct ``(flip position, detection, priority)`` of its injected
        rows, into a NUL-padded table with room for the op_id in front.
        Chunks split at each multiple of 10,000 and each power of ten, so
        all op_ids in a chunk have the same number of digits and the same
        digits above the last four.  A chunk writes those high digits into
        the table, takes one table row per op with numpy (its priority
        flag, patched at the injected ops), copies the last four digits in
        from one contiguous slice of ``_OP_ID_LOW``, the 10,000 four-digit
        strings, and drops the padding.
        """
        binary = isinstance(fh, (io.RawIOBase, io.BufferedIOBase))
        header = CSV_HEADER + "\n"
        fh.write(header.encode("ascii") if binary else header)
        # Pack (flip position, detected, priority) into one int per injected row.
        key = self.flip_bits.astype(np.int64) << 2
        key += self.flip_detected << 1
        key += self.priority[self.injected]
        keys, which = np.unique(key, return_inverse=True)
        which += 2
        suffixes = [self._suffix(pri, None, False) for pri in (False, True)]
        suffixes += [self._suffix(k & 1, k >> 2, k >> 1 & 1) for k in keys.tolist()]

        n = len(self)
        block = len(_OP_ID_LOW)
        cuts = sorted({*range(0, n, block), *(10**k for k in range(1, len(str(n)))), n})
        digits = 0
        for start, stop in zip(cuts, cuts[1:]):
            if len(str(start)) != digits:
                digits = len(str(start))
                table = np.array([b"\0" * digits + suffix for suffix in suffixes])
                table = table.view(np.uint8).reshape(len(suffixes), table.itemsize)
                # Every chunk's rows go into one buffer: glibc malloc serves
                # a block at or above its mmap threshold with fresh pages on
                # every call and gives a large free block at the heap's top
                # back to the kernel, so an array per chunk faults its pages
                # in again each time (2.4 times the page faults of a
                # full-scale --compare --out run).
                buf = np.empty((block, table.shape[1]), np.uint8)
                low = min(digits, 4)
                high = digits - low
                low_digits = _OP_ID_LOW.view(np.uint8).reshape(block, 4)[:, 4 - low :]
                low_digits = low_digits.view(f"S{low}")[:, 0]
            hit = slice(*np.searchsorted(self.injected, (start, stop)).tolist())
            index = self.priority[start:stop].astype(np.intp)
            index[self.injected[hit] - start] = which[hit]
            if high:
                table[:, :high] = np.frombuffer(str(start // block).encode("ascii"), np.uint8)
            rows = np.take(table, index, axis=0, out=buf[: stop - start])
            first = start % block
            rows[:, high:digits].view(f"S{low}")[:, 0] = low_digits[first : first + stop - start]
            piece = rows.tobytes().replace(b"\0", b"")
            fh.write(piece if binary else piece.decode("ascii"))

    def _suffix(self, priority: bool, bit: Optional[int], detected: bool) -> bytes:
        """The row text after ``op_id``; ``bit`` is None for an op not injected."""
        return (
            f",{_csv_bool(priority)},{self.strategy.value},{_csv_bool(bit is not None)},"
            f"{'' if bit is None else bit},{_csv_bool(detected)},"
            f"{self.steps_by_priority[priority]}\n"
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
    three; each run turns ``bit_draws`` into flip positions itself.  The
    word values are not held: the plan keeps the generator state where
    they begin, and ``words_at`` rebuilds the words a run reads.
    """

    priority: np.ndarray  # bool, one per op
    injected: np.ndarray  # ascending indices of the ops that suffer a flip
    bit_draws: np.ndarray  # float64 uniforms behind the flip positions, one per injected op
    word_width: int
    word_state: dict  # PCG64 state where the word draws begin
    stream_ops: Optional[np.ndarray] = None  # op i draws word stream_ops[i]; None means word i

    @property
    def n_ops(self) -> int:
        return len(self.priority)

    @cached_property
    def priority_count(self) -> int:
        return int(np.count_nonzero(self.priority))

    def _ops(self, idx) -> np.ndarray:
        idx = np.asarray(idx)  # an integer or bool array is taken by value; [] comes as float64
        if idx.dtype.kind not in "biu" and idx.size:
            raise TypeError(f"op indices must be integers, not {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and not 0 <= idx.min() <= idx.max() < self.n_ops:
            raise IndexError(f"op index out of range for a plan of {self.n_ops} ops")
        return idx

    def words_at(self, idx) -> np.ndarray:
        """The uint64 word values of ops ``idx``, rebuilt from the raw stream.

        Above width 32 word ``k`` is the top ``word_width`` bits of raw
        PCG64 output ``k``.  At or below it, output ``k // 2`` holds words
        ``k`` and ``k + 1``, one per 32-bit half, low half first, and a
        word is the top ``word_width`` bits of its half.  Each run of
        consecutive outputs costs one ``advance`` and one ``random_raw``.
        """
        idx = self._ops(idx)
        if self.stream_ops is not None:
            idx = self.stream_ops[idx]
        w = self.word_width
        outputs, where = np.unique(idx if w > 32 else idx >> 1, return_inverse=True)
        raw = np.empty(len(outputs), dtype=np.uint64)
        starts = np.flatnonzero(np.diff(outputs, prepend=-2) != 1)
        bitgen = np.random.PCG64()
        for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(outputs)]):
            bitgen.state = self.word_state
            bitgen.advance(int(outputs[start]))
            raw[start:stop] = bitgen.random_raw(stop - start)
        raw = raw[where]
        if w > 32:
            return raw >> np.uint64(64 - w)
        halves = np.where((idx & 1) == 1, raw >> np.uint64(32), raw & np.uint64(0xFFFFFFFF))
        return halves >> np.uint64(32 - w)

    def subset(self, idx) -> "OperationPlan":
        """The plan of ops ``idx`` alone: its op ``j`` is op ``idx[j]`` here.

        ``idx`` must be strictly ascending.  Injected ops outside it are
        dropped together with their draws.
        """
        idx = self._ops(idx)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("subset indices must be strictly ascending")
        kept = np.isin(self.injected, idx)
        return replace(
            self,
            priority=self.priority[idx],
            injected=np.searchsorted(idx, self.injected[kept]),
            bit_draws=self.bit_draws[kept],
            stream_ops=idx if self.stream_ops is None else self.stream_ops[idx],
        )


def baseline_steps(word_width: int) -> int:
    """Steps any operation pays with no detection; odd widths round up."""
    return (word_width + 1) // 2


def step_cost(strategy: Union[Strategy, str], priority: bool, word_width: int) -> int:
    """Steps one operation costs under a strategy.

    Unchecked operations (see ``CHECKED_BY_PRIORITY``) pay the baseline
    B = ceil(width/2); checked ones pay B more for the check traversal
    plus two priority-bit steps.  ``priority`` is read by its truth value.
    """
    b = baseline_steps(word_width)
    return 2 * b + 2 if CHECKED_BY_PRIORITY[Strategy(strategy)][bool(priority)] else b


def _uniforms(
    rng: np.random.Generator, n: int, buf: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, u)`` over the next ``n`` uniforms of ``rng``, in order.

    ``u`` holds uniforms ``start`` up to ``start + len(u)`` and is a view
    of ``buf``, which the next chunk overwrites.  Drawn ``len(buf)`` at a
    time, the values are those of one ``rng.random(n)``.
    """
    for start in range(0, n, len(buf)):
        u = buf[: n - start]
        rng.random(out=u)
        yield start, u


def _priority_mask(
    rng: np.random.Generator, n: int, fraction: float, buf: np.ndarray
) -> np.ndarray:
    """Bernoulli priority flags from the next ``n`` uniforms of ``rng``."""
    priority = np.empty(n, dtype=bool)
    for start, u in _uniforms(rng, n, buf):
        np.less(u, fraction, out=priority[start : start + len(u)])
    return priority


def _injected_ops(rng: np.random.Generator, n: int, p: float, buf: np.ndarray) -> np.ndarray:
    """Ascending indices of the next ``n`` uniforms of ``rng`` that fall below ``p``."""
    return np.concatenate([np.flatnonzero(u < p) + start for start, u in _uniforms(rng, n, buf)])


def _bernoulli_masks_at_once(
    rng: np.random.Generator, n: int, fraction: float, p: float, buf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_priority_mask`` and then ``_injected_ops`` of ``rng``, drawn at once.

    The injection half runs in a new thread, with its own buffer, on a
    copy of the bit generator jumped ``n`` outputs ahead; this thread
    draws the priority half.  ``Generator.random`` and the comparisons
    release the GIL, so the halves run in parallel.  The thread is joined
    before this returns, and an exception raised in it is raised here.
    ``rng`` is left where drawing the two in turn leaves it.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    ahead = np.random.PCG64()
    ahead.state = state
    ahead.advance(n)
    # advance() drops the spare 32-bit half that an odd number of narrow
    # words leaves; a 64-bit draw never takes it, so it survives them all.
    ahead.state = {**ahead.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    outcome = []

    def injection_half() -> None:
        try:
            outcome.append(_injected_ops(np.random.Generator(ahead), n, p, np.empty(len(buf))))
        except BaseException as exc:  # carried to the calling thread, which raises it
            outcome.append(exc)

    worker = threading.Thread(target=injection_half, name="msms-injection-draw")
    worker.start()
    try:
        priority = _priority_mask(rng, n, fraction, buf)
    finally:
        worker.join()
    (injected,) = outcome
    if isinstance(injected, BaseException):
        raise injected
    bitgen.state = ahead.state
    return priority, injected


def draw_plan(config: SimulationConfig) -> OperationPlan:
    """Draw all randomness for a run in the fixed protocol order.

    The words come first, but only where they begin is kept: the
    generator advances past them and is left as drawing them would
    leave it (see ``OperationPlan.words_at``).  After an odd number of
    words of width <= 32 that includes the unused high half of the last
    output, which the generator hands to its next 32-bit draw.  The
    uniforms are drawn ``_DRAW_CHUNK`` at a time (see ``_uniforms``).
    A Bernoulli plan of more than ``_DRAW_CHUNK`` ops draws its priority
    and injection uniforms at once, in two threads
    (``_bernoulli_masks_at_once``).  A quota plan draws them in turn: its
    shuffle spends a data-dependent number of outputs, so where the
    injection uniforms begin is known only once it ends.  A plan of at
    most one chunk draws them in turn too, and starts no thread.  Either
    way each mask comes from the values of one ``rng.random(n)``.
    """
    rng = RandomSource(config.seed).generator
    bitgen = rng.bit_generator
    n, w = config.n_ops, config.word_width
    word_state = bitgen.state
    if w > 32:
        bitgen.advance(n)
    else:
        bitgen.advance(n // 2)
        if n % 2:
            spare = int(bitgen.random_raw()) >> 32
            bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": spare}
    buf = np.empty(min(n, _DRAW_CHUNK))
    p = config.per_op_probability
    if config.priority_mode == "quota":
        quota = round(config.priority_fraction * n)
        priority = np.zeros(n, dtype=bool)
        # permutation(n) shuffles an int64 arange; the narrowest index type
        # shuffles to the same order and leaves the generator in the same state.
        order = np.arange(n, dtype=np.min_scalar_type(n - 1))
        rng.shuffle(order)
        priority[order[:quota]] = True
        injected = _injected_ops(rng, n, p, buf)
    elif n > _DRAW_CHUNK:
        priority, injected = _bernoulli_masks_at_once(rng, n, config.priority_fraction, p, buf)
    else:
        priority = _priority_mask(rng, n, config.priority_fraction, buf)
        injected = _injected_ops(rng, n, p, buf)
    bit_draws = rng.random(len(injected))
    return OperationPlan(
        priority=priority, injected=injected, bit_draws=bit_draws, word_width=w, word_state=word_state
    )


def _flip_positions(
    config: SimulationConfig, plan: OperationPlan, checked: np.ndarray
) -> np.ndarray:
    """Flip position floor(u x domain) for each injected op's uniform draw u.

    The domain is the word width; with ``inject_check_zone`` it also
    covers the stored check of the injected ops the strategy checks
    (``checked``), so the positions depend on the strategy while the
    plan does not.
    """
    w = config.word_width
    domain = np.full(len(plan.bit_draws), w, dtype=np.uint16)
    if config.inject_check_zone:
        # Faults may land in the stored check of a checked operation;
        # positions >= width address the check payload.
        domain[checked] += get_codec(config.codec).check_bits(w)
    return np.floor(plan.bit_draws * domain).astype(np.uint16)


def run_simulation(
    config: SimulationConfig,
    engine: str = "fast",
    keep_records: bool = True,
    capture_store: Optional[list] = None,
    plan: Optional[OperationPlan] = None,
) -> tuple[SimulationReport, Optional[RecordSet]]:
    """Execute one run; returns the aggregate report and the records.

    An engine decides only which injected flips were caught; the step
    total, the report and the records follow from the plan, the strategy
    and those flags, and are built here for both engines.
    ``engine="fast"`` verifies each injected op's word alone with the
    codec; ``engine="store"`` drives every operation through a real
    protected store, as the fast engine's oracle and for state dumps.
    With ``keep_records=False`` only the report is built.  Passing a
    list as ``capture_store`` appends the finished store after a
    store-engine run, for state dumps and audits.  A ``plan`` from
    ``draw_plan(config)`` is replayed instead of drawing a new one, so
    the three strategies of one seed can share it.
    """
    if plan is None:
        plan = draw_plan(config)
    elif plan.n_ops != config.n_ops:
        raise ValueError(f"plan has {plan.n_ops} ops, config has n_ops={config.n_ops}")
    elif plan.word_width != config.word_width:
        raise ValueError(
            f"plan has width {plan.word_width}, config has word_width={config.word_width}"
        )
    unflagged, flagged = CHECKED_BY_PRIORITY[config.strategy]
    checked = np.where(plan.priority[plan.injected], flagged, unflagged)
    bits = _flip_positions(config, plan, checked)
    if engine == "fast":
        if capture_store is not None:
            raise ValueError("state capture requires the store engine")
        detected = _detect_fast(config, plan, bits, checked)
    elif engine == "store":
        detected = _detect_store(config, plan, bits, capture_store)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    n, priority_count = config.n_ops, plan.priority_count
    steps = tuple(step_cost(config.strategy, pri, config.word_width) for pri in (False, True))
    injected, caught = len(plan.injected), sum(detected)
    totals = Totals(
        ops=n,
        priority_ops=priority_count,
        errors_injected=injected,
        errors_detected=caught,
        miss_rate=None if injected == 0 else 1.0 - caught / injected,
        total_steps=(n - priority_count) * steps[0] + priority_count * steps[1],
    )
    records = None
    if keep_records:
        records = RecordSet(
            config.strategy,
            plan.priority,
            steps,
            plan.injected,
            bits,
            np.array(detected, dtype=bool),
        )
    return SimulationReport(config=config, totals=totals, engine=engine), records


def _detect_fast(
    config: SimulationConfig, plan: OperationPlan, bits: np.ndarray, checked: np.ndarray
) -> list[bool]:
    """Whether each injected flip is caught, by the real codec on the op's word alone."""
    w = config.word_width
    codec = get_codec(config.codec)
    detected = []
    for value, bit, is_checked in zip(
        plan.words_at(plan.injected).tolist(), bits.tolist(), checked.tolist()
    ):
        if not is_checked:
            detected.append(False)
            continue
        word = Word(value, w)
        check = codec.encode(word)
        if bit < w:
            detected.append(not codec.verify(flip_bit(word, bit), check).valid)
        else:
            detected.append(not codec.verify(word, check.flip_payload_bit(bit - w)).valid)
    return detected


def _detect_store(
    config: SimulationConfig,
    plan: OperationPlan,
    bits: np.ndarray,
    capture_store: Optional[list],
) -> list[bool]:
    """Whether each injected flip is caught, by a store that writes, corrupts and reads every op."""
    n, w = config.n_ops, config.word_width
    store = ProtectedStore(
        codec=config.codec,
        strategy=config.strategy,
        read_policy=ReadPolicy.RETURN_MARKED_INVALID,
        word_width=w,
        allow_check_zone_faults=config.inject_check_zone,
    )
    wpp = store.words_per_page
    priority = plan.priority.tolist()
    flips = dict(zip(plan.injected.tolist(), bits.tolist()))
    detected = []
    words = plan.words_at(np.arange(n)).tolist()
    word_of = word_maker(w)
    for i in range(n):
        addr = Address(i // wpp, i % wpp)
        store.store_write(addr, word_of(words[i]), priority=priority[i])
        bit = flips.get(i)
        if bit is not None:
            if bit < w:
                store.corrupt_data_bit(addr, bit)
            else:
                store.corrupt_check_bit(addr, bit - w)
        invalid = store.store_read(addr).validity is Validity.INVALID
        if bit is not None:
            detected.append(invalid)
        elif invalid:
            # A record set has no row for this: an op without a flip must
            # read back as written.
            raise RuntimeError(f"op {i} was not injected but read back INVALID")
    if capture_store is not None:
        capture_store.append(store)
    return detected


def run_comparison(
    config: SimulationConfig,
    engine: str = "fast",
    keep_records: bool = True,
) -> dict[Strategy, tuple[SimulationReport, Optional[RecordSet]]]:
    """Run all three strategies on the same seed (identical op stream).

    The plan is drawn once and shared, so every result equals that of
    ``run_simulation`` on the same config with the strategy replaced.
    """
    plan = draw_plan(config)
    return {
        strategy: run_simulation(
            replace(config, strategy=strategy), engine, keep_records, plan=plan
        )
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
    operations.  A negative ``base`` entry raises ``ValueError``.
    """
    p = _as_fraction(priority_fraction)
    if not 0 <= p <= 1:
        raise ValueError(f"priority fraction must be in [0, 1], got {priority_fraction}")
    if formula not in ("additive", "weighted"):
        raise ValueError(f"unknown formula {formula!r}")
    base_t, base_s = (_as_fraction(x) for x in base)
    if base_t < 0 or base_s < 0:
        raise ValueError(f"base time and space must be non-negative, got {base}")
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


AUDIT_TOLERANCE = 1e-9


def complexity_audit(widths: tuple[int, ...] = (8, 16, 32)) -> ComplexityAuditResult:
    """Check that per-op steps grow linearly in width at constant check size.

    Runs a one-op simulation at each width (under strategy ``full``
    every op costs the same), fits steps per operation against width,
    and reports the largest residual of the linear fit alongside the
    per-word check storage at each width.  Odd widths round the
    traversal up, so exact linearity holds for same-parity width sets.
    """
    if len(set(widths)) < 3:
        raise ValueError("complexity audit needs runs at >= 3 distinct word widths")
    per_op = []
    bits = []
    for w in widths:
        cfg = SimulationConfig(n_ops=1, word_width=w, strategy=Strategy.FULL)
        report, _ = run_simulation(cfg, engine="fast", keep_records=False)
        per_op.append(report.totals.total_steps / report.totals.ops)
        bits.append(get_codec(cfg.codec).check_bits(w))
    slope, intercept = np.polyfit(widths, per_op, 1)
    fitted = slope * np.asarray(widths) + intercept
    max_residual = float(np.max(np.abs(fitted - np.asarray(per_op))))
    return ComplexityAuditResult(
        widths=tuple(widths),
        per_op_steps=tuple(per_op),
        slope=float(slope),
        intercept=float(intercept),
        max_residual=max_residual,
        steps_linear=max_residual <= AUDIT_TOLERANCE,
        check_bits=tuple(bits),
        check_bits_constant=len(set(bits)) == 1,
    )
