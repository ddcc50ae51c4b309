"""Pluggable error-detecting codecs.

A codec turns a word into check data on write (``encode``) and compares
recomputed check data against the stored copy on read (``verify``).
Check data is an integer of ``check_bits(width)`` bits, the codec's only
definition of its size, and ``check_value(value, width)`` is its only
definition of that integer: ``encode`` wraps it in a :class:`CodecCheck`,
and the store keeps it bare.  Detection only; nothing here corrects errors.
Each codec also carries a :class:`CostDescriptor` so the cost model can
price the technique.

Built-in codecs:

* ``parity``  - one stored bit, the XOR fold of the data bits.  Catches
  every odd-weight error (all single flips), passes every even-weight
  one.
* ``berger``  - stores the count of zero bits.  Catches every
  unidirectional error (any number of flips all in the same direction).
* ``dup``     - two verbatim copies compared on read.  Stands in for
  heavyweight duplication-style detection; its cost descriptor carries
  the conventional 3x time / 4x space factors.
* ``none``    - no check data, verification always passes.

The four are the whole registry: the store and the CLI select a codec
by one of these names.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .words import Word, as_position, bit_string, flip_bit

Rational = Union[int, Fraction]


class CodecId(str, Enum):
    PARITY = "parity"
    BERGER = "berger"
    DUPLICATION = "dup"
    NONE = "none"

    def __str__(self) -> str:  # render as the plain name in reports
        return self.value


class CodecMismatchError(ValueError):
    """A check was presented to a codec that did not produce it."""


@dataclass(frozen=True)
class CodecCheck:
    """Codec-produced check data, stored in the isolated check zone.

    ``value`` is an unsigned integer of ``size`` bits, bit 0 the least
    significant; ``size`` is the producing codec's ``check_bits(width)``.
    A ``value`` of another integer type is taken as a plain int; a float raises ``TypeError``.
    """

    codec_id: CodecId
    value: int
    size: int

    def __post_init__(self) -> None:
        if type(self.value) is not int:
            object.__setattr__(self, "value", operator.index(self.value))
        if not 0 <= self.value < 1 << self.size:
            raise ValueError(f"check value {self.value} does not fit in {self.size} bits")

    @property
    def payload_str(self) -> str:
        """The check's bits, most significant first, as state dumps write them."""
        return bit_string(self.value, self.size)

    def flip_payload_bit(self, pos: int) -> "CodecCheck":
        """The check with one bit inverted; position 0 is least significant."""
        return CodecCheck(self.codec_id, self.value ^ 1 << as_position(pos, self.size), self.size)


@dataclass(frozen=True)
class VerifyResult:
    valid: bool


@dataclass(frozen=True)
class CostDescriptor:
    """Cost of running a technique, relative to an unprotected baseline.

    ``time_multiplier`` / ``space_multiplier`` scale the baseline cost
    units of the closed-form cost model.  Step counts live in the
    simulation's step model, check sizes in :meth:`Codec.check_bits`.
    """

    time_multiplier: Rational
    space_multiplier: Rational

    def __post_init__(self) -> None:
        if self.time_multiplier < 1 or self.space_multiplier < 1:
            raise ValueError("cost multipliers must be >= 1")


class Codec:
    """Interface every codec implements.  Stateless and shareable.

    Each ``encode`` wraps :meth:`check_value` through :meth:`_check`, and
    each ``verify`` compares against it through :meth:`_verify`.
    """

    codec_id: CodecId

    def encode(self, word: Word) -> CodecCheck:
        raise NotImplementedError

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        raise NotImplementedError

    def check_value(self, value: int, width: int) -> int:
        """The check of the ``width``-bit word ``value``: a plain int of ``check_bits(width)`` bits.

        ``value`` and ``width`` are taken as a :class:`Word` holds them, unchecked.
        """
        raise NotImplementedError

    def check_bits(self, width: int) -> int:
        raise NotImplementedError

    def cost(self) -> CostDescriptor:
        raise NotImplementedError

    def _check(self, word: Word) -> CodecCheck:
        value, width = word.value, word.width
        return CodecCheck(self.codec_id, self.check_value(value, width), self.check_bits(width))

    def _verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        if check.codec_id is not self.codec_id:
            raise CodecMismatchError(
                f"{self.codec_id.value} codec given a {check.codec_id.value} check"
            )
        size = self.check_bits(word.width)
        if check.size != size:
            raise ValueError(f"a width-{word.width} check has {size} bits, not {check.size}")
        return VerifyResult(check.value == self.check_value(word.value, word.width))


class ParityCodec(Codec):
    """Single stored bit: 1 iff the count of 1-bits is odd (XOR fold)."""

    codec_id = CodecId.PARITY

    def encode(self, word: Word) -> CodecCheck:
        return self._check(word)

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        return self._verify(word, check)

    def check_value(self, value: int, width: int) -> int:
        return value.bit_count() & 1

    def check_bits(self, width: int) -> int:
        return 1

    def cost(self) -> CostDescriptor:
        return CostDescriptor(1, 1)


class BergerCodec(Codec):
    """Stores the zero-bit count in ceil(log2(width+1)) bits.

    Any single flip moves the zero count by exactly one, and any error
    that only flips bits in one direction moves it monotonically, so all
    unidirectional errors are detected.
    """

    codec_id = CodecId.BERGER

    def encode(self, word: Word) -> CodecCheck:
        return self._check(word)

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        return self._verify(word, check)

    def check_value(self, value: int, width: int) -> int:
        return width - value.bit_count()

    def check_bits(self, width: int) -> int:
        return width.bit_length()  # ceil(log2(width + 1))

    def cost(self) -> CostDescriptor:
        return CostDescriptor(1, 1)


class DuplicationCodec(Codec):
    """Two verbatim copies of the word, compared bit-for-bit on read.

    A word-granularity stand-in for duplication-style detection; the
    cost descriptor carries the conventional threefold-time /
    fourfold-space factors of such techniques rather than the measured
    ratio of this toy construction.
    """

    codec_id = CodecId.DUPLICATION

    def encode(self, word: Word) -> CodecCheck:
        return self._check(word)

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        return self._verify(word, check)

    def check_value(self, value: int, width: int) -> int:
        return value << width | value

    def check_bits(self, width: int) -> int:
        return 2 * width

    def cost(self) -> CostDescriptor:
        return CostDescriptor(3, 4)


class NullCodec(Codec):
    """Absence of a technique: no check data, verification always passes."""

    codec_id = CodecId.NONE

    def encode(self, word: Word) -> CodecCheck:
        return self._check(word)

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        return self._verify(word, check)

    def check_value(self, value: int, width: int) -> int:
        return 0

    def check_bits(self, width: int) -> int:
        return 0

    def cost(self) -> CostDescriptor:
        return CostDescriptor(1, 1)


_REGISTRY: dict[str, Codec] = {
    codec.codec_id.value: codec
    for codec in (ParityCodec(), BergerCodec(), DuplicationCodec(), NullCodec())
}


def get_codec(name: str) -> Codec:
    """The shared codec instance selectable by ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; registered: {sorted(_REGISTRY)}") from None


def codec_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def single_flip_error_sets(word: Word) -> tuple[frozenset[Word], frozenset[Word]]:
    """Partition the Hamming-1 neighborhood of a word by flip direction.

    Returns ``(zero_error_set, one_error_set)``: the words reachable by
    clearing one 1-bit, and the words reachable by setting one 0-bit.
    The two sets are disjoint and together cover all width neighbors.
    """
    zero_errors = frozenset(flip_bit(word, i) for i in range(word.width) if word.bit(i) == 1)
    one_errors = frozenset(flip_bit(word, i) for i in range(word.width) if word.bit(i) == 0)
    return zero_errors, one_errors
