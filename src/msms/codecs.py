"""Pluggable error-detecting codecs.

A codec turns a word into check data on write (``encode``) and compares
recomputed check data against the stored copy on read (``verify``).
Detection only; nothing here corrects errors.  Each codec also carries a
:class:`CostDescriptor` so the cost model can price the technique.

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

New codecs register through :func:`register_codec` and become available
to the store and the CLI by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .words import Word, flip_bit

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

    ``payload`` is a bit tuple rendered most-significant-first; its
    length is codec-dependent (1 for parity, ceil(log2(width+1)) for
    berger, 2*width for duplication).
    """

    codec_id: CodecId
    payload: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.payload):
            raise ValueError("payload must contain only 0/1 bits")

    @property
    def payload_str(self) -> str:
        return "".join(str(b) for b in self.payload)

    def flip_payload_bit(self, pos: int) -> "CodecCheck":
        """Payload with one bit inverted; position 0 is least significant."""
        if not 0 <= pos < len(self.payload):
            raise IndexError(f"check bit {pos} out of range for payload length {len(self.payload)}")
        bits = list(self.payload)
        bits[len(bits) - 1 - pos] ^= 1
        return CodecCheck(self.codec_id, tuple(bits))


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    codec_id: CodecId


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
    """Interface every codec implements.  Stateless and shareable."""

    codec_id: CodecId

    def encode(self, word: Word) -> CodecCheck:
        raise NotImplementedError

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        raise NotImplementedError

    def check_bits(self, width: int) -> int:
        raise NotImplementedError

    def cost(self) -> CostDescriptor:
        raise NotImplementedError

    def _require_own(self, check: CodecCheck) -> None:
        if check.codec_id is not self.codec_id:
            raise CodecMismatchError(
                f"{self.codec_id.value} codec given a {check.codec_id.value} check"
            )


class ParityCodec(Codec):
    """Single stored bit: 1 iff the count of 1-bits is odd (XOR fold)."""

    codec_id = CodecId.PARITY

    def encode(self, word: Word) -> CodecCheck:
        return CodecCheck(self.codec_id, (word.ones() & 1,))

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        self._require_own(check)
        return VerifyResult(self.encode(word).payload == check.payload, self.codec_id)

    def check_bits(self, width: int) -> int:
        return 1

    def cost(self) -> CostDescriptor:
        return CostDescriptor(1, 1)


class BergerCodec(Codec):
    """Stores the zero-bit count in ceil(log2(width+1)) bits, MSB first.

    Any single flip moves the zero count by exactly one, and any error
    that only flips bits in one direction moves it monotonically, so all
    unidirectional errors are detected.
    """

    codec_id = CodecId.BERGER

    def encode(self, word: Word) -> CodecCheck:
        k = self.check_bits(word.width)
        count = word.zeros()
        payload = tuple((count >> (k - 1 - i)) & 1 for i in range(k))
        return CodecCheck(self.codec_id, payload)

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        self._require_own(check)
        return VerifyResult(self.encode(word).payload == check.payload, self.codec_id)

    def check_bits(self, width: int) -> int:
        return max(1, math.ceil(math.log2(width + 1)))

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
        return CodecCheck(self.codec_id, word.bits[::-1] * 2)

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        self._require_own(check)
        if len(check.payload) % word.width:
            raise ValueError("duplication payload length is not a multiple of the word width")
        copies = len(check.payload) // word.width
        return VerifyResult(check.payload == word.bits[::-1] * copies, self.codec_id)

    def check_bits(self, width: int) -> int:
        return 2 * width

    def cost(self) -> CostDescriptor:
        return CostDescriptor(3, 4)


class NullCodec(Codec):
    """Absence of a technique: no check data, verification always passes."""

    codec_id = CodecId.NONE

    def encode(self, word: Word) -> CodecCheck:
        return CodecCheck(self.codec_id, ())

    def verify(self, word: Word, check: CodecCheck) -> VerifyResult:
        self._require_own(check)
        return VerifyResult(True, self.codec_id)

    def check_bits(self, width: int) -> int:
        return 0

    def cost(self) -> CostDescriptor:
        return CostDescriptor(1, 1)


_REGISTRY: dict[str, Codec] = {}


def register_codec(name: str, codec: Codec) -> None:
    """Make a codec selectable by name (store config, CLI ``--codec``)."""
    _REGISTRY[name] = codec


def get_codec(name: Union[str, CodecId, Codec]) -> Codec:
    if isinstance(name, Codec):
        return name
    key = name.value if isinstance(name, CodecId) else str(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown codec {key!r}; registered: {sorted(_REGISTRY)}") from None


def codec_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


register_codec("parity", ParityCodec())
register_codec("berger", BergerCodec())
register_codec("dup", DuplicationCodec())
register_codec("none", NullCodec())


def single_flip_error_sets(word: Word) -> tuple[frozenset[Word], frozenset[Word]]:
    """Partition the Hamming-1 neighborhood of a word by flip direction.

    Returns ``(zero_error_set, one_error_set)``: the words reachable by
    clearing one 1-bit, and the words reachable by setting one 0-bit.
    The two sets are disjoint and together cover all width neighbors.
    """
    zero_errors = frozenset(flip_bit(word, i) for i in range(word.width) if word.bit(i) == 1)
    one_errors = frozenset(flip_bit(word, i) for i in range(word.width) if word.bit(i) == 0)
    return zero_errors, one_errors
