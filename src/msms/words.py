"""Fixed-width bit vectors, single-bit flips, seeded randomness, and the word rules.

Everything else in the package is built on these pieces: an immutable
``Word`` value type, a single-bit flip primitive, a ``RandomSource``
whose draws are bit-exact reproducible per seed, and the word rules: one
function each decides a width, a seed, a bit position and a bit string,
taking an integer as a plain int (another integer type by its value),
and :func:`word_maker` decides when a width's words are shared.

Bit positions are 0-based from the least-significant bit.  String
rendering is most-significant bit first (``"10110"``), so position 0 is
the rightmost character.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_WIDTH = 64
_WIDTHS = frozenset(range(1, MAX_WIDTH + 1))


def as_width(width: int) -> int:
    """``width`` as a plain int word width in [1, MAX_WIDTH]."""
    width = operator.index(width)
    if width not in _WIDTHS:
        raise ValueError(f"word_width must be in [1, {MAX_WIDTH}], got {width}")
    return width


def as_seed(seed: int) -> int:
    """``seed`` as a plain int unsigned 64-bit seed."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def as_position(pos: int, size: int, what: str = "bit") -> int:
    """``pos`` as a plain int position in [0, size); ``what`` names it in the error."""
    pos = operator.index(pos)
    if not 0 <= pos < size:
        raise IndexError(f"{what} {pos} out of range for width {size}")
    return pos


def bit_string(value: int, size: int) -> str:
    """The ``size`` bits of ``value``, most significant first; ``""`` for size 0."""
    return format(value, f"0{size}b") if size else ""


@dataclass(frozen=True)
class Word:
    """A fixed-width bit vector; the unit of protected data.

    ``value`` is the unsigned integer the bits encode, ``width`` the
    number of bits.  Instances are immutable values and safe to share.
    """

    value: int
    width: int = 8

    # Written out, not generated with a __post_init__, so that building a Word
    # is one Python call: a wide store builds two per op.
    def __init__(self, value: int, width: int = 8) -> None:
        # A plain int value with a plain int width in range skips the rules; anything
        # else goes through them, so another integer type is taken by its value.
        if type(value) is not int or type(width) is not int or width not in _WIDTHS:
            value, width = operator.index(value), as_width(width)
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} out of range for width {width}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "width", width)

    @classmethod
    def from_string(cls, bits: str) -> "Word":
        """Parse an MSB-first bit string such as ``"10110"``."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(int(bits, 2), len(bits))

    @classmethod
    def zero(cls, width: int = 8) -> "Word":
        return cls(0, width)

    def bit(self, pos: int) -> int:
        return (self.value >> as_position(pos, self.width)) & 1

    def ones(self) -> int:
        return self.value.bit_count()

    def zeros(self) -> int:
        return self.width - self.value.bit_count()

    def __str__(self) -> str:
        return bit_string(self.value, self.width)


# A width with at most this many values (width <= 8) shares one Word per value.
_SHARED_VALUES = 256


def word_maker(width: int) -> Callable[[int], Word]:
    """The function that gives a value held at ``width`` its :class:`Word`.

    A width with at most 256 values hands out one shared ``Word`` per
    value, which its immutability makes safe; a wider width builds a fresh
    ``Word`` on every call.  The value is one a store or a plan already
    holds: a plain int in range.  A shared width raises ``KeyError`` for a
    value outside its range.
    """
    width = as_width(width)
    if 1 << width <= _SHARED_VALUES:
        return _shared_words(width).__getitem__
    return lambda value: Word(value, width)


@functools.cache
def _shared_words(width: int) -> dict[int, Word]:
    return {value: Word(value, width) for value in range(1 << width)}


def flip_bit(word: Word, pos: int) -> Word:
    """Return a copy of ``word`` with exactly bit ``pos`` inverted.

    Raises IndexError for an out-of-range position.  Applying the same
    flip twice returns the original word.
    """
    return Word(word.value ^ (1 << as_position(pos, word.width)), word.width)


class RandomSource:
    """Deterministic seeded randomness: equal seeds give equal draw sequences.

    Wraps a PCG64 generator.  A source is single-owner; for concurrent
    work derive independent children with :meth:`derive` instead of
    sharing one instance.
    """

    def __init__(self, seed: int):
        self.seed = as_seed(seed)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorized draws."""
        return self._rng

    def bit_index(self, width: int) -> int:
        """Uniform bit position in ``[0, width)``; ``width`` is a word width (``as_width``)."""
        if width < 1:
            raise ValueError("width must be positive")
        return int(self._rng.integers(0, as_width(width)))

    def word(self, width: int = 8) -> Word:
        """Uniformly random word of the given width; ``width`` is a word width (``as_width``)."""
        width = as_width(width)
        hi = (1 << width) - 1
        return Word(int(self._rng.integers(0, hi, dtype=np.uint64, endpoint=True)), width)

    def derive(self, index: int) -> "RandomSource":
        """Independent child source; deterministic in (seed, index)."""
        entropy = [self.seed, operator.index(index)]
        return RandomSource(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"
