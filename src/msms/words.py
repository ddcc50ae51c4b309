"""Fixed-width bit vectors, single-bit flips, and seeded randomness.

Everything else in the package is built on these three pieces: an
immutable ``Word`` value type, a single-bit flip primitive, and a
``RandomSource`` whose draws are bit-exact reproducible per seed.

Bit positions are 0-based from the least-significant bit.  String
rendering is most-significant bit first (``"10110"``), so position 0 is
the rightmost character.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

MAX_WIDTH = 64


@dataclass(frozen=True)
class Word:
    """A fixed-width bit vector; the unit of protected data.

    ``value`` is the unsigned integer the bits encode, ``width`` the
    number of bits.  Instances are immutable values and safe to share.
    """

    value: int
    width: int = 8

    def __post_init__(self) -> None:
        # Another integer type is taken by its value; a float or a str raises TypeError.
        if type(self.value) is not int or type(self.width) is not int:
            object.__setattr__(self, "value", operator.index(self.value))
            object.__setattr__(self, "width", operator.index(self.width))
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for width {self.width}")

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
        _check_pos(pos, self.width)
        return (self.value >> pos) & 1

    def ones(self) -> int:
        return self.value.bit_count()

    def zeros(self) -> int:
        return self.width - self.value.bit_count()

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


def _check_pos(pos: int, width: int) -> None:
    if not 0 <= pos < width:
        raise IndexError(f"bit position {pos} out of range for width {width}")


def flip_bit(word: Word, pos: int) -> Word:
    """Return a copy of ``word`` with exactly bit ``pos`` inverted.

    Raises IndexError for an out-of-range position.  Applying the same
    flip twice returns the original word.
    """
    _check_pos(pos, word.width)
    return Word(word.value ^ (1 << pos), word.width)


class RandomSource:
    """Deterministic seeded randomness: equal seeds give equal draw sequences.

    Wraps a PCG64 generator.  A source is single-owner; for concurrent
    work derive independent children with :meth:`derive` instead of
    sharing one instance.
    """

    def __init__(self, seed: int):
        if not 0 <= int(seed) < (1 << 64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorized draws."""
        return self._rng

    def bit_index(self, width: int) -> int:
        """Uniform bit position in ``[0, width)``."""
        if width < 1:
            raise ValueError("width must be positive")
        return int(self._rng.integers(0, width))

    def word(self, width: int = 8) -> Word:
        """Uniformly random word of the given width."""
        hi = (1 << width) - 1
        return Word(int(self._rng.integers(0, hi, dtype=np.uint64, endpoint=True)), width)

    def derive(self, index: int) -> "RandomSource":
        """Independent child source; deterministic in (seed, index)."""
        child = np.random.SeedSequence([self.seed, int(index)]).generate_state(1, np.uint64)[0]
        return RandomSource(int(child))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"
