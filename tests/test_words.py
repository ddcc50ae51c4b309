"""Word values, bit flips, and the seeded randomness source."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from msms import MAX_WIDTH, RandomSource, Word, flip_bit
from msms.words import as_position, as_seed, as_width, bit_string


def words(max_width: int = 16):
    return st.integers(1, max_width).flatmap(
        lambda w: st.builds(Word, st.integers(0, (1 << w) - 1), st.just(w))
    )


class TestWord:
    def test_from_string_parses_msb_first(self):
        w = Word.from_string("10110")
        assert w.value == 0b10110
        assert w.width == 5
        assert str(w) == "10110"

    def test_bit_positions_count_from_lsb(self):
        w = Word.from_string("10110")
        assert [w.bit(i) for i in range(5)] == [0, 1, 1, 0, 1]

    def test_ones_and_zeros_partition_the_width(self):
        w = Word.from_string("10110")
        assert w.ones() == 3
        assert w.zeros() == 2

    def test_str_zero_pads_to_width(self):
        assert str(Word(3, 8)) == "00000011"

    def test_zero_constructor(self):
        assert Word.zero(4) == Word(0, 4)

    @pytest.mark.parametrize("value,width", [(-1, 8), (256, 8), (2, 1), (0, 0), (0, MAX_WIDTH + 1)])
    def test_rejects_out_of_range(self, value, width):
        with pytest.raises(ValueError):
            Word(value, width)

    @pytest.mark.parametrize("text", ["", "012", "1 0", "abc"])
    def test_from_string_rejects_non_bits(self, text):
        with pytest.raises(ValueError):
            Word.from_string(text)

    @given(words())
    def test_string_round_trip(self, w):
        assert Word.from_string(str(w)) == w


    @pytest.mark.parametrize("value,width", [(np.int64(5), 8), (5, np.uint8(8)), (True, 1)])
    def test_other_integer_types_are_taken_as_plain_ints(self, value, width):
        w = Word(value, width)
        assert (type(w.value), type(w.width)) == (int, int)
        assert w == Word(int(value), int(width))

    @pytest.mark.parametrize("value,width", [(1.0, 8), (1, 8.0), ("1", 8)])
    def test_a_non_integer_value_or_width_is_refused(self, value, width):
        with pytest.raises(TypeError):
            Word(value, width)


class TestFlipBit:
    def test_flipping_position_two(self):
        assert flip_bit(Word.from_string("10110"), 2) == Word.from_string("10010")

    def test_flipping_the_msb(self):
        assert flip_bit(Word.from_string("10110"), 4) == Word.from_string("00110")

    @pytest.mark.parametrize("pos", [-1, 5, 100])
    def test_out_of_range_position_rejected(self, pos):
        with pytest.raises(IndexError):
            flip_bit(Word.from_string("10110"), pos)

    @given(words(), st.data())
    def test_involution(self, w, data):
        pos = data.draw(st.integers(0, w.width - 1))
        assert flip_bit(flip_bit(w, pos), pos) == w

    @given(words(), st.data())
    def test_changes_exactly_one_bit(self, w, data):
        pos = data.draw(st.integers(0, w.width - 1))
        assert (w.value ^ flip_bit(w, pos).value).bit_count() == 1


class TestRandomSource:
    def test_same_seed_replays_the_same_draws(self):
        a, b = RandomSource(123), RandomSource(123)
        assert [a.bit_index(8) for _ in range(50)] == [b.bit_index(8) for _ in range(50)]
        assert a.word(12) == b.word(12)

    def test_different_seeds_diverge(self):
        a, b = RandomSource(1), RandomSource(2)
        assert [a.bit_index(64) for _ in range(20)] != [b.bit_index(64) for _ in range(20)]

    @pytest.mark.parametrize("width", [0, -1])
    def test_bit_index_rejects_a_width_below_one(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            RandomSource(0).bit_index(width)

    def test_bit_index_takes_its_width_by_the_word_rule(self):
        with pytest.raises(TypeError):
            RandomSource(0).bit_index(2.5)
        with pytest.raises(ValueError, match=rf"word_width must be in \[1, {MAX_WIDTH}\], got 100"):
            RandomSource(0).bit_index(100)
        assert RandomSource(5).bit_index(np.uint8(MAX_WIDTH)) == RandomSource(5).bit_index(MAX_WIDTH)

    def test_bit_index_stays_in_range(self):
        rng = RandomSource(7)
        assert all(0 <= rng.bit_index(5) < 5 for _ in range(500))

    def test_a_one_bit_width_has_one_bit_index(self):
        rng = RandomSource(7)
        assert [rng.bit_index(1) for _ in range(20)] == [0] * 20

    @pytest.mark.parametrize(
        "width, error, message",
        [
            (65, ValueError, rf"^word_width must be in \[1, {MAX_WIDTH}\], got 65$"),
            (0, ValueError, rf"^word_width must be in \[1, {MAX_WIDTH}\], got 0$"),
            (-1, ValueError, rf"^word_width must be in \[1, {MAX_WIDTH}\], got -1$"),
            (2.5, TypeError, "^'float' object cannot be interpreted as an integer$"),
        ],
    )
    def test_word_takes_its_width_by_the_word_rule(self, width, error, message):
        rng = RandomSource(3)
        with pytest.raises(error, match=message):
            rng.word(width)
        # A refused width draws nothing.
        assert rng.word(8) == RandomSource(3).word(8)

    @pytest.mark.parametrize("width", [1, 7, 8, 32, 33, 63, MAX_WIDTH])
    def test_word_is_one_bounded_draw_of_the_generator(self, width):
        rng, gen = RandomSource(11), np.random.Generator(np.random.PCG64(11))
        for _ in range(5):
            value = int(gen.integers(0, (1 << width) - 1, dtype=np.uint64, endpoint=True))
            assert rng.word(width) == Word(value, width)
        assert RandomSource(5).word(np.uint8(width)) == RandomSource(5).word(width)

    def test_word_matches_requested_width(self):
        rng = RandomSource(7)
        for _ in range(100):
            w = rng.word(6)
            assert w.width == 6

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_must_be_unsigned_64_bit(self, seed):
        with pytest.raises(ValueError):
            RandomSource(seed)

    def test_derived_children_are_deterministic_and_independent(self):
        a = RandomSource(9).derive(3)
        b = RandomSource(9).derive(3)
        c = RandomSource(9).derive(4)
        seq_a = [a.bit_index(32) for _ in range(20)]
        assert seq_a == [b.bit_index(32) for _ in range(20)]
        assert seq_a != [c.bit_index(32) for _ in range(20)]

    def test_generator_is_numpy(self):
        assert isinstance(RandomSource(0).generator, np.random.Generator)


class TestWordRules:
    """The rules every module takes a width, a seed, a position and a bit string by."""

    @pytest.mark.parametrize("width", [1, 8, MAX_WIDTH, np.uint8(8), True])
    def test_a_width_in_range_is_taken_as_a_plain_int(self, width):
        assert type(as_width(width)) is int
        assert as_width(width) == int(width)

    @pytest.mark.parametrize("width", [0, -1, MAX_WIDTH + 1, False])
    def test_a_width_out_of_range_is_refused(self, width):
        with pytest.raises(ValueError, match=rf"^word_width must be in \[1, 64\], got {int(width)}$"):
            as_width(width)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1, np.uint64(3), True])
    def test_a_seed_in_range_is_taken_as_a_plain_int(self, seed):
        assert type(as_seed(seed)) is int
        assert as_seed(seed) == int(seed)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_a_seed_out_of_range_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an unsigned 64-bit integer, got {seed}$"):
            as_seed(seed)

    @pytest.mark.parametrize("pos", [0, 4, np.int64(4), True])
    def test_a_position_in_range_is_taken_as_a_plain_int(self, pos):
        assert type(as_position(pos, 5)) is int
        assert as_position(pos, 5) == int(pos)

    @pytest.mark.parametrize("pos", [-1, 5])
    def test_a_position_out_of_range_is_refused(self, pos):
        with pytest.raises(IndexError, match=f"^bit {pos} out of range for width 5$"):
            as_position(pos, 5)
        with pytest.raises(IndexError, match=f"^offset {pos} out of range for width 5$"):
            as_position(pos, 5, "offset")

    @pytest.mark.parametrize("rule", [as_width, as_seed, lambda x: as_position(x, 8)])
    @pytest.mark.parametrize("x", [1.0, "1", None])
    def test_a_non_integer_is_refused_by_every_rule(self, rule, x):
        with pytest.raises(TypeError):
            rule(x)

    @pytest.mark.parametrize(
        "value,size,text",
        [(0, 0, ""), (0, 1, "0"), (1, 1, "1"), (0b10110, 5, "10110"), (3, 8, "00000011"),
         ((1 << 64) - 1, 64, "1" * 64), (1, 66, "0" * 65 + "1")],
    )
    def test_bit_string_is_msb_first_and_empty_at_size_zero(self, value, size, text):
        assert bit_string(value, size) == text

    def test_word_bit_and_flip_bit_take_positions_by_the_rule(self):
        w = Word.from_string("10110")
        assert w.bit(np.int64(1)) == 1
        assert flip_bit(w, np.uint8(1)) == Word.from_string("10100")
        for pos in (1.0, "1"):
            with pytest.raises(TypeError):
                w.bit(pos)
            with pytest.raises(TypeError):
                flip_bit(w, pos)

    def test_a_word_width_out_of_range_names_the_rule(self):
        with pytest.raises(ValueError, match=r"word_width must be in \[1, 64\], got 65"):
            Word(0, 65)

    def test_random_source_takes_its_seed_by_the_rule(self):
        with pytest.raises(TypeError):
            RandomSource("7")
        with pytest.raises(TypeError):
            RandomSource(7.0)
        source = RandomSource(np.uint64(7))
        assert type(source.seed) is int
        assert source.bit_index(64) == RandomSource(7).bit_index(64)

    def test_derive_takes_its_index_as_a_plain_int(self):
        assert RandomSource(9).derive(np.int64(3)).seed == RandomSource(9).derive(3).seed
        assert type(RandomSource(9).derive(3).seed) is int
        for index in (3.0, 3.7, "3"):
            with pytest.raises(TypeError):
                RandomSource(9).derive(index)
