"""Error-detecting codec behavior, including exhaustive small-width sweeps."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from msms import (
    CodecCheck,
    CodecId,
    CodecMismatchError,
    CostDescriptor,
    Word,
    codec_names,
    flip_bit,
    get_codec,
    single_flip_error_sets,
)

parity, berger, dup = get_codec("parity"), get_codec("berger"), get_codec("dup")


def all_words(width: int):
    return (Word(v, width) for v in range(1 << width))


def words(max_width: int = 12):
    return st.integers(1, max_width).flatmap(
        lambda w: st.builds(Word, st.integers(0, (1 << w) - 1), st.just(w))
    )


class TestParity:
    def test_check_is_the_ones_count_parity(self):
        assert parity.encode(Word.from_string("10110")).payload_str == "1"
        assert parity.encode(Word.from_string("1111")).payload_str == "0"
        assert parity.encode(Word.zero(8)).payload_str == "0"

    def test_verify_accepts_the_original(self):
        w = Word.from_string("10110")
        assert parity.verify(w, parity.encode(w)).valid

    @pytest.mark.parametrize("width", range(1, 13))
    def test_every_single_flip_detected_exhaustively(self, width):
        for w in all_words(width):
            check = parity.encode(w)
            for pos in range(width):
                assert not parity.verify(flip_bit(w, pos), check).valid

    @pytest.mark.parametrize("width", range(2, 10))
    def test_every_double_flip_passes_exhaustively(self, width):
        # Two flips cancel in the parity sum: the codec's blind spot.
        for w in all_words(width):
            check = parity.encode(w)
            for a, b in itertools.combinations(range(width), 2):
                assert parity.verify(flip_bit(flip_bit(w, a), b), check).valid

    def test_flipped_check_bit_detected(self):
        w = Word.from_string("10110")
        assert not parity.verify(w, parity.encode(w).flip_payload_bit(0)).valid

    def test_cost_is_one_extra_bit(self):
        cost = parity.cost()
        assert parity.check_bits(8) == 1
        assert (cost.time_multiplier, cost.space_multiplier) == (1, 1)


class TestBerger:
    def test_check_counts_zeros_msb_first(self):
        assert berger.encode(Word.from_string("10110")).payload_str == "010"
        assert berger.encode(Word.from_string("0000")).payload_str == "100"
        assert berger.encode(Word.from_string("1111")).payload_str == "000"

    @pytest.mark.parametrize(
        "width,expected", [(1, 1), (3, 2), (7, 3), (8, 4), (15, 4), (16, 5)]
    )
    def test_check_width_is_log_of_word_width(self, width, expected):
        assert get_codec("berger").check_bits(width) == expected
        assert math.ceil(math.log2(width + 1)) == expected

    @pytest.mark.parametrize("width", range(1, 11))
    def test_all_unidirectional_one_to_zero_errors_detected(self, width):
        # Dropping any non-empty subset of ones raises the zero count,
        # which the stored count cannot match.
        for w in all_words(width):
            check = berger.encode(w)
            ones = [i for i in range(width) if w.bit(i)]
            for r in range(1, len(ones) + 1):
                for subset in itertools.combinations(ones, r):
                    damaged = w
                    for pos in subset:
                        damaged = flip_bit(damaged, pos)
                    assert not berger.verify(damaged, check).valid

    @pytest.mark.parametrize("width", range(1, 11))
    def test_all_unidirectional_zero_to_one_errors_detected(self, width):
        for w in all_words(width):
            check = berger.encode(w)
            zeros = [i for i in range(width) if not w.bit(i)]
            for r in range(1, len(zeros) + 1):
                for subset in itertools.combinations(zeros, r):
                    damaged = w
                    for pos in subset:
                        damaged = flip_bit(damaged, pos)
                    assert not berger.verify(damaged, check).valid

    def test_balanced_bidirectional_error_passes(self):
        # One 1->0 plus one 0->1 keeps the zero count: out of scope by design.
        w = Word.from_string("10110")
        damaged = flip_bit(flip_bit(w, 0), 1)  # 10110 -> 10101
        assert berger.verify(damaged, berger.encode(w)).valid

    @given(words())
    def test_verify_accepts_the_original(self, w):
        assert berger.verify(w, berger.encode(w)).valid

    def test_cost_is_one_counting_pass(self):
        cost = berger.cost()
        assert (cost.time_multiplier, cost.space_multiplier) == (1, 1)


class TestSingleFlipErrorSets:
    def test_width_five_example(self):
        zero_errors, one_errors = single_flip_error_sets(Word.from_string("10110"))
        assert zero_errors == frozenset(
            Word.from_string(s) for s in ("00110", "10010", "10100")
        )
        assert one_errors == frozenset(
            Word.from_string(s) for s in ("11110", "10111")
        )

    @given(words(10))
    def test_sets_partition_all_single_flips(self, w):
        zero_errors, one_errors = single_flip_error_sets(w)
        assert len(zero_errors) == w.ones()
        assert len(one_errors) == w.zeros()
        assert zero_errors | one_errors == {flip_bit(w, i) for i in range(w.width)}

    @given(words(10))
    def test_berger_detects_every_single_flip(self, w):
        check = berger.encode(w)
        for damaged in set.union(*map(set, single_flip_error_sets(w))):
            assert not berger.verify(damaged, check).valid


class TestDuplication:
    def test_payload_holds_two_copies(self):
        w = Word.from_string("1011")
        check = dup.encode(w)
        assert check.payload_str == "10111011"

    @given(words(10), st.data())
    def test_any_single_data_flip_detected(self, w, data):
        pos = data.draw(st.integers(0, w.width - 1))
        assert not dup.verify(flip_bit(w, pos), dup.encode(w)).valid

    @given(words(8), st.data())
    def test_any_single_copy_flip_detected(self, w, data):
        check = dup.encode(w)
        pos = data.draw(st.integers(0, check.size - 1))
        assert not dup.verify(w, check.flip_payload_bit(pos)).valid

    def test_cost_carries_the_cited_multipliers(self):
        cost = dup.cost()
        assert cost.time_multiplier == 3
        assert cost.space_multiplier == 4
        assert dup.check_bits(8) == 16


class TestNullCodec:
    @given(words())
    def test_accepts_everything(self, w):
        codec = get_codec("none")
        assert codec.verify(w, codec.encode(w)).valid

    def test_costs_nothing_extra(self):
        cost = get_codec("none").cost()
        assert get_codec("none").check_bits(8) == 0
        assert (cost.time_multiplier, cost.space_multiplier) == (1, 1)


class TestRegistryAndChecks:
    def test_known_names(self):
        assert set(codec_names()) >= {"parity", "berger", "dup", "none"}

    def test_unknown_codec_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            get_codec("hamming")

    def test_cross_codec_check_rejected(self):
        w = Word.from_string("10110")
        with pytest.raises(CodecMismatchError):
            parity.verify(w, berger.encode(w))
        # A check one bit longer than check_bits(width) is not this
        # codec's check for the word either, whatever its value.
        for name, width in itertools.product(codec_names(), range(1, 65)):
            codec, w = get_codec(name), Word((1 << width) - 1, width)
            check = codec.encode(w)
            with pytest.raises(ValueError, match="bits, not"):
                codec.verify(w, CodecCheck(check.codec_id, check.value, check.size + 1))

    def test_check_payload_flip_position_counts_from_lsb(self):
        check = CodecCheck(CodecId.BERGER, 0b010, 3)
        assert check.flip_payload_bit(0).payload_str == "011"
        assert check.flip_payload_bit(2).payload_str == "110"

    def test_check_is_an_immutable_value_that_fits_its_size(self):
        check = CodecCheck(CodecId.BERGER, 0b111, 3)
        assert check.payload_str == "111"
        with pytest.raises(AttributeError):
            check.value = 0  # stored checks change only through flip_payload_bit
        for value, size in ((0b1000, 3), (1, 0), (-1, 3), (0, -1)):
            with pytest.raises(ValueError):
                CodecCheck(CodecId.BERGER, value, size)

    def test_results_and_costs_are_frozen(self):
        result = parity.verify(Word(1, 1), parity.encode(Word(1, 1)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.valid = False
        cost = dup.cost()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cost.time_multiplier = 1

    def test_cost_multipliers_below_one_rejected(self):
        for time_mult, space_mult in ((0.5, 1), (1, 0.5)):
            with pytest.raises(ValueError, match=">= 1"):
                CostDescriptor(time_mult, space_mult)

    def test_payload_flip_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            CodecCheck(CodecId.PARITY, 1, 1).flip_payload_bit(1)
        # check_bits is a check's only size: the dump text holds that many
        # bits, and the first position past them is out of range.
        for name, width in itertools.product(codec_names(), range(1, 65)):
            codec = get_codec(name)
            check = codec.encode(Word((1 << width) - 1, width))
            assert len(check.payload_str) == codec.check_bits(width) == check.size
            with pytest.raises(IndexError):
                check.flip_payload_bit(codec.check_bits(width))

    def test_check_takes_its_value_as_a_plain_int(self):
        check = CodecCheck(CodecId.PARITY, np.int64(1), 1)
        assert type(check.value) is int
        assert check == CodecCheck(CodecId.PARITY, 1, 1)
        for value in (1.0, "1"):
            with pytest.raises(TypeError):
                CodecCheck(CodecId.PARITY, value, 1)

    def test_payload_flip_takes_its_position_as_a_plain_int(self):
        check = CodecCheck(CodecId.BERGER, 0b010, 3)
        assert check.flip_payload_bit(np.uint8(2)) == check.flip_payload_bit(2)
        with pytest.raises(TypeError):
            check.flip_payload_bit(2.0)


@pytest.mark.parametrize("member", list(CodecId))
def test_codec_id_prints_as_its_name(member):
    assert str(member) == format(member) == f"{member}" == member.value
