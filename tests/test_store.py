"""Protected store: zones, policies, flags, dedup/CoW, and the audit chain."""

import enum
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msms import (
    MAX_WIDTH,
    Address,
    AuditEvent,
    CheckZoneSealedError,
    MissingAddressError,
    MonotonicityError,
    ProtectedStore,
    RandomSource,
    ReadPolicy,
    Strategy,
    Validity,
    Word,
    codec_names,
    flip_bit,
    flip_feng_shui_scenario,
    get_codec,
    verify_entry_dicts,
)


def make_store(**kwargs):
    kwargs.setdefault("words_per_page", 8)
    return ProtectedStore(**kwargs)


@given(st.integers(0, 2**40), st.integers(0, 2**20), st.integers(0, 2**40), st.integers(0, 2**20))
def test_address_hashes_orders_and_prints_as_its_fields(page, offset, page2, offset2):
    a, b = Address(page, offset), Address(page2, offset2)
    assert hash(a) == hash((page, offset))
    # State dumps list checks and flags sorted by address.
    assert (a < b) == ((page, offset) < (page2, offset2))
    assert (a == b) == ((page, offset) == (page2, offset2))
    assert str(a) == f"{page}:{offset}"
    assert repr(a) == f"Address(page={page}, offset={offset})"


class _NamedPage(enum.IntEnum):
    ONE = 1

    def __str__(self) -> str:
        return self.name


class TestReadWrite:
    def test_round_trip_priority_word(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(0b1011, 8), priority=True)
        word, validity = store.store_read(Address(0, 0))
        assert word == Word(0b1011, 8)
        assert validity is Validity.VALID

    def test_non_priority_word_is_unchecked_under_enhanced(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(7, 8), priority=False)
        assert store.check_for(Address(0, 0)) is None
        _, validity = store.store_read(Address(0, 0))
        assert validity is Validity.UNCHECKED

    def test_reading_an_unwritten_address_fails(self):
        store = make_store()
        with pytest.raises(MissingAddressError):
            store.store_read(Address(0, 3))

    def test_word_width_mismatch_rejected(self):
        store = make_store(word_width=8)
        with pytest.raises(ValueError):
            store.store_write(Address(0, 0), Word(1, 4))

    @pytest.mark.parametrize("width", [0, -3, MAX_WIDTH + 1, 100])
    def test_word_width_outside_the_word_range_rejected(self, width):
        with pytest.raises(ValueError, match=rf"word_width must be in \[1, {MAX_WIDTH}\]"):
            make_store(word_width=width)

    @pytest.mark.parametrize("words_per_page", [0, -1])
    def test_words_per_page_must_be_positive(self, words_per_page):
        with pytest.raises(ValueError, match="words_per_page must be positive"):
            make_store(words_per_page=words_per_page)

    @pytest.mark.parametrize("bit", [-1, 8])
    def test_data_bit_outside_the_width_rejected(self, bit):
        store = make_store(word_width=8)
        store.store_write(Address(0, 0), Word(1, 8))
        with pytest.raises(IndexError, match=f"bit {bit} out of range for width 8"):
            store.corrupt_data_bit(Address(0, 0), bit)

    @pytest.mark.parametrize("offset", [-1, 8])
    def test_offset_outside_the_page_rejected(self, offset):
        store = make_store(words_per_page=8)
        with pytest.raises(ValueError, match="out of range"):
            store.store_write(Address(0, offset), Word(1, 8))
        with pytest.raises(ValueError, match="out of range"):
            store.store_read(Address(0, offset))

    @pytest.mark.parametrize("addr", [Address(0, 1.0), Address(1.5, 0)], ids=["offset", "page"])
    def test_a_float_address_is_refused_before_the_store_changes(self, addr):
        store = make_store()
        with pytest.raises(TypeError):
            store.store_write(addr, Word(1, 8))
        assert store.live_physical_pages() == ()
        assert store.audit_entries() == []

    def test_a_float_page_cannot_be_protected(self):
        with pytest.raises(TypeError):
            make_store().protect_page(1.5)

    @pytest.mark.parametrize(
        "vpage, error",
        [(-1, ValueError), (1.5, TypeError), ("1", TypeError)],
        ids=["negative", "float", "str"],
    )
    def test_a_refused_page_leaves_the_protected_set_unchanged(self, vpage, error):
        store = make_store()
        store.protect_page(2)
        with pytest.raises(error):
            store.protect_page(vpage)
        assert store._protected == {2}

    @pytest.mark.parametrize("setting", [{"word_width": 8.0}, {"words_per_page": 2.5}], ids=["width", "page"])
    def test_a_float_store_geometry_is_refused(self, setting):
        with pytest.raises(TypeError):
            make_store(**setting)

    @pytest.mark.parametrize("value", [True, _NamedPage.ONE], ids=["bool", "IntEnum"])
    @pytest.mark.parametrize("field", ["page", "offset"])
    def test_an_address_of_another_integer_type_is_taken_by_its_ints(self, field, value):
        store = make_store(strategy=Strategy.FULL, allow_check_zone_faults=True)
        addr = Address(value, 0) if field == "page" else Address(0, value)
        store.store_write(addr, Word(5, 8))
        store.store_read(addr)
        store.set_priority(addr)
        store.corrupt_data_bit(addr, 0)
        store.corrupt_check_bit(addr, 0)
        store.protect_page(value)
        plain = Address(*map(int, addr))
        assert [e["address"] for e in store.audit_entries()] == [str(plain)] * 5
        [(vpage, row)] = store.page_table_view().items()
        assert type(vpage) is int
        assert row == {"physical": 0, "cow": False, "protected": plain.page == 1}

    def test_corrupted_priority_word_reads_invalid(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(0b1011, 8), priority=True)
        store.corrupt_data_bit(Address(0, 0), 1)
        word, validity = store.store_read(Address(0, 0))
        assert validity is Validity.INVALID
        assert word == Word(0b1001, 8)  # marked, not suppressed

    def test_corrupted_non_priority_word_slips_through(self):
        # The enhanced strategy's deliberate blind spot.
        store = make_store()
        store.store_write(Address(0, 0), Word(0b1011, 8), priority=False)
        store.corrupt_data_bit(Address(0, 0), 1)
        word, validity = store.store_read(Address(0, 0))
        assert validity is Validity.UNCHECKED
        assert word == Word(0b1001, 8)


class TestStrategies:
    def test_full_checks_every_write(self):
        store = make_store(strategy=Strategy.FULL)
        store.store_write(Address(0, 0), Word(5, 8), priority=False)
        assert store.check_for(Address(0, 0)) is not None
        store.corrupt_data_bit(Address(0, 0), 0)
        assert store.store_read(Address(0, 0)).validity is Validity.INVALID

    def test_none_never_checks(self):
        store = make_store(strategy=Strategy.NONE)
        store.store_write(Address(0, 0), Word(5, 8), priority=True)
        assert store.check_for(Address(0, 0)) is None
        store.corrupt_data_bit(Address(0, 0), 0)
        assert store.store_read(Address(0, 0)).validity is Validity.UNCHECKED

    def test_flag_is_recorded_even_when_strategy_ignores_it(self):
        store = make_store(strategy=Strategy.NONE)
        store.store_write(Address(0, 0), Word(5, 8), priority=True)
        assert store.flag(Address(0, 0)) == 1

    def test_an_address_never_flagged_reads_flag_zero(self):
        store = make_store(strategy=Strategy.FULL)
        store.store_write(Address(0, 0), Word(5, 8))
        assert store.flag(Address(0, 0)) == 0
        assert store.flag(Address(0, 1)) == 0


def corrupted_store(**kwargs):
    store = make_store(**kwargs)
    store.store_write(Address(0, 0), Word(0b1011, 8), priority=True)
    store.corrupt_data_bit(Address(0, 0), 2)
    return store


class TestReadPolicies:
    def test_return_unchecked_skips_verification(self):
        corrupted = corrupted_store(read_policy=ReadPolicy.RETURN_UNCHECKED)
        word, validity = corrupted.store_read(Address(0, 0))
        assert validity is Validity.UNCHECKED
        assert word == Word(0b1111, 8)

    def test_return_marked_invalid_returns_the_damaged_word(self):
        corrupted = corrupted_store(read_policy=ReadPolicy.RETURN_MARKED_INVALID)
        word, validity = corrupted.store_read(Address(0, 0))
        assert validity is Validity.INVALID
        assert word == Word(0b1111, 8)

    def test_suppress_on_invalid_withholds_the_word(self):
        corrupted = corrupted_store(read_policy=ReadPolicy.SUPPRESS_ON_INVALID)
        word, validity = corrupted.store_read(Address(0, 0))
        assert validity is Validity.INVALID
        assert word is None

    def test_integrity_failure_is_logged_once_per_failed_read(self):
        corrupted = corrupted_store()
        corrupted.store_read(Address(0, 0))
        events = [e["event"] for e in corrupted.audit_entries()]
        assert events.count(AuditEvent.INTEGRITY_FAILURE) == 1


class TestPriorityFlag:
    def test_set_priority_upgrades_later_protection(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(9, 8), priority=False)
        store.set_priority(Address(0, 0))
        assert store.flag(Address(0, 0)) == 1
        assert store.check_for(Address(0, 0)) is not None
        store.corrupt_data_bit(Address(0, 0), 3)
        assert store.store_read(Address(0, 0)).validity is Validity.INVALID

    def test_set_priority_under_none_stores_no_check(self):
        store = make_store(strategy=Strategy.NONE)
        store.store_write(Address(0, 0), Word(9, 8))
        store.set_priority(Address(0, 0))
        assert store.flag(Address(0, 0)) == 1
        assert store.check_for(Address(0, 0)) is None

    @pytest.mark.parametrize("strategy", [Strategy.ENHANCED, Strategy.FULL])
    def test_set_priority_keeps_the_stored_check(self, strategy):
        # Snapshotting again would take the corrupted word as the truth.
        store = make_store(strategy=strategy)
        store.store_write(Address(0, 0), Word(9, 8), priority=True)
        store.corrupt_data_bit(Address(0, 0), 3)
        store.set_priority(Address(0, 0))
        assert store.store_read(Address(0, 0)).validity is Validity.INVALID

    def test_flag_survives_non_priority_rewrite(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(9, 8), priority=True)
        store.store_write(Address(0, 0), Word(4, 8), priority=False)
        assert store.flag(Address(0, 0)) == 1
        # the rewritten word is still protected: flags never step down
        store.corrupt_data_bit(Address(0, 0), 0)
        assert store.store_read(Address(0, 0)).validity is Validity.INVALID

    def test_lowering_the_flag_is_impossible(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(9, 8), priority=True)
        with pytest.raises(MonotonicityError):
            store._raw_set_flag(Address(0, 0), 0)

    def test_the_flag_zone_refuses_only_one_to_zero(self):
        store = make_store()
        store._raw_set_flag(Address(1, 0), 0)
        assert store.flag(Address(1, 0)) == 0

    def test_set_priority_requires_a_written_word(self):
        store = make_store()
        with pytest.raises(MissingAddressError):
            store.set_priority(Address(0, 0))


class TestCheckZoneIsolation:
    def test_check_zone_sealed_by_default(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(1, 8), priority=True)
        with pytest.raises(CheckZoneSealedError):
            store.corrupt_check_bit(Address(0, 0), 0)

    def test_check_zone_faults_detected_when_enabled(self):
        store = make_store(allow_check_zone_faults=True)
        store.store_write(Address(0, 0), Word(1, 8), priority=True)
        store.corrupt_check_bit(Address(0, 0), 0)
        assert store.store_read(Address(0, 0)).validity is Validity.INVALID

    def test_data_corruption_requires_a_written_word(self):
        store = make_store()
        with pytest.raises(MissingAddressError):
            store.corrupt_data_bit(Address(0, 0), 0)

    def test_check_corruption_requires_a_stored_check(self):
        # An unflagged word under enhanced has no check to flip.
        store = make_store(allow_check_zone_faults=True)
        store.store_write(Address(0, 0), Word(1, 8))
        with pytest.raises(MissingAddressError, match="no check stored for 0:0"):
            store.corrupt_check_bit(Address(0, 0), 0)


class TestPhysicalFaults:
    def test_flip_requires_a_live_physical_page(self):
        store = make_store()
        with pytest.raises(MissingAddressError, match="physical page 0"):
            store.corrupt_physical_bit(0, 0, 0)

    @pytest.mark.parametrize("offset", [-1, 8])
    def test_offset_outside_the_page_rejected(self, offset):
        store = make_store(words_per_page=8)
        store.store_write(Address(0, 0), Word(1, 8))
        with pytest.raises(IndexError, match=f"offset {offset} out of range"):
            store.corrupt_physical_bit(0, offset, 0)
        assert store.physical_words(0) == (1, 0, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("bit", [-1, 8])
    def test_bit_outside_the_width_rejected(self, bit):
        store = make_store(word_width=8)
        store.store_write(Address(0, 0), Word(1, 8))
        with pytest.raises(IndexError, match=f"bit {bit} out of range for width 8"):
            store.corrupt_physical_bit(0, 0, bit)
        assert store.physical_words(0)[0] == 1


class TestPlainIntInputs:
    """Every address, bit index and physical coordinate enters the store as a plain int."""

    @staticmethod
    def two_page_store():
        store = make_store(codec="dup", strategy=Strategy.FULL, allow_check_zone_faults=True)
        store.store_write(Address(0, 1), Word(0, 8))
        store.store_write(Address(1, 1), Word(0, 8))
        return store

    @pytest.mark.parametrize("one", [np.int64(1), True, _NamedPage.ONE], ids=["numpy", "bool", "IntEnum"])
    @pytest.mark.parametrize(
        "corrupt, address, detail",
        [
            (lambda s, one: s.corrupt_data_bit(Address(one, one), one), "1:1", {"bit": 1, "zone": "data"}),
            (
                lambda s, one: s.corrupt_physical_bit(one, one, one),
                None,
                {"bit": 1, "offset": 1, "physical_page": 1, "zone": "data"},
            ),
            (lambda s, one: s.corrupt_check_bit(Address(one, one), one), "1:1", {"bit": 1, "zone": "check"}),
        ],
        ids=["data", "physical", "check"],
    )
    def test_a_fault_given_other_integer_types_flips_the_bit_and_logs_plain_ints(
        self, corrupt, address, detail, one
    ):
        store = self.two_page_store()
        check = store.check_for(Address(1, 1))
        corrupt(store, one)
        if detail["zone"] == "data":
            assert store.physical_words(1)[1] == 0b10
        else:
            assert type(store.check_for(Address(1, 1)).value) is int
            assert store.check_for(Address(1, 1)).value == check.value ^ 0b10
        fault = store.audit_entries(-1)[0]
        assert (fault["event"], fault["address"], fault["detail"]) == (AuditEvent.INJECTED_FAULT, address, detail)
        assert [type(v) for v in fault["detail"].values()] == [type(v) for v in detail.values()]
        assert store.verify_audit_chain() == (True, None)
        assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"

    def test_a_float_physical_page_is_refused_before_the_store_changes(self):
        store = self.two_page_store()
        before = store.dump_text()
        with pytest.raises(TypeError):
            store.corrupt_physical_bit(0.0, 0, 1)
        assert store.dump_text() == before

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s.corrupt_physical_bit(1, 1.0, 1),
            lambda s: s.corrupt_physical_bit(1, 1, 1.0),
            lambda s: s.corrupt_data_bit(Address(1, 1), 1.0),
            lambda s: s.corrupt_check_bit(Address(1, 1), 1.0),
        ],
        ids=["physical offset", "physical bit", "data bit", "check bit"],
    )
    def test_a_float_offset_or_bit_is_refused_before_the_store_changes(self, corrupt):
        store = self.two_page_store()
        before = store.dump_text()
        with pytest.raises(TypeError):
            corrupt(store)
        assert store.dump_text() == before

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, addr: s.store_write(addr, Word(1, 8)),
            lambda s, addr: s.store_read(addr),
            lambda s, addr: s.set_priority(addr),
            lambda s, addr: s.corrupt_data_bit(addr, 0),
            lambda s, addr: s.corrupt_check_bit(addr, 0),
        ],
        ids=["store_write", "store_read", "set_priority", "corrupt_data_bit", "corrupt_check_bit"],
    )
    @pytest.mark.parametrize(
        "addr, error",
        [
            (Address(0, 1.0), TypeError),
            (Address("0", 1), TypeError),
            (Address(-1, 1), ValueError),
            (Address(0, 8), ValueError),
        ],
        ids=["float", "str", "page -1", "offset words_per_page"],
    )
    def test_a_bad_address_raises_one_error_before_the_store_changes(self, call, addr, error):
        store = self.two_page_store()
        before = store.dump_text()
        with pytest.raises(error):
            call(store, addr)
        assert store.dump_text() == before

    def test_a_tuple_address_is_taken_as_an_address(self):
        store = make_store()
        store.store_write((0, 1), Word(1, 8))
        assert store.store_read((0, 1)).word == Word(1, 8)
        assert [e["address"] for e in store.audit_entries()] == ["0:1", "0:1"]

    def test_a_float_word_is_refused_before_the_store_changes(self):
        store = make_store()
        with pytest.raises(TypeError):
            store.store_write(Address(0, 0), Word(1.0, 8))
        assert store.live_physical_pages() == ()
        assert store.audit_entries() == []


class TestDedupAndCow:
    def fill_page(self, store, vpage, values, priority=False):
        for offset, value in enumerate(values):
            store.store_write(Address(vpage, offset), Word(value, 8), priority=priority)

    def test_identical_pages_merge_to_one_physical_page(self):
        store = make_store()
        self.fill_page(store, 0, [1, 2, 3])
        self.fill_page(store, 1, [1, 2, 3])
        report = store.dedup_scan()
        assert report.pairs_merged == 1
        assert store.physical_page_of(0) == store.physical_page_of(1)
        assert store.refcount(store.physical_page_of(0)) == 2
        assert store.is_cow(0) and store.is_cow(1)

    def test_a_merge_report_is_an_immutable_value(self):
        report = make_store().dedup_scan()
        with pytest.raises(AttributeError):
            report.pairs_merged = 1
        assert report.pairs_merged == 0

    def test_differing_pages_stay_separate(self):
        store = make_store()
        self.fill_page(store, 0, [1, 2, 3])
        self.fill_page(store, 1, [1, 2, 4])
        assert store.dedup_scan().pairs_merged == 0
        assert store.physical_page_of(0) != store.physical_page_of(1)

    def test_protected_page_never_merges(self):
        store = make_store()
        self.fill_page(store, 0, [1, 2, 3])
        self.fill_page(store, 1, [1, 2, 3])
        store.protect_page(0)
        assert store.dedup_scan().pairs_merged == 0
        assert store.physical_page_of(0) != store.physical_page_of(1)

    def test_write_after_merge_breaks_sharing(self):
        store = make_store()
        self.fill_page(store, 0, [1, 2, 3])
        self.fill_page(store, 1, [1, 2, 3])
        store.dedup_scan()
        store.store_write(Address(1, 0), Word(99, 8))
        assert store.physical_page_of(0) != store.physical_page_of(1)
        assert store.store_read(Address(0, 0)).word == Word(1, 8)
        assert store.store_read(Address(1, 0)).word == Word(99, 8)
        events = [e["event"] for e in store.audit_entries()]
        assert AuditEvent.COW_BREAK in events
        assert AuditEvent.MERGE in events

    def test_cow_break_preserves_untouched_words(self):
        store = make_store()
        self.fill_page(store, 0, [7, 8, 9])
        self.fill_page(store, 1, [7, 8, 9])
        store.dedup_scan()
        store.store_write(Address(1, 2), Word(0, 8))
        assert store.store_read(Address(1, 0)).word == Word(7, 8)
        assert store.store_read(Address(1, 1)).word == Word(8, 8)

    def test_physical_corruption_reaches_every_sharer(self):
        # A flip through the shared page is exactly what CoW cannot stop.
        store = make_store()
        self.fill_page(store, 0, [0b1011], priority=True)
        self.fill_page(store, 1, [0b1011])
        store.dedup_scan()
        ppage = store.physical_page_of(0)
        store.corrupt_physical_bit(ppage, 0, 0)
        assert store.store_read(Address(1, 0)).word == Word(0b1010, 8)
        assert store.store_read(Address(0, 0)).validity is Validity.INVALID

    def test_three_way_sharing_unwinds_one_writer_at_a_time(self):
        store = make_store()
        for vpage in range(3):
            self.fill_page(store, vpage, [4, 5])
        assert store.dedup_scan().pairs_merged == 2
        assert [store.physical_page_of(vp) for vp in range(3)] == [0, 0, 0]
        assert store.refcount(0) == 3
        assert all(store.is_cow(vp) for vp in range(3))
        for freed in (1, 2):
            with pytest.raises(KeyError):
                store.refcount(freed)

        store.store_write(Address(0, 0), Word(9, 8))
        assert store.refcount(3) == 1 and not store.is_cow(0)
        assert store.refcount(0) == 2 and store.is_cow(1) and store.is_cow(2)
        assert store.page_table_view() == {
            0: {"physical": 3, "cow": False, "protected": False},
            1: {"physical": 0, "cow": True, "protected": False},
            2: {"physical": 0, "cow": True, "protected": False},
        }

        store.store_write(Address(1, 1), Word(9, 8))
        assert store.refcount(4) == 1 and not store.is_cow(1)
        assert store.refcount(0) == 1 and not store.is_cow(2)
        assert store.page_table_view() == {
            0: {"physical": 3, "cow": False, "protected": False},
            1: {"physical": 4, "cow": False, "protected": False},
            2: {"physical": 0, "cow": False, "protected": False},
        }
        assert store.physical_words(0) == (4, 5, 0, 0, 0, 0, 0, 0)

    def test_a_shared_duplicate_moves_all_its_sharers_in_one_merge(self):
        store = make_store()
        self.fill_page(store, 5, [3])  # physical 0
        self.fill_page(store, 1, [7])  # physical 1
        self.fill_page(store, 2, [7])  # physical 2
        store.dedup_scan()
        assert store.refcount(1) == 2
        # Physical 0 now matches the shared page and, being lower, survives.
        self.fill_page(store, 5, [7])
        assert store.dedup_scan().pairs_merged == 1
        assert store.live_physical_pages() == (0,)
        assert store.refcount(0) == 3
        assert store.page_table_view() == {
            vp: {"physical": 0, "cow": True, "protected": False} for vp in (1, 2, 5)
        }
        merge = store.audit_entries(-1)[0]
        assert merge["detail"] == {"freed": 1, "survivor": 0, "virtual_pages": [1, 2]}
        assert store.verify_audit_chain() == (True, None)
        assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"

    def test_highest_virtual_page_is_the_largest_mapped_page(self):
        store = make_store()
        assert store.highest_virtual_page() is None
        self.fill_page(store, 10, [1])
        self.fill_page(store, 3, [1])
        assert store.highest_virtual_page() == 10
        store.dedup_scan()
        assert store.highest_virtual_page() == 10 == max(store.page_table_view())

    def test_numpy_numbered_pages_merge_into_a_logged_plain_int_merge(self):
        store = make_store()
        self.fill_page(store, np.int64(0), [1, 2])
        self.fill_page(store, np.int64(1), [1, 2])
        assert store.dedup_scan().pairs_merged == 1
        merge = store.audit_entries(-1)[0]
        assert merge["event"] == AuditEvent.MERGE
        assert merge["detail"] == {"freed": 1, "survivor": 0, "virtual_pages": [1]}
        detail = merge["detail"]
        assert all(type(v) is int for v in [detail["freed"], detail["survivor"], *detail["virtual_pages"]])
        assert store.verify_audit_chain() == (True, None)
        assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"

    def test_merge_frees_the_duplicate_physical_page(self):
        store = make_store()
        self.fill_page(store, 0, [1])
        self.fill_page(store, 1, [1])
        before = len(store.live_physical_pages())
        store.dedup_scan()
        assert len(store.live_physical_pages()) == before - 1


class TestSixtyFourBitWords:
    """A physical page holds each word in one unsigned 64-bit slot, top bit included."""

    ONES = 2**64 - 1
    TOP = 1 << 63

    @pytest.mark.parametrize("via", ["data", "physical"])
    def test_flipping_bit_63_of_an_all_ones_word(self, via):
        store = make_store(strategy=Strategy.FULL, word_width=64, words_per_page=4)
        store.store_write(Address(0, 0), Word(self.ONES, 64))
        if via == "data":
            store.corrupt_data_bit(Address(0, 0), 63)
        else:
            store.corrupt_physical_bit(0, 0, 63)
        assert store.store_read(Address(0, 0)) == (Word(self.ONES ^ self.TOP, 64), Validity.INVALID)
        words = store.dump_state()["zones"]["data"]["physical_pages"]["0"]["words"]
        assert words == ["0" + "1" * 63] + ["0" * 64] * 3

    def test_pages_differing_only_in_bit_63_do_not_merge(self):
        store = make_store(word_width=64, words_per_page=4)
        for vpage, last in enumerate([self.ONES, self.ONES ^ self.TOP]):
            store.store_write(Address(vpage, 0), Word(self.ONES, 64))
            store.store_write(Address(vpage, 3), Word(last, 64))
        assert store.dedup_scan().pairs_merged == 0
        assert store.physical_page_of(0) != store.physical_page_of(1)

    def test_cow_break_leaves_the_shared_page_unchanged(self):
        store = make_store(word_width=64, words_per_page=4)
        for vpage in range(3):
            store.store_write(Address(vpage, 0), Word(self.ONES, 64))
            store.store_write(Address(vpage, 1), Word(self.TOP, 64))
        assert store.dedup_scan().pairs_merged == 2
        store.store_write(Address(2, 1), Word(0, 64))
        assert store.physical_words(0) == (self.ONES, self.TOP, 0, 0)
        assert store.physical_words(store.physical_page_of(2)) == (self.ONES, 0, 0, 0)
        assert store.store_read(Address(1, 1)).word == Word(self.TOP, 64)

    def test_physical_words_are_a_tuple_of_exact_ints(self):
        store = make_store(word_width=64, words_per_page=3)
        store.store_write(Address(0, 1), Word(self.ONES, 64))
        words = store.physical_words(0)
        assert type(words) is tuple
        assert [type(w) for w in words] == [int, int, int]
        assert words == (0, self.ONES, 0)


# The Flip Feng Shui defence matrix as ``msms attack`` drives it:
# (strategy, priority_victim, protect_page).
DEFENCE_CASES = (
    ("none", False, False),
    ("enhanced", False, False),
    ("enhanced", True, False),
    ("enhanced", False, True),
    ("full", False, False),
)


def _defence_drill_dumps():
    """One dump per defence: an 8-word victim page, 200 single-word
    background pages (8-bit values repeat, so most of them merge), then
    the attack."""
    rng = RandomSource(2016)
    victim = [rng.word(8) for _ in range(8)]
    background = [rng.word(8) for _ in range(200)]
    dumps = []
    for case, (strategy, priority_victim, protect) in enumerate(DEFENCE_CASES):
        store = ProtectedStore(strategy=strategy)
        for offset, word in enumerate(victim):
            store.store_write(Address(0, offset), word, priority=priority_victim and offset == 0)
        if protect:
            store.protect_page(0)
        for page, word in enumerate(background, start=1):
            store.store_write(Address(page, 0), word)
        flip_feng_shui_scenario(store, victim, Address(0, 0), rng=rng.derive(case))
        dumps.append(store.dump_state())
    return dumps


def _sharing_walk_stores():
    """Seeded walks of writes, scans, protections and physical flips over
    ten virtual pages of 1-3 words drawn from four values, so pages merge
    in groups and writes break the sharing again."""
    stores = []
    for words_per_page in (1, 2, 3):
        rng = random.Random(words_per_page)
        store = ProtectedStore(words_per_page=words_per_page)
        for _ in range(300):
            roll = rng.random()
            if roll < 0.75 or not store.live_physical_pages():
                addr = Address(rng.randrange(10), rng.randrange(words_per_page))
                store.store_write(addr, Word(rng.randrange(4), 8), priority=rng.random() < 0.2)
            elif roll < 0.87:
                store.dedup_scan()
            elif roll < 0.90:
                store.protect_page(rng.randrange(10))
            else:
                ppage = rng.choice(store.live_physical_pages())
                store.corrupt_physical_bit(ppage, rng.randrange(words_per_page), rng.randrange(8))
        stores.append(store)
    return stores


def _sharing_walk_dumps():
    return [store.dump_state() for store in _sharing_walk_stores()]


def _digest(dumps):
    h = hashlib.sha256()
    for dump in dumps:
        h.update(json.dumps(dump, sort_keys=True).encode())
    return h.hexdigest()


# sha256 of the state dumps, pinned before the page table became the only
# record of sharing.  Dumps carry the package version string in their
# metadata, so a version bump changes these digests too.
GOLDEN_DUMPS = {
    "defence-drill": (
        _defence_drill_dumps,
        "de256e383b2bff3fdbeca6702c243585a1be04229e40e42263ee8da6cfe6cf98",
    ),
    "sharing-walk": (
        _sharing_walk_dumps,
        "918ad6a7a11b0e5356c08ba667c6aa5fd9fdec3e6e86374f1274148cbbc9d340",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DUMPS))
def test_state_dumps_match_golden_digests(case):
    make_dumps, digest = GOLDEN_DUMPS[case]
    dumps = make_dumps()
    events = {e["event"] for dump in dumps for e in dump["zones"]["log"]}
    assert {"merge", "injected_fault"} <= events
    assert _digest(dumps) == digest


# sha256 of the sharing-walk dump files as the CLI writes them, pinned
# before the dump writer stopped formatting log entries with json.dumps.
# The version string in the metadata is part of these bytes too.
GOLDEN_WALK_FILES = (
    "dc605b77949e58a391ad3415f4a02c57f89b5cdf9a325bae31ca9227fd8b8899",
    "4904dfa341ba1fa1abd9d97afdbbcb49febab53e7ea417fa6e6224b0735f67fe",
    "ad0214d393782190c96e5472c6956734ea5f2f995e996e7c542dfb69717cf48a",
)


def test_sharing_walk_dump_files_match_golden_digests(tmp_path):
    for words_per_page, store, digest in zip((1, 2, 3), _sharing_walk_stores(), GOLDEN_WALK_FILES):
        assert AuditEvent.COW_BREAK in [e["event"] for e in store.audit_entries()]
        path = tmp_path / f"walk_{words_per_page}.json"
        path.write_text(store.dump_text())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, words_per_page


@pytest.mark.parametrize("width", [1, 13, 64])
def test_dumped_page_words_are_the_physical_words_in_binary(width):
    # The pinned dumps are all 8 bits wide; these widths are not.
    rng = random.Random(width)
    contents = [
        [rng.choice([0, 1, 2**width - 1, rng.getrandbits(width)]) for _ in range(rng.randrange(1, 5))]
        for _ in range(6)
    ]
    store = ProtectedStore(word_width=width, words_per_page=4)
    for page in range(12):
        for offset, value in enumerate(contents[page % 6]):
            store.store_write(Address(page, offset), Word(value, width))
    store.dedup_scan()
    store.corrupt_physical_bit(store.live_physical_pages()[0], 3, width - 1)
    pages = store.dump_state()["zones"]["data"]["physical_pages"]
    assert len(pages) == len(store.live_physical_pages()) <= 6
    for p in store.live_physical_pages():
        expected = [format(v, f"0{width}b") for v in store.physical_words(p)]
        assert pages[str(p)]["words"] == expected


class TestAuditChain:
    def test_every_operation_appends_to_an_intact_chain(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(1, 8), priority=True)
        store.store_read(Address(0, 0))
        store.set_priority(Address(0, 0))
        ok, broken = store.verify_audit_chain()
        assert ok and broken is None
        assert len(store.audit_entries()) >= 3

    def test_entries_link_by_digest(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(1, 8))
        store.store_read(Address(0, 0))
        entries = store.audit_entries()
        assert entries[1]["digest_prev"] == entries[0]["digest_self"]

    def test_dumped_chain_verifies_standalone(self):
        store = make_store()
        for i in range(5):
            store.store_write(Address(0, i), Word(i, 8), priority=i % 2 == 0)
        dump = store.dump_state()
        ok, broken = verify_entry_dicts(dump["zones"]["log"])
        assert ok and broken is None

    @pytest.mark.parametrize(
        "field,value",
        [
            ("event", "read"),
            ("address", "9:9"),
            ("detail", {"priority": True, "protected": True}),
            ("digest_prev", "f" * 64),
            ("digest_self", "f" * 64),
            ("sequence", 12),
        ],
    )
    def test_any_single_field_mutation_is_caught_at_its_entry(self, field, value):
        store = make_store()
        for i in range(6):
            store.store_write(Address(0, i), Word(i, 8))
        entries = store.dump_state()["zones"]["log"]
        target = 3
        assert entries[target][field] != value
        entries[target][field] = value
        ok, broken = verify_entry_dicts(entries)
        assert not ok
        assert broken == target

    def test_dump_state_is_json_serializable_and_complete(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(3, 8), priority=True)
        dump = json.loads(json.dumps(store.dump_state()))
        assert dump["metadata"]["tool"] == "msms"
        assert set(dump["zones"]) == {"data", "check", "priority", "log"}
        assert dump["zones"]["priority"]["0:0"] == 1
        check = dump["zones"]["check"]["0:0"]
        assert check["codec"] == "parity"


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "read", "flag", "corrupt", "dedup"]),
            st.integers(0, 2),  # virtual page
            st.integers(0, 3),  # offset
            st.integers(0, 255),  # value
            st.booleans(),  # priority
        ),
        max_size=40,
    )
)
def test_random_operation_sequences_hold_the_invariants(ops):
    """Flags only ever rise and the audit chain stays intact."""
    store = ProtectedStore(words_per_page=4)
    flags: dict[Address, int] = {}
    written: set[Address] = set()
    for op, page, offset, value, priority in ops:
        addr = Address(page, offset)
        if op == "write":
            store.store_write(addr, Word(value, 8), priority=priority)
            written.add(addr)
        elif op == "read" and addr in written:
            store.store_read(addr)
        elif op == "flag" and addr in written:
            store.set_priority(addr)
        elif op == "corrupt" and addr in written:
            store.corrupt_data_bit(addr, value % 8)
        elif op == "dedup":
            store.dedup_scan()
        for a in written:
            seen = store.flag(a)
            assert seen >= flags.get(a, 0), "flag regressed"
            flags[a] = seen
    ok, broken = store.verify_audit_chain()
    assert ok, f"chain broken at {broken}"


def assert_page_table_consistent(store):
    view = store.page_table_view()
    sharers = store._sharers
    assert all(vpage in sharers[row["physical"]] for vpage, row in view.items())
    assert all(sharers.values())
    assert tuple(sorted(sharers)) == store.live_physical_pages()
    for ppage in store.live_physical_pages():
        assert store.refcount(ppage) == sum(row["physical"] == ppage for row in view.values())
    for vpage, row in view.items():
        assert store.is_cow(vpage) == (store.refcount(row["physical"]) > 1)
    assert store.verify_audit_chain() == (True, None)


@settings(max_examples=80, deadline=None)
@given(
    words_per_page=st.integers(1, 2),
    # Four pages of two values: at least two match, so a scan always merges.
    first=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "cow_write", "dedup", "protect"]),
            st.integers(0, 3),  # virtual page, or which shared page a cow_write picks
            st.integers(0, 1),  # offset, modulo the page size
            st.integers(0, 1),  # value
        ),
        max_size=20,
    ),
)
def test_the_page_table_stays_consistent_through_merges_and_cow_breaks(words_per_page, first, ops):
    """The sharer sets, refcounts and copy-on-write flags agree after every op."""
    store = ProtectedStore(words_per_page=words_per_page)
    for page, value in enumerate(first):
        store.store_write(Address(page, 0), Word(value, 8))
    for op, page, offset, value in ops:
        if op == "cow_write":
            shared = [vp for vp in store.page_table_view() if store.is_cow(vp)]
            if not shared:
                continue
            page = shared[page % len(shared)]
        if op in ("write", "cow_write"):
            store.store_write(Address(page, offset % words_per_page), Word(value, 8))
        elif op == "dedup":
            store.dedup_scan()
        elif op == "protect":
            store.protect_page(page)
        assert_page_table_consistent(store)


@pytest.mark.parametrize(
    "member", [*Strategy, *ReadPolicy, *Validity, *AuditEvent], ids=lambda m: f"{type(m).__name__}.{m.name}"
)
def test_store_enums_print_as_their_values(member):
    assert str(member) == format(member) == f"{member}" == member.value


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("width", [1, 8, 33, 64])
@pytest.mark.parametrize("name", codec_names())
def test_the_store_checks_as_the_codec_objects_do(name, width, data):
    """The store keeps bare check values; every single flip reads as ``verify`` judges it."""
    codec = get_codec(name)
    value = data.draw(st.integers(0, (1 << width) - 1), label="value")
    word = Word(value, width)
    check = codec.encode(word)
    assert type(codec.check_value(value, width)) is int
    assert codec.check_value(value, width) == check.value
    addr = Address(2, 3)
    flips = [("data", bit) for bit in range(width)] + [("check", bit) for bit in range(check.size)]
    for zone, bit in flips:
        store = ProtectedStore(
            codec=name, strategy=Strategy.FULL, word_width=width, allow_check_zone_faults=True
        )
        store.store_write(addr, word)
        assert store.check_for(addr) == check
        if zone == "data":
            store.corrupt_data_bit(addr, bit)
            caught = not codec.verify(flip_bit(word, bit), check).valid
        else:
            store.corrupt_check_bit(addr, bit)
            assert store.check_for(addr) == check.flip_payload_bit(bit)
            caught = not codec.verify(word, check.flip_payload_bit(bit)).valid
        assert (store.store_read(addr).validity is Validity.INVALID) == caught
    store = ProtectedStore(codec=name, strategy=Strategy.FULL, word_width=width)
    store.store_write(addr, word)
    assert store.store_read(addr) == (word, Validity.VALID)


@pytest.mark.parametrize("name", codec_names())
def test_a_check_bit_outside_the_check_is_refused_before_the_store_changes(name):
    size = get_codec(name).check_bits(8)
    store = make_store(codec=name, strategy=Strategy.FULL, allow_check_zone_faults=True)
    store.store_write(Address(0, 0), Word(0b1011, 8))
    check, entries = store.check_for(Address(0, 0)), store.audit_entries()
    for bit in (-1, size):
        with pytest.raises(IndexError, match=f"^bit {bit} out of range for width {size}$"):
            store.corrupt_check_bit(Address(0, 0), bit)
    assert store.check_for(Address(0, 0)) == check
    assert store.audit_entries() == entries
