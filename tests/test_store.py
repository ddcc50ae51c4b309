"""Protected store: zones, policies, flags, dedup/CoW, and the audit chain."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from msms import (
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
    flip_feng_shui_scenario,
    verify_entry_dicts,
)
from msms.cli import _write_state


def make_store(**kwargs):
    kwargs.setdefault("words_per_page", 8)
    return ProtectedStore(**kwargs)


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


class TestReadPolicies:
    @pytest.fixture()
    def corrupted(self):
        store = make_store()
        store.store_write(Address(0, 0), Word(0b1011, 8), priority=True)
        store.corrupt_data_bit(Address(0, 0), 2)
        return store

    def test_return_unchecked_skips_verification(self, corrupted):
        word, validity = corrupted.store_read(Address(0, 0), ReadPolicy.RETURN_UNCHECKED)
        assert validity is Validity.UNCHECKED
        assert word == Word(0b1111, 8)

    def test_return_marked_invalid_returns_the_damaged_word(self, corrupted):
        word, validity = corrupted.store_read(Address(0, 0), ReadPolicy.RETURN_MARKED_INVALID)
        assert validity is Validity.INVALID
        assert word == Word(0b1111, 8)

    def test_suppress_on_invalid_withholds_the_word(self, corrupted):
        word, validity = corrupted.store_read(Address(0, 0), ReadPolicy.SUPPRESS_ON_INVALID)
        assert validity is Validity.INVALID
        assert word is None

    def test_integrity_failure_is_logged_once_per_failed_read(self, corrupted):
        corrupted.store_read(Address(0, 0))
        events = [e.event for e in corrupted.audit_entries()]
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
        events = [e.event for e in store.audit_entries()]
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

    def test_merge_frees_the_duplicate_physical_page(self):
        store = make_store()
        self.fill_page(store, 0, [1])
        self.fill_page(store, 1, [1])
        before = len(store.live_physical_pages())
        store.dedup_scan()
        assert len(store.live_physical_pages()) == before - 1


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


def _sharing_walk_dumps():
    """Seeded walks of writes, scans, protections and physical flips over
    ten virtual pages of 1-3 words drawn from four values, so pages merge
    in groups and writes break the sharing again."""
    dumps = []
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
        dumps.append(store.dump_state())
    return dumps


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
    for words_per_page, dump, digest in zip((1, 2, 3), _sharing_walk_dumps(), GOLDEN_WALK_FILES):
        assert "cow_break" in {e["event"] for e in dump["zones"]["log"]}
        path = tmp_path / f"walk_{words_per_page}.json"
        _write_state(path, dump)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, words_per_page


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
        assert entries[1].digest_prev == entries[0].digest_self

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
