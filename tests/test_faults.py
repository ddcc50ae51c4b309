"""Targeted bit flips and the dedup-then-hammer attack scenario."""

import pytest

from msms import (
    Address,
    AuditEvent,
    ProtectedStore,
    RandomSource,
    Strategy,
    Word,
    flip_feng_shui_scenario,
)

WIDTH = 8


def store_with_word(value=0b1011_0010, priority=True):
    store = ProtectedStore(words_per_page=8)
    store.store_write(Address(0, 0), Word(value, WIDTH), priority=priority)
    return store


class TestRowhammer:
    def test_flip_lands_at_exact_physical_coordinates(self):
        store = store_with_word(value=0b0000_0001, priority=False)
        ppage = store.physical_page_of(0)
        store.corrupt_physical_bit(ppage, 0, 0)
        assert store.store_read(Address(0, 0)).word == Word(0, WIDTH)

    def test_flip_bypasses_copy_on_write(self):
        store = ProtectedStore(words_per_page=4)
        store.store_write(Address(0, 0), Word(9, WIDTH))
        store.store_write(Address(1, 0), Word(9, WIDTH))
        store.dedup_scan()
        ppage = store.physical_page_of(0)
        store.corrupt_physical_bit(ppage, 0, 1)
        # both sharers observe the flip; no private copy was made
        assert store.store_read(Address(0, 0)).word == Word(11, WIDTH)
        assert store.store_read(Address(1, 0)).word == Word(11, WIDTH)
        assert store.physical_page_of(0) == store.physical_page_of(1)

    def test_flip_is_logged_as_injected_fault(self):
        store = store_with_word()
        store.corrupt_physical_bit(store.physical_page_of(0), 0, 3)
        assert store.audit_entries(-1)[0]["event"] == AuditEvent.INJECTED_FAULT


def run_scenario(strategy, priority_victim, protect, seed=7, force_merge=False, codec="parity"):
    store = ProtectedStore(
        codec=codec, strategy=strategy, words_per_page=4
    )
    rng = RandomSource(seed)
    content = [rng.word(WIDTH) for _ in range(4)]
    for offset, word in enumerate(content):
        store.store_write(Address(0, offset), word, priority=priority_victim and offset == 0)
    if protect:
        store.protect_page(0)
    outcome = flip_feng_shui_scenario(
        store, content, Address(0, 0), rng=rng, force_merge=force_merge
    )
    return store, outcome


class TestFlipFengShuiMatrix:
    def test_unprotected_none_succeeds_undetected(self):
        _, outcome = run_scenario(Strategy.NONE, priority_victim=True, protect=False)
        assert outcome.merged and outcome.flip_applied and not outcome.detected

    def test_unprotected_enhanced_nonpriority_is_the_blind_spot(self):
        _, outcome = run_scenario(Strategy.ENHANCED, priority_victim=False, protect=False)
        assert outcome.merged and outcome.flip_applied and not outcome.detected

    def test_unprotected_enhanced_priority_detects_the_flip(self):
        _, outcome = run_scenario(Strategy.ENHANCED, priority_victim=True, protect=False)
        assert outcome.merged and outcome.flip_applied and outcome.detected

    @pytest.mark.parametrize("priority_victim", [False, True])
    def test_full_detects_any_victim(self, priority_victim):
        _, outcome = run_scenario(Strategy.FULL, priority_victim=priority_victim, protect=False)
        assert outcome.flip_applied and outcome.detected

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("priority_victim", [False, True])
    def test_protected_page_prevents_the_merge(self, strategy, priority_victim):
        _, outcome = run_scenario(strategy, priority_victim=priority_victim, protect=True)
        assert not outcome.merged
        assert not outcome.flip_applied
        assert not outcome.detected

    def test_force_merge_applies_the_flip_without_a_merge(self):
        _, outcome = run_scenario(
            Strategy.ENHANCED, priority_victim=True, protect=True, force_merge=True
        )
        assert not outcome.merged
        assert outcome.flip_applied
        assert outcome.detected

    def test_deterministic_per_seed(self):
        a = run_scenario(Strategy.ENHANCED, True, False, seed=123)[1]
        b = run_scenario(Strategy.ENHANCED, True, False, seed=123)[1]
        assert a.to_dict() == b.to_dict()

    def test_scenario_is_fully_audited(self):
        store, outcome = run_scenario(Strategy.ENHANCED, priority_victim=True, protect=False)
        events = [e["event"] for e in store.audit_entries()]
        assert AuditEvent.MERGE in events
        assert AuditEvent.INJECTED_FAULT in events
        # the victim's read comes last and discovers the corruption
        assert events[-2:] == [AuditEvent.READ, AuditEvent.INTEGRITY_FAILURE]
        ok, _ = store.verify_audit_chain()
        assert ok
        assert outcome.audit_tail == store.audit_entries(-5)
        assert len(outcome.audit_tail) == 5

    def test_attacker_takes_the_page_past_the_highest_mapped_one(self):
        store = ProtectedStore(words_per_page=4)
        victim = [Word(5, WIDTH)]
        store.store_write(Address(0, 0), victim[0])
        store.store_write(Address(7, 0), Word(9, WIDTH))  # pages 1-6 stay unmapped
        assert flip_feng_shui_scenario(store, victim, Address(0, 0)).merged
        assert store.physical_page_of(8) == store.physical_page_of(0)
        writes = [e["address"] for e in store.audit_entries() if e["event"] == AuditEvent.WRITE]
        assert writes == ["0:0", "7:0", "8:0"]

    def test_without_an_rng_the_flip_lands_on_bit_0(self):
        store = ProtectedStore(words_per_page=4)
        victim = [Word(0b1010, WIDTH)]
        store.store_write(Address(0, 0), victim[0])
        assert flip_feng_shui_scenario(store, victim, Address(0, 0)).flip_applied
        fault = next(e for e in store.audit_entries() if e["event"] == AuditEvent.INJECTED_FAULT)
        assert fault["detail"]["bit"] == 0
        assert store.store_read(Address(0, 0)).word == Word(0b1011, WIDTH)

    def test_unwritten_victim_rejected(self):
        store = ProtectedStore(words_per_page=4)
        with pytest.raises(ValueError):
            flip_feng_shui_scenario(store, [Word(1, WIDTH)], Address(0, 0))

    def test_outcome_dict_is_json_shaped(self):
        import json

        _, outcome = run_scenario(Strategy.FULL, True, False)
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert set(payload) == {"merged", "flip_applied", "detected", "audit_tail"}
