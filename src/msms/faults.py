"""Bit-flip fault injection: stochastic soft errors and targeted attacks.

Two corruption sources are modeled.  :class:`SoftErrorModel` draws a
per-operation probability and flips one uniformly chosen bit when it
fires, the way environmental soft errors arrive.  :func:`rowhammer_flip`
lands a precise flip at physical-page coordinates, the way a
disturbance attack does.  Both bypass the store's mediated write path:
they corrupt memory content directly, so whatever the monitor detects,
it detects honestly.

:func:`flip_feng_shui_scenario` chains the classic dedup-then-hammer
sequence: the attacker materializes a page identical to the victim's,
waits for same-page merging to co-locate them on one physical page,
then flips a bit of the victim's word through the shared page and lets
the victim read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .store import Address, AuditEntry, ProtectedStore, Validity
from .words import RandomSource, Word

# Calibration for the default full-scale run: the per-operation
# probability is chosen so 4,729,000 operations inject 7.5 errors in
# expectation.  Per-run counts are Binomial, so a run lands in the
# band 7.5 +/- 1.5, i.e. [6, 9], with probability 0.535, not always;
# acceptance criterion 2b measures that rate across seeds.
DEFAULT_N_OPS = 4_729_000
EXPECTED_ERROR_COUNT = 7.5
ERROR_COUNT_TOLERANCE = 1.5
DEFAULT_ERROR_PROBABILITY = EXPECTED_ERROR_COUNT / DEFAULT_N_OPS


@dataclass
class SoftErrorModel:
    """Stochastic single-bit soft-error source bound to one store.

    Each :meth:`maybe_inject` call fires with ``per_op_probability``;
    when it fires, one uniformly chosen bit of the addressed word is
    flipped in the data zone.  With check-zone faults enabled on the
    store, the uniform choice extends over the stored check bits of the
    address as well (positions >= word width land in the check zone).
    Draw order per call: one Bernoulli draw, then one position draw when
    it fired.
    """

    per_op_probability: float
    rng: RandomSource

    def __post_init__(self) -> None:
        if not 0.0 <= self.per_op_probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.per_op_probability}")

    def maybe_inject(self, store: ProtectedStore, addr: Address) -> Optional[int]:
        """Possibly corrupt one bit at ``addr``; returns the position or None."""
        if not self.rng.bernoulli(self.per_op_probability):
            return None
        width = store.word_width
        domain = width
        check = store.check_for(addr) if store.allow_check_zone_faults else None
        if check is not None:
            domain += len(check.payload)
        pos = self.rng.bit_index(domain)
        if pos < width:
            store.corrupt_data_bit(addr, pos)
        else:
            store.corrupt_check_bit(addr, pos - width)
        return pos


@dataclass(frozen=True)
class TargetedFlip:
    """Physical coordinates of one precisely induced bit flip."""

    physical_page: int
    word_offset: int
    bit: int


def rowhammer_flip(store: ProtectedStore, target: TargetedFlip) -> None:
    """Flip exactly the targeted bit in the physical page.

    Every virtual page mapped to that physical page observes the flip;
    copy-on-write offers no protection because no write goes through
    the page table.
    """
    store.corrupt_physical_bit(target.physical_page, target.word_offset, target.bit)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What happened in one dedup-then-flip attack run."""

    merged: bool
    flip_applied: bool
    detected: bool
    audit_tail: tuple[AuditEntry, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "merged": self.merged,
            "flip_applied": self.flip_applied,
            "detected": self.detected,
            "audit_tail": [e.to_dict() for e in self.audit_tail],
        }


def flip_feng_shui_scenario(
    store: ProtectedStore,
    attacker_page_content: Sequence[Word],
    victim_addr: Address,
    attacker_page: Optional[int] = None,
    rng: Optional[RandomSource] = None,
    force_merge: bool = False,
) -> ScenarioOutcome:
    """Run the dedup-then-hammer attack against a written victim page.

    The attacker writes ``attacker_page_content`` into its own virtual
    page (non-priority, through the monitor like any process), a
    deduplication scan runs, and if the attacker's page merged with the
    victim's the attack flips one bit of the victim's word inside the
    now-shared physical page.  The victim then reads.  All failure modes
    are legitimate outcomes: a refused merge, a detected flip, or an
    undetected corruption.

    ``force_merge`` models an attacker who reaches the victim's physical
    page through some other co-location route: the flip is applied even
    when the deduplication scan declined to merge.
    """
    if store.physical_page_of(victim_addr.page) is None:
        raise ValueError(f"victim page {victim_addr.page} was never written")
    if attacker_page is None:
        attacker_page = max(vp for vp in store.page_table_view()) + 1

    for offset, word in enumerate(attacker_page_content):
        store.store_write(Address(attacker_page, offset), word, priority=False)

    store.dedup_scan()
    victim_ppage = store.physical_page_of(victim_addr.page)
    merged = store.physical_page_of(attacker_page) == victim_ppage

    flip_applied = False
    if merged or force_merge:
        bit = rng.bit_index(store.word_width) if rng is not None else 0
        rowhammer_flip(store, TargetedFlip(victim_ppage, victim_addr.offset, bit))
        flip_applied = True

    result = store.store_read(victim_addr)
    detected = result.validity is Validity.INVALID
    return ScenarioOutcome(
        merged=merged,
        flip_applied=flip_applied,
        detected=detected,
        audit_tail=store.audit_entries()[-5:],
    )
