"""Bit-flip fault injection: the soft-error calibration and targeted attacks.

Stochastic soft errors are part of the experiment's plan:
:func:`msms.simulation.draw_plan` picks the operations that suffer one
single-bit flip and draws where each flip lands.  This module holds the
calibration of the default run.  A targeted flip lands at physical-page
coordinates through :meth:`msms.store.ProtectedStore.corrupt_physical_bit`,
the way a disturbance attack does.  Both kinds of fault bypass the store's
mediated write path: they corrupt memory content directly, so whatever the
monitor detects, it detects honestly.

:func:`flip_feng_shui_scenario` chains the classic dedup-then-hammer
sequence: the attacker materializes a page identical to the victim's,
waits for same-page merging to co-locate them on one physical page,
then flips a bit of the victim's word through the shared page and lets
the victim read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .store import Address, ProtectedStore, Validity
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


@dataclass(frozen=True)
class ScenarioOutcome:
    """What happened in one dedup-then-flip attack run."""

    merged: bool
    flip_applied: bool
    detected: bool
    audit_tail: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "merged": self.merged,
            "flip_applied": self.flip_applied,
            "detected": self.detected,
            "audit_tail": self.audit_tail,
        }


def flip_feng_shui_scenario(
    store: ProtectedStore,
    attacker_page_content: Sequence[Word],
    victim_addr: Address,
    rng: Optional[RandomSource] = None,
    force_merge: bool = False,
) -> ScenarioOutcome:
    """Run the dedup-then-hammer attack against a written victim page.

    The attacker writes ``attacker_page_content`` into its own virtual
    page, the one past the highest mapped page (non-priority, through
    the monitor like any process), a deduplication scan runs, and if the
    attacker's page merged with the victim's the attack flips one bit of
    the victim's word inside the now-shared physical page.  The victim
    then reads.  All failure modes are legitimate outcomes: a refused
    merge, a detected flip, or an undetected corruption.

    ``force_merge`` models an attacker who reaches the victim's physical
    page through some other co-location route: the flip is applied even
    when the deduplication scan declined to merge.
    """
    if store.physical_page_of(victim_addr.page) is None:
        raise ValueError(f"victim page {victim_addr.page} was never written")
    attacker_page = store.highest_virtual_page() + 1

    for offset, word in enumerate(attacker_page_content):
        store.store_write(Address(attacker_page, offset), word, priority=False)

    store.dedup_scan()
    victim_ppage = store.physical_page_of(victim_addr.page)
    merged = store.physical_page_of(attacker_page) == victim_ppage

    flip_applied = False
    if merged or force_merge:
        bit = rng.bit_index(store.word_width) if rng is not None else 0
        # Every mapping of the physical page observes the flip; copy-on-write
        # cannot stop it, since no write goes through the page table.
        store.corrupt_physical_bit(victim_ppage, victim_addr.offset, bit)
        flip_applied = True

    result = store.store_read(victim_addr)
    detected = result.validity is Validity.INVALID
    return ScenarioOutcome(
        merged=merged,
        flip_applied=flip_applied,
        detected=detected,
        audit_tail=store.audit_entries(-5),
    )
