"""The protected store: every access to guarded memory goes through here.

The store keeps four isolated regions inside one instance: the data zone
(physical pages of words), the check zone (codec check data), the
priority-flag zone, and an append-only hash-chained audit log.  None of
the public operations hand out a mutable reference into any zone;
inspection helpers return copies or immutable values.

Three protection strategies control when a write stores check data and
when a read verifies it:

* ``none``      - never; reads come back unverified.
* ``enhanced``  - only operations classified as priority.
* ``full``      - every operation.

Priority flags are monotonic: once an address is flagged critical it
stays critical.  There is no public operation that lowers a flag, and
the flag zone itself refuses the transition as a final guard.

Virtual pages map onto physical pages through a page table with
copy-on-write semantics; :meth:`ProtectedStore.dedup_scan` merges
identical physical pages the way a same-page-merging kernel would,
skipping pages that were explicitly protected from deduplication.

Hardware faults are modeled through the ``corrupt_*`` methods, which
deliberately bypass the mediated write path and mutate zone contents
directly, the way a disturbance attack or a stray alpha particle would.
They are instrumentation, not API: regular clients never call them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Optional, Union

from ._version import __version__ as _version
from .codecs import Codec, CodecCheck, get_codec
from .words import Word

DEFAULT_WORDS_PER_PAGE = 512

# Predecessor digest of the first audit entry: an all-zero sha256.
GENESIS = "0" * 64


class Strategy(str, Enum):
    NONE = "none"
    ENHANCED = "enhanced"
    FULL = "full"

    def __str__(self) -> str:
        return self.value


class ReadPolicy(str, Enum):
    """What a read does when verification is possible or fails.

    ``return_unchecked`` hands data back without verifying at all;
    ``return_marked_invalid`` verifies and returns the data together
    with its validity; ``suppress_on_invalid`` verifies and withholds
    data that failed.
    """

    RETURN_UNCHECKED = "return_unchecked"
    RETURN_MARKED_INVALID = "return_marked_invalid"
    SUPPRESS_ON_INVALID = "suppress_on_invalid"

    def __str__(self) -> str:
        return self.value


class Validity(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNCHECKED = "unchecked"

    def __str__(self) -> str:
        return self.value


class AuditEvent(str, Enum):
    WRITE = "write"
    READ = "read"
    FLAG_SET = "flag_set"
    INTEGRITY_FAILURE = "integrity_failure"
    MERGE = "merge"
    COW_BREAK = "cow_break"
    INJECTED_FAULT = "injected_fault"

    def __str__(self) -> str:
        return self.value


class MissingAddressError(KeyError):
    """Read or targeting of an address that was never written."""


class MonotonicityError(ValueError):
    """Attempted priority-flag transition from 1 to 0."""


class CheckZoneSealedError(PermissionError):
    """Fault targeted the check zone while check-zone faults are disabled."""


@dataclass(frozen=True, order=True)
class Address:
    """Virtual location of one word: (virtual page, word offset)."""

    page: int
    offset: int

    def __str__(self) -> str:
        return f"{self.page}:{self.offset}"


@dataclass
class PhysicalPage:
    id: int
    words: list[int]
    refcount: int = 1


@dataclass
class PageTable:
    """Virtual-to-physical mapping with copy-on-write and dedup exemption."""

    mapping: dict[int, int] = field(default_factory=dict)
    cow_flags: dict[int, bool] = field(default_factory=dict)
    protected_flags: dict[int, bool] = field(default_factory=dict)

    def map(self, vpage: int, ppage: int, cow: bool = False) -> None:
        self.mapping[vpage] = ppage
        self.cow_flags[vpage] = cow

    def virtual_pages_of(self, ppage: int) -> list[int]:
        return sorted(vp for vp, pp in self.mapping.items() if pp == ppage)

    def is_protected(self, vpage: int) -> bool:
        return self.protected_flags.get(vpage, False)


@dataclass(frozen=True)
class AuditEntry:
    """One committed log event, chained to its predecessor by digest."""

    sequence: int
    event: AuditEvent
    address: Optional[str]
    detail: tuple[tuple[str, Any], ...]
    digest_prev: str
    digest_self: str

    def detail_dict(self) -> dict[str, Any]:
        return dict(self.detail)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "event": self.event.value,
            "address": self.address,
            "detail": self.detail_dict(),
            "digest_prev": self.digest_prev,
            "digest_self": self.digest_self,
        }


def _entry_digest(
    sequence: int,
    event: str,
    address: Optional[str],
    detail: dict[str, Any],
    digest_prev: str,
) -> str:
    payload = json.dumps(
        {
            "sequence": sequence,
            "event": event,
            "address": address,
            "detail": detail,
            "digest_prev": digest_prev,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class AuditLog:
    """Append-only log whose entries form a tamper-evident hash chain.

    Entry ``i`` commits to entry ``i-1`` through ``digest_prev``;
    altering any committed field breaks verification at that entry.  The
    digest is sha256 and the first entry's predecessor is :data:`GENESIS`.
    """

    def __init__(self):
        self._entries: list[AuditEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[AuditEntry, ...]:
        return tuple(self._entries)

    def append(
        self,
        event: AuditEvent,
        address: Optional[Address] = None,
        detail: Optional[dict[str, Any]] = None,
    ) -> AuditEntry:
        detail = detail or {}
        sequence = len(self._entries)
        prev = self._entries[-1].digest_self if self._entries else GENESIS
        digest = _entry_digest(sequence, event.value, _addr_str(address), detail, prev)
        entry = AuditEntry(
            sequence=sequence,
            event=event,
            address=_addr_str(address),
            detail=tuple(sorted(detail.items())),
            digest_prev=prev,
            digest_self=digest,
        )
        self._entries.append(entry)
        return entry

    def verify(self) -> tuple[bool, Optional[int]]:
        """(True, None) for an intact chain, else (False, first broken sequence)."""
        return verify_entry_dicts(e.to_dict() for e in self._entries)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self._entries]


def verify_entry_dicts(entries: Iterable[dict[str, Any]]) -> tuple[bool, Optional[int]]:
    """Verify a dumped audit chain without reconstructing the store."""
    prev = GENESIS
    for position, e in enumerate(entries):
        recomputed = _entry_digest(
            e["sequence"], e["event"], e["address"], dict(e["detail"]), e["digest_prev"]
        )
        if e["digest_prev"] != prev or recomputed != e["digest_self"] or e["sequence"] != position:
            return False, position
        prev = e["digest_self"]
    return True, None


def _addr_str(addr: Optional[Address]) -> Optional[str]:
    return None if addr is None else str(addr)


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one deduplication scan."""

    pairs_merged: int
    merges: tuple[tuple[int, int], ...] = ()  # (survivor, freed) physical ids


@dataclass(frozen=True)
class ReadResult:
    word: Optional[Word]
    validity: Validity

    def __iter__(self):
        return iter((self.word, self.validity))


class ProtectedStore:
    """Mediated memory store with isolated data/check/priority/log zones."""

    def __init__(
        self,
        codec: Union[str, Codec] = "parity",
        strategy: Strategy = Strategy.ENHANCED,
        read_policy: ReadPolicy = ReadPolicy.RETURN_MARKED_INVALID,
        word_width: int = 8,
        words_per_page: int = DEFAULT_WORDS_PER_PAGE,
        allow_check_zone_faults: bool = False,
    ):
        if words_per_page < 1:
            raise ValueError("words_per_page must be positive")
        self.codec = get_codec(codec)
        self.strategy = Strategy(strategy)
        self.read_policy = ReadPolicy(read_policy)
        self.word_width = word_width
        self.words_per_page = words_per_page
        self.allow_check_zone_faults = allow_check_zone_faults
        # zones; reachable only through store operations
        self._pages: dict[int, PhysicalPage] = {}
        self._table = PageTable()
        self._checks: dict[Address, CodecCheck] = {}
        self._flags: dict[Address, int] = {}
        self._log = AuditLog()
        self._written: set[Address] = set()
        self._next_physical = 0

    # -- mediated operations ------------------------------------------------

    def store_write(self, addr: Address, word: Word, priority: bool = False) -> None:
        """Place a word; under an active strategy also store its check.

        Writing to a shared copy-on-write page first breaks the sharing.
        A priority write flags the address; the flag never comes back
        down, so later writes to a flagged address are treated as
        priority regardless of the ``priority`` argument.
        """
        self._check_addr(addr)
        if word.width != self.word_width:
            raise ValueError(f"word width {word.width} != store width {self.word_width}")
        page = self._resolve_page_for_write(addr)
        page.words[addr.offset] = word.value
        self._written.add(addr)

        # The flag zone records the classification whatever the
        # strategy does with it; check storage is the strategy's call.
        if priority:
            self._set_flag(addr)
        protect = self._protects(priority, addr)
        if protect:
            self._checks[addr] = self.codec.encode(word)
        self._log.append(AuditEvent.WRITE, addr, {"priority": bool(priority), "protected": protect})

    def store_read(self, addr: Address, policy: Optional[ReadPolicy] = None) -> ReadResult:
        """Fetch a word and, where the strategy calls for it, verify it.

        Returns ``(word, validity)``; under the suppressing policy the
        word is None when verification fails.
        """
        policy = self.read_policy if policy is None else ReadPolicy(policy)
        word = self._resolve_word(addr)
        self._log.append(AuditEvent.READ, addr)
        if policy is ReadPolicy.RETURN_UNCHECKED:
            return ReadResult(word, Validity.UNCHECKED)
        # A stored check encodes the write-time protection decision;
        # its absence means this word was never protected.
        check = self._checks.get(addr)
        if check is None:
            return ReadResult(word, Validity.UNCHECKED)
        if self.codec.verify(word, check).valid:
            return ReadResult(word, Validity.VALID)
        self._log.append(AuditEvent.INTEGRITY_FAILURE, addr, {"codec": self.codec.codec_id.value})
        if policy is ReadPolicy.SUPPRESS_ON_INVALID:
            return ReadResult(None, Validity.INVALID)
        return ReadResult(word, Validity.INVALID)

    def set_priority(self, addr: Address) -> None:
        """Flag an address as critical.  Idempotent; never reversible.

        Under an active strategy the current word is snapshotted into
        the check zone so the very next read can already verify.
        """
        word = self._resolve_word(addr)
        self._set_flag(addr)
        if self.strategy is not Strategy.NONE and addr not in self._checks:
            self._checks[addr] = self.codec.encode(word)
        self._log.append(AuditEvent.FLAG_SET, addr)

    def protect_page(self, vpage: int) -> None:
        """Exempt a virtual page from deduplication."""
        self._table.protected_flags[vpage] = True

    def dedup_scan(self) -> MergeReport:
        """Merge identical physical pages, sparing protected ones.

        For each group of content-identical pages with no protected
        mapping, all virtual pages are repointed at one survivor and the
        duplicates are freed; every surviving mapping becomes
        copy-on-write.
        """
        groups: dict[tuple[int, ...], list[int]] = {}
        for pid in sorted(self._pages):
            if any(self._table.is_protected(vp) for vp in self._table.virtual_pages_of(pid)):
                continue
            groups.setdefault(tuple(self._pages[pid].words), []).append(pid)

        merges: list[tuple[int, int]] = []
        for pids in groups.values():
            if len(pids) < 2:
                continue
            survivor = self._pages[pids[0]]
            for dupe_id in pids[1:]:
                dupe = self._pages.pop(dupe_id)
                moved = self._table.virtual_pages_of(dupe_id)
                for vp in moved:
                    self._table.map(vp, survivor.id, cow=True)
                survivor.refcount += dupe.refcount
                merges.append((survivor.id, dupe_id))
                self._log.append(
                    AuditEvent.MERGE,
                    None,
                    {"survivor": survivor.id, "freed": dupe_id, "virtual_pages": moved},
                )
            for vp in self._table.virtual_pages_of(survivor.id):
                self._table.cow_flags[vp] = True
        return MergeReport(len(merges), tuple(merges))

    def verify_audit_chain(self) -> tuple[bool, Optional[int]]:
        return self._log.verify()

    # -- inspection (read-only views) ---------------------------------------

    def flag(self, addr: Address) -> int:
        return self._flags.get(addr, 0)

    def check_for(self, addr: Address) -> Optional[CodecCheck]:
        return self._checks.get(addr)

    def audit_entries(self) -> tuple[AuditEntry, ...]:
        return self._log.entries()

    def physical_page_of(self, vpage: int) -> Optional[int]:
        return self._table.mapping.get(vpage)

    def refcount(self, ppage: int) -> int:
        return self._pages[ppage].refcount

    def physical_words(self, ppage: int) -> tuple[int, ...]:
        return tuple(self._pages[ppage].words)

    def page_table_view(self) -> dict[int, dict[str, Any]]:
        return {
            vp: {
                "physical": pp,
                "cow": self._table.cow_flags.get(vp, False),
                "protected": self._table.is_protected(vp),
            }
            for vp, pp in sorted(self._table.mapping.items())
        }

    def is_cow(self, vpage: int) -> bool:
        return self._table.cow_flags.get(vpage, False)

    def live_physical_pages(self) -> tuple[int, ...]:
        return tuple(sorted(self._pages))

    # -- hardware-fault instrumentation (bypasses the mediated write path) --

    def corrupt_data_bit(self, addr: Address, bit: int) -> None:
        """Flip one data bit in place, as induced hardware corruption would."""
        if addr not in self._written:
            raise MissingAddressError(str(addr))
        if not 0 <= bit < self.word_width:
            raise IndexError(f"bit {bit} out of range for width {self.word_width}")
        page = self._pages[self._table.mapping[addr.page]]
        page.words[addr.offset] ^= 1 << bit
        self._log.append(AuditEvent.INJECTED_FAULT, addr, {"bit": bit, "zone": "data"})

    def corrupt_physical_bit(self, ppage: int, offset: int, bit: int) -> None:
        """Flip one bit by physical coordinates; all mappings observe it."""
        if ppage not in self._pages:
            raise MissingAddressError(f"physical page {ppage}")
        if not 0 <= offset < self.words_per_page:
            raise IndexError(f"offset {offset} out of range")
        if not 0 <= bit < self.word_width:
            raise IndexError(f"bit {bit} out of range for width {self.word_width}")
        self._pages[ppage].words[offset] ^= 1 << bit
        self._log.append(
            AuditEvent.INJECTED_FAULT,
            None,
            {"physical_page": ppage, "offset": offset, "bit": bit, "zone": "data"},
        )

    def corrupt_check_bit(self, addr: Address, bit: int) -> None:
        """Flip one stored check bit; only with check-zone faults enabled."""
        if not self.allow_check_zone_faults:
            raise CheckZoneSealedError("check-zone fault injection is disabled for this store")
        check = self._checks.get(addr)
        if check is None:
            raise MissingAddressError(f"no check stored for {addr}")
        self._checks[addr] = check.flip_payload_bit(bit)
        self._log.append(AuditEvent.INJECTED_FAULT, addr, {"bit": bit, "zone": "check"})

    # -- state dump ----------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """JSON-ready snapshot with each zone listed separately."""
        return {
            "metadata": {
                "tool": "msms",
                "version": _version,
                "word_width": self.word_width,
                "words_per_page": self.words_per_page,
                "codec": self.codec.codec_id.value,
                "strategy": self.strategy.value,
                "read_policy": self.read_policy.value,
                "digest_algorithm": "sha256",
            },
            "zones": {
                "data": {
                    "physical_pages": {
                        str(pid): {
                            "words": [format(v, f"0{self.word_width}b") for v in page.words],
                            "refcount": page.refcount,
                        }
                        for pid, page in sorted(self._pages.items())
                    },
                    "page_table": {str(vp): row for vp, row in self.page_table_view().items()},
                },
                "check": {
                    str(addr): {"codec": c.codec_id.value, "payload": c.payload_str}
                    for addr, c in sorted(self._checks.items())
                },
                "priority": {str(addr): flag for addr, flag in sorted(self._flags.items())},
                "log": self._log.to_dicts(),
            },
        }

    # -- internals -----------------------------------------------------------

    def _check_addr(self, addr: Address) -> None:
        if addr.page < 0 or not 0 <= addr.offset < self.words_per_page:
            raise ValueError(f"address {addr} out of range (words_per_page={self.words_per_page})")

    def _protects(self, priority: bool, addr: Address) -> bool:
        if self.strategy is Strategy.FULL:
            return True
        if self.strategy is Strategy.ENHANCED:
            return bool(priority) or self._flags.get(addr, 0) == 1
        return False

    def _set_flag(self, addr: Address) -> None:
        self._raw_set_flag(addr, 1)

    def _raw_set_flag(self, addr: Address, value: int) -> None:
        # Final guard: the zone itself refuses 1 -> 0, whatever the caller.
        if value == 0 and self._flags.get(addr, 0) == 1:
            raise MonotonicityError(f"priority flag of {addr} cannot return to 0")
        self._flags[addr] = value

    def _allocate_page(self, content: Optional[list[int]] = None) -> PhysicalPage:
        pid = self._next_physical
        self._next_physical += 1
        words = list(content) if content is not None else [0] * self.words_per_page
        page = PhysicalPage(pid, words)
        self._pages[pid] = page
        return page

    def _resolve_page_for_write(self, addr: Address) -> PhysicalPage:
        pid = self._table.mapping.get(addr.page)
        if pid is None:
            page = self._allocate_page()
            self._table.map(addr.page, page.id, cow=False)
            return page
        page = self._pages[pid]
        if page.refcount > 1 and self._table.cow_flags.get(addr.page, False):
            private = self._allocate_page(page.words)
            page.refcount -= 1
            if page.refcount == 1:
                for vp in self._table.virtual_pages_of(pid):
                    self._table.cow_flags[vp] = False
            self._table.map(addr.page, private.id, cow=False)
            self._log.append(
                AuditEvent.COW_BREAK,
                None,
                {"virtual_page": addr.page, "from": pid, "to": private.id},
            )
            return private
        return page

    def _resolve_word(self, addr: Address) -> Word:
        self._check_addr(addr)
        if addr not in self._written:
            raise MissingAddressError(str(addr))
        page = self._pages[self._table.mapping[addr.page]]
        return Word(page.words[addr.offset], self.word_width)
