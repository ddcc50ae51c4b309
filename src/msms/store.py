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
skipping pages that were explicitly protected from deduplication.  The
page table is the only record of sharing: a physical page's refcount is
the number of virtual pages mapped onto it, and a virtual page is
copy-on-write exactly when its physical page is shared.

Hardware faults are modeled through the ``corrupt_*`` methods, which
deliberately bypass the mediated write path and mutate zone contents
directly, the way a disturbance attack or a stray alpha particle would.
They are instrumentation, not API: regular clients never call them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
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
class PageTable:
    """Virtual-to-physical mapping and its reverse; the one record of sharing.

    ``sharers`` maps each live physical page to the virtual pages mapped
    onto it, and only :meth:`map` changes either direction.  Refcount
    and copy-on-write are derived, never stored: a physical page's
    refcount is its number of sharers, and a virtual page is
    copy-on-write exactly when its physical page has more than one.
    ``protected`` holds the virtual pages exempt from deduplication.
    """

    mapping: dict[int, int] = field(default_factory=dict)
    sharers: dict[int, set[int]] = field(default_factory=dict)
    protected: set[int] = field(default_factory=set)

    def map(self, vpage: int, ppage: int) -> None:
        """Point ``vpage`` at ``ppage``; a physical page left unmapped drops out."""
        old = self.mapping.get(vpage)
        if old is not None:
            self.sharers[old].remove(vpage)
            if not self.sharers[old]:
                del self.sharers[old]
        self.mapping[vpage] = ppage
        self.sharers.setdefault(ppage, set()).add(vpage)

    def virtual_pages_of(self, ppage: int) -> list[int]:
        return sorted(self.sharers[ppage])

    def refcount(self, ppage: int) -> int:
        return len(self.sharers[ppage])

    def is_cow(self, vpage: int) -> bool:
        ppage = self.mapping.get(vpage)
        return ppage is not None and len(self.sharers[ppage]) > 1


@dataclass(frozen=True)
class AuditEntry:
    """One committed log event, chained to its predecessor by digest.

    ``detail`` holds the event's detail as sorted ``(key, value)`` pairs
    with lists frozen into tuples; :meth:`detail_dict` hands out a fresh
    copy with lists again.
    """

    sequence: int
    event: AuditEvent
    address: Optional[str]
    detail: tuple[tuple[str, Any], ...]
    digest_prev: str
    digest_self: str

    def detail_dict(self) -> dict[str, Any]:
        return {k: list(v) if type(v) is tuple else v for k, v in self.detail}

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "event": self.event.value,
            "address": self.address,
            "detail": self.detail_dict(),
            "digest_prev": self.digest_prev,
            "digest_self": self.digest_self,
        }


# -- the two encodings of a log entry ------------------------------------------
#
# An entry's chain digest is the sha256 of the entry without ``digest_self``
# in canonical JSON, ``json.dumps(..., sort_keys=True, separators=(",", ":"))``;
# a state dump writes the entry as ``json.dumps(state, indent=2)`` does.  Both
# texts are built here by hand for the value types the store logs (str, bool,
# plain int, None, a flat dict with str keys, a list of plain ints) and left
# to json.dumps for anything else (floats, int subclasses, nested values,
# whatever a tampered dump holds), so each equals json.dumps byte for byte.

_encode_str = json.encoder.encode_basestring_ascii


def _scalar_json(value: Any) -> Optional[str]:
    """The JSON text of a value the store logs, or None for any other value."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    t = type(value)
    if t is int:
        return int.__repr__(value)
    if t is str:
        return _encode_str(value)
    if t is list and all(type(v) is int for v in value):
        return "[" + ",".join(map(int.__repr__, value)) + "]"
    return None


def canonical_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is dict:
        parts = []
        for key, item in value.items():
            text = _scalar_json(item)
            if type(key) is not str or text is None:
                break
            parts.append((key, text))
        else:
            parts.sort()
            return "{" + ",".join([_encode_str(k) + ":" + text for k, text in parts]) + "}"
    else:
        text = _scalar_json(value)
        if text is not None:
            return text
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _chain_digest(address: str, detail: str, digest_prev: str, event: str, sequence: str) -> str:
    """sha256 of an entry from the canonical JSON of its five fields."""
    payload = (
        f'{{"address":{address},"detail":{detail},"digest_prev":{digest_prev},'
        f'"event":{event},"sequence":{sequence}}}'
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _entry_digest(
    sequence: Any,
    event: Any,
    address: Any,
    detail: Any,
    digest_prev: Any,
) -> str:
    # Fields are encoded in sorted-key order, as json.dumps would, so a
    # value it cannot encode raises the same error at the same field.
    a = canonical_json(address)
    d = canonical_json(detail)
    p = canonical_json(digest_prev)
    e = canonical_json(event)
    return _chain_digest(a, d, p, e, canonical_json(sequence))


_EVENT_JSON = {event: _encode_str(event.value) for event in AuditEvent}


def _column_digest(
    sequence: int, event: AuditEvent, address: Optional[str], detail_json: str, digest_prev: str
) -> str:
    """sha256 of an entry as :class:`AuditLog` stores it."""
    return _chain_digest(
        "null" if address is None else _encode_str(address),
        detail_json,
        f'"{digest_prev}"',
        _EVENT_JSON[event],
        str(sequence),
    )


_ENTRY_KEYS = ("sequence", "event", "address", "detail", "digest_prev", "digest_self")


def _indented_detail(detail: Any, pad: str) -> Optional[str]:
    """A flat detail dict as indent-2 JSON whose keys sit at ``pad``, or None."""
    if type(detail) is not dict:
        return None
    if not detail:
        return "{}"
    lines = []
    for key, value in detail.items():
        if type(key) is not str:
            return None
        if type(value) is list and value and all(type(v) is int for v in value):
            items = f",\n{pad}  ".join(map(int.__repr__, value))
            text = f"[\n{pad}  {items}\n{pad}]"
        else:
            text = _scalar_json(value)
            if text is None:
                return None
        lines.append(f"{pad}{_encode_str(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n" + pad[:-2] + "}"


def _indented_entry(entry: Any, pad: str) -> str:
    """A log entry as ``json.dumps(state, indent=2)`` writes it at ``pad``."""
    if type(entry) is dict and tuple(entry) == _ENTRY_KEYS:
        sequence, event, address, detail, prev, digest = entry.values()
        if (
            type(sequence) is int
            and type(event) is str
            and (address is None or type(address) is str)
            and type(prev) is str
            and type(digest) is str
        ):
            detail_text = _indented_detail(detail, pad + "    ")
            if detail_text is not None:
                return (
                    f"{pad}{{\n"
                    f'{pad}  "sequence": {int.__repr__(sequence)},\n'
                    f'{pad}  "event": {_encode_str(event)},\n'
                    f'{pad}  "address": {"null" if address is None else _encode_str(address)},\n'
                    f'{pad}  "detail": {detail_text},\n'
                    f'{pad}  "digest_prev": {_encode_str(prev)},\n'
                    f'{pad}  "digest_self": {_encode_str(digest)}\n'
                    f"{pad}}}"
                )
    return pad + json.dumps(entry, indent=2).replace("\n", "\n" + pad)


# Stands in for the log while json.dumps writes the rest of a state dump.
_LOG_PLACEHOLDER = "\0msms audit log\0"
_LOG_SLOT = _encode_str(_LOG_PLACEHOLDER)


def format_state_dump(state: dict[str, Any]) -> str:
    """A state dump's file text: exactly ``json.dumps(state, indent=2) + "\\n"``.

    The log entries under ``state["zones"]["log"]`` are written from one
    indent-2 template each; everything else goes through json.dumps.
    """
    zones = state.get("zones") if type(state) is dict else None
    log = zones.get("log") if type(zones) is dict else None
    if type(log) is list and log:
        text = json.dumps({**state, "zones": {**zones, "log": _LOG_PLACEHOLDER}}, indent=2)
        if text.count(_LOG_SLOT) == 1:
            head, tail = text.split(_LOG_SLOT)
            key_pad = " " * (len(head) - head.rfind("\n") - 1 - len('"log": '))
            entries = ",\n".join([_indented_entry(e, key_pad + "  ") for e in log])
            return f"{head}[\n{entries}\n{key_pad}]{tail}\n"
    return json.dumps(state, indent=2) + "\n"


class AuditLog:
    """Append-only log whose entries form a tamper-evident hash chain.

    Entry ``i`` commits to entry ``i-1`` through ``digest_prev``;
    altering any committed field breaks verification at that entry.  The
    digest is sha256 and the first entry's predecessor is :data:`GENESIS`.

    The log is kept as columns (event, address, the detail's canonical
    JSON and digest); an :class:`AuditEntry` is built only when read, and
    every read parses its own copy of the detail.
    """

    def __init__(self):
        self._events: list[AuditEvent] = []
        self._addresses: list[Optional[str]] = []
        self._details: list[str] = []
        self._digests: list[str] = []

    def __len__(self) -> int:
        return len(self._digests)

    def entries(self) -> AuditEntries:
        return AuditEntries(self, len(self._digests))

    def append(
        self,
        event: AuditEvent,
        address: Optional[Address] = None,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        if not detail:
            detail_json = "{}"
        elif isinstance(detail, dict):
            detail_json = canonical_json(detail)
        else:
            raise TypeError(f"audit detail must be a dict, not {type(detail).__name__}")
        addr = None if address is None else str(address)
        sequence = len(self._digests)
        prev = self._digests[-1] if sequence else GENESIS
        digest = _column_digest(sequence, event, addr, detail_json, prev)
        self._events.append(event)
        self._addresses.append(addr)
        self._details.append(detail_json)
        self._digests.append(digest)

    def verify(self) -> tuple[bool, Optional[int]]:
        """(True, None) for an intact chain, else (False, first broken sequence)."""
        prev = GENESIS
        columns = zip(self._events, self._addresses, self._details, self._digests)
        for sequence, (event, addr, detail_json, digest) in enumerate(columns):
            if _column_digest(sequence, event, addr, detail_json, prev) != digest:
                return False, sequence
            prev = digest
        return True, None

    def to_dicts(self) -> list[dict[str, Any]]:
        # Flat details are parsed once per distinct text and copied per
        # entry; details holding a list are parsed afresh for each entry.
        flat: dict[str, dict[str, Any]] = {}
        dicts = []
        prev = GENESIS
        columns = zip(self._events, self._addresses, self._details, self._digests)
        for sequence, (event, addr, detail_json, digest) in enumerate(columns):
            detail = flat.get(detail_json)
            if detail is not None:
                detail = dict(detail)
            else:
                detail = json.loads(detail_json)
                if "[" not in detail_json and "{" not in detail_json[1:]:
                    flat[detail_json] = dict(detail)
            dicts.append(
                {
                    "sequence": sequence,
                    "event": event.value,
                    "address": addr,
                    "detail": detail,
                    "digest_prev": prev,
                    "digest_self": digest,
                }
            )
            prev = digest
        return dicts

    def entry(self, sequence: int) -> AuditEntry:
        detail = json.loads(self._details[sequence])
        return AuditEntry(
            sequence=sequence,
            event=self._events[sequence],
            address=self._addresses[sequence],
            detail=tuple((k, tuple(v) if type(v) is list else v) for k, v in detail.items()),
            digest_prev=self._digests[sequence - 1] if sequence else GENESIS,
            digest_self=self._digests[sequence],
        )


class AuditEntries(Sequence):
    """Read-only view of a log's first ``n`` entries; each is built on access,
    so a slice of the tail costs only the entries it holds."""

    def __init__(self, log: AuditLog, n: int):
        self._log = log
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._log.entry(i) for i in range(*index.indices(self._n)))
        position = index + self._n if index < 0 else index
        if not 0 <= position < self._n:
            raise IndexError("audit entry index out of range")
        return self._log.entry(position)


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


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one deduplication scan."""

    pairs_merged: int


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
        self._pages: dict[int, list[int]] = {}  # physical page -> words
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
        self._resolve_page_for_write(addr)[addr.offset] = word.value
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
        self._table.protected.add(vpage)

    def dedup_scan(self) -> MergeReport:
        """Merge identical physical pages, sparing protected ones.

        For each group of content-identical pages with no protected
        mapping, all virtual pages are repointed at the lowest-numbered
        page and the duplicates are freed; the survivor is now shared,
        so every mapping onto it is copy-on-write.
        """
        groups: dict[tuple[int, ...], list[int]] = {}
        for pid in sorted(self._pages):
            if self._table.protected.isdisjoint(self._table.sharers[pid]):
                groups.setdefault(tuple(self._pages[pid]), []).append(pid)

        merged = 0
        for survivor, *dupes in groups.values():
            for dupe in dupes:
                moved = self._table.virtual_pages_of(dupe)
                for vp in moved:
                    self._table.map(vp, survivor)
                del self._pages[dupe]
                merged += 1
                self._log.append(
                    AuditEvent.MERGE,
                    None,
                    {"survivor": survivor, "freed": dupe, "virtual_pages": moved},
                )
        return MergeReport(merged)

    def verify_audit_chain(self) -> tuple[bool, Optional[int]]:
        return self._log.verify()

    # -- inspection (read-only views) ---------------------------------------

    def flag(self, addr: Address) -> int:
        return self._flags.get(addr, 0)

    def check_for(self, addr: Address) -> Optional[CodecCheck]:
        return self._checks.get(addr)

    def audit_entries(self) -> AuditEntries:
        return self._log.entries()

    def physical_page_of(self, vpage: int) -> Optional[int]:
        return self._table.mapping.get(vpage)

    def refcount(self, ppage: int) -> int:
        return self._table.refcount(ppage)

    def physical_words(self, ppage: int) -> tuple[int, ...]:
        return tuple(self._pages[ppage])

    def page_table_view(self) -> dict[int, dict[str, Any]]:
        return {
            vp: {
                "physical": pp,
                "cow": self._table.is_cow(vp),
                "protected": vp in self._table.protected,
            }
            for vp, pp in sorted(self._table.mapping.items())
        }

    def is_cow(self, vpage: int) -> bool:
        return self._table.is_cow(vpage)

    def live_physical_pages(self) -> tuple[int, ...]:
        return tuple(sorted(self._pages))

    # -- hardware-fault instrumentation (bypasses the mediated write path) --

    def corrupt_data_bit(self, addr: Address, bit: int) -> None:
        """Flip one data bit in place, as induced hardware corruption would."""
        if addr not in self._written:
            raise MissingAddressError(str(addr))
        if not 0 <= bit < self.word_width:
            raise IndexError(f"bit {bit} out of range for width {self.word_width}")
        self._pages[self._table.mapping[addr.page]][addr.offset] ^= 1 << bit
        self._log.append(AuditEvent.INJECTED_FAULT, addr, {"bit": bit, "zone": "data"})

    def corrupt_physical_bit(self, ppage: int, offset: int, bit: int) -> None:
        """Flip one bit by physical coordinates; all mappings observe it."""
        if ppage not in self._pages:
            raise MissingAddressError(f"physical page {ppage}")
        if not 0 <= offset < self.words_per_page:
            raise IndexError(f"offset {offset} out of range")
        if not 0 <= bit < self.word_width:
            raise IndexError(f"bit {bit} out of range for width {self.word_width}")
        self._pages[ppage][offset] ^= 1 << bit
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
                            "words": [format(v, f"0{self.word_width}b") for v in words],
                            "refcount": self._table.refcount(pid),
                        }
                        for pid, words in sorted(self._pages.items())
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

    def _allocate_page(self, vpage: int, words: list[int]) -> int:
        """Give ``vpage`` a fresh physical page holding ``words``."""
        pid = self._next_physical
        self._next_physical += 1
        self._pages[pid] = words
        self._table.map(vpage, pid)
        return pid

    def _resolve_page_for_write(self, addr: Address) -> list[int]:
        pid = self._table.mapping.get(addr.page)
        if pid is None:
            pid = self._allocate_page(addr.page, [0] * self.words_per_page)
        elif self._table.is_cow(addr.page):
            private = self._allocate_page(addr.page, list(self._pages[pid]))
            self._log.append(
                AuditEvent.COW_BREAK,
                None,
                {"virtual_page": addr.page, "from": pid, "to": private},
            )
            pid = private
        return self._pages[pid]

    def _resolve_word(self, addr: Address) -> Word:
        self._check_addr(addr)
        if addr not in self._written:
            raise MissingAddressError(str(addr))
        return Word(self._pages[self._table.mapping[addr.page]][addr.offset], self.word_width)
