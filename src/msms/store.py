"""The protected store: every access to guarded memory goes through here.

The store keeps four isolated regions inside one instance: the data zone
(physical pages of words), the check zone (codec check data), the
priority-flag zone, and an append-only hash-chained audit log.  None of
the public operations hand out a mutable reference into any zone;
inspection helpers return copies or immutable values.  The check zone
holds each check as its codec's integer ``check_value``;
:meth:`ProtectedStore.check_for` builds a :class:`CodecCheck` when asked.

The log fixes an entry's fields, its detail's canonical JSON included,
when the entry is appended, and queues it.  Its sha256 digests are taken
in one pass over the queued entries when the log is next read: by a state
dump, :meth:`ProtectedStore.audit_entries` or
:meth:`ProtectedStore.verify_audit_chain`.  So a store operation costs its
digests once, whenever they are taken, and a digest never depends on
anything changed after its entry was appended.

A physical page is an ``array("Q")``, one unsigned 64-bit machine word
per stored word whatever the store's width.  Allocating, copying and
comparing a page each cost one memcpy, and the garbage collector never
scans a page's words.

Three protection strategies control when a write stores check data and
when a read verifies it.  :data:`CHECKED_BY_PRIORITY` is that rule, for
the store and the simulation alike:

* ``none``      - never; reads come back unverified.
* ``enhanced``  - only operations classified as priority.
* ``full``      - every operation.

Priority flags are monotonic: once an address is flagged critical it
stays critical.  There is no public operation that lowers a flag, and
the flag zone itself refuses the transition as a final guard.

Virtual pages map onto physical pages with copy-on-write semantics;
:meth:`ProtectedStore.dedup_scan` merges identical physical pages the
way a same-page-merging kernel would, skipping pages that were
explicitly protected from deduplication.  The store owns the page table,
a virtual-to-physical map and each physical page's sharer set, and only
page allocation and ``dedup_scan`` write them.  A physical page's
refcount is its number of sharers, and a virtual page is copy-on-write
exactly when its physical page is shared.  Addresses, bit indices and
physical coordinates are kept as plain ints: any other integer type is
taken by its value, and anything else raises ``TypeError`` before the
store changes, as an address outside the page space raises ``ValueError``.

Hardware faults are modeled through the ``corrupt_*`` methods, which
deliberately bypass the mediated write path and mutate zone contents
directly, the way a disturbance attack or a stray alpha particle would.
They are instrumentation, not API: regular clients never call them.
"""

from __future__ import annotations

import hashlib
import json
import operator
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from ._version import __version__ as _version
from .codecs import CodecCheck, CodecId, get_codec
from .words import Word, as_position, as_width, bit_string

DEFAULT_WORDS_PER_PAGE = 512

# Predecessor digest of the first audit entry: an all-zero sha256.
GENESIS = "0" * 64


class Strategy(str, Enum):
    NONE = "none"
    ENHANCED = "enhanced"
    FULL = "full"

    def __str__(self) -> str:
        return self.value


# Whether a strategy checks a word without and with the priority flag.
CHECKED_BY_PRIORITY = {
    Strategy.NONE: (False, False),
    Strategy.ENHANCED: (False, True),
    Strategy.FULL: (True, True),
}


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


class Address(NamedTuple):
    """Virtual location of one word: a (virtual page, word offset) tuple."""

    page: int
    offset: int

    def __str__(self) -> str:
        return f"{self.page}:{self.offset}"


# -- the two encodings of a log entry ------------------------------------------
#
# An entry's chain digest is the sha256 of the entry without ``digest_self``
# in canonical JSON, ``json.dumps(..., sort_keys=True, separators=(",", ":"))``.
# _chain_digest is the one template of that payload.  Its callers encode a
# str field with encode_basestring_ascii, a plain int by its str, and any
# other field with canonical_json, which is json's own C encoder built once
# with those settings, so the payload equals json.dumps byte for byte.  A
# state dump writes the entry as ``json.dumps(state, indent=2)`` does;
# AuditLog.indented_entries fills an indent-2 template from the log's columns.
# The store's own WRITE and MERGE details have templates of both encodings.

_encode_str = json.encoder.encode_basestring_ascii

# json.dumps' C encoder with its canonical settings, or None without the _json
# accelerator.  It keeps no circular-reference markers: a cycle recurses until
# the encoder fails, and canonical_json then lets json.dumps raise its ValueError.
_c_canonical = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _encode_str, None, ":", ",", True, False, True
)


def canonical_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``.

    Any failure of the C encoder, or its absence, is handed to json.dumps,
    so the text and the exception are exactly json.dumps' own.
    """
    try:
        return "".join(_c_canonical(value, 0))
    except Exception:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _chain_digest(address: str, detail: str, digest_prev: str, event: str, sequence: Any) -> str:
    """sha256 of an entry from the canonical JSON of its five fields.

    ``sequence`` may also be a plain int, whose ``str`` is its JSON.
    """
    payload = (
        f'{{"address":{address},"detail":{detail},"digest_prev":{digest_prev},'
        f'"event":{event},"sequence":{sequence}}}'
    )
    return hashlib.sha256(payload.encode()).hexdigest()


_EVENT_NAMES = {event: event.value for event in AuditEvent}
_EVENT_JSON = {event: _encode_str(name) for event, name in _EVENT_NAMES.items()}
_CODEC_JSON = {codec_id: _encode_str(codec_id.value) for codec_id in CodecId}
_GENESIS_JSON = f'"{GENESIS}"'


class _CanonicalDetail(str):
    """A detail's canonical JSON, which AuditLog.append takes as it is.

    Only this module makes them, from :func:`canonical_json` of the dict
    they stand for; a public caller hands ``append`` the dict.
    """


# The detail of every WRITE entry, by (priority, protected).
_WRITE_DETAILS = {
    (priority, protected): _CanonicalDetail(
        canonical_json({"priority": priority, "protected": protected})
    )
    for priority in (False, True)
    for protected in (False, True)
}


class _MergeDetail(NamedTuple):
    """A MERGE entry's detail as the log keeps it: its fields, all plain ints.

    :meth:`ProtectedStore.dedup_scan` logs every merge as one, so a MERGE
    has this one form, and only this class spells out its keys.  Its dict
    and both encodings are template fills, so none needs json;
    ``virtual_pages`` is the log's own list and never handed out.
    """

    freed: int
    survivor: int
    virtual_pages: list[int]

    def to_dict(self) -> dict[str, Any]:
        """A fresh dict of the fields, in ``json.loads`` key order."""
        freed, survivor, pages = self
        return {"freed": freed, "survivor": survivor, "virtual_pages": list(pages)}

    def canonical(self) -> str:
        pages = ",".join(map(str, self.virtual_pages))
        return f'{{"freed":{self.freed},"survivor":{self.survivor},"virtual_pages":[{pages}]}}'

    def indented(self) -> str:
        """The detail's text in a state dump, as the value of an entry's ``"detail"``."""
        pages = "[]"
        if self.virtual_pages:
            items = ",\n            ".join(map(str, self.virtual_pages))
            pages = f"[\n            {items}\n          ]"
        return (
            "{\n"
            f'          "freed": {self.freed},\n'
            f'          "survivor": {self.survivor},\n'
            f'          "virtual_pages": {pages}\n'
            "        }"
        )


# Stands in for a zone while json.dumps writes the rest of a state dump.  No
# other string the store dumps holds a NUL, so the slot occurs only where it
# stands in: for the check, priority and log zones, in that order.
_ZONE_PLACEHOLDER = "\0msms zone\0"
_ZONE_SLOT = _encode_str(_ZONE_PLACEHOLDER)


def _indented(opening: str, items: list[str], closing: str) -> str:
    """A zone's indent-2 text at a depth of two, from its items' texts."""
    if not items:
        return opening + closing
    return f"{opening}\n" + ",\n".join(items) + f"\n    {closing}"


class AuditLog:
    """Append-only log whose entries form a tamper-evident hash chain.

    Entry ``i`` commits to entry ``i-1`` through ``digest_prev``;
    altering any committed field breaks verification at that entry.  The
    digest is sha256 and the first entry's predecessor is :data:`GENESIS`.

    The log is kept as columns (event, address, detail and digest).  A
    detail is kept as its canonical JSON, except that the store's MERGE
    entries keep their fields: :meth:`ProtectedStore.dedup_scan` logs
    every merge in the one form of a :class:`_MergeDetail`, whose text is
    needed once, for the digest, and whose encodings are template fills.
    Outside the log an entry is a dict, as a state dump holds it
    (:meth:`to_dicts`), or the dump's text of it (:meth:`indented_entries`).

    :meth:`append` fixes every field but the digest and queues the entry
    with its detail's canonical JSON.  The digest column is filled up to
    the last entry, in one loop through :func:`_chain_digest`, when
    :meth:`to_dicts` or :meth:`indented_entries` next reads the log.
    """

    def __init__(self):
        self._events: list[AuditEvent] = []
        self._addresses: list[Optional[str]] = []
        self._details: list[str | _MergeDetail] = []
        self._digests: list[str] = []
        # The canonical detail JSON of each entry not hashed yet, from
        # sequence len(self._digests) on.
        self._unhashed: list[str] = []

    def __len__(self) -> int:
        return len(self._events)

    def append(
        self,
        event: AuditEvent,
        address: Optional[Address | str] = None,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        """Commit one entry's fields and queue it for its sha256.

        ``event`` is an :class:`AuditEvent` member and ``detail`` a dict or
        None (logged as ``{}``); anything else raises ``TypeError``, a plain
        str event included.  The address is logged as its ``str``, so the
        store hands in each written word's one address text.  The detail's
        canonical JSON is taken here, so changing the dict afterwards
        changes no digest.  The store's own WRITE details come pre-encoded
        from :data:`_WRITE_DETAILS`, and its MERGE details as their fields.
        """
        if type(event) is not AuditEvent:
            raise TypeError(f"audit event must be an AuditEvent, not {type(event).__name__}")
        if detail is None:
            detail_json = kept = "{}"
        elif type(detail) is _CanonicalDetail:
            detail_json = kept = detail
        elif type(detail) is _MergeDetail:
            detail_json, kept = detail.canonical(), detail
        elif isinstance(detail, dict):
            detail_json = kept = canonical_json(detail)
        else:
            raise TypeError(f"audit detail must be a dict, not {type(detail).__name__}")
        self._events.append(event)
        self._addresses.append(None if address is None else str(address))
        self._details.append(kept)
        self._unhashed.append(detail_json)

    def _hash_pending(self) -> None:
        """Chain the queued entries: one sha256 each, in sequence order."""
        unhashed = self._unhashed
        digests = self._digests
        start = len(digests)
        prev = f'"{digests[-1]}"' if start else _GENESIS_JSON
        new = []
        columns = zip(self._events[start:], self._addresses[start:], unhashed)
        for sequence, (event, addr, detail_json) in enumerate(columns, start):
            digest = _chain_digest(
                "null" if addr is None else _encode_str(addr),
                detail_json,
                prev,
                _EVENT_JSON[event],
                sequence,
            )
            new.append(digest)
            prev = f'"{digest}"'
        digests += new
        unhashed.clear()

    def to_dicts(self, start: int = 0) -> list[dict[str, Any]]:
        """The entries from sequence ``start`` on, as a state dump's ``zones.log`` holds them.

        A negative ``start`` counts from the end, as in a slice.  Every call
        builds fresh dicts, so nothing a caller holds can change the log.
        """
        self._hash_pending()
        start = slice(start, None).indices(len(self._digests))[0]
        # A MERGE detail is built from its fields, in json.loads key order.
        # Other flat details are parsed once per distinct text and copied
        # per entry; details holding a list are parsed afresh for each entry.
        flat: dict[str, dict[str, Any]] = {}
        dicts = []
        prev = self._digests[start - 1] if start else GENESIS
        columns = zip(
            self._events[start:],
            self._addresses[start:],
            self._details[start:],
            self._digests[start:],
        )
        for sequence, (event, addr, kept, digest) in enumerate(columns, start):
            if type(kept) is _MergeDetail:
                detail = kept.to_dict()
            elif (detail := flat.get(kept)) is not None:
                detail = dict(detail)
            else:
                detail = json.loads(kept)
                if "[" not in kept and "{" not in kept[1:]:
                    flat[kept] = dict(detail)
            dicts.append(
                {
                    "sequence": sequence,
                    "event": _EVENT_NAMES[event],
                    "address": addr,
                    "detail": detail,
                    "digest_prev": prev,
                    "digest_self": digest,
                }
            )
            prev = digest
        return dicts

    def indented_entries(self) -> list[str]:
        """The texts of the entries as a state dump's ``zones.log`` list holds them.

        Each is the text of its dict in ``json.dumps(self.to_dicts(), indent=2)``
        at a depth of two.  A MERGE detail fills its template; each other
        distinct detail is indented once.
        """
        self._hash_pending()
        details: dict[str, str] = {}
        parts = []
        prev = GENESIS
        columns = zip(self._events, self._addresses, self._details, self._digests)
        for sequence, (event, addr, kept, digest) in enumerate(columns):
            if type(kept) is _MergeDetail:
                detail = kept.indented()
            elif (detail := details.get(kept)) is None:
                detail = json.dumps(json.loads(kept), indent=2).replace("\n", "\n        ")
                details[kept] = detail
            parts.append(
                "      {\n"
                f'        "sequence": {sequence},\n'
                f'        "event": {_EVENT_JSON[event]},\n'
                f'        "address": {"null" if addr is None else _encode_str(addr)},\n'
                f'        "detail": {detail},\n'
                f'        "digest_prev": "{prev}",\n'
                f'        "digest_self": "{digest}"\n'
                "      }"
            )
            prev = digest
        return parts


def _known_detail_json(detail: dict) -> Optional[str]:
    """The canonical JSON of an empty or a WRITE detail, else None.

    Only a plain dict qualifies, with no items or with exactly the keys
    ``priority`` and ``protected`` holding the ``True``/``False`` objects.
    """
    if type(detail) is not dict:
        return None
    if not detail:
        return "{}"
    if len(detail) == 2:
        priority = detail.get("priority")
        protected = detail.get("protected")
        if (priority is True or priority is False) and (protected is True or protected is False):
            return _WRITE_DETAILS[priority, protected]
    return None


def verify_entry_dicts(entries: Iterable[dict[str, Any]]) -> tuple[bool, Optional[int]]:
    """Verify a dumped audit chain without reconstructing the store.

    A detail is hashed as dumped, and one that is not a JSON object
    raises ``TypeError``, as a missing field raises ``KeyError``.
    """
    prev = GENESIS
    for position, e in enumerate(entries):
        detail = e["detail"]
        if not isinstance(detail, dict):
            raise TypeError(f"the detail of entry {position} is not a JSON object")
        sequence, event, address, digest_prev = e["sequence"], e["event"], e["address"], e["digest_prev"]
        # A field of the type a dump of the store holds goes straight into the
        # template; any other is encoded as json.dumps would, subclasses
        # included.  Fields go in sorted-key order, as json.dumps encodes
        # them, so a value it cannot encode raises the same error first.
        recomputed = _chain_digest(
            (
                "null" if address is None
                else _encode_str(address) if type(address) is str
                else canonical_json(address)
            ),
            _known_detail_json(detail) or canonical_json(detail),
            _encode_str(digest_prev) if type(digest_prev) is str else canonical_json(digest_prev),
            _encode_str(event) if type(event) is str else canonical_json(event),
            sequence if type(sequence) is int else canonical_json(sequence),
        )
        if digest_prev != prev or recomputed != e["digest_self"] or sequence != position:
            return False, position
        prev = e["digest_self"]
    return True, None


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one deduplication scan."""

    pairs_merged: int


class ReadResult(NamedTuple):
    word: Optional[Word]
    validity: Validity


class ProtectedStore:
    """Mediated memory store with isolated data/check/priority/log zones."""

    def __init__(
        self,
        codec: str = "parity",
        strategy: Strategy = Strategy.ENHANCED,
        read_policy: ReadPolicy = ReadPolicy.RETURN_MARKED_INVALID,
        word_width: int = 8,
        words_per_page: int = DEFAULT_WORDS_PER_PAGE,
        allow_check_zone_faults: bool = False,
    ):
        word_width, words_per_page = as_width(word_width), operator.index(words_per_page)
        if words_per_page < 1:
            raise ValueError("words_per_page must be positive")
        self.codec = get_codec(codec)
        self.strategy = Strategy(strategy)
        self._checked = CHECKED_BY_PRIORITY[self.strategy]
        self.read_policy = ReadPolicy(read_policy)
        self.word_width = word_width
        self.words_per_page = words_per_page
        self.allow_check_zone_faults = allow_check_zone_faults
        # zones; reachable only through store operations
        self._pages: dict[int, array] = {}  # physical page -> its words, typecode "Q"
        self._mapping: dict[int, int] = {}  # page table: virtual -> physical page
        self._sharers: dict[int, set[int]] = {}  # live physical page -> its virtual pages
        self._protected: set[int] = set()  # virtual pages exempt from deduplication
        self._checks: dict[Address, int] = {}  # address -> its codec's check_value
        self._flags: dict[Address, int] = {}
        self._log = AuditLog()
        # written address -> its one "page:offset" text, which the log and dumps share
        self._written: dict[Address, str] = {}
        self._next_physical = 0

    # -- mediated operations ------------------------------------------------

    def store_write(self, addr: Address, word: Word, priority: bool = False) -> None:
        """Place a word; under an active strategy also store its check.

        Writing to a shared copy-on-write page first breaks the sharing.
        A priority write flags the address; the flag never comes back
        down, so later writes to a flagged address are treated as
        priority regardless of the ``priority`` argument.
        """
        addr = self._address(addr)
        if word.width != self.word_width:
            raise ValueError(f"word width {word.width} != store width {self.word_width}")
        self._resolve_page_for_write(addr)[addr.offset] = word.value
        text = self._written.get(addr)
        if text is None:
            text = self._written[addr] = str(addr)

        # The flag zone records the classification whatever the
        # strategy does with it; check storage is the strategy's call.
        if priority:
            self._set_flag(addr)
        protect = self._checked[self._flags.get(addr, 0) == 1]
        if protect:
            self._checks[addr] = self.codec.check_value(word.value, word.width)
        self._log.append(AuditEvent.WRITE, text, _WRITE_DETAILS[bool(priority), protect])

    def store_read(self, addr: Address) -> ReadResult:
        """Fetch a word and, where the strategy calls for it, verify it.

        Returns ``(word, validity)``; when the store's read policy is
        ``suppress_on_invalid`` the word is None if verification fails.
        """
        addr = self._address(addr)
        word = self._resolve_word(addr)
        text = self._written[addr]
        self._log.append(AuditEvent.READ, text)
        if self.read_policy is ReadPolicy.RETURN_UNCHECKED:
            return ReadResult(word, Validity.UNCHECKED)
        # A stored check encodes the write-time protection decision;
        # its absence means this word was never protected.
        check = self._checks.get(addr)
        if check is None:
            return ReadResult(word, Validity.UNCHECKED)
        if check == self.codec.check_value(word.value, word.width):
            return ReadResult(word, Validity.VALID)
        self._log.append(AuditEvent.INTEGRITY_FAILURE, text, {"codec": self.codec.codec_id.value})
        if self.read_policy is ReadPolicy.SUPPRESS_ON_INVALID:
            return ReadResult(None, Validity.INVALID)
        return ReadResult(word, Validity.INVALID)

    def set_priority(self, addr: Address) -> None:
        """Flag an address as critical.  Idempotent; never reversible.

        Under a strategy that checks flagged words the current word is
        snapshotted into the check zone so the very next read can already
        verify.
        """
        addr = self._address(addr)
        word = self._resolve_word(addr)
        self._set_flag(addr)
        if self._checked[True] and addr not in self._checks:
            self._checks[addr] = self.codec.check_value(word.value, word.width)
        self._log.append(AuditEvent.FLAG_SET, self._written[addr])

    def protect_page(self, vpage: int) -> None:
        """Exempt a virtual page from deduplication; the page obeys the address rule."""
        self._protected.add(self._address(Address(vpage, 0)).page)

    def dedup_scan(self) -> MergeReport:
        """Merge identical physical pages, sparing protected ones.

        For each group of content-identical pages with no protected
        mapping, all virtual pages are repointed at the lowest-numbered
        page and the duplicates are freed; the survivor is now shared,
        so every mapping onto it is copy-on-write.
        """
        pages, mapping, sharers = self._pages, self._mapping, self._sharers
        groups: dict[bytes, list[int]] = {}
        for pid in sorted(pages):
            if self._protected.isdisjoint(sharers[pid]):
                groups.setdefault(pages[pid].tobytes(), []).append(pid)

        merged = 0
        for survivor, *dupes in groups.values():
            for dupe in dupes:
                moved = sharers.pop(dupe)
                mapping.update(dict.fromkeys(moved, survivor))
                sharers[survivor] |= moved
                del pages[dupe]
                merged += 1
                self._log.append(AuditEvent.MERGE, None, _MergeDetail(dupe, survivor, sorted(moved)))
        return MergeReport(merged)

    def verify_audit_chain(self) -> tuple[bool, Optional[int]]:
        return verify_entry_dicts(self._log.to_dicts())

    # -- inspection (read-only views) ---------------------------------------

    def flag(self, addr: Address) -> int:
        return self._flags.get(addr, 0)

    def check_for(self, addr: Address) -> Optional[CodecCheck]:
        """The check stored for ``addr``, built as a :class:`CodecCheck`, or None."""
        value = self._checks.get(addr)
        if value is None:
            return None
        return CodecCheck(self.codec.codec_id, value, self.codec.check_bits(self.word_width))

    def audit_entries(self, start: int = 0) -> list[dict[str, Any]]:
        """The log from sequence ``start`` on, as :meth:`dump_state` writes it."""
        return self._log.to_dicts(start)

    def physical_page_of(self, vpage: int) -> Optional[int]:
        return self._mapping.get(vpage)

    def refcount(self, ppage: int) -> int:
        return len(self._sharers[ppage])

    def physical_words(self, ppage: int) -> tuple[int, ...]:
        return tuple(self._pages[ppage])

    def page_table_view(self) -> dict[int, dict[str, Any]]:
        return dict(self._page_table_rows())

    def highest_virtual_page(self) -> Optional[int]:
        """The largest mapped virtual page number, or None before any write."""
        return max(self._mapping, default=None)

    def is_cow(self, vpage: int) -> bool:
        ppage = self._mapping.get(vpage)
        return ppage is not None and len(self._sharers[ppage]) > 1

    def live_physical_pages(self) -> tuple[int, ...]:
        return tuple(sorted(self._pages))

    # -- hardware-fault instrumentation (bypasses the mediated write path) --

    def corrupt_data_bit(self, addr: Address, bit: int) -> None:
        """Flip one data bit in place, as induced hardware corruption would."""
        addr = self._address(addr)
        text = self._written.get(addr)
        if text is None:
            raise MissingAddressError(str(addr))
        bit = as_position(bit, self.word_width)
        self._pages[self._mapping[addr.page]][addr.offset] ^= 1 << bit
        self._log.append(AuditEvent.INJECTED_FAULT, text, {"bit": bit, "zone": "data"})

    def corrupt_physical_bit(self, ppage: int, offset: int, bit: int) -> None:
        """Flip one bit by physical coordinates; all mappings observe it."""
        ppage = operator.index(ppage)
        if ppage not in self._pages:
            raise MissingAddressError(f"physical page {ppage}")
        offset = as_position(offset, self.words_per_page, "offset")
        bit = as_position(bit, self.word_width)
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
        addr = self._address(addr)
        check = self._checks.get(addr)
        if check is None:
            raise MissingAddressError(f"no check stored for {addr}")
        bit = as_position(bit, self.codec.check_bits(self.word_width))
        self._checks[addr] = check ^ 1 << bit
        detail = {"bit": bit, "zone": "check"}
        self._log.append(AuditEvent.INJECTED_FAULT, self._written[addr], detail)

    # -- state dump ----------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """JSON-ready snapshot with each zone listed separately."""
        codec = self.codec.codec_id.value
        payloads = self._payloads()
        written = self._written
        return self._state(
            {
                written[addr]: {"codec": codec, "payload": payloads[check]}
                for addr, check in sorted(self._checks.items())
            },
            {written[addr]: flag for addr, flag in sorted(self._flags.items())},
            self._log.to_dicts(),
        )

    def dump_text(self) -> str:
        """The state dump as a file holds it.

        The text is exactly ``json.dumps(self.dump_state(), indent=2) + "\\n"``.
        The check, priority and log zones are written from indent-2
        templates, the metadata, data and page-table zones by json.dumps.
        """
        head, after_check, after_priority, tail = json.dumps(
            self._state(_ZONE_PLACEHOLDER, _ZONE_PLACEHOLDER, _ZONE_PLACEHOLDER), indent=2
        ).split(_ZONE_SLOT)
        codec = _CODEC_JSON[self.codec.codec_id]
        payloads = self._payloads()
        written = self._written
        checks = [
            f"      {_encode_str(written[addr])}: {{\n"
            f'        "codec": {codec},\n'
            f'        "payload": "{payloads[check]}"\n'
            "      }"
            for addr, check in sorted(self._checks.items())
        ]
        flags = [
            f"      {_encode_str(written[addr])}: {flag}"
            for addr, flag in sorted(self._flags.items())
        ]
        return "".join(
            [
                head,
                _indented("{", checks, "}"),
                after_check,
                _indented("{", flags, "}"),
                after_priority,
                _indented("[", self._log.indented_entries(), "]"),
                tail,
                "\n",
            ]
        )

    def _payloads(self) -> dict[int, str]:
        """The payload text of each distinct check value; all share the store's codec and width."""
        size = self.codec.check_bits(self.word_width)
        return {v: bit_string(v, size) for v in set(self._checks.values())}

    def _state(self, check: Any, priority: Any, log: Any) -> dict[str, Any]:
        # Most words of a page repeat (an unwritten word is 0), so each
        # distinct value is formatted once per dump.
        bits = {v: bit_string(v, self.word_width) for v in set().union(*self._pages.values())}
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
                            "words": list(map(bits.__getitem__, words)),
                            "refcount": len(self._sharers[pid]),
                        }
                        for pid, words in sorted(self._pages.items())
                    },
                    "page_table": {str(vp): row for vp, row in self._page_table_rows()},
                },
                "check": check,
                "priority": priority,
                "log": log,
            },
        }

    # -- internals -----------------------------------------------------------

    def _address(self, addr: Address) -> Address:
        """``addr`` as an :class:`Address` of plain ints inside this store's page space.

        Another integer type is taken by its ``__index__`` and anything else
        raises ``TypeError``; a page below 0 or an offset outside the page
        raises ``ValueError``.
        """
        page, offset = addr
        if type(page) is not int or type(offset) is not int or type(addr) is not Address:
            page, offset = addr = Address(operator.index(page), operator.index(offset))
        if page < 0 or not 0 <= offset < self.words_per_page:
            raise ValueError(f"address {addr} out of range (words_per_page={self.words_per_page})")
        return addr

    def _set_flag(self, addr: Address) -> None:
        self._raw_set_flag(addr, 1)

    def _raw_set_flag(self, addr: Address, value: int) -> None:
        # Final guard: the zone itself refuses 1 -> 0, whatever the caller.
        if value == 0 and self._flags.get(addr, 0) == 1:
            raise MonotonicityError(f"priority flag of {addr} cannot return to 0")
        self._flags[addr] = value

    def _page_table_rows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Each virtual page in order, with its row, read off the sharer map."""
        sharers, protected = self._sharers, self._protected
        for vp, pp in sorted(self._mapping.items()):
            yield vp, {"physical": pp, "cow": len(sharers[pp]) > 1, "protected": vp in protected}

    def _allocate_page(self, vpage: int, words: array) -> int:
        """Give ``vpage`` a fresh physical page holding ``words``."""
        pid = self._next_physical
        self._next_physical += 1
        self._pages[pid] = words
        old = self._mapping.get(vpage)
        if old is not None:  # a copy-on-write break; ``old`` keeps its other sharers
            self._sharers[old].remove(vpage)
        self._mapping[vpage] = pid
        self._sharers[pid] = {vpage}
        return pid

    def _resolve_page_for_write(self, addr: Address) -> array:
        pid = self._mapping.get(addr.page)
        if pid is None:
            pid = self._allocate_page(addr.page, array("Q", [0]) * self.words_per_page)
        elif len(self._sharers[pid]) > 1:
            private = self._allocate_page(addr.page, self._pages[pid][:])
            self._log.append(
                AuditEvent.COW_BREAK,
                None,
                {"virtual_page": addr.page, "from": pid, "to": private},
            )
            pid = private
        return self._pages[pid]

    def _resolve_word(self, addr: Address) -> Word:
        if addr not in self._written:
            raise MissingAddressError(str(addr))
        return Word(self._pages[self._mapping[addr.page]][addr.offset], self.word_width)
