"""The protected store: every access to guarded memory goes through here.

The store keeps four isolated regions inside one instance: the data zone
(physical pages of words), the check zone (codec check data), the
priority-flag zone, and an append-only hash-chained audit log.  None of
the public operations hand out a mutable reference into any zone;
inspection helpers return copies or immutable values.  The check zone
holds each check as its codec's integer ``check_value``;
:meth:`ProtectedStore.check_for` builds a :class:`CodecCheck` when asked.

The log keeps a detail as the tuple of its values, in the field order of
its row of one schema table, :data:`_DETAILS`, which writes the detail's
canonical JSON, dump text and dict.  Its sha256 digests are taken in one
pass over the entries not hashed yet when the log is next read: by a state
dump, :meth:`ProtectedStore.audit_entries` or
:meth:`ProtectedStore.verify_audit_chain`.  So a store operation costs its
digests once, and a digest never depends on anything changed after its
entry was appended.

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
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from ._version import __version__ as _version
from .codecs import CodecCheck, CodecId, get_codec
from .words import Word, as_position, as_width, bit_string, word_maker

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


# -- the encodings of a log entry -----------------------------------------------
#
# An entry's chain digest is the sha256 of the entry without ``digest_self``
# in canonical JSON, ``json.dumps(..., sort_keys=True, separators=(",", ":"))``.
# _chain_digest is the one template of that payload.  Its callers encode a
# str field with encode_basestring_ascii, a plain int by its str, a detail
# by its row's writer, and any other field with canonical_json, which is
# json's own C encoder built once with those settings, so the payload equals
# json.dumps byte for byte.  A state dump writes the entry as
# ``json.dumps(state, indent=2)`` does; AuditLog.indented_entries fills an
# indent-2 template from the log's columns and its detail rows.

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


_CODEC_JSON = {codec_id: _encode_str(codec_id.value) for codec_id in CodecId}
_GENESIS_JSON = f'"{GENESIS}"'


# -- the detail schema --------------------------------------------------------

# A detail value's JSON by its field's type; a plain int's str is its JSON.  A
# list holds plain ints, and spreads one to a line at an entry's depth in a dump.
_VALUE_JSON = {
    bool: {False: "false", True: "true"}.__getitem__,
    str: _encode_str,
    list: lambda items: f"[{','.join(map(str, items))}]",
}
_INDENTED_VALUE_JSON = {
    **_VALUE_JSON,
    list: lambda items: (
        "[\n            " + ",\n            ".join(map(str, items)) + "\n          ]" if items else "[]"
    ),
}


class _Detail:
    """One detail shape: an event's fields, in sorted order, each a bool, a plain int,
    a plain str or a list of plain ints.  The log keeps a detail as the tuple of its
    values, each list as a tuple, and the row writes the detail's three forms."""

    def __init__(self, event: AuditEvent, *fields: tuple[str, type]):
        self.event, self.event_name, self.event_json = event, event.value, _encode_str(event.value)
        self.names = tuple(name for name, _ in fields)
        self.types = tuple(kind for _, kind in fields)
        self.lists = [i for i, kind in enumerate(self.types) if kind is list]
        # json's own texts of the detail, with a %s slot for each value
        slots = dict.fromkeys(self.names, "\0")
        self._canonical = canonical_json(slots).replace('"\\u0000"', "%s")
        indented = json.dumps(slots, indent=2).replace("\n", "\n        ")
        self._indented = indented.replace('"\\u0000"', "%s")
        self._json = [(i, _VALUE_JSON[kind]) for i, kind in enumerate(self.types) if kind is not int]
        self._indented_json = [(i, _INDENTED_VALUE_JSON[self.types[i]]) for i, _ in self._json]

    def kept(self, values: tuple) -> tuple:
        """``values``, of this row's types, with each list as a tuple that holds only plain ints."""
        kept = list(values)
        for i in self.lists:
            kept[i] = items = tuple(kept[i])
            if not set(map(type, items)) <= {int}:
                raise TypeError(f"a {self.event} detail's {self.names[i]} holds only plain ints")
        return tuple(kept)

    def canonical(self, values: tuple) -> str:
        """The detail's canonical JSON, which its entry's digest commits to."""
        texts = list(values)
        for i, write in self._json:
            texts[i] = write(texts[i])
        return self._canonical % tuple(texts)

    def indented(self, values: tuple) -> str:
        """The detail's text in a state dump, as the value of an entry's ``"detail"``."""
        texts = list(values)
        for i, write in self._indented_json:
            texts[i] = write(texts[i])
        return self._indented % tuple(texts)

    def to_dict(self, values: tuple) -> dict[str, Any]:
        """A fresh dict of the detail, in ``json.loads`` key order."""
        detail = dict(zip(self.names, values))
        for i in self.lists:
            detail[self.names[i]] = list(values[i])
        return detail


# Every detail shape the log takes, by its event and its number of fields.
_DETAILS = {
    (row.event, len(row.names)): row
    for row in [
        _Detail(AuditEvent.WRITE, ("priority", bool), ("protected", bool)),
        _Detail(AuditEvent.READ),
        _Detail(AuditEvent.FLAG_SET),
        _Detail(AuditEvent.INTEGRITY_FAILURE, ("codec", str)),
        _Detail(AuditEvent.MERGE, ("freed", int), ("survivor", int), ("virtual_pages", list)),
        _Detail(AuditEvent.COW_BREAK, ("from", int), ("to", int), ("virtual_page", int)),
        # a fault in a word's data or check bits, and one by physical coordinates
        _Detail(AuditEvent.INJECTED_FAULT, ("bit", int), ("zone", str)),
        _Detail(
            AuditEvent.INJECTED_FAULT, ("bit", int), ("offset", int), ("physical_page", int),
            ("zone", str),
        ),
    ]
}
# The rows by a dumped detail's event text, keys and value types, in that order.  A
# detail is a row of its event if it is a plain dict whose keys are the row's names, in
# any order, whose values by those names are of the row's types, and whose lists hold
# plain ints.  A dump writes a detail's keys in row order, which one lookup here finds;
# a detail with keys in another order is found by its event text and key set.
_DUMPED_DETAILS = {(row.event_name, *row.names, *row.types): row for row in _DETAILS.values()}
_DETAILS_BY_KEY_SET = {(row.event_name, frozenset(row.names)): row for row in _DETAILS.values()}


class _Texts(dict):
    """One writer's text of each ``(row, values)`` asked for; a pass writes each distinct detail once."""

    def __init__(self, write: Callable[[_Detail, tuple], str]):
        self._write = write

    def __missing__(self, key: tuple[_Detail, tuple]) -> str:
        text = self[key] = self._write(*key)
        return text


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

    The log is kept as columns: each entry's detail row (which names its
    event), address, detail values and digest.  Outside the log an entry
    is a dict, as a state dump holds it (:meth:`to_dicts`), or the dump's
    text of it (:meth:`indented_entries`).  The digest column is filled up
    to the last entry, in one loop through :func:`_chain_digest`, when
    either next reads the log.
    """

    def __init__(self):
        self._rows: list[_Detail] = []
        self._addresses: list[Optional[str]] = []
        self._details: list[tuple] = []
        self._digests: list[str] = []
        self._kept: dict[tuple[_Detail, tuple], tuple] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, event: AuditEvent, address: Optional[Address | str] = None, *values: Any) -> None:
        """Commit one entry: an :class:`AuditEvent`, its address and its detail's values.

        The values are a row of the event's in :data:`_DETAILS`, in field
        order; any other event (a plain str included), number of values or
        type of a value raises ``TypeError`` before the log changes.  The
        address is logged as its ``str``, and a list is copied.
        """
        if type(event) is not AuditEvent:
            raise TypeError(f"audit event must be an AuditEvent, not {type(event).__name__}")
        row = _DETAILS.get((event, len(values)))
        if row is None or values and tuple(map(type, values)) != row.types:
            raise TypeError(f"{values!r} are not the values of a {event} detail")
        # one tuple per distinct detail without lists, which the garbage collector need not track
        values = row.kept(values) if row.lists else self._kept.setdefault((row, values), values)
        self._rows.append(row)
        self._addresses.append(None if address is None else str(address))
        self._details.append(values)

    def _hash_pending(self) -> None:
        """Chain the entries not hashed yet: one sha256 each, in sequence order."""
        digests = self._digests
        start = len(digests)
        prev = f'"{digests[-1]}"' if start else _GENESIS_JSON
        new = []
        texts = _Texts(_Detail.canonical)
        columns = zip(self._rows[start:], self._addresses[start:], self._details[start:])
        for sequence, (row, addr, values) in enumerate(columns, start):
            addr = "null" if addr is None else _encode_str(addr)
            # A list detail is written afresh: no two merges repeat theirs.
            detail = row.canonical(values) if row.lists else texts[row, values]
            digest = _chain_digest(addr, detail, prev, row.event_json, sequence)
            new.append(digest)
            prev = f'"{digest}"'
        digests += new

    def to_dicts(self, start: int = 0) -> list[dict[str, Any]]:
        """The entries from sequence ``start`` on, as a state dump's ``zones.log`` holds them.

        A negative ``start`` counts from the end, as in a slice.  Every call
        builds fresh dicts, so nothing a caller holds can change the log.
        """
        self._hash_pending()
        start = slice(start, None).indices(len(self._digests))[0]
        dicts = []
        prev = self._digests[start - 1] if start else GENESIS
        columns = zip(*(c[start:] for c in (self._rows, self._addresses, self._details, self._digests)))
        for sequence, (row, addr, values, digest) in enumerate(columns, start):
            dicts.append(
                {
                    "sequence": sequence,
                    "event": row.event_name,
                    "address": addr,
                    "detail": row.to_dict(values),
                    "digest_prev": prev,
                    "digest_self": digest,
                }
            )
            prev = digest
        return dicts

    def indented_entries(self) -> list[str]:
        """The texts of the entries as a state dump's ``zones.log`` list holds them.

        Each is the text of its dict in ``json.dumps(self.to_dicts(), indent=2)``
        at a depth of two.
        """
        self._hash_pending()
        parts = []
        prev = GENESIS
        texts = _Texts(_Detail.indented)
        columns = zip(self._rows, self._addresses, self._details, self._digests)
        for sequence, (row, addr, values, digest) in enumerate(columns):
            parts.append(
                "      {\n"
                f'        "sequence": {sequence},\n'
                f'        "event": {row.event_json},\n'
                f'        "address": {"null" if addr is None else _encode_str(addr)},\n'
                f'        "detail": {texts[row, values]},\n'
                f'        "digest_prev": "{prev}",\n'
                f'        "digest_self": "{digest}"\n'
                "      }"
            )
            prev = digest
        return parts


class ChainVerdict(tuple):
    """``(ok, broken)``: whether a dumped chain verifies, else where it breaks.  Like
    ``os.stat_result`` it has a field past those it unpacks to: ``off_schema``, the
    first verified entry whose detail is no row of its event, or None."""

    off_schema: Optional[int] = None

    def __new__(cls, ok: bool, broken: Optional[int], off_schema: Optional[int]) -> ChainVerdict:
        verdict = super().__new__(cls, (ok, broken))
        verdict.off_schema = off_schema
        return verdict


def verify_entry_dicts(entries: Iterable[dict[str, Any]]) -> ChainVerdict:
    """Verify a dumped audit chain without reconstructing the store.

    A detail is hashed as dumped, and one that is not a JSON object
    raises ``TypeError``, as a missing field raises ``KeyError``.  The first
    detail that is no row of its event is ``off_schema``.  A row writes each
    distinct detail without lists; json's C encoder writes every other.
    """
    prev = GENESIS
    off_schema = None
    texts = _Texts(_Detail.canonical)
    for position, e in enumerate(entries):
        detail = e["detail"]
        if not isinstance(detail, dict):
            raise TypeError(f"the detail of entry {position} is not a JSON object")
        sequence, event, address, digest_prev = e["sequence"], e["event"], e["address"], e["digest_prev"]
        row = None
        if type(event) is str and type(detail) is dict:
            values = tuple(detail.values())
            row = _DUMPED_DETAILS.get((event, *detail, *map(type, values)) if values else (event,))
            if row is None and values:
                row = _DETAILS_BY_KEY_SET.get((event, frozenset(detail)))
                if row is not None:
                    values = tuple(map(detail.__getitem__, row.names))
                    if tuple(map(type, values)) != row.types:
                        row = None
            for i in row.lists if row else ():
                if not set(map(type, values[i])) <= {int}:
                    row = None
        # A field of the type a dump of the store holds goes straight into the
        # template; any other is encoded as json.dumps would, subclasses included.
        # Fields go in sorted-key order, as json.dumps encodes them, so a value
        # it cannot encode raises the same error first.
        recomputed = _chain_digest(
            (
                "null" if address is None
                else _encode_str(address) if type(address) is str
                else canonical_json(address)
            ),
            canonical_json(detail) if row is None or row.lists else texts[row, values],
            _encode_str(digest_prev) if type(digest_prev) is str else canonical_json(digest_prev),
            _encode_str(event) if type(event) is str else canonical_json(event),
            sequence if type(sequence) is int else canonical_json(sequence),
        )
        if digest_prev != prev or recomputed != e["digest_self"] or sequence != position:
            return ChainVerdict(False, position, off_schema)
        if row is None and off_schema is None:
            off_schema = position
        prev = e["digest_self"]
    return ChainVerdict(True, None, off_schema)


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
        self._word = word_maker(word_width)  # a read's Word of the value it reads
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
        self._log.append(AuditEvent.WRITE, text, bool(priority), protect)

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
        self._log.append(AuditEvent.INTEGRITY_FAILURE, text, self.codec.codec_id.value)
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
                self._log.append(AuditEvent.MERGE, None, dupe, survivor, sorted(moved))
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
        self._log.append(AuditEvent.INJECTED_FAULT, text, bit, "data")

    def corrupt_physical_bit(self, ppage: int, offset: int, bit: int) -> None:
        """Flip one bit by physical coordinates; all mappings observe it."""
        ppage = operator.index(ppage)
        if ppage not in self._pages:
            raise MissingAddressError(f"physical page {ppage}")
        offset = as_position(offset, self.words_per_page, "offset")
        bit = as_position(bit, self.word_width)
        self._pages[ppage][offset] ^= 1 << bit
        self._log.append(AuditEvent.INJECTED_FAULT, None, bit, offset, ppage, "data")

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
        self._log.append(AuditEvent.INJECTED_FAULT, self._written[addr], bit, "check")

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
            self._log.append(AuditEvent.COW_BREAK, None, pid, private, addr.page)
            pid = private
        return self._pages[pid]

    def _resolve_word(self, addr: Address) -> Word:
        if addr not in self._written:
            raise MissingAddressError(str(addr))
        return self._word(self._pages[self._mapping[addr.page]][addr.offset])
