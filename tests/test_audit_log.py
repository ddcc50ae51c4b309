"""The audit log's detail schema, its encodings, its columns and its read views.

Chain digests and state-dump files must stay byte for byte what json.dumps
gives, so each encoder is checked against json.dumps itself, and the dump
verifier against a json.dumps-based reference kept here.
"""

import hashlib
import json
import random
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from msms import (
    Address,
    AuditEvent,
    ProtectedStore,
    RandomSource,
    SimulationConfig,
    Strategy,
    Word,
    codec_names,
    flip_feng_shui_scenario,
    run_simulation,
    verify_entry_dicts,
)
from msms.store import _DETAILS, GENESIS, AuditLog, canonical_json


def reference_verify(entries):
    """The dump verifier as it was written with json.dumps."""
    prev = GENESIS
    for position, e in enumerate(entries):
        if not isinstance(e["detail"], dict):
            raise TypeError("detail is not a JSON object")
        recomputed = reference_digest(
            e["sequence"], e["event"], e["address"], e["detail"], e["digest_prev"]
        )
        if e["digest_prev"] != prev or recomputed != e["digest_self"] or e["sequence"] != position:
            return False, position
        prev = e["digest_self"]
    return True, None


def reference_digest(sequence, event, address, detail, digest_prev):
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


def outcome(verify, entries):
    """A verifier's verdict, or the class of the exception it raised."""
    try:
        return verify(entries)
    except Exception as e:  # noqa: BLE001 - the class is the result
        return type(e)


class Small(IntEnum):
    ONE = 1


class Position(IntEnum):
    """A sequence number whose text is not its JSON."""

    FIRST = 0
    SECOND = 1
    THIRD = 2
    FOURTH = 3
    FIFTH = 4
    SIXTH = 5
    SEVENTH = 6
    EIGHTH = 7
    NINTH = 8
    TENTH = 9
    ELEVENTH = 10
    TWELFTH = 11

    def __str__(self):
        return self.name

    def __format__(self, spec):
        return self.name


class Text(str):
    """A str whose text is not its JSON."""

    def __str__(self):
        return "tampered"

    def __format__(self, spec):
        return "tampered"


class AlwaysTrue(dict):
    """A dict whose lookups answer True whatever its items hold."""

    def get(self, key, default=None):
        return True

    def __getitem__(self, key):
        return True


texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\x00", "\n\t\"\\", "\x7f", "é", " ", "\U0001f600", "0:1"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
    | st.sampled_from([Small.ONE, 0, 1, True, False, -0.0])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


def _nested(depth):
    value = {"leaf": [1.5, None]}
    for level in range(depth):
        value = {"k": value, "n": level} if level % 2 else [value, level]
    return value


@settings(max_examples=400, deadline=None)
@given(json_values)
@example({"a": True, "b": 1})
@example([True, 1, False, 0])
@example({"b": 1, "a": {"c": []}, "": None})
@example({})
@example([])
@example({"virtual_pages": [3, 1, 2], "freed": 5, "survivor": 0})
@example({"x": Small.ONE})
@example({"x": 1.0})
@example({"event": AuditEvent.MERGE, "b": [AuditEvent.WRITE]})
@example(AuditEvent.READ)
@example({"n": Small.ONE, "m": [Position.THIRD]})
@example(Position.FOURTH)
@example({"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")})
@example([float("nan"), -0.0, 1e300, 5e-324])
@example(_nested(200))
def test_canonical_json_equals_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {True: 1}, {2.5: 0}, {3: 1, 2: 0}])
def test_canonical_json_of_non_str_keys_equals_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_canonical_json_raises_as_json_dumps_does():
    for value in ({"a": object()}, {"a": 1, 2: "b"}, {None: 1, "b": 2}, [set()], {(1, 2): "a"}):
        with pytest.raises(Exception) as expected:
            json.dumps(value, sort_keys=True, separators=(",", ":"))
        with pytest.raises(expected.type):
            canonical_json(value)


def test_canonical_json_of_a_circular_value_raises_value_error():
    # The C encoder keeps no circular-reference markers; json.dumps reports the cycle.
    looped = {"a": 1}
    looped["self"] = looped
    listed = [1]
    listed.append({"back": listed})
    for value in (looped, listed):
        with pytest.raises(ValueError, match="Circular reference detected"):
            json.dumps(value, sort_keys=True, separators=(",", ":"))
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_json(value)


def test_canonical_json_of_what_the_store_logs_needs_no_json_dumps(monkeypatch):
    # json.dumps is only the fallback; the C encoder built at import does the work.
    details = [{"survivor": 0, "freed": 7, "virtual_pages": [7, 9]}, {"codec": "parity"}, "0:1", 3, None]
    expected = [json.dumps(d, sort_keys=True, separators=(",", ":")) for d in details]
    monkeypatch.setattr(json, "dumps", None)
    assert [canonical_json(d) for d in details] == expected


def test_canonical_json_too_deep_raises_recursion_error():
    value = _nested(100_000)
    with pytest.raises(RecursionError):
        json.dumps(value, sort_keys=True, separators=(",", ":"))
    with pytest.raises(RecursionError):
        canonical_json(value)


# -- the dump writer -----------------------------------------------------------

def test_dump_writer_on_a_store_with_every_event():
    store = ProtectedStore(words_per_page=2)
    for page in range(3):
        store.store_write(Address(page, 0), Word(5, 8), priority=page == 0)
    store.set_priority(Address(1, 0))
    store.dedup_scan()
    store.store_write(Address(2, 0), Word(6, 8))
    store.corrupt_physical_bit(store.physical_page_of(0), 0, 1)
    store.corrupt_data_bit(Address(2, 0), 0)
    store.store_read(Address(0, 0))
    state = store.dump_state()
    assert {e.value for e in AuditEvent} == {e["event"] for e in state["zones"]["log"]}
    assert store.dump_text() == json.dumps(state, indent=2) + "\n"


def _store_walk(codec, strategy, width, words_per_page, seed, n_ops, span=(6, 3)):
    """A seeded walk over every store operation and fault.  Values come
    mostly from {0, 1}, so pages merge and later writes break the sharing.
    ``span`` bounds the pages and the offsets the walk writes."""
    pages, offsets = span
    rng = random.Random(seed)
    store = ProtectedStore(
        codec=codec,
        strategy=strategy,
        word_width=width,
        words_per_page=words_per_page,
        allow_check_zone_faults=True,
    )
    written = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.45 or not written:
            addr = Address(rng.randrange(pages), rng.randrange(min(words_per_page, offsets)))
            value = rng.choice([0, 1, 1, rng.getrandbits(width)])
            store.store_write(addr, Word(value, width), priority=rng.random() < 0.3)
            written.append(addr)
        elif roll < 0.55:
            store.store_read(rng.choice(written))
        elif roll < 0.6:
            store.set_priority(rng.choice(written))
        elif roll < 0.72:
            store.dedup_scan()
        elif roll < 0.75:
            store.protect_page(rng.randrange(pages))
        elif roll < 0.83:
            store.corrupt_data_bit(rng.choice(written), rng.randrange(width))
        elif roll < 0.91:
            ppage = rng.choice(store.live_physical_pages())
            store.corrupt_physical_bit(ppage, rng.randrange(words_per_page), rng.randrange(width))
        else:
            addr = rng.choice(written)
            check = store.check_for(addr)
            if check is not None and check.size:
                store.corrupt_check_bit(addr, rng.randrange(check.size))
    return store


@settings(max_examples=120, deadline=None)
@given(
    codec=st.sampled_from(codec_names()),
    strategy=st.sampled_from(list(Strategy)),
    width=st.sampled_from([1, 8, 13, 64]),
    words_per_page=st.sampled_from([1, 2, 512]),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(0, 80),
)
@example(codec="parity", strategy=Strategy.ENHANCED, width=8, words_per_page=512, seed=0, n_ops=0)
def test_dump_text_equals_json_dumps_of_the_dump(codec, strategy, width, words_per_page, seed, n_ops):
    store = _store_walk(codec, strategy, width, words_per_page, seed, n_ops)
    assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    codec=st.sampled_from(codec_names()),
    strategy=st.sampled_from(list(Strategy)),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(0, 80),
)
def test_every_detail_the_store_logs_is_a_row_of_its_event(codec, strategy, seed, n_ops):
    store = _store_walk(codec, strategy, 8, 2, seed, n_ops)
    verdict = store.verify_audit_chain()
    assert verdict == (True, None) and verdict.off_schema is None


def _numeric_order(keys):
    return sorted(keys, key=lambda key: tuple(map(int, key.split(":"))))


@pytest.mark.parametrize("codec", ["parity", "none"])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_dump_zones_list_addresses_in_numeric_order(strategy, codec):
    # Pages and offsets reach 10 and more, where "10:0" < "9:0" and "1:10" < "1:9" as strings.
    store = _store_walk(codec, strategy, 8, 16, seed=11, n_ops=400, span=(14, 14))
    zones = store.dump_state()["zones"]
    flags = list(zones["priority"])
    assert flags == _numeric_order(flags) != sorted(flags)
    checks = list(zones["check"])
    assert checks == _numeric_order(checks)
    if strategy is Strategy.NONE:
        assert checks == []
    else:
        assert checks != sorted(checks)
        payloads = {check["payload"] for check in zones["check"].values()}
        assert (payloads == {""}) == (codec == "none")
    assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"


# -- the dump verifier -----------------------------------------------------------


def _chain():
    """A dumped log holding every row of the detail table."""
    store = ProtectedStore(words_per_page=1, allow_check_zone_faults=True)
    for page in range(2):
        store.store_write(Address(page, 0), Word(3, 8), priority=page == 0)
    store.dedup_scan()
    store.store_read(Address(0, 0))
    store.set_priority(Address(1, 0))
    store.store_write(Address(1, 0), Word(3, 8))  # a copy-on-write break
    store.corrupt_data_bit(Address(0, 0), 1)
    store.corrupt_check_bit(Address(1, 0), 0)
    store.corrupt_physical_bit(store.physical_page_of(1), 0, 2)
    store.store_read(Address(0, 0))  # an integrity failure
    return store.dump_state()["zones"]["log"]


def test_the_verifier_chain_holds_every_row_of_the_detail_table():
    shapes = {(e["event"], tuple(e["detail"])) for e in _chain()}
    assert shapes == {(row.event.value, row.names) for row in _DETAILS.values()}


def _resign(entries, start):
    """Recompute the digests from ``start`` on, so only the tampering differs."""
    prev = entries[start - 1]["digest_self"] if start else GENESIS
    for e in entries[start:]:
        e["digest_prev"] = prev
        e["digest_self"] = reference_digest(
            e["sequence"], e["event"], e["address"], e["detail"], prev
        )
        prev = e["digest_self"]


TAMPERINGS = {
    "float-sequence": lambda e: e.update(sequence=float(e["sequence"])),
    "bool-sequence": lambda e: e.update(sequence=bool(e["sequence"])),
    "str-sequence": lambda e: e.update(sequence=str(e["sequence"])),
    "non-ascii-address": lambda e: e.update(address="0:1é "),
    "list-address": lambda e: e.update(address=[0, 1]),
    "null-event": lambda e: e.update(event=None),
    "pairs-detail": lambda e: e.update(detail=sorted(e["detail"].items())),
    "float-detail": lambda e: e.update(detail={**e["detail"], "bit": 1.5}),
    "true-for-one": lambda e: e.update(detail={k: 1 if v is True else v for k, v in e["detail"].items()}),
    "nested-detail": lambda e: e.update(detail={"inner": {"b": [1, {"c": None}]}}),
    "string-detail": lambda e: e.update(detail="ab"),
    "int-detail": lambda e: e.update(detail=7),
    "extra-key": lambda e: e.update(tampered=True),
    "missing-event": lambda e: e.pop("event"),
    "missing-digest-self": lambda e: e.pop("digest_self"),
    "int-digest-prev": lambda e: e.update(digest_prev=0),
    "intenum-sequence": lambda e: e.update(sequence=Position(e["sequence"])),
    "str-subclass-event": lambda e: e.update(event=Text(e["event"])),
    "str-subclass-address": lambda e: e.update(address=Text(e["address"] or "0:0")),
    "str-subclass-digest-prev": lambda e: e.update(digest_prev=Text(e["digest_prev"])),
    # Negative controls for the verifier's WRITE and empty-detail shortcut,
    # which must take only a plain dict holding exactly the True/False objects.
    "int-write-detail": lambda e: e.update(detail={"priority": 1, "protected": 0}),
    "third-key-write-detail": lambda e: e.update(
        detail={"priority": True, "protected": False, "zone": "data"}
    ),
    "none-write-detail": lambda e: e.update(detail={"priority": None, "protected": True}),
    "dict-subclass-detail": lambda e: e.update(detail=AlwaysTrue(e["detail"])),
    "key-for-empty-detail": lambda e: e.update(detail=e["detail"] or {"": 0}),
    # Negative controls for the detail table's exact types: a bool is an int,
    # an IntEnum prints its name, and a str subclass is a str.
    "true-in-virtual-pages": lambda e: e["detail"].get("virtual_pages", []).append(True),
    "intenum-int-field": lambda e: e.update(
        detail={k: Position(v) if type(v) is int and v < len(Position) else v for k, v in e["detail"].items()}
    ),
    "str-subclass-field": lambda e: e.update(
        detail={k: Text(v) if type(v) is str else v for k, v in e["detail"].items()}
    ),
}


@pytest.mark.parametrize("resign", [False, True], ids=["as-tampered", "resigned"])
@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_dump_verifier_agrees_with_the_json_dumps_reference(name, resign):
    base = _chain()
    for position in range(len(base)):
        entries = json.loads(json.dumps(base))
        TAMPERINGS[name](entries[position])
        if resign:
            try:
                _resign(entries, position)
            except (KeyError, TypeError, ValueError):  # nothing to re-sign; compare as tampered
                pass
        expected = outcome(reference_verify, entries)
        assert outcome(verify_entry_dicts, entries) == expected, position


@settings(max_examples=200, deadline=None)
@given(
    position=st.integers(0, 3),
    field=st.sampled_from(["sequence", "event", "address", "detail", "digest_prev"]),
    value=json_values,
    resign=st.booleans(),
)
def test_dump_verifier_agrees_with_the_reference_on_any_field_value(position, field, value, resign):
    entries = _chain()
    entries[position][field] = value
    if resign:
        try:
            _resign(entries, position)
        except (KeyError, TypeError, ValueError):
            pass
    assert outcome(verify_entry_dicts, entries) == outcome(reference_verify, entries)


# -- the log's columns and views -----------------------------------------------------


def _merged_store():
    store = ProtectedStore(words_per_page=1)
    for page in range(3):
        store.store_write(Address(page, 0), Word(9, 8))
    store.dedup_scan()
    merge = next(i for i, e in enumerate(store.audit_entries()) if e["event"] == AuditEvent.MERGE)
    return store, merge


def _dedup_heavy_store():
    """A few hundred one-word pages of seeded 8-bit words, merged, then one COW break."""
    rng = random.Random(21)
    store = ProtectedStore(words_per_page=1)
    for page in range(300):
        store.store_write(Address(page, 0), Word(rng.getrandbits(8), 8), priority=page % 7 == 0)
    assert store.dedup_scan().pairs_merged > 100
    shared = next(vp for vp in range(300) if store.is_cow(vp))
    store.store_write(Address(shared, 0), Word(0, 8))
    store.store_read(Address(shared, 0))
    return store


def test_a_dedup_heavy_store_dumps_and_reads_its_merges_as_json_would():
    store = _dedup_heavy_store()
    entries = store.audit_entries()
    assert {"write", "merge", "cow_break", "read"} == {e["event"] for e in entries}
    assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"
    merges = [k for k, e in enumerate(entries) if e["event"] == "merge"]
    for k in merges:
        detail = entries[k]["detail"]
        text = canonical_json(detail)
        assert json.dumps(detail) == json.dumps(json.loads(text))
        assert list(detail) == ["freed", "survivor", "virtual_pages"]
    for k in merges:
        entries[k]["detail"]["virtual_pages"].append(-1)
    assert store.verify_audit_chain() == (True, None)
    assert verify_entry_dicts(store.audit_entries()) == reference_verify(store.audit_entries())


# -- the detail table --------------------------------------------------------------

plain_ints = st.integers(-(2**70), 2**70)
FIELD_VALUES = {
    bool: st.booleans(),
    int: plain_ints,
    str: texts,
    list: st.lists(plain_ints, max_size=4) | st.lists(plain_ints, min_size=100, max_size=300),
}
ROW_VALUES = st.sampled_from(list(_DETAILS.values())).flatmap(
    lambda row: st.tuples(st.just(row), st.tuples(*(FIELD_VALUES[kind] for kind in row.types)))
)


def test_every_event_has_a_row_and_every_row_its_names_in_order():
    assert {event for event, _ in _DETAILS} == set(AuditEvent)
    for (event, arity), row in _DETAILS.items():
        assert (row.event, len(row.names), len(row.types)) == (event, arity, arity)
        assert list(row.names) == sorted(row.names)


@settings(max_examples=300, deadline=None)
@given(ROW_VALUES)
@example((_DETAILS[AuditEvent.MERGE, 3], (0, 0, [])))
@example((_DETAILS[AuditEvent.MERGE, 3], (5, 2, list(range(400)))))
@example((_DETAILS[AuditEvent.READ, 0], ()))
@example((_DETAILS[AuditEvent.INTEGRITY_FAILURE, 1], ("\x00é\"\n",)))
def test_each_row_writes_its_three_forms_as_json_does(row_values):
    row, values = row_values
    detail = dict(zip(row.names, values))
    kept = row.kept(values)
    text = row.canonical(kept)
    assert text == canonical_json(detail)
    # A detail sits two entry levels deep in a dump's log, 8 spaces in.
    assert row.indented(kept) == json.dumps(detail, indent=2).replace("\n", "\n        ")
    written, parsed = row.to_dict(kept), json.loads(text)
    assert written == parsed and list(written) == list(parsed)


def test_merges_of_pages_numbered_by_another_int_type_are_logged_as_json_encodes_them():
    # Position.SECOND is 1 in JSON but prints as "SECOND".
    store = ProtectedStore(words_per_page=1)
    store.store_write(Address(0, 0), Word(4, 8))
    store.store_write(Address(Position.SECOND, 0), Word(4, 8))
    store.dedup_scan()
    assert store.audit_entries(-1)[0]["detail"] == {"freed": 1, "survivor": 0, "virtual_pages": [1]}
    assert store.verify_audit_chain() == (True, None)
    assert store.dump_text() == json.dumps(store.dump_state(), indent=2) + "\n"


def test_dumps_and_entries_hand_out_copies_of_the_log():
    store, k = _merged_store()
    pages = store.dump_state()["zones"]["log"][k]["detail"]["virtual_pages"]
    assert pages == [1]

    store.dump_state()["zones"]["log"][k]["detail"]["virtual_pages"].append(99)
    assert store.verify_audit_chain() == (True, None)
    assert store.dump_state()["zones"]["log"][k]["detail"]["virtual_pages"] == pages

    store.audit_entries()[k]["detail"]["virtual_pages"].append(99)
    store.audit_entries(k)[0]["detail"]["freed"] = 7
    assert store.verify_audit_chain() == (True, None)
    assert store.audit_entries()[k]["detail"] == {"freed": 1, "survivor": 0, "virtual_pages": pages}


def test_append_keeps_its_own_copy_of_the_detail():
    log = AuditLog()
    pages = [1]
    log.append(AuditEvent.MERGE, None, 1, 0, pages)
    pages.append(2)
    assert verify_entry_dicts(log.to_dicts()) == (True, None)
    assert log.to_dicts()[0]["detail"] == {"freed": 1, "survivor": 0, "virtual_pages": [1]}


def test_entries_with_one_list_holding_detail_share_no_list():
    log = AuditLog()
    pages = [1]
    for _ in range(2):
        log.append(AuditEvent.MERGE, None, 1, 0, pages)
    first, second = log.to_dicts()
    first["detail"]["virtual_pages"].append(2)
    assert second["detail"]["virtual_pages"] == [1] == pages


def test_entries_with_one_detail_share_no_dict():
    log = AuditLog()
    for _ in range(2):
        log.append(AuditEvent.INJECTED_FAULT, None, 0, "data")
    first, second = log.to_dicts()
    first["detail"]["bit"] = 1
    assert second["detail"] == {"bit": 0, "zone": "data"}


@pytest.mark.parametrize(
    "event, values",
    [
        (AuditEvent.MERGE, ({"freed": 1, "survivor": 0, "virtual_pages": [1]},)),
        (AuditEvent.MERGE, (1, 0)),
        (AuditEvent.MERGE, (1, 0, [1], 2)),
        (AuditEvent.MERGE, (1, 0, (1,))),
        (AuditEvent.MERGE, (1, 0, [True])),
        (AuditEvent.MERGE, (1, 0, [1.0])),
        (AuditEvent.MERGE, (True, 0, [1])),
        (AuditEvent.MERGE, (Small.ONE, 0, [1])),
        (AuditEvent.WRITE, (1, 0)),
        (AuditEvent.WRITE, ()),
        (AuditEvent.WRITE, ('{"priority":false,"protected":false}',)),
        (AuditEvent.READ, (None,)),
        (AuditEvent.INTEGRITY_FAILURE, (Text("parity"),)),
        (AuditEvent.INJECTED_FAULT, (1, "data", 0)),
        (AuditEvent.INJECTED_FAULT, (1, 0, 0, None)),
    ],
    ids=[
        "merge-dict", "merge-short", "merge-long", "merge-tuple", "merge-bool-page",
        "merge-float-page", "merge-bool-freed", "merge-intenum-freed", "write-ints",
        "write-none", "write-canonical-str", "read-none", "failure-str-subclass",
        "fault-three", "fault-none-zone",
    ],
)
def test_append_rejects_values_off_the_events_schema(event, values):
    # A detail's values must be a row of its event: as many as its fields,
    # each exactly its field's type, a list holding only plain ints.
    log = AuditLog()
    with pytest.raises(TypeError, match=f"a {event} detail"):
        log.append(event, None, *values)
    assert len(log) == 0


@pytest.mark.parametrize(
    "event",
    ["write", Text("read"), None, 0, Small.ONE],
    ids=["plain-str", "str-subclass", "none", "zero", "int-enum"],
)
def test_append_rejects_an_event_that_is_not_an_audit_event(event):
    # A plain str equals its AuditEvent member, so only the type tells them apart.
    log = AuditLog()
    log.append(AuditEvent.WRITE, None, False, False)
    with pytest.raises(TypeError, match="audit event must be an AuditEvent"):
        log.append(event, Address(0, 0), 1, "data")
    assert len(log) == 1
    assert [e["event"] for e in log.to_dicts()] == ["write"]
    assert verify_entry_dicts(log.to_dicts()) == (True, None)


def test_every_entry_goes_through_append(monkeypatch):
    # The benchmark's tracer counts log entries by wrapping AuditLog.append.
    calls = []
    append = AuditLog.append
    monkeypatch.setattr(
        AuditLog, "append", lambda log, *args, **kwargs: calls.append(1) or append(log, *args, **kwargs)
    )
    stores = []
    for strategy in Strategy:
        config = SimulationConfig(
            n_ops=3000, per_op_probability=0.01, strategy=strategy, seed=4, inject_check_zone=True
        )
        run_simulation(config, engine="store", capture_store=stores)
    rng = RandomSource(9)
    victim = [rng.word(8) for _ in range(4)]
    drill = ProtectedStore(strategy=Strategy.ENHANCED, words_per_page=4)
    for offset, word in enumerate(victim):
        drill.store_write(Address(0, offset), word, priority=offset == 0)
    for page in range(1, 30):
        drill.store_write(Address(page, 0), rng.word(8))
    assert flip_feng_shui_scenario(drill, victim, Address(0, 0), rng=rng).flip_applied
    stores.append(drill)

    events = {e["event"] for store in stores for e in store.audit_entries()}
    assert {"write", "read", "merge", "injected_fault", "integrity_failure"} <= events
    assert len(calls) == sum(len(store.audit_entries()) for store in stores)


def test_live_verify_recomputes_every_digest():
    store, k = _merged_store()
    store._log._details[k] = (2, 0, (1,))
    assert store.verify_audit_chain() == (False, k)


def test_live_chain_equals_its_dump():
    store, _ = _merged_store()
    store.store_read(Address(0, 0))
    dicts = store.dump_state()["zones"]["log"]
    assert store.audit_entries() == dicts
    assert verify_entry_dicts(dicts) == reference_verify(dicts) == (True, None)


def test_taking_the_tail_builds_only_the_tail():
    store = ProtectedStore(words_per_page=4)
    for i in range(40):
        store.store_write(Address(i // 4, i % 4), Word(i, 8))
    everything = store.audit_entries()
    assert store.audit_entries(-5) == everything[-5:]
    assert store.audit_entries(35) == everything[35:]
    assert store.audit_entries(-41) == store.audit_entries(0) == everything
    assert store.audit_entries(40) == store.audit_entries(99) == []

    # Only the tail's details are written: an unwritable earlier one is never read.
    store._log._details[3] = None
    assert store.audit_entries(-5) == everything[-5:]
    with pytest.raises(TypeError):
        store.audit_entries()


def test_an_entry_view_is_a_snapshot():
    store = ProtectedStore(words_per_page=4)
    store.store_write(Address(0, 0), Word(1, 8))
    entries = store.audit_entries()
    store.store_read(Address(0, 0))
    assert len(entries) == 1 and len(store.audit_entries()) == 2
    assert [e["event"] for e in entries] == ["write"]
    assert [e["event"] for e in reversed(store.audit_entries())] == ["read", "write"]


# -- digests taken when the log is read ----------------------------------------


class _EagerLog:
    """The chain with each digest taken by json.dumps as its entry is appended."""

    def __init__(self):
        self.entries = []

    def append(self, event, address=None, *values):
        detail = json.loads(json.dumps(dict(zip(_DETAILS[event, len(values)].names, values))))
        sequence = len(self.entries)
        prev = self.entries[-1]["digest_self"] if self.entries else GENESIS
        addr = None if address is None else str(address)
        self.entries.append(
            {
                "sequence": sequence,
                "event": event.value,
                "address": addr,
                "detail": detail,
                "digest_prev": prev,
                "digest_self": reference_digest(sequence, event.value, addr, detail, prev),
            }
        )


def _some_ops(store, rng, written, n):
    """``n`` seeded store operations, each logging one entry or more."""
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45 or not written:
            addr = Address(rng.randrange(4), rng.randrange(2))
            value = rng.choice([0, 1, rng.getrandbits(8)])
            store.store_write(addr, Word(value, 8), priority=rng.random() < 0.3)
            written.append(addr)
        elif roll < 0.7:
            store.store_read(rng.choice(written))
        elif roll < 0.8:
            store.dedup_scan()
        elif roll < 0.9:
            store.corrupt_data_bit(rng.choice(written), rng.randrange(8))
        else:
            store.set_priority(rng.choice(written))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reads=st.lists(st.sampled_from(["tail", "len", "verify", "text", "state"]), max_size=10),
)
@example(seed=0, reads=["len", "tail", "len", "text", "verify", "state"])
def test_digests_taken_on_reading_equal_digests_taken_at_each_append(seed, reads):
    eager = _EagerLog()
    append = AuditLog.append

    def both(log, *args, **kwargs):
        append(log, *args, **kwargs)
        eager.append(*args, **kwargs)

    AuditLog.append = both
    try:
        rng = random.Random(seed)
        store = ProtectedStore(words_per_page=2)
        written = []
        for read in reads:
            _some_ops(store, rng, written, rng.randrange(6))
            if read == "tail":
                assert store.audit_entries(-5) == eager.entries[-5:]
            elif read == "len":
                assert len(store._log) == len(eager.entries)
            elif read == "verify":
                assert store.verify_audit_chain() == (True, None)
                assert reference_verify(store.audit_entries()) == (True, None)
            elif read == "text":
                text = store.dump_text()
                assert json.loads(text)["zones"]["log"] == eager.entries
                assert text == json.dumps(store.dump_state(), indent=2) + "\n"
            else:
                assert store.dump_state()["zones"]["log"] == eager.entries
        _some_ops(store, rng, written, 3)
    finally:
        AuditLog.append = append
    assert store.audit_entries() == eager.entries
    assert reference_verify(store.audit_entries()) == (True, None)


def test_changing_a_detail_after_append_changes_no_digest():
    log = AuditLog()
    pages = [1, 2]
    log.append(AuditEvent.MERGE, Address(0, 1), 1, 0, pages)
    log.append(AuditEvent.READ, "0:1")
    log.append(AuditEvent.MERGE, None, 1, 0, pages)
    merge = {"freed": 1, "survivor": 0, "virtual_pages": [1, 2]}
    first = reference_digest(0, "merge", "0:1", merge, GENESIS)
    second = reference_digest(1, "read", "0:1", {}, first)
    third = reference_digest(2, "merge", None, merge, second)

    # The log keeps no reference to the caller's list, before its digests
    # are taken or after, and a read hands out copies.
    pages.append(3)
    assert [e["digest_self"] for e in log.to_dicts()] == [first, second, third]
    pages.append(4)
    log.to_dicts()[0]["detail"]["virtual_pages"].append(5)
    assert [e["detail"] for e in log.to_dicts()[::2]] == [merge, merge]
    assert verify_entry_dicts(log.to_dicts()) == (True, None)


def test_the_length_counts_entries_before_their_digests_are_taken():
    log = AuditLog()
    for offset in range(5):
        log.append(AuditEvent.READ, Address(0, offset))
    assert len(log) == 5
    assert len(log.to_dicts()) == 5
    log.append(AuditEvent.READ, Address(0, 5))
    assert len(log) == 6
    assert [e["sequence"] for e in log.to_dicts(-2)] == [4, 5]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_dump_text_as_the_first_read_of_a_run_is_json_dumps_of_the_dump(strategy):
    config = SimulationConfig(
        n_ops=600, per_op_probability=0.02, strategy=strategy, seed=8, inject_check_zone=True
    )
    stores = []
    run_simulation(config, engine="store", capture_store=stores)
    run_simulation(config, engine="store", capture_store=stores)
    text_first, state_first = stores
    text = text_first.dump_text()
    assert text == json.dumps(text_first.dump_state(), indent=2) + "\n"
    assert json.dumps(state_first.dump_state(), indent=2) + "\n" == text
    assert verify_entry_dicts(json.loads(text)["zones"]["log"]) == (True, None)
