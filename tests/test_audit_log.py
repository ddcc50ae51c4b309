"""The audit log's two hand-built encodings, its columns and its read views.

Chain digests and state-dump files must stay byte for byte what json.dumps
gives, so each encoder is checked against json.dumps itself, and the dump
verifier against a json.dumps-based reference kept here.
"""

import hashlib
import json
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from msms import Address, AuditEvent, ProtectedStore, Word, verify_entry_dicts
from msms.store import GENESIS, AuditLog, canonical_json, format_state_dump


def reference_verify(entries):
    """The dump verifier as it was written with json.dumps."""
    prev = GENESIS
    for position, e in enumerate(entries):
        recomputed = reference_digest(
            e["sequence"], e["event"], e["address"], dict(e["detail"]), e["digest_prev"]
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
def test_canonical_json_equals_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {True: 1}, {2.5: 0}, {3: 1, 2: 0}])
def test_canonical_json_of_non_str_keys_equals_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_canonical_json_raises_as_json_dumps_does():
    for value in ({"a": object()}, {"a": 1, 2: "b"}, {None: 1, "b": 2}, [set()]):
        with pytest.raises(Exception) as expected:
            json.dumps(value, sort_keys=True, separators=(",", ":"))
        with pytest.raises(expected.type):
            canonical_json(value)


# -- the dump writer -----------------------------------------------------------

details = st.dictionaries(
    st.sampled_from(["bit", "zone", "freed", "survivor", "virtual_pages", "priority", "é"]),
    st.booleans() | st.integers(0, 99) | st.lists(st.integers(0, 99), max_size=3) | json_values,
    max_size=4,
)


@st.composite
def log_entries(draw, sequence):
    entry = {
        "sequence": sequence,
        "event": draw(st.sampled_from([e.value for e in AuditEvent])),
        "address": draw(st.none() | st.sampled_from(["0:0", "12:511"])),
        "detail": draw(details),
        "digest_prev": "%064x" % draw(st.integers(0, 2**256 - 1)),
        "digest_self": "%064x" % draw(st.integers(0, 2**256 - 1)),
    }
    # Now and then an entry the template does not cover.
    twist = draw(st.sampled_from(["none"] * 6 + ["value", "extra", "order", "drop", "scalar"]))
    if twist == "value":
        entry[draw(st.sampled_from(sorted(entry)))] = draw(json_values)
    elif twist == "extra":
        entry["tampered"] = draw(json_values)
    elif twist == "order":
        entry = dict(reversed(list(entry.items())))
    elif twist == "drop":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif twist == "scalar":
        return draw(json_values)
    return entry


@st.composite
def states(draw):
    n = draw(st.integers(0, 8))
    log = [draw(log_entries(i)) for i in range(n)]
    zones = {
        "data": {"physical_pages": {"0": {"words": ["0101"], "refcount": 1}}, "page_table": {}},
        "check": draw(st.dictionaries(texts, json_values, max_size=2)),
        "priority": {"0:0": 1},
        "log": log,
    }
    if draw(st.booleans()):
        zones = {"log": log, **zones}  # the log first, not last
    metadata = {"tool": "msms", "note": draw(texts | st.just("\x00msms audit log\x00"))}
    return {"metadata": metadata, "zones": zones}


@settings(max_examples=150, deadline=None)
@given(states())
def test_dump_writer_equals_json_dumps(state):
    assert format_state_dump(state) == json.dumps(state, indent=2) + "\n"


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
    assert format_state_dump(state) == json.dumps(state, indent=2) + "\n"


# -- the dump verifier -----------------------------------------------------------


def _chain(n_pages=2):
    store = ProtectedStore(words_per_page=1)
    for page in range(n_pages):
        store.store_write(Address(page, 0), Word(3, 8), priority=page == 0)
    store.dedup_scan()
    store.store_read(Address(0, 0))
    return store.dump_state()["zones"]["log"]


def _resign(entries, start):
    """Recompute the digests from ``start`` on, so only the tampering differs."""
    prev = entries[start - 1]["digest_self"] if start else GENESIS
    for e in entries[start:]:
        e["digest_prev"] = prev
        e["digest_self"] = reference_digest(
            e["sequence"], e["event"], e["address"], dict(e["detail"]), prev
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
    merge = next(i for i, e in enumerate(store.audit_entries()) if e.event is AuditEvent.MERGE)
    return store, merge


def test_dumps_and_entries_hand_out_copies_of_the_log():
    store, k = _merged_store()
    pages = store.dump_state()["zones"]["log"][k]["detail"]["virtual_pages"]
    assert pages == [1]

    store.dump_state()["zones"]["log"][k]["detail"]["virtual_pages"].append(99)
    assert store.verify_audit_chain() == (True, None)
    assert store.dump_state()["zones"]["log"][k]["detail"]["virtual_pages"] == pages

    entry = store.audit_entries()[k]
    entry.detail_dict()["virtual_pages"].append(99)
    entry.to_dict()["detail"]["virtual_pages"].append(99)
    assert entry.detail_dict()["virtual_pages"] == pages
    assert store.verify_audit_chain() == (True, None)
    assert store.audit_entries()[k].detail_dict()["virtual_pages"] == pages


def test_append_keeps_its_own_copy_of_the_detail():
    log = AuditLog()
    detail = {"survivor": 0, "freed": 1, "virtual_pages": [1]}
    log.append(AuditEvent.MERGE, None, detail)
    detail["virtual_pages"].append(2)
    detail["freed"] = 7
    assert log.verify() == (True, None)
    assert log.to_dicts()[0]["detail"] == {"freed": 1, "survivor": 0, "virtual_pages": [1]}


def test_append_rejects_a_detail_that_is_not_a_dict():
    with pytest.raises(TypeError):
        AuditLog().append(AuditEvent.MERGE, None, [("freed", 1)])


def test_live_verify_recomputes_every_digest():
    store, k = _merged_store()
    store._log._details[k] = '{"freed":2,"survivor":0,"virtual_pages":[1]}'
    assert store.verify_audit_chain() == (False, k)


def test_live_chain_equals_its_dump():
    store, _ = _merged_store()
    store.store_read(Address(0, 0))
    dicts = store.dump_state()["zones"]["log"]
    assert [e.to_dict() for e in store.audit_entries()] == dicts
    assert verify_entry_dicts(dicts) == reference_verify(dicts) == (True, None)


def test_taking_the_tail_builds_only_the_tail(monkeypatch):
    store = ProtectedStore(words_per_page=4)
    for i in range(40):
        store.store_write(Address(i // 4, i % 4), Word(i, 8))
    entries = store.audit_entries()
    everything = tuple(entries)

    built = []
    entry = AuditLog.entry
    monkeypatch.setattr(AuditLog, "entry", lambda log, i: built.append(i) or entry(log, i))
    tail = entries[-5:]
    assert built == [35, 36, 37, 38, 39]
    assert tail == everything[-5:]
    assert isinstance(tail, tuple)
    assert entries[-1] == everything[-1] and entries[0] == everything[0]
    with pytest.raises(IndexError):
        entries[40]
    with pytest.raises(IndexError):
        entries[-41]


def test_an_entry_view_is_a_snapshot():
    store = ProtectedStore(words_per_page=4)
    store.store_write(Address(0, 0), Word(1, 8))
    entries = store.audit_entries()
    store.store_read(Address(0, 0))
    assert len(entries) == 1 and len(store.audit_entries()) == 2
    assert [e.event for e in entries] == [AuditEvent.WRITE]
    assert [e.event for e in reversed(store.audit_entries())] == [AuditEvent.READ, AuditEvent.WRITE]
