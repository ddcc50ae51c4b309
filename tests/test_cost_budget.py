"""Structural cost budgets: Python calls counted under ``sys.setprofile``.

A call count repeats exactly from run to run on one interpreter, so a
ceiling on it catches a per-op path that grows without timing noise.
Each ceiling sits about 10% above the count when it was set; a change
that needs more raises the ceiling and says why.
"""

import random
import sys

from msms import (
    Address,
    ProtectedStore,
    SimulationConfig,
    Strategy,
    Word,
    run_simulation,
    verify_entry_dicts,
)

# This test's 2,000-op run counted 66,995 Python calls while every check
# was a CodecCheck and every append took its own digest, 38,960 since
# checks are ints and the digests are taken in one pass, and 30,956 since
# 8-bit stores share one Word per value (Python 3.11).
STORE_ENGINE_CALLS_PER_OP = 17.0

# This test's drill counted 4,479 Python calls while MERGE details were their
# own class and the verifier special-cased WRITE details, and 4,489 since one
# table writes and checks every detail (Python 3.11).
DRILL_CALLS = 4950


def _python_calls(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_a_store_engine_op_stays_within_its_python_call_budget():
    config = SimulationConfig(
        n_ops=2000, strategy=Strategy.FULL, inject_check_zone=True, per_op_probability=0.01
    )

    def run():
        # The first read of the log takes its digests, so they are counted.
        stores = []
        run_simulation(config, engine="store", capture_store=stores)
        stores[0].audit_entries(-1)

    run()  # first-call work (imports, caches) stays out of the count
    calls = _python_calls(run)
    assert calls <= STORE_ENGINE_CALLS_PER_OP * config.n_ops, calls


def test_a_drill_store_scan_dump_and_audit_stay_within_their_python_call_budget():
    # A small dedup_attack drill: 8 victim words on page 0, one background
    # word on each of 500 pages, seeded 8-bit values, so most pages merge.
    rng = random.Random(21)
    store = ProtectedStore(strategy=Strategy.ENHANCED)
    for offset in range(8):
        store.store_write(Address(0, offset), Word(rng.getrandbits(8), 8), priority=offset == 0)
    for page in range(1, 501):
        store.store_write(Address(page, 0), Word(rng.getrandbits(8), 8))

    def scan_dump_and_audit():
        assert store.dedup_scan().pairs_merged > 200
        assert verify_entry_dicts(store.dump_state()["zones"]["log"]) == (True, None)

    calls = _python_calls(scan_dump_and_audit)
    assert calls <= DRILL_CALLS, calls
