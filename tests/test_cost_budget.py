"""Structural cost budgets: Python calls counted under ``sys.setprofile``.

A call count repeats exactly from run to run on one interpreter, so a
ceiling on it catches a per-op path that grows without timing noise.
Each ceiling sits about 10% above the count when it was set; a change
that needs more raises the ceiling and says why.
"""

import sys

from msms import SimulationConfig, Strategy, run_simulation

# This test's 2,000-op run counted 66,995 Python calls while every check
# was a CodecCheck and every append took its own digest, and 38,960 since
# checks are ints and the digests are taken in one pass (Python 3.11).
STORE_ENGINE_CALLS_PER_OP = 21.5


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
