"""Host-speed sampling, so that times can be reported in reference seconds.

Other tenants of a shared host slow it by up to a half for minutes at a
time.  :func:`calibrate` times a fixed mix of work; a unit of work's
time divided by the calibrations taken around and during it measures
the program, not the host.  :class:`HostSampler` takes those samples in
the process that does the work, so both run on the same CPU, and keeps
the time they take apart so it can be taken out of the unit's and out
of any span they land in.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import time

SAMPLE_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds this host takes right now for a fixed mix of interpreter,
    JSON, hashing and numpy work, the kinds of work the workloads do."""
    import numpy as np

    # Small pieces, so that a calibration adds well under a megabyte to
    # the process's peak memory when it lands inside a unit of work.
    t0 = time.perf_counter()
    for _ in range(4):
        rows = [f"{i},{'true' if i & 1 else 'false'},enhanced,{i % 7}" for i in range(10_000)]
        blob = json.dumps(rows).encode()
        hashlib.sha256(blob).digest()
        json.loads(blob)
    a = np.arange(100_000, dtype=np.uint64)
    for _ in range(8):
        int((a * np.uint64(3) + np.uint64(1)).sum())
    return time.perf_counter() - t0


def cpu_now() -> float:
    """User+sys CPU seconds of this process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class HostSampler:
    """Calibration samples, and the wall and CPU time they took in total.

    Between :meth:`start` and :meth:`stop` a SIGALRM runs one calibration
    every ``SAMPLE_EVERY_S`` seconds, in the middle of whatever this
    process is doing.  Python runs the handler between bytecodes, so a
    long call into native code delays a sample but is not disturbed.
    :meth:`clock` and :meth:`cpu_clock` run without the samples' time,
    for spans that a sample may land in.
    """

    def __init__(self) -> None:
        self.cals: list[float] = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused_wall

    def cpu_clock(self) -> float:
        return time.process_time() - self.paused_cpu

    def sample(self, *_signal_args) -> None:
        c0, t0 = cpu_now(), time.perf_counter()
        self.cals.append(calibrate())
        self.paused_wall += time.perf_counter() - t0
        self.paused_cpu += cpu_now() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def to_state(self) -> dict:
        return {"cals": self.cals, "paused_wall": self.paused_wall, "paused_cpu": self.paused_cpu}

    def absorb(self, state: dict) -> None:
        """Add the samples a child process took while it did this unit's work."""
        self.cals += state["cals"]
        self.paused_wall += state["paused_wall"]
        self.paused_cpu += state["paused_cpu"]
