#!/usr/bin/env python3
"""Run one workload in a fresh process and print its measurements as JSON.

Usage: python3 perfbench/worker.py --workload NAME --seed N --t0 T
           [--seconds S] [--trace 0|1] [--setup-only]

``--t0`` is the caller's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start, ``import msms``
and building the workload's inputs.  With ``--setup-only`` the worker
stops there.  Otherwise it runs timed passes, starting another only
while it is expected to end within ``--seconds`` (at least one), and
checks each pass's outputs untimed.  Each unit of work a workload yields
(a CLI call, a seed, a drill) is timed on its own, and the host's speed
is sampled before, during and after it (see sampling.py).  With
``--trace 1`` it alternates passes with spans off and on, at least
``MIN_TRACE_PAIRS`` of each, and reports the per-layer metrics of the
last traced one.  Artifacts go to a temporary directory under
``.bench_tmp/`` in the repo, removed after each pass.
"""

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from sampling import HostSampler, calibrate, cpu_now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Passes of each kind a traced run makes at least, so that the tracing
# overhead is a difference of medians, not of two single passes.
MIN_TRACE_PAIRS = 2


def import_msms():
    """Import msms from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import msms

    where = Path(msms.__file__).resolve().parent
    if where != (ROOT / "src" / "msms").resolve():
        raise SystemExit(f"msms was imported from {where}, not from {ROOT / 'src'}")
    return msms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_msms()
    import numpy

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibrate()}))
        return

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)

    sampler = HostSampler()
    sample_here = not getattr(wl, "runs_child", False)

    def one_pass(tracer=None):
        """[(wall, cpu, calibration)] per unit of work, and the pass's checks.

        A unit's calibration is the mean of the calibrations run just
        before it, during it and just after it; the time of those during
        it is taken out of the unit's.  A workload that runs its work in
        a child process has the child take the samples during the unit.
        """
        tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            units, results = [], []
            steps = wl.run(tmp, tracer, sampler)
            sampler.sample()
            while True:
                first, paused_wall, paused_cpu = len(sampler.cals) - 1, sampler.paused_wall, sampler.paused_cpu
                c0, t0 = cpu_now(), time.perf_counter()
                if sample_here:
                    sampler.start()
                try:
                    results.append(next(steps))
                except StopIteration:
                    break
                finally:
                    sampler.stop()
                wall = time.perf_counter() - t0 - (sampler.paused_wall - paused_wall)
                cpu = cpu_now() - c0 - (sampler.paused_cpu - paused_cpu)
                sampler.sample()
                units.append((wall, cpu, statistics.fmean(sampler.cals[first:])))
            if tracer is not None:
                tracer.active = False
            checks = wl.check(results, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return units, checks

    def traced_pass():
        # A fresh tracer per traced pass; the last one's spans are reported.
        import tracer as tracing

        nonlocal layers, baseline, shares
        tr = tracing.Tracer(sampler.clock, sampler.cpu_clock)
        restore = tracing.install(tr)
        try:
            units, done = one_pass(tr)
        finally:
            restore()
        traced_s = sum(u[0] for u in units)
        layers = tracing.layer_metrics(tr)
        baseline = tracing.baseline_rows(tr, args.workload)
        shares = sorted(((tr.self_s(span) / traced_s, span) for span in tr.stats), reverse=True)
        return units, done

    # Every pass checks the same outputs, so a check is one task however
    # many passes repeat it, and fails if it fails in any of them.
    passes, traced, checks = [], [], {}
    layers, baseline, shares = None, None, None
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced-traced and traced-untraced pairs,
        # so that neither drift over the run nor the order within a pair
        # biases the tracing overhead.
        kinds = (False,)
        if args.trace:
            kinds = (False, True) if len(traced) % 2 == 0 else (True, False)
        pass_s = 0.0
        for with_spans in kinds:
            units, done = traced_pass() if with_spans else one_pass()
            (traced if with_spans else passes).append(units)
            for name, ok in done:
                checks[name] = checks.get(name, True) and ok
            pass_s += sum(u[0] for u in units)
        if len(traced) < MIN_TRACE_PAIRS and args.trace:
            continue
        if time.perf_counter() - start + pass_s > args.seconds:
            break

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = [name for name, ok in checks.items() if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "passes": passes,
        "attempted": len(checks),
        "failed": len(failed),
        "peak_rss_mb": max(own, kids) / 1024,  # ru_maxrss is in KiB on Linux
        "work": wl.work,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "traced": traced or None,
        "layers": layers,
        "baseline": baseline,
        "shares": shares,
    }))


if __name__ == "__main__":
    main()
