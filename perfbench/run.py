#!/usr/bin/env python3
"""The msms benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Usage, from the repo root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of experiment_out, seed_sweep, store_oracle, dedup_attack,
or ``all`` (the default) to run the four in turn.  Each workload runs
in fresh single-threaded worker processes (see worker.py): set-up is
measured over several fresh interpreters and reported as the median,
and the timed passes run in one more.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced pass, followed
by the ROADMAP baseline table beside the measured values.  See
perfbench/README.md for what each metric measures and why.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("experiment_out", "seed_sweep", "store_oracle", "dedup_attack")
SETUP_PROBES = 9
TIME_LIMIT_S = 170

# Times are reported in reference seconds: host seconds scaled by how
# much slower or faster than usual the host ran a fixed calibration
# (worker.calibrate) just before and just after each timed unit of work.
# Other tenants of a shared host slow it by up to a half for minutes at
# a time; the scaling takes that out, and leaves the program's own
# speed in.  CALIBRATION_REF_S is the calibration's median on the host
# the benchmark was written on (2-vCPU Xeon VM at 2.0 GHz) when quiet.
CALIBRATION_REF_S = 0.022


def child_env() -> dict:
    """Environment for workers: one thread, fixed hashing.  Workers find
    this checkout's msms themselves."""
    return {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    }


def run_worker(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    # A session of its own, so a timeout also stops the worker's children.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_s(seconds: float, calibration_s: float) -> float:
    """Host seconds converted to reference-host seconds."""
    return seconds * CALIBRATION_REF_S / calibration_s


def pass_time(passes: list[list[list[float]]], which: int) -> float:
    """One pass's time in reference seconds: each unit of work's median
    over the passes, summed.

    Taking the median unit by unit filters out a burst of contention that
    slows one pass's units, which a median of whole passes needs many
    more passes to do.
    """
    return sum(
        statistics.median(reference_s(p[u][which], p[u][2]) for p in passes)
        for u in range(len(passes[0]))
    )


def end_to_end_metrics(out: dict, setups: list[tuple[float, float]]) -> dict:
    """End-to-end metrics from a worker's output and the set-up probes.

    Times are in reference seconds (see CALIBRATION_REF_S).  ``pass_frac``
    is 1 - fail_frac: the benchmark's metrics must never read 0, and
    fail_frac does on every correct run.
    """
    wall = pass_time(out["passes"], 0)
    return {
        "setup_s": metric(statistics.median(reference_s(*probe) for probe in setups), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(out["work"] / wall, "1/s"),
        "cpu_s": metric(pass_time(out["passes"], 1), "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        "pass_frac": metric(1.0 - out["failed"] / out["attempted"], "fraction"),
    }


def layer_metrics(out: dict) -> tuple[dict, list]:
    """Per-layer metrics and baseline rows of a traced worker, with times
    in reference seconds (scaled by the last traced pass's mean
    calibration).  ``trace.overhead_s`` compares the traced passes with
    the untraced ones unit by unit, as ``wall_s`` compares passes."""
    scale = CALIBRATION_REF_S / statistics.fmean(u[2] for u in out["traced"][-1])
    metrics = {
        name: metric(m["value"] * scale if m["unit"] in ("s", "us") else m["value"], m["unit"])
        for name, m in out["layers"].items()
    }
    metrics["trace.overhead_s"] = metric(pass_time(out["traced"], 0) - pass_time(out["passes"], 0), "s")
    rows = [(label, base, unit, value * scale) for label, base, unit, value in out["baseline"]]
    return metrics, rows


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """One workload's result: the JSON object the benchmark prints."""
    base = ["--workload", workload, "--seed", str(seed)]

    def probe() -> tuple[float, float]:
        out = run_worker(base + ["--setup-only"], deadline)
        return out["setup_s"], out["calibration_s"]

    probe()  # warm-up: bytecode and page cache
    # Probes on both sides of the timed passes, so that one stretch of
    # contention does not move them all.
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    out = run_worker(base + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups += [probe() for _ in range(SETUP_PROBES - len(setups))]

    record = {
        "workload": workload,
        "seed": seed,
        "python": out["python"],
        "numpy": out["numpy"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "trace": int(trace),
        "passes": len(out["passes"]),
        "host_wall_s": statistics.median(sum(u[0] for u in p) for p in out["passes"]),
        "calibration_s": statistics.median(u[2] for p in out["passes"] for u in p),
    }
    print(f"record: {json.dumps(record)}")
    fail_frac = out["failed"] / out["attempted"]
    print(f"{workload}: fail_frac = {fail_frac:g} ({out['failed']} failed / {out['attempted']} attempted)")

    if trace:
        metrics, rows = layer_metrics(out)
        overhead = metrics["trace.overhead_s"]["value"]
        # Each pair's own difference; how far the pairs disagree is the noise.
        pairs = [pass_time([t], 0) - pass_time([u], 0) for t, u in zip(out["traced"], out["passes"])]
        noise = max(pairs) - min(pairs)
        print(f"{workload}: tracing overhead {overhead:+.3f} s on an untraced pass of "
              f"{pass_time(out['passes'], 0):.3f} s; the {len(pairs)} traced-untraced pairs read "
              f"{', '.join(f'{d:+.3f}' for d in pairs)} s, so the overhead is "
              f"{'within noise' if abs(overhead) <= noise else 'resolved'}")
        print(f"{workload}: self time by span, as a share of the traced pass")
        for share, span in out["shares"]:
            print(f"  {span:<32} {share:7.1%}")
        print(f"{workload}: ROADMAP baseline vs this traced pass")
        for label, baseline, unit, measured in rows:
            print(f"  {label:<32} baseline {baseline:>8g} {unit:<2}  measured {measured:>10.4g} {unit:<2}"
                  f"  ratio {measured / baseline:.2f}")
    else:
        metrics = end_to_end_metrics(out, setups)
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "msms" / "__init__.py").is_file():
        sys.exit(f"no msms sources under {ROOT / 'src'}; run from a checkout of the repo")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace), deadline) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
