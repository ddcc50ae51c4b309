#!/usr/bin/env python3
"""Sweep seeds at the default calibration and summarize detection.

For each seed the run injects a Poisson-like handful of single-bit
errors over 4,729,000 operations.  The sweep reports the injected-count
distribution (mean and the fraction of runs inside the 7.5 +/- 1.5
band) and the detection rate of each strategy over all injected errors.
"""

import argparse
from collections import Counter

from msms import (
    DEFAULT_N_OPS,
    ERROR_COUNT_TOLERANCE,
    EXPECTED_ERROR_COUNT,
    Strategy,
    SimulationConfig,
    codec_names,
    run_comparison,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=DEFAULT_N_OPS, help="operations per run")
    ap.add_argument("--runs", type=int, default=100, help="number of seeds, starting at 0")
    ap.add_argument("--codec", default="parity", choices=codec_names())
    args = ap.parse_args()

    lo = EXPECTED_ERROR_COUNT - ERROR_COUNT_TOLERANCE
    hi = EXPECTED_ERROR_COUNT + ERROR_COUNT_TOLERANCE
    counts = []
    detected_totals: dict[Strategy, int] = {s: 0 for s in Strategy}
    injected_total = 0
    for seed in range(args.runs):
        cfg = SimulationConfig(n_ops=args.n, codec=args.codec, seed=seed)
        runs = run_comparison(cfg, engine="fast", keep_records=False)
        for strategy, (report, _) in runs.items():
            if strategy is Strategy.NONE:
                counts.append(report.totals.errors_injected)
                injected_total += report.totals.errors_injected
            detected_totals[strategy] += report.totals.errors_detected

    mean = sum(counts) / len(counts)
    in_band = sum(lo <= c <= hi for c in counts) / len(counts)
    print(f"runs={args.runs} n={args.n} codec={args.codec}")
    print(f"injected per run: mean={mean:.2f}  target={EXPECTED_ERROR_COUNT}")
    print(f"fraction of runs in [{lo:g}, {hi:g}]: {in_band:.2%}")
    print("count histogram:")
    for count, freq in sorted(Counter(counts).items()):
        print(f"  {count:>3}: {'#' * freq}")
    print("detection over all injected errors:")
    for strategy, det in detected_totals.items():
        rate = det / injected_total if injected_total else float("nan")
        print(f"  {strategy.value:<9} {det:>5} / {injected_total}  ({rate:.2%})")


if __name__ == "__main__":
    main()
