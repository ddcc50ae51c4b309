#!/usr/bin/env python3
"""Compare measured step overhead of the three strategies at full scale.

Runs the default-size experiment once per seed for each strategy on the
same operation stream, prints per-strategy totals, the measured
overhead relative to the unprotected baseline, and the closed-form
model rows next to them.
"""

import argparse

from msms import (
    DEFAULT_N_OPS,
    Strategy,
    baseline_steps,
    codec_names,
    get_codec,
    run_comparison,
    SimulationConfig,
    step_cost,
    theoretical_cost,
)
from msms.simulation import DEFAULT_PRIORITY_FRACTION, DEFAULT_WORD_WIDTH


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=DEFAULT_N_OPS, help="operations per run")
    ap.add_argument("--width", type=int, default=DEFAULT_WORD_WIDTH)
    ap.add_argument("--p-priority", type=float, default=DEFAULT_PRIORITY_FRACTION)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--codec", default="parity", choices=codec_names())
    args = ap.parse_args()

    print(f"n={args.n} width={args.width} P={args.p_priority} codec={args.codec}")
    print(f"{'seed':>6}  {'strategy':<9} {'total_steps':>14} {'overhead_vs_none':>17}")
    overheads: dict[Strategy, list[float]] = {s: [] for s in Strategy}
    for seed in args.seeds:
        cfg = SimulationConfig(
            n_ops=args.n,
            word_width=args.width,
            priority_fraction=args.p_priority,
            codec=args.codec,
            seed=seed,
        )
        results = run_comparison(cfg, engine="fast", keep_records=False)
        base = results[Strategy.NONE][0].totals.total_steps
        for strategy, (report, _) in results.items():
            steps = report.totals.total_steps
            overhead = steps / base - 1.0
            overheads[strategy].append(overhead)
            print(f"{seed:>6}  {strategy.value:<9} {steps:>14} {overhead:>16.2%}")

    print("\nmean measured overhead per strategy:")
    for strategy, values in overheads.items():
        print(f"  {strategy.value:<9} {sum(values) / len(values):>8.2%}")

    b = baseline_steps(args.width)
    checked = step_cost(Strategy.FULL, True, args.width)
    print(f"\nper-op steps: baseline B={b}, fully checked 2B+2={checked}")
    model = theoretical_cost(args.p_priority, get_codec("dup").cost())
    print("closed-form rows (normalized, duplication-style technique):")
    for row in model.rows():
        print(f"  {row.system:<9} time={row.time_units}  space={row.space_units}")


if __name__ == "__main__":
    main()
