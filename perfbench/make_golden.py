#!/usr/bin/env python3
"""Record the golden digests the benchmark checks parity outputs against.

Run it on the commit whose outputs are the reference, from the repo root:

    python3 perfbench/make_golden.py

``experiment_out`` pins the sha256 of each records CSV that
``msms simulate --compare --seed S --out DIR`` writes at full scale, for
S below ``EXPERIMENT_SEEDS``; ``seed_sweep`` pins the digest of each
seed's per-strategy totals for seeds below ``SWEEP_SEEDS``.  State
dumps are deliberately not pinned: their log framing and metadata are
expected to change.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from msms import SimulationConfig, run_comparison  # noqa: E402

from workloads import totals_digest  # noqa: E402

EXPERIMENT_SEEDS = 20
SWEEP_SEEDS = 50


class _HashWriter:
    """Text sink that hashes what ``write_csv`` would write to a file."""

    def __init__(self):
        self.h = hashlib.sha256()

    def write(self, text: str) -> None:
        self.h.update(text.encode())


def main() -> None:
    experiment = {}
    for seed in range(EXPERIMENT_SEEDS):
        digests = {}
        for strategy, (_, records) in run_comparison(SimulationConfig(seed=seed), engine="fast").items():
            sink = _HashWriter()
            records.write_csv(sink)
            digests[strategy.value] = sink.h.hexdigest()
        experiment[str(seed)] = digests
        print(f"experiment_out seed {seed} done", file=sys.stderr)

    sweep = {}
    for seed in range(SWEEP_SEEDS):
        runs = run_comparison(SimulationConfig(seed=seed), engine="fast", keep_records=False)
        sweep[str(seed)] = totals_digest({s.value: r.totals.to_dict() for s, (r, _) in runs.items()})

    out = {"experiment_out": experiment, "seed_sweep": sweep}
    (HERE / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
