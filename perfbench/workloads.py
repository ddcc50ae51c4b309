"""The four benchmark workloads: inputs from a seed, a timed pass, output checks.

Each workload builds its inputs in ``__init__`` (that is set-up time)
and runs the timed part in ``run(tmp, tracer, sampler)``, a generator
that yields one result per unit of work (a CLI call, a seed, a drill) so
the worker can time the units one by one.  ``check(results, tmp)``
checks the outputs, untimed.  Every check is one task; a failed check
counts against the tasks attempted.  All checks use the parity codec,
so they stay valid when another codec's step totals change.

Why these four (each stresses a different layer):

* ``experiment_out`` - the README's full-scale ``simulate --compare
  --out`` run, as a subprocess.  CSV serialisation dominates it.
* ``seed_sweep`` - 30 full-scale fast-engine comparisons without records,
  as the acceptance fixture and the detection sweep run them.  Plan
  drawing and the fast engine dominate; nothing is serialised.
* ``store_oracle`` - the store engine at 20k ops with state dumps, the
  three audits, and the fast engine checked byte for byte against it.
  The store, its audit log and the codecs dominate; no dedup scan.
* ``dedup_attack`` - the dedup-then-hammer drill against stores of 1k,
  2k and 4k pages under the five defences.  ``dedup_scan`` dominates
  and grows quadratically with pages.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator
import numpy as np

import msms
import msms.cli
import msms.faults
from msms import Address, ProtectedStore, SimulationConfig, Strategy, Word
from msms.faults import DEFAULT_N_OPS
from msms.simulation import DEFAULT_WORD_WIDTH, baseline_steps
from msms.words import RandomSource

HERE = Path(__file__).resolve().parent

STRATEGIES = tuple(s.value for s in Strategy)

Check = tuple[str, bool]


@functools.cache
def golden() -> dict:
    """Digests of parity outputs recorded on the seed commit, by seed."""
    return json.loads((HERE / "golden.json").read_text())


def totals_digest(totals: dict[str, dict]) -> str:
    """sha256 of one seed's per-strategy totals in canonical JSON."""
    return hashlib.sha256(json.dumps(totals, sort_keys=True).encode()).hexdigest()


def invariant_checks(tag: str, totals: dict[str, dict], check_zone: bool = False) -> list[Check]:
    """The step-accounting and detection invariants of one parity comparison.

    Totals alone show that ``full`` caught every data-bit flip only when
    no fault could land in a check; with ``check_zone`` the caller checks
    that from the records instead.
    """
    none, enh, full = (totals[s] for s in STRATEGIES)
    b = baseline_steps(DEFAULT_WORD_WIDTH)
    checks = [
        (f"{tag}: enhanced == none + priority_ops x (B+2)",
         enh["total_steps"] == none["total_steps"] + enh["priority_ops"] * (b + 2)),
        (f"{tag}: equal injected counts",
         none["errors_injected"] == enh["errors_injected"] == full["errors_injected"]),
        (f"{tag}: none detects 0", none["errors_detected"] == 0),
    ]
    if not check_zone:
        checks.append((f"{tag}: full detects every data-bit flip",
                       full["errors_detected"] == full["errors_injected"]))
    return checks


def file_digest_and_lines(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``msms.cli.main`` in-process, looked up at call time; returns (status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = msms.cli.main(argv)
    return status, out.getvalue()


class ExperimentOut:
    name = "experiment_out"
    runs_child = True  # the child samples the host itself (see child.py)

    def __init__(self, seed: int, n_ops: int = DEFAULT_N_OPS):
        self.seed, self.n_ops = seed, n_ops
        self.work = 3 * n_ops
        self.args = ["simulate", "--compare", "--seed", str(seed)]
        if n_ops != DEFAULT_N_OPS:
            self.args += ["--n", str(n_ops)]

    def run(self, tmp: Path, tracer=None, sampler=None) -> Iterator[int]:
        measured = tmp / "child.json"
        mode = "sample" if tracer is None else "trace"
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(measured), *self.args, "--out", str(tmp / "out")],
            stdout=subprocess.DEVNULL, timeout=170,
        )
        if proc.returncode == 0:
            state = json.loads(measured.read_text())
            if sampler is not None:
                sampler.absorb(state["samples"])
            if tracer is not None:
                tracer.merge(state["trace"])
        yield proc.returncode

    def check(self, results: list[int], tmp: Path) -> list[Check]:
        status = results[0]
        checks = [("simulate exits 0", status == 0)]
        if status != 0:
            return checks
        out = tmp / "out"
        totals = {s: json.loads((out / f"report_{s}.json").read_text())["totals"] for s in STRATEGIES}
        checks += invariant_checks("experiment", totals)
        digests = golden()["experiment_out"].get(str(self.seed)) if self.n_ops == DEFAULT_N_OPS else None
        for s in STRATEGIES:
            digest, lines = file_digest_and_lines(out / f"records_{s}.csv")
            checks.append((f"records_{s}.csv has n+1 lines", lines == self.n_ops + 1))
            if digests:
                checks.append((f"records_{s}.csv matches its golden digest", digest == digests[s]))
        return checks


class SeedSweep:
    name = "seed_sweep"

    def __init__(self, seed: int, n_seeds: int = 30, n_ops: int = DEFAULT_N_OPS):
        self.n_ops = n_ops
        self.configs = [SimulationConfig(n_ops=n_ops, seed=seed + i) for i in range(n_seeds)]
        self.work = n_seeds * 3 * n_ops

    def run(self, tmp: Path, tracer=None, sampler=None) -> Iterator[dict[str, dict]]:
        for cfg in self.configs:
            runs = msms.run_comparison(cfg, engine="fast", keep_records=False)
            yield {s.value: report.totals.to_dict() for s, (report, _) in runs.items()}

    def check(self, sweep: list[dict[str, dict]], tmp: Path) -> list[Check]:
        checks = []
        digests = golden()["seed_sweep"] if self.n_ops == DEFAULT_N_OPS else {}
        for cfg, totals in zip(self.configs, sweep):
            tag = f"seed {cfg.seed}"
            checks += invariant_checks(tag, totals)
            if str(cfg.seed) in digests:
                checks.append((f"{tag}: totals match the golden digest",
                               totals_digest(totals) == digests[str(cfg.seed)]))
        return checks


class StoreOracle:
    name = "store_oracle"

    def __init__(self, seed: int, n_ops: int = 20_000):
        self.seed, self.n_ops = seed, n_ops
        self.work = 3 * n_ops
        common = ["simulate", "--compare", "--n", str(n_ops), "--seed", str(seed),
                  "--error-prob", "0.002", "--inject-check-zone"]
        self.store_args = common + ["--engine", "store", "--dump-state"]
        self.fast_args = common + ["--engine", "fast"]
        # The negative control: which dump, entry and field to tamper with.
        rng = np.random.default_rng([seed, 1])
        self.tamper = (STRATEGIES[int(rng.integers(3))], float(rng.random()), int(rng.integers(6)))

    def run(self, tmp: Path, tracer=None, sampler=None) -> Iterator[tuple[int, str]]:
        yield run_cli(self.store_args + ["--out", str(tmp / "store")])
        for s in STRATEGIES:
            yield run_cli(["audit", str(tmp / "store" / f"state_{s}.json")])
        yield run_cli(self.fast_args + ["--out", str(tmp / "fast")])

    def check(self, results: list[tuple[int, str]], tmp: Path) -> list[Check]:
        (store_st, _), *audits, (fast_st, _) = results
        checks = [("store simulate exits 0", store_st == 0), ("fast simulate exits 0", fast_st == 0)]
        for s, (status, text) in zip(STRATEGIES, audits):
            checks.append((f"audit state_{s}.json: chain OK", status == 0 and text.startswith("chain OK")))
        if store_st != 0 or fast_st != 0:
            return checks
        store, fast = tmp / "store", tmp / "fast"
        for s in STRATEGIES:
            same = (store / f"records_{s}.csv").read_bytes() == (fast / f"records_{s}.csv").read_bytes()
            checks.append((f"records_{s}.csv: fast engine == store engine", same))
        totals = {s: json.loads((store / f"report_{s}.json").read_text())["totals"] for s in STRATEGIES}
        checks += invariant_checks("store engine", totals, check_zone=True)
        rows = [row.split(",") for row in (store / "records_full.csv").read_text().splitlines()[1:]]
        missed = [r for r in rows if r[4] and int(r[4]) < DEFAULT_WORD_WIDTH and r[5] != "true"]
        checks.append(("full detects every data-bit flip", not missed))
        checks.append(self.negative_control(store, tmp))
        return checks

    def negative_control(self, store: Path, tmp: Path) -> Check:
        """Tamper with one field of one log entry in a copy; audit must name it."""
        strategy, where, field = self.tamper
        data = json.loads((store / f"state_{strategy}.json").read_text())
        log = data["zones"]["log"]
        seq = 1 + int(where * (len(log) - 1))
        entry = log[seq]
        if field == 0:
            entry["event"] = "merge" if entry["event"] != "merge" else "read"
        elif field == 1:
            entry["address"] = "0:1" if entry["address"] != "0:1" else "0:2"
        elif field == 2:
            entry["detail"] = {**entry["detail"], "tampered": True}
        elif field == 3:
            entry["sequence"] += 1
        else:
            key = ("digest_prev", "digest_self")[field - 4]
            entry[key] = entry[key][:-1] + ("0" if entry[key][-1] != "0" else "1")
        copy = tmp / "tampered.json"
        copy.write_text(json.dumps(data))
        status, text = run_cli(["audit", str(copy)])
        caught = status == 1 and re.search(rf"BROKEN at sequence {seq}\b", text) is not None
        return (f"audit catches a tampered {strategy} log entry at sequence {seq}", caught)


# The defence matrix of the Flip Feng Shui drill: (strategy, priority
# victim, protect_page) -> expected (merged, flip_applied, detected).
# Only the unchecked cases are undefended.
DEFENCE_CASES = (
    (("none", False, False), (True, True, False)),
    (("enhanced", False, False), (True, True, False)),
    (("enhanced", True, False), (True, True, True)),
    (("enhanced", False, True), (False, False, False)),
    (("full", False, False), (True, True, True)),
)

VICTIM_WORDS = 8


class DedupAttack:
    name = "dedup_attack"

    def __init__(self, seed: int, sizes: tuple[int, ...] = (1000, 2000, 4000)):
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Per store size: the victim page's words and one word per
        # background page, seeded random.  8-bit words over thousands
        # of pages repeat, so most background pages merge.
        self.inputs = []
        for n in sizes:
            victim = [Word(int(v), DEFAULT_WORD_WIDTH) for v in rng.integers(0, 256, VICTIM_WORDS)]
            background = [Word(int(v), DEFAULT_WORD_WIDTH) for v in rng.integers(0, 256, n)]
            self.inputs.append((victim, background))
        self.work = len(DEFENCE_CASES) * sum(len(bg) + 2 for _, bg in self.inputs)

    def run(self, tmp: Path, tracer=None, sampler=None) -> Iterator[tuple]:
        for i, (victim, background) in enumerate(self.inputs):
            for j, ((strategy, priority_victim, protect), _) in enumerate(DEFENCE_CASES):
                store = ProtectedStore(codec="parity", strategy=strategy)
                for offset, word in enumerate(victim):
                    store.store_write(Address(0, offset), word, priority=priority_victim and offset == 0)
                if protect:
                    store.protect_page(0)
                for page, word in enumerate(background, start=1):
                    store.store_write(Address(page, 0), word)
                outcome = msms.faults.flip_feng_shui_scenario(
                    store, victim, Address(0, 0), rng=RandomSource(self.seed).derive(5 * i + j)
                )
                audit = msms.store.verify_entry_dicts(store.dump_state()["zones"]["log"])
                yield (outcome.merged, outcome.flip_applied, outcome.detected), audit

    def check(self, drills: list[tuple], tmp: Path) -> list[Check]:
        checks = []
        cases = [(len(bg), case, expected) for _, bg in self.inputs for case, expected in DEFENCE_CASES]
        for (pages, case, expected), (outcome, audit) in zip(cases, drills):
            tag = f"{pages} pages, {case[0]} priority_victim={case[1]} protect_page={case[2]}"
            checks.append((f"{tag}: outcome {outcome} == {expected}", outcome == expected))
            checks.append((f"{tag}: audit of dump_state() OK", audit == (True, None)))
        return checks


WORKLOADS = {w.name: w for w in (ExperimentOut, SeedSweep, StoreOracle, DedupAttack)}
