"""Tests of the benchmark itself, at tiny sizes.

Run from the repo root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "experiment_out": lambda seed: workloads.ExperimentOut(seed, n_ops=3000),
    "seed_sweep": lambda seed: workloads.SeedSweep(seed, n_seeds=2, n_ops=3000),
    "store_oracle": lambda seed: workloads.StoreOracle(seed, n_ops=600),
    "dedup_attack": lambda seed: workloads.DedupAttack(seed, sizes=(30, 60)),
}


def run_tiny(name, tmp_path, seed=5, tracer=None):
    wl = TINY[name](seed)
    return wl, list(wl.run(tmp_path, tracer))


def fail_frac(checks):
    return sum(not ok for _, ok in checks) / len(checks)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


def test_end_to_end_metric_names_and_units():
    ref = run.CALIBRATION_REF_S
    # Three passes of two units each, as [wall, cpu, calibration] per
    # unit.  The 1.5 s unit ran while the host was twice as slow.
    passes = [
        [[1.0, 0.9, ref], [2.0, 1.8, ref]],
        [[1.5, 1.4, 2 * ref], [1.0, 0.9, ref]],
        [[1.1, 1.0, ref], [1.2, 1.1, ref]],
    ]
    out = {"passes": passes, "work": 300, "peak_rss_mb": 70.5, "failed": 1, "attempted": 4}
    metrics = run.end_to_end_metrics(out, [(0.3, ref), (0.2, ref), (0.8, 2 * ref)])
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metrics["wall_s"]["value"] == pytest.approx(1.0 + 1.2)
    assert metrics["cpu_s"]["value"] == pytest.approx(0.9 + 1.1)
    assert metrics["ops_per_s"]["value"] == pytest.approx(300 / 2.2)
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)
    assert metrics["pass_frac"]["value"] == 0.75


def test_per_layer_metric_names_and_units():
    ref = run.CALIBRATION_REF_S
    out = {
        "passes": [[[1.0, 1.0, ref]]],
        "traced": [[[1.5, 1.5, 2 * ref]]],  # ran on a host twice as slow
        "layers": tracing.layer_metrics(tracing.Tracer()),
        "baseline": [("draw_plan per full-scale call", 0.14, "s", 0.2)],
    }
    out["layers"]["cli.main.self_s"]["value"] = 0.5
    metrics, rows = run.layer_metrics(out)
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["cli.main.self_s"]["value"] == pytest.approx(0.25)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(-0.25)
    assert rows == [("draw_plan per full-scale call", 0.14, "s", pytest.approx(0.1))]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_every_check(name, tmp_path):
    wl, result = run_tiny(name, tmp_path)
    checks = wl.check(result, tmp_path)
    assert checks
    assert [c for c in checks if not c[1]] == []
    # The worker counts a check once however many passes repeat it, by name.
    assert len({c[0] for c in checks}) == len(checks)


def test_one_failed_check_exceeds_the_pass_frac_bound():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "pass_frac")
    largest = len(workloads.SeedSweep(0).configs) * 5  # the most checks any workload makes
    assert 1 / largest > bound


def _drop_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _flip_detected(path):
    text = path.read_text()
    path.write_text(text.replace(",false,", ",true,", 1))


def _bump_steps(path):
    data = json.loads(path.read_text())
    data["totals"]["total_steps"] += 1
    path.write_text(json.dumps(data))


CORRUPTIONS = [
    ("experiment_out", "out/records_full.csv", _drop_last_line),
    ("experiment_out", "out/report_enhanced.json", _bump_steps),
    ("store_oracle", "fast/records_none.csv", _flip_detected),
    ("store_oracle", "store/report_none.json", _bump_steps),
]


@pytest.mark.parametrize("name,artifact,corrupt", CORRUPTIONS)
def test_corrupted_artifact_raises_fail_frac(name, artifact, corrupt, tmp_path):
    wl, result = run_tiny(name, tmp_path)
    corrupt(tmp_path / artifact)
    assert fail_frac(wl.check(result, tmp_path)) > 0


def test_wrong_sweep_totals_fail_the_golden_check(tmp_path, monkeypatch):
    wl, sweep = run_tiny("seed_sweep", tmp_path)
    good = {str(cfg.seed): workloads.totals_digest(t) for cfg, t in zip(wl.configs, sweep)}
    monkeypatch.setattr(wl, "n_ops", workloads.DEFAULT_N_OPS)
    monkeypatch.setattr(workloads, "golden", lambda: {"seed_sweep": good})
    assert fail_frac(wl.check(sweep, tmp_path)) == 0
    sweep[1]["full"]["errors_detected"] += 1
    assert fail_frac(wl.check(sweep, tmp_path)) > 0


def test_wrong_attack_outcome_fails_the_defence_matrix(tmp_path):
    wl, drills = run_tiny("dedup_attack", tmp_path)
    outcome, audit = drills[3]  # enhanced + protect_page: the merge is refused
    drills[3] = ((True, True, False), audit)
    assert fail_frac(wl.check(drills, tmp_path)) > 0


def test_golden_digests_cover_the_default_seeds():
    golden = workloads.golden()
    for seed in range(10):
        assert set(golden["experiment_out"][str(seed)]) == set(workloads.STRATEGIES)
        assert str(seed + 29) in golden["seed_sweep"]


def test_tracer_self_time_and_restore(tmp_path):
    import msms.store

    original = msms.store.ProtectedStore.store_write
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        wl, result = run_tiny("store_oracle", tmp_path, tracer=tr)
    finally:
        restore()
    assert msms.store.ProtectedStore.store_write is original
    m = tracing.layer_metrics(tr)
    assert m["store.store_write.calls"]["value"] == 3 * 600
    assert m["store.store_read.calls"]["value"] == 3 * 600
    assert m["cli.main.calls"]["value"] == 5
    assert m["store.verify_entry_dicts.entries"]["value"] == m["store.audit_append.calls"]["value"]
    assert m["store.dedup_scan.merges"]["value"] == 0
    # Self time never exceeds the span's own duration.
    for span, (calls, total, self_s, _) in tr.stats.items():
        assert 0 <= self_s <= total + 1e-9, span
    assert tr.self_s("cli.main") < tr.total_s("cli.main")


def test_traced_subprocess_workload_reports_write_csv(tmp_path):
    tr = tracing.Tracer()
    wl, statuses = run_tiny("experiment_out", tmp_path, tracer=tr)
    assert statuses == [0]
    m = tracing.layer_metrics(tr)
    assert m["simulation.write_csv.rows"]["value"] == 3 * 3000
    assert m["simulation.write_csv.bytes"]["value"] == sum(
        (tmp_path / "out" / f"records_{s}.csv").stat().st_size for s in workloads.STRATEGIES
    )
    assert m["cli.main.calls"]["value"] == 1


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store_oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
