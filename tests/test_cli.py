"""Command-line behavior: flags, config files, artifacts, exit codes."""

import hashlib
import json

import pytest

from msms import CSV_HEADER
from msms.cli import (
    EXIT_ATTACK_SUCCEEDED,
    EXIT_ERROR,
    EXIT_OK,
    main,
)

SIM_SMALL = ["simulate", "--n", "1500", "--error-prob", "0.004", "--seed", "42"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_summary_table_prints(self, capsys):
        code, out, _ = run(SIM_SMALL, capsys)
        assert code == EXIT_OK
        assert "strategy" in out and "total_steps" in out and "miss_rate" in out
        assert "enhanced" in out

    def test_compare_lists_all_three_strategies(self, capsys):
        code, out, _ = run(SIM_SMALL + ["--compare"], capsys)
        assert code == EXIT_OK
        for name in ("none", "enhanced", "full"):
            assert name in out
        assert "enhanced == none + priority_ops x (B+2)" in out

    def test_artifacts_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(SIM_SMALL + ["--compare", "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "records_none.csv",
            "records_enhanced.csv",
            "records_full.csv",
            "report_none.json",
            "report_enhanced.json",
            "report_full.json",
            "comparison.json",
            "manifest.json",
        }
        manifest = json.loads((out_dir / "manifest.json").read_text())
        listed = {name.rsplit("/", 1)[-1] for name in manifest["outputs"]}
        assert listed == names - {"manifest.json"}
        assert manifest["tool"] == "msms"
        assert manifest["seed"] == 42
        # manifest is written last: artifacts existed before it
        assert manifest["started"] <= manifest["finished"]
        csv_lines = (out_dir / "records_full.csv").read_text().splitlines()
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) == 1501

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(SIM_SMALL + ["--out", str(a)], capsys)
        run(SIM_SMALL + ["--out", str(b)], capsys)
        assert (a / "records_enhanced.csv").read_bytes() == (b / "records_enhanced.csv").read_bytes()

    def test_strategy_none_detects_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "none"
        code, _, _ = run(SIM_SMALL + ["--strategy", "none", "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        rows = (out_dir / "records_none.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[5] == "false" for row in rows)

    def test_full_strategy_misses_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "full"
        run(SIM_SMALL + ["--strategy", "full", "--out", str(out_dir)], capsys)
        report = json.loads((out_dir / "report_full.json").read_text())
        assert report["totals"]["errors_injected"] > 0
        assert report["totals"]["miss_rate"] == 0.0

    def test_config_file_feeds_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 900\nseed = 5\nstrategy = full\n# comment\n\nerror-prob = 0.01\n")
        code, out, _ = run(["simulate", "--config", str(cfg), "--seed", "8"], capsys)
        assert code == EXIT_OK
        assert "n=900" in out
        assert "seed=8" in out  # flag beats file
        assert "full" in out

    def test_config_file_syntax_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a setting\n")
        code, _, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert "key=value" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(["simulate", "--config", "/no/such/file.cfg"], capsys)
        assert code == EXIT_ERROR
        assert "not found" in err

    def test_invalid_flag_value_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--strategy", "paranoid"])
        assert exc.value.code == EXIT_ERROR

    def test_invalid_probability_exits_one(self, capsys):
        code, _, err = run(["simulate", "--p-priority", "1.5"], capsys)
        assert code == EXIT_ERROR
        assert "priority_fraction" in err

    def test_dump_state_requires_a_small_run(self, capsys):
        code, _, err = run(["simulate", "--dump-state"], capsys)
        assert code == EXIT_ERROR
        assert "store engine" in err

    def test_dump_state_requires_an_output_directory(self, capsys):
        code, out, err = run(["simulate", "--n", "500", "--dump-state"], capsys)
        assert code == EXIT_ERROR
        assert "--out" in err
        assert out == ""

    def test_dump_state_writes_verifiable_state(self, tmp_path, capsys):
        out_dir = tmp_path / "dump"
        code, _, _ = run(SIM_SMALL + ["--dump-state", "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        state = out_dir / "state_enhanced.json"
        assert state.exists()
        code, out, _ = run(["audit", str(state)], capsys)
        assert code == EXIT_OK
        assert out.startswith("chain OK (")

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MSMS_SEED", "77")
        out_dir = tmp_path / "env"
        run(["simulate", "--n", "500", "--out", str(out_dir)], capsys)
        report = json.loads((out_dir / "report_enhanced.json").read_text())
        assert report["config"]["seed"] == 77

    def test_seed_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MSMS_SEED", "77")
        out_dir = tmp_path / "flag"
        run(["simulate", "--n", "500", "--seed", "3", "--out", str(out_dir)], capsys)
        report = json.loads((out_dir / "report_enhanced.json").read_text())
        assert report["config"]["seed"] == 3

    def test_bad_env_seed_is_an_operational_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MSMS_SEED", "not-a-number")
        code, _, err = run(["simulate", "--n", "100"], capsys)
        assert code == EXIT_ERROR
        assert "MSMS_SEED" in err


class TestCostModel:
    def test_default_table_matches_the_published_rows(self, capsys):
        code, out, _ = run(["cost-model"], capsys)
        assert code == EXIT_OK
        lines = {line.split()[0]: line.split() for line in out.splitlines() if line and not line.startswith(("system", "P ="))}
        assert lines["none"][1:] == ["100", "100"]
        assert lines["technique"][1:] == ["300", "400"]
        assert lines["msms"][1:] == ["145", "160"]

    def test_priority_zero_collapses_to_baseline(self, capsys):
        _, out, _ = run(["cost-model", "--p-priority", "0"], capsys)
        msms_row = [l for l in out.splitlines() if l.startswith("msms")][0]
        assert msms_row.split()[1:] == ["100", "100"]

    def test_custom_multipliers(self, capsys):
        _, out, _ = run(
            ["cost-model", "--time-mult", "3", "--space-mult", "4", "--p-priority", "0.5"],
            capsys,
        )
        msms_row = [l for l in out.splitlines() if l.startswith("msms")][0]
        assert msms_row.split()[1:] == ["250", "300"]

    def test_json_output(self, capsys):
        code, out, _ = run(["cost-model", "--json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rows"][2]["time_units"] == 145
        assert payload["rows"][2]["space_units"] == 160

    def test_out_dir_gets_model_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "cost"
        code, _, _ = run(["cost-model", "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        assert (out_dir / "cost_model.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "cost-model"

    def test_p_out_of_range_rejected(self, capsys):
        code, _, err = run(["cost-model", "--p-priority", "1.2"], capsys)
        assert code == EXIT_ERROR
        assert "[0, 1]" in err


class TestAttack:
    def test_undefended_attack_exits_two(self, capsys):
        code, out, _ = run(["attack", "--strategy", "none", "--seed", "3"], capsys)
        assert code == EXIT_ATTACK_SUCCEEDED
        payload = json.loads(out)
        assert payload["outcome"]["merged"] is True
        assert payload["outcome"]["flip_applied"] is True
        assert payload["outcome"]["detected"] is False
        assert payload["defended"] is False

    def test_priority_victim_under_enhanced_is_defended(self, capsys):
        code, out, _ = run(
            ["attack", "--strategy", "enhanced", "--priority-victim", "--seed", "3"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["outcome"]["detected"] is True

    def test_nonpriority_victim_under_enhanced_is_the_blind_spot(self, capsys):
        code, out, _ = run(["attack", "--strategy", "enhanced", "--seed", "3"], capsys)
        assert code == EXIT_ATTACK_SUCCEEDED
        assert json.loads(out)["outcome"]["detected"] is False

    def test_protected_page_prevents_the_merge(self, capsys):
        code, out, _ = run(["attack", "--protect-page", "--seed", "3"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["outcome"]["merged"] is False
        assert payload["outcome"]["flip_applied"] is False

    def test_full_strategy_detects_any_victim(self, capsys):
        code, out, _ = run(["attack", "--strategy", "full", "--seed", "3"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["outcome"]["detected"] is True

    def test_contradictory_flags_rejected(self, capsys):
        code, _, err = run(["attack", "--protect-page", "--force-merge"], capsys)
        assert code == EXIT_ERROR
        assert "protect-page" in err

    def test_deterministic_outcome_json(self, capsys):
        _, out_a, _ = run(["attack", "--seed", "9"], capsys)
        _, out_b, _ = run(["attack", "--seed", "9"], capsys)
        assert out_a == out_b

    def test_out_dir_state_is_auditable(self, tmp_path, capsys):
        out_dir = tmp_path / "atk"
        run(["attack", "--strategy", "full", "--seed", "3", "--out", str(out_dir)], capsys)
        assert json.loads((out_dir / "attack_outcome.json").read_text())["defended"] is True
        code, out, _ = run(["audit", str(out_dir / "state.json")], capsys)
        assert code == EXIT_OK
        assert "chain OK" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "attack"


class TestAudit:
    @pytest.fixture()
    def state_file(self, tmp_path, capsys):
        out_dir = tmp_path / "for_audit"
        run(["attack", "--seed", "1", "--out", str(out_dir)], capsys)
        capsys.readouterr()
        return out_dir / "state.json"

    def test_untampered_chain_is_ok(self, state_file, capsys):
        code, out, _ = run(["audit", str(state_file)], capsys)
        assert code == EXIT_OK
        assert out.startswith("chain OK (") and "entries" in out

    def test_tampering_entry_seven_breaks_at_seven(self, state_file, capsys):
        data = json.loads(state_file.read_text())
        entry = data["zones"]["log"][7]
        entry["detail"] = {"forged": True}
        state_file.write_text(json.dumps(data))
        code, out, _ = run(["audit", str(state_file)], capsys)
        assert code == EXIT_ERROR
        assert out.strip() == "chain BROKEN at sequence 7"

    def test_dump_naming_another_digest_is_rejected(self, state_file, capsys):
        data = json.loads(state_file.read_text())
        data["metadata"]["digest_algorithm"] = "sha512"
        state_file.write_text(json.dumps(data))
        code, out, err = run(["audit", str(state_file)], capsys)
        assert code == EXIT_ERROR
        assert "'sha512'" in err
        assert "BROKEN" not in out

    def test_dump_with_unreadable_metadata_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "null_metadata.json"
        path.write_text(json.dumps({"metadata": None, "zones": {"log": []}}))
        code, _, err = run(["audit", str(path)], capsys)
        assert code == EXIT_ERROR
        assert "not a recognizable state dump" in err

    def test_empty_chain_is_genesis(self, tmp_path, capsys):
        path = tmp_path / "genesis.json"
        path.write_text(json.dumps({"metadata": {}, "zones": {"log": []}}))
        code, out, _ = run(["audit", str(path)], capsys)
        assert code == EXIT_OK
        assert out.strip() == "chain OK (genesis)"

    def test_missing_dump_is_an_operational_error(self, capsys):
        code, _, err = run(["audit", "/no/such/state.json"], capsys)
        assert code == EXIT_ERROR
        assert "not found" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(["audit", str(path)], capsys)
        assert code == EXIT_ERROR
        assert "JSON" in err

    def test_bare_entry_list_is_accepted(self, state_file, capsys):
        entries = json.loads(state_file.read_text())["zones"]["log"]
        bare = state_file.parent / "bare.json"
        bare.write_text(json.dumps(entries))
        code, out, _ = run(["audit", str(bare)], capsys)
        assert code == EXIT_OK
        assert "chain OK" in out


# sha256 of the dump files themselves, byte for byte, pinned before the dump
# writer stopped formatting log entries with json.dumps.  Dumps carry the
# package version string in their metadata, so a version bump changes these
# digests too.
GOLDEN_DUMP_FILES = {
    "state_none.json": "d635ff10ada409d8269acd2869683d37ec473632289d84a6254f1fbcbb039ed0",
    "state_enhanced.json": "01e6f4be7a7098cc14c0ff50854fbcf1005e5fc1d82aa7339abda5c59b317bda",
    "state_full.json": "a4ae96d7b6a47668a03c69f235c22956ed92dff7dd5e13f04f43b4ce8445053c",
    # a MERGE list, a physical fault and an INTEGRITY_FAILURE
    "state.json": "f980aa876e247afe0e780af3bf8d57229ea65621b03a4305136f3870e5b0f510",
}


def _sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDumpFiles:
    def test_simulate_dump_files_match_golden_digests(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code, _, _ = run(
            ["simulate", "--compare", "--n", "3000", "--seed", "2", "--error-prob", "0.002",
             "--inject-check-zone", "--engine", "store", "--dump-state", "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        for name in ("state_none.json", "state_enhanced.json", "state_full.json"):
            assert _sha256_file(out_dir / name) == GOLDEN_DUMP_FILES[name], name

    def test_attack_dump_file_matches_golden_digest(self, tmp_path, capsys):
        out_dir = tmp_path / "atk"
        code, _, _ = run(
            ["attack", "--codec", "dup", "--priority-victim", "--force-merge", "--seed", "9",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        events = {e["event"] for e in json.loads((out_dir / "state.json").read_text())["zones"]["log"]}
        assert {"merge", "injected_fault", "integrity_failure"} <= events
        assert _sha256_file(out_dir / "state.json") == GOLDEN_DUMP_FILES["state.json"]


class TestParser:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == EXIT_ERROR

    def test_no_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_ERROR

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("msms ")
