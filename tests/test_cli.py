"""Command-line behavior: flags, config files, artifacts, exit codes."""

import hashlib
import json

import pytest

from msms import CSV_HEADER, SimulationConfig, run_simulation, simulation, verify_entry_dicts
from msms.cli import (
    EXIT_ATTACK_SUCCEEDED,
    EXIT_ERROR,
    EXIT_OK,
    main,
)
from test_audit_log import _resign

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
        assert len(out.splitlines()) == 3  # one strategy's row without --compare

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

    def test_compare_draws_one_plan(self, capsys, monkeypatch):
        calls = []
        draw_plan = simulation.draw_plan

        def counted(config):
            calls.append(config)
            return draw_plan(config)

        monkeypatch.setattr(simulation, "draw_plan", counted)
        code, _, _ = run(SIM_SMALL + ["--compare", "--engine", "fast"], capsys)
        assert code == EXIT_OK
        assert len(calls) == 1

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

    def test_config_file_error_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 900\n# comment\nthis is not a setting\n")
        code, _, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert "run.cfg:3:" in err

    def test_config_file_unknown_key_exits_one(self, tmp_path, capsys):
        # A misspelt key must not leave the run at the default width.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 900\n# comment\nwidht = 16\n")
        code, out, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert f"{cfg}:3: unknown key 'widht'" in err

    def test_config_file_repeated_key_exits_one(self, tmp_path, capsys):
        # Spellings that name one option repeat it too.
        cfg = tmp_path / "run.cfg"
        for text, where in [
            ("seed = 1\nn = 900\nseed = 2\n", "3: duplicate key 'seed'"),
            ("error-prob = 0.01\n# comment\n\nerror_prob = 0.02\n", "4: duplicate key 'error_prob'"),
        ]:
            cfg.write_text(text)
            code, out, err = run(["simulate", "--config", str(cfg)], capsys)
            assert code == EXIT_ERROR
            assert out == ""
            assert f"{cfg}:{where} (first set on line 1)" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(["simulate", "--config", "/no/such/file.cfg"], capsys)
        assert code == EXIT_ERROR
        assert "not found" in err

    def test_small_runs_default_to_the_fast_engine(self, tmp_path, capsys):
        code, out, _ = run(SIM_SMALL + ["--compare", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0].endswith(" engine=fast")
        for name in ("report_none.json", "report_enhanced.json", "report_full.json", "comparison.json"):
            assert json.loads((tmp_path / name).read_text())["engine"] == "fast", name

    def test_engine_auto_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "100", "--engine", "auto"])
        assert exc.value.code == EXIT_ERROR

    def test_engine_auto_in_a_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 100\nengine = auto\n")
        code, out, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert "unknown engine 'auto'" in err

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

    def test_dump_state_size_limit_is_inclusive(self, tmp_path, capsys):
        argv = ["simulate", "--strategy", "none", "--dump-state", "--out", str(tmp_path)]
        code, _, err = run(argv + ["--n", "20001"], capsys)
        assert code == EXIT_ERROR
        assert "store engine" in err
        assert not (tmp_path / "state_none.json").exists()
        code, _, _ = run(argv + ["--n", "20000"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "state_none.json").exists()

    def test_dump_state_requires_an_output_directory(self, capsys):
        code, out, err = run(["simulate", "--n", "500", "--dump-state"], capsys)
        assert code == EXIT_ERROR
        assert "--out" in err
        assert out == ""

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_dump_state_with_an_empty_out_exits_one(self, form, tmp_path, capsys, monkeypatch):
        # An empty --out writes nothing, so a state dump would be lost.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n")
        extra = ["--out", ""] if form == "flag" else ["--config", str(cfg)]
        code, out, err = run(["simulate", "--n", "200", "--dump-state", *extra], capsys)
        assert code == EXIT_ERROR
        assert "--dump-state needs --out DIR" in err
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

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
        monkeypatch.delenv("MSMS_SEED")
        _, out, _ = run(["simulate", "--n", "500"], capsys)
        assert " seed=0 " in out.splitlines()[0]

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
        assert out.startswith('{\n  "tool": "msms",\n')
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

    def test_manifest_echoes_the_multipliers_as_floats(self, tmp_path, capsys):
        code, _, _ = run(["cost-model", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        text = (tmp_path / "manifest.json").read_text()
        assert '"time_mult": 3.0,' in text
        assert '"space_mult": 4.0,' in text
        assert '"p_priority": 0.15,' in text
        assert '"seed": 0,' in text

    def test_p_out_of_range_rejected(self, capsys):
        code, _, err = run(["cost-model", "--p-priority", "1.2"], capsys)
        assert code == EXIT_ERROR
        assert "[0, 1]" in err

    def test_negative_base_rejected(self, capsys):
        code, out, err = run(["cost-model", "--base-time", "-5"], capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert "must be non-negative" in err


class TestAttack:
    def test_undefended_attack_exits_two(self, capsys):
        code, out, _ = run(["attack", "--strategy", "none", "--seed", "3"], capsys)
        assert code == EXIT_ATTACK_SUCCEEDED
        payload = json.loads(out)
        assert payload["outcome"]["merged"] is True
        assert payload["outcome"]["flip_applied"] is True
        assert payload["outcome"]["detected"] is False
        assert payload["defended"] is False

    def test_undefended_attack_exit_status_is_two(self, capsys):
        # The documented contract is the number itself, not the constant.
        code, _, _ = run(["attack", "--strategy", "none", "--seed", "3"], capsys)
        assert code == 2

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

    @pytest.mark.parametrize("width", ["65", "-3"])
    def test_width_outside_the_word_range_exits_one(self, width, capsys):
        code, out, err = run(["attack", "--width", width], capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert "word_width must be in [1, 64]" in err

    def test_config_file_sets_only_attack_flags(self, tmp_path, capsys):
        cfg = tmp_path / "atk.cfg"
        cfg.write_text(
            "strategy = none\nwidth = 16\nseed = 3\npriority-victim = yes\nforce-merge = off\n"
        )
        code, out, _ = run(["attack", "--config", str(cfg)], capsys)
        assert code == EXIT_ATTACK_SUCCEEDED
        scenario = json.loads(out)["scenario"]
        assert (scenario["strategy"], scenario["width"], scenario["seed"]) == ("none", 16, 3)
        assert (scenario["priority_victim"], scenario["force_merge"]) == (True, False)
        # simulate's --n is no attack flag, so the drill must not run without it.
        cfg.write_text("strategy = none\nn = 5\n")
        code, out, err = run(["attack", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert f"{cfg}:2: unknown key 'n'" in err

    def test_deterministic_outcome_json(self, capsys):
        _, out_a, _ = run(["attack", "--seed", "9"], capsys)
        _, out_b, _ = run(["attack", "--seed", "9"], capsys)
        assert out_a == out_b

    def test_out_dir_state_is_auditable(self, tmp_path, capsys):
        out_dir = tmp_path / "runs" / "atk"  # missing parents are created
        argv = ["attack", "--strategy", "full", "--seed", "3", "--out", str(out_dir)]
        for _ in range(2):  # and a rerun writes into the existing directory
            assert run(argv, capsys)[0] == EXIT_OK
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

    @pytest.mark.parametrize(
        "dump",
        [
            {"metadata": None, "zones": {"log": []}},
            # a log that is not a list of entries vouches for nothing
            {"metadata": {}, "zones": {"log": None}},
            {"metadata": {}, "zones": {"log": {}}},
            {"metadata": {}, "zones": {"log": ""}},
            {"metadata": {}, "zones": {"log": 0}},
            {"metadata": {}, "zones": {"log": False}},
        ],
        ids=["metadata-null", "log-null", "log-object", "log-string", "log-zero", "log-false"],
    )
    def test_dump_with_unreadable_metadata_is_rejected(self, dump, tmp_path, capsys):
        path = tmp_path / "unreadable.json"
        path.write_text(json.dumps(dump))
        code, _, err = run(["audit", str(path)], capsys)
        assert code == EXIT_ERROR
        assert "not a recognizable state dump" in err

    @pytest.mark.parametrize(
        "event, retype",
        [("read", list), ("write", lambda detail: sorted(detail.items()))],
        ids=["read-detail-list", "write-detail-pairs"],
    )
    def test_a_detail_that_changed_type_is_malformed(self, event, retype, tmp_path, capsys):
        # dict() of either list equals the dumped detail, so only its type shows the change.
        out_dir = tmp_path / "dump"
        assert run(["simulate", "--n", "50", "--dump-state", "--out", str(out_dir)], capsys)[0] == EXIT_OK
        state = out_dir / "state_enhanced.json"
        data = json.loads(state.read_text())
        entry = next(e for e in data["zones"]["log"] if e["event"] == event)
        entry["detail"] = retype(entry["detail"])
        state.write_text(json.dumps(data))
        code, out, err = run(["audit", str(state)], capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert "malformed log entries" in err

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

    def test_a_renamed_merge_key_resigned_verifies_but_is_off_schema(self, state_file, capsys):
        # The negative control of the schema check: the chain alone vouches for this log.
        data = json.loads(state_file.read_text())
        log = data["zones"]["log"]
        k = next(i for i, e in enumerate(log) if e["event"] == "merge")
        detail = log[k]["detail"]
        detail["virtual_page"] = detail.pop("virtual_pages")
        _resign(log, k)
        assert verify_entry_dicts(log) == (True, None)
        state_file.write_text(json.dumps(data))
        code, out, _ = run(["audit", str(state_file)], capsys)
        assert code == EXIT_ERROR
        assert out == (
            f"chain OK ({len(log)} entries)\n"
            f'detail OFF SCHEMA at sequence {k}: event "merge", keys ["freed", "survivor", "virtual_page"]\n'
        )

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

    def test_every_pinned_dump_passes_its_audit(self, tmp_path, capsys):
        # The positive control of the schema check, on the runs the pins above make.
        run(["simulate", "--compare", "--n", "3000", "--seed", "2", "--error-prob", "0.002",
             "--inject-check-zone", "--engine", "store", "--dump-state", "--out", str(tmp_path)], capsys)
        run(["attack", "--codec", "dup", "--priority-victim", "--force-merge", "--seed", "9",
             "--out", str(tmp_path)], capsys)
        for name in GOLDEN_DUMP_FILES:
            entries = len(json.loads((tmp_path / name).read_text())["zones"]["log"])
            assert run(["audit", str(tmp_path / name)], capsys) == (
                EXIT_OK, f"chain OK ({entries} entries)\n", ""
            ), name


# sha256 of `msms attack` stdout, which carries the outcome's audit tail.
# The payload names the package version, so a version bump changes these
# digests too.
GOLDEN_ATTACK_STDOUT = [
    (["--strategy", "none", "--seed", "3"], EXIT_ATTACK_SUCCEEDED,
     "f04ff9d14b24eb2c8265428743f6a3159075a0c7e9ca5c016d5542a81b95443d"),
    (["--strategy", "enhanced", "--seed", "3"], EXIT_ATTACK_SUCCEEDED,
     "99153fa3878025b716a316f97567b019bba41d08e2f0c320d367d3103be5efe3"),
    (["--strategy", "enhanced", "--priority-victim", "--seed", "3"], EXIT_OK,
     "fe5bb0c4214963957ef583721fee29b47b5283e0287199120c30e1a5f10e018f"),
    (["--strategy", "full", "--seed", "3"], EXIT_OK,
     "251b837ee01cae453649ffcb180464e2031905af3e45e11a35491ecef60f3fcf"),
    (["--protect-page", "--seed", "3"], EXIT_OK,
     "9624a606cd55279641110ab1615c3e8ad9c4a7416794e6b7ab28800df788feed"),
    (["--codec", "dup", "--priority-victim", "--force-merge", "--seed", "9"], EXIT_OK,
     "b30c4c4c793389643f5b97f1026a2a9dee5c9b67c431ecb26ee02dabc0c0731e"),
]


@pytest.mark.parametrize(
    "flags, status, digest",
    GOLDEN_ATTACK_STDOUT,
    ids=[" ".join(flags) for flags, _, _ in GOLDEN_ATTACK_STDOUT],
)
def test_attack_stdout_matches_golden_digest(flags, status, digest, capsys):
    code, out, _ = run(["attack", *flags], capsys)
    assert code == status
    assert len(json.loads(out)["outcome"]["audit_tail"]) == 5
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `msms simulate` stdout.  The first column of the table is as
# wide as its widest cell, "strategy" and "enhanced" alike.  Neither run
# names an engine that depends on the run's size.
GOLDEN_SIMULATE_STDOUT = [
    (["--compare", "--seed", "1"],
     "b25633cdb801eba97fae73a1db84a5d0265ce69b44330f4cf23bc5fbaab95c23"),
    (["--compare", "--n", "3000", "--seed", "2", "--error-prob", "0.002",
      "--inject-check-zone", "--engine", "store"],
     "da4ac58973ec1cacfd6c31e92c00984de20168a7597c7e564be687d25a225f7a"),
]


@pytest.mark.parametrize(
    "flags, digest",
    GOLDEN_SIMULATE_STDOUT,
    ids=[" ".join(flags) for flags, _ in GOLDEN_SIMULATE_STDOUT],
)
def test_simulate_stdout_matches_golden_digest(flags, digest, capsys):
    code, out, err = run(["simulate", *flags], capsys)
    assert code == EXIT_OK
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the records CSVs of a run without --inject-check-zone.  Under
# check-zone injection this seed would put flips into stored check bits
# (the guard below), so the pin also holds the flag's default at off.
GOLDEN_NO_CHECK_ZONE_ARGS = ["--compare", "--n", "1500", "--seed", "12", "--error-prob", "0.004"]
GOLDEN_NO_CHECK_ZONE_CSV = {
    "none": "471c97b8600aada5f9cd378fbd13eea41eb6ed46e678e11e0e761621e7f5bffc",
    "enhanced": "f3c9034fe7a964806a2b57db8a9eec4bc690f5bbb2c3c344a0d7d68200e44dd4",
    "full": "b2a7c6f2148d4678e43d4dc388450725c4fa941ee44f38cce803ed18a0cb26c1",
}


def test_records_without_check_zone_flag_match_golden_digests(tmp_path, capsys):
    code, _, _ = run(["simulate", *GOLDEN_NO_CHECK_ZONE_ARGS, "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    for strategy, digest in GOLDEN_NO_CHECK_ZONE_CSV.items():
        assert _sha256_file(tmp_path / f"records_{strategy}.csv") == digest, strategy
    flipped = SimulationConfig(
        n_ops=1500, seed=12, per_op_probability=0.004, inject_check_zone=True, strategy="full"
    )
    _, records = run_simulation(flipped, engine="fast")
    assert (records.flip_bits >= flipped.word_width).any()


# sha256 of the JSON artifacts of a default small comparison, written by
# the fast engine.  They carry the package version.
GOLDEN_JSON_ARTIFACTS = {
    "report_none.json": "8df27519366f93de61a62a15a0298d3daaa308397de0dfdbac1c0a8545c30d9f",
    "report_enhanced.json": "819b8c3472415e9579dae553e751cc968333ef12625194fb76aee2fc6b755b14",
    "report_full.json": "06f9aaf33a921a3b4940188de20fc0758574d195e10f30c7f0c5d22dd9b002e2",
    "comparison.json": "4aae40b015e6691c8255488440e37d9fad304aedbcbec1f382d64fa349cce5f5",
}


def test_json_artifacts_match_golden_digests(tmp_path, capsys):
    code, _, _ = run(SIM_SMALL + ["--compare", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    for name, digest in GOLDEN_JSON_ARTIFACTS.items():
        assert _sha256_file(tmp_path / name) == digest, name


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("simulate", "width = wide", "width: invalid literal for int() with base 10: 'wide'"),
        ("simulate", "compare = maybe", "compare: expected a boolean, got 'maybe'"),
        ("simulate", "codec = crc", "unknown codec 'crc'"),
        ("attack", "strategy = paranoid", "unknown strategy 'paranoid'"),
    ],
    ids=["width-not-an-int", "compare-not-a-bool", "unknown-codec", "attack-unknown-strategy"],
)
def test_bad_config_value_names_its_line(command, setting, message, tmp_path, capsys):
    # A file value is checked as the flag's would be, before the run starts.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{setting}\n")
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == EXIT_ERROR
    assert out == ""
    assert f"{cfg}:2: {message}" in err


@pytest.mark.parametrize(
    "command",
    [["simulate", "--n", "100"], ["cost-model"], ["attack", "--strategy", "full"]],
    ids=lambda command: command[0],
)
def test_out_creates_missing_parent_directories(command, tmp_path, capsys):
    out_dir = tmp_path / "a" / "b" / "c"
    code, _, _ = run([*command, "--out", str(out_dir)], capsys)
    assert code == EXIT_OK
    assert (out_dir / "manifest.json").exists()


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
