"""Command-line front end: batch runs, cost tables, attack drills, audits.

Four subcommands cover the workflow.  ``simulate`` runs the
overhead/detection experiment and emits per-operation CSVs plus JSON
reports; ``cost-model`` prints the closed-form time/space comparison;
``attack`` drills the dedup-then-hammer scenario against a live store
and reports whether the flip was prevented or caught; ``audit``
re-verifies the hash-chained log inside a dumped store state.

Settings resolve in three layers: built-in defaults, then a key=value
config file (``--config``), then explicit flags.  ``MSMS_SEED`` in the
environment supplies the seed when neither flag nor file does.

Exit codes are a stable contract for CI: 0 success or attack defended,
1 operational error (bad flags, bad input, unwritable output), and 2
exactly when an attack applied a flip that went undetected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Optional

from . import simulation
from ._version import __version__
from .codecs import CostDescriptor, codec_names, get_codec
from .faults import DEFAULT_ERROR_PROBABILITY, DEFAULT_N_OPS, flip_feng_shui_scenario
from .simulation import (
    DEFAULT_PRIORITY_FRACTION,
    DEFAULT_WORD_WIDTH,
    SimulationConfig,
    baseline_steps,
    run_simulation,
    theoretical_cost,
)
from .store import Address, ProtectedStore, Strategy, verify_entry_dicts
from .words import RandomSource

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ATTACK_SUCCEEDED = 2

SEED_ENV_VAR = "MSMS_SEED"

# Largest run --dump-state accepts; a dump holds every op's log entries.
DUMP_STATE_MAX_OPS = 20_000

_STRATEGIES = tuple(s.value for s in Strategy)


class CliError(Exception):
    """Operational failure reported to stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    # Exit status 2 is reserved for undetected attack success, so
    # argument errors exit 1 instead of argparse's default 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def load_config_file(path: Path) -> dict[str, tuple[int, str]]:
    """Read flat key=value settings as key -> (line, value); # comments skipped."""
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    out: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip().lower().replace("-", "_")] = (lineno, value.strip())
    return out


class _Resolver:
    """Flag > config file > default, per setting; a file sets only flagged keys."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_cfg: dict[str, str] = {}
        if args.config:
            path = Path(args.config)
            flags = set(vars(args)) - {"command", "func", "config"}
            for key, (lineno, value) in load_config_file(path).items():
                if key not in flags:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r}")
                self.file_cfg[key] = value

    def get(self, key: str, cast: Callable[[str], Any], default: Any) -> Any:
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file_cfg:
            try:
                return cast(self.file_cfg[key])
            except ValueError as e:
                raise CliError(f"config key {key!r}: {e}")
        return default

    def seed(self) -> int:
        seed = self.get("seed", int, None)
        if seed is not None:
            return seed
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        return 0


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_state(path: Path, store: ProtectedStore) -> None:
    path.write_text(store.dump_text())


def _write_manifest(
    out_dir: Path,
    command: str,
    config_echo: dict[str, Any],
    seed: int,
    outputs: list[Path],
    started: str,
) -> Path:
    # The manifest lists every artifact the invocation wrote and is
    # itself written last, so a complete manifest implies a complete run.
    path = out_dir / "manifest.json"
    _write_json(
        path,
        {
            "tool": "msms",
            "version": __version__,
            "command": command,
            "config": config_echo,
            "seed": seed,
            "outputs": [str(p) for p in outputs],
            "started": started,
            "finished": _now(),
        },
    )
    return path


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain text table: first column left-aligned, the rest right-aligned."""
    cols = list(zip(*([headers] + rows)))
    widths = [max(len(cell) for cell in col) for col in cols]
    def fmt(row: list[str]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        return "  ".join(cells).rstrip()
    return "\n".join(fmt(list(row)) for row in [headers] + rows)


def _fmt_miss(miss: Optional[float]) -> str:
    return "n/a" if miss is None else f"{miss:.4f}"


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    started = _now()
    r = _Resolver(args)

    compare = r.get("compare", _parse_bool, False)
    out_dir = r.get("out", str, None)
    engine = r.get("engine", str, "fast")
    dump_state = r.get("dump_state", _parse_bool, False)
    try:
        base_cfg = SimulationConfig(
            n_ops=r.get("n", int, DEFAULT_N_OPS),
            word_width=r.get("width", int, DEFAULT_WORD_WIDTH),
            priority_fraction=r.get("p_priority", float, DEFAULT_PRIORITY_FRACTION),
            per_op_probability=r.get("error_prob", float, DEFAULT_ERROR_PROBABILITY),
            strategy=r.get("strategy", str, Strategy.ENHANCED.value),
            codec=r.get("codec", str, "parity"),
            seed=r.seed(),
            inject_check_zone=r.get("inject_check_zone", _parse_bool, False),
            priority_mode=r.get("priority_mode", str, "bernoulli"),
        )
    except (ValueError, KeyError) as e:
        raise CliError(str(e))
    if engine not in ("fast", "store"):
        raise CliError(f"unknown engine {engine!r}")
    if dump_state:
        if base_cfg.n_ops > DUMP_STATE_MAX_OPS:
            raise CliError(
                f"state dumps require the store engine; use --n <= {DUMP_STATE_MAX_OPS}"
            )
        if out_dir is None:
            raise CliError("--dump-state needs --out DIR to write the state files into")
        engine = "store"

    strategies = list(Strategy) if compare else [base_cfg.strategy]
    out_path = Path(out_dir) if out_dir else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    outputs: list[Path] = []
    table_rows: list[list[str]] = []
    totals_by_strategy: dict[str, dict] = {}
    # Through the module, so a wrapper on simulation.draw_plan sees the call.
    plan = simulation.draw_plan(base_cfg)
    for strategy in strategies:
        cfg = replace(base_cfg, strategy=strategy)
        sink: Optional[list] = [] if dump_state else None
        report, records = run_simulation(
            cfg, engine=engine, keep_records=out_path is not None, capture_store=sink, plan=plan
        )
        t = report.totals
        totals_by_strategy[strategy.value] = t.to_dict()
        table_rows.append(
            [
                strategy.value,
                str(t.total_steps),
                str(t.priority_ops),
                str(t.errors_injected),
                str(t.errors_detected),
                _fmt_miss(t.miss_rate),
            ]
        )
        if out_path is not None:
            csv_path = out_path / f"records_{strategy.value}.csv"
            with open(csv_path, "w") as fh:
                records.write_csv(fh)
            outputs.append(csv_path)
            report_path = out_path / f"report_{strategy.value}.json"
            _write_json(report_path, report.to_dict())
            outputs.append(report_path)
            if sink:
                state_path = out_path / f"state_{strategy.value}.json"
                _write_state(state_path, sink[0])
                outputs.append(state_path)
        # Free these records before the next strategy's run builds its own.
        del records

    print(
        f"n={base_cfg.n_ops} width={base_cfg.word_width} "
        f"p_priority={base_cfg.priority_fraction:g} codec={base_cfg.codec} "
        f"seed={base_cfg.seed} engine={engine}"
    )
    headers = ["strategy", "total_steps", "priority_ops", "errors_injected", "detected", "miss_rate"]
    print(_format_table(headers, table_rows))

    if compare:
        # The selective strategy's cost decomposes as the unprotected
        # total plus (priority count) x (B + 2); surface that identity.
        b = baseline_steps(base_cfg.word_width)
        none_t = totals_by_strategy[Strategy.NONE.value]
        enh_t = totals_by_strategy[Strategy.ENHANCED.value]
        identity_holds = (
            none_t["total_steps"] + enh_t["priority_ops"] * (b + 2)
            == enh_t["total_steps"]
        )
        print(
            f"enhanced == none + priority_ops x (B+2) with B={b}: "
            f"{'yes' if identity_holds else 'NO'}"
        )
        if out_path is not None:
            comparison_path = out_path / "comparison.json"
            _write_json(
                comparison_path,
                {
                    "tool": "msms",
                    "version": __version__,
                    "config": base_cfg.to_dict(),
                    "engine": engine,
                    "strategies": totals_by_strategy,
                    "enhanced_equals_none_plus_priority_extra": identity_holds,
                },
            )
            outputs.append(comparison_path)

    if out_path is not None:
        manifest = _write_manifest(
            out_path, "simulate", base_cfg.to_dict(), base_cfg.seed, outputs, started
        )
        for p in outputs + [manifest]:
            print(f"wrote {p}")
    return EXIT_OK


# -- cost-model ---------------------------------------------------------------


def cmd_cost_model(args: argparse.Namespace) -> int:
    started = _now()
    try:
        technique = CostDescriptor(time_multiplier=args.time_mult, space_multiplier=args.space_mult)
        result = theoretical_cost(
            args.p_priority,
            technique,
            base=(args.base_time, args.base_space),
            formula=args.formula,
        )
    except ValueError as e:
        raise CliError(str(e))

    payload = {"tool": "msms", "version": __version__, **result.to_dict()}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        def g(x) -> str:
            return f"{x:g}" if isinstance(x, float) else str(x)
        rows = [[row.system, g(d["time_units"]), g(d["space_units"])]
                for row, d in ((r, r.to_dict()) for r in result.rows())]
        print(_format_table(["system", "time_units", "space_units"], rows))
        print(f"P = {float(result.priority_fraction):g}, formula = {result.formula}")

    if args.out:
        out_path = Path(args.out)
        out_path.mkdir(parents=True, exist_ok=True)
        model_path = out_path / "cost_model.json"
        _write_json(model_path, payload)
        manifest = _write_manifest(
            out_path,
            "cost-model",
            {
                "p_priority": float(result.priority_fraction),
                "time_mult": args.time_mult,
                "space_mult": args.space_mult,
                "base": [args.base_time, args.base_space],
                "formula": args.formula,
            },
            0,
            [model_path],
            started,
        )
        print(f"wrote {model_path}")
        print(f"wrote {manifest}")
    return EXIT_OK


# -- attack -------------------------------------------------------------------


VICTIM_WORDS = 8  # words written into the victim page before the drill


def cmd_attack(args: argparse.Namespace) -> int:
    started = _now()
    r = _Resolver(args)

    strategy = r.get("strategy", str, Strategy.ENHANCED.value)
    codec = r.get("codec", str, "parity")
    width = r.get("width", int, DEFAULT_WORD_WIDTH)
    seed = r.seed()
    priority_victim = r.get("priority_victim", _parse_bool, False)
    protect_page = r.get("protect_page", _parse_bool, False)
    force_merge = r.get("force_merge", _parse_bool, False)
    out_dir = r.get("out", str, None)

    if protect_page and force_merge:
        raise CliError(
            "--protect-page excludes the victim from merging; "
            "--force-merge asserts co-location anyway. Pick one."
        )

    try:
        store = ProtectedStore(codec=codec, strategy=strategy, word_width=width)
        rng = RandomSource(seed)
    except (ValueError, KeyError) as e:
        raise CliError(str(e))

    # Victim materializes a page; the attacker knows its content, which
    # is the precondition of a dedup-then-hammer attack.
    victim_addr = Address(0, 0)
    content = []
    for offset in range(VICTIM_WORDS):
        word = rng.word(width)
        content.append(word)
        store.store_write(
            Address(0, offset),
            word,
            priority=priority_victim and offset == victim_addr.offset,
        )
    if protect_page:
        store.protect_page(victim_addr.page)

    outcome = flip_feng_shui_scenario(
        store, content, victim_addr, rng=rng, force_merge=force_merge
    )
    defended = not outcome.flip_applied or outcome.detected
    payload = {
        "tool": "msms",
        "version": __version__,
        "scenario": {
            "strategy": Strategy(strategy).value,
            "codec": store.codec.codec_id.value,
            "width": width,
            "seed": seed,
            "priority_victim": priority_victim,
            "protect_page": protect_page,
            "force_merge": force_merge,
        },
        "outcome": outcome.to_dict(),
        "defended": defended,
    }
    print(json.dumps(payload, indent=2))

    if out_dir:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        outcome_path = out_path / "attack_outcome.json"
        _write_json(outcome_path, payload)
        state_path = out_path / "state.json"
        _write_state(state_path, store)
        manifest = _write_manifest(
            out_path, "attack", payload["scenario"], seed, [outcome_path, state_path], started
        )
        print(f"wrote {outcome_path}", file=sys.stderr)
        print(f"wrote {state_path}", file=sys.stderr)
        print(f"wrote {manifest}", file=sys.stderr)
    return EXIT_OK if defended else EXIT_ATTACK_SUCCEEDED


# -- audit --------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    path = Path(args.state)
    if not path.exists():
        raise CliError(f"state dump not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON: {e}")

    if isinstance(data, list):
        entries = data
    else:
        try:
            entries = data["zones"]["log"]
            digest = data.get("metadata", {}).get("digest_algorithm", "sha256")
        except (KeyError, TypeError, AttributeError):
            raise CliError(f"{path} is not a recognizable state dump")
        if not isinstance(entries, list):
            raise CliError(f"{path} is not a recognizable state dump")
        if digest != "sha256":
            raise CliError(f"{path} names digest {digest!r}; audit chains are verified with sha256")

    if not entries:
        print("chain OK (genesis)")
        return EXIT_OK
    try:
        ok, broken = verify_entry_dicts(entries)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{path} holds malformed log entries: {e}")
    if ok:
        print(f"chain OK ({len(entries)} entries)")
        return EXIT_OK
    print(f"chain BROKEN at sequence {broken}")
    return EXIT_ERROR


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="msms",
        description="Protected memory store simulator: selective integrity "
        "checking, bit-flip fault injection, cost model, audit tooling.",
    )
    parser.add_argument("--version", action="version", version=f"msms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run the overhead/detection experiment")
    sim.add_argument("--config", help="key=value settings file")
    sim.add_argument("--n", type=int, help=f"operations per run (default {DEFAULT_N_OPS})")
    sim.add_argument("--width", type=int, help=f"word width in bits (default {DEFAULT_WORD_WIDTH})")
    sim.add_argument(
        "--p-priority", type=float,
        help=f"fraction of operations flagged priority (default {DEFAULT_PRIORITY_FRACTION})",
    )
    sim.add_argument(
        "--error-prob", type=float,
        help="per-operation fault probability (default tuned to 7.5 expected errors)",
    )
    sim.add_argument("--strategy", choices=_STRATEGIES, help="checking strategy (default enhanced)")
    sim.add_argument("--codec", choices=codec_names(), help="error-detecting codec (default parity)")
    sim.add_argument("--seed", type=int, help=f"run seed (default ${SEED_ENV_VAR} or 0)")
    sim.add_argument(
        "--compare", action="store_true", default=None,
        help="run all three strategies on the same operation stream",
    )
    sim.add_argument("--out", help="directory for CSV/JSON artifacts plus manifest")
    sim.add_argument(
        "--inject-check-zone", action="store_true", default=None,
        help="let faults land in stored check bits as well as data",
    )
    sim.add_argument(
        "--engine", choices=("fast", "store"),
        help="fast evaluates the plan; store drives every op through a real store, "
        "as the fast engine's oracle (default fast; --dump-state uses store)",
    )
    sim.add_argument(
        "--dump-state", action="store_true", default=None,
        help="write the final store state (store engine; small runs only)",
    )
    sim.add_argument(
        "--priority-mode", choices=("bernoulli", "quota"),
        help="per-op coin flip, or an exact priority count (default bernoulli)",
    )
    sim.set_defaults(func=cmd_simulate)

    cost = sub.add_parser("cost-model", help="print the theoretical time/space table")
    # The technique defaults to the dup codec's multipliers.
    dup = get_codec("dup").cost()
    cost.add_argument("--p-priority", type=float, default=DEFAULT_PRIORITY_FRACTION,
                      help=f"priority fraction P (default {DEFAULT_PRIORITY_FRACTION})")
    cost.add_argument("--time-mult", type=float, default=float(dup.time_multiplier),
                      help=f"technique time multiplier (default {dup.time_multiplier})")
    cost.add_argument("--space-mult", type=float, default=float(dup.space_multiplier),
                      help=f"technique space multiplier (default {dup.space_multiplier})")
    cost.add_argument("--base-time", type=float, default=100.0,
                      help="baseline time units (default 100)")
    cost.add_argument("--base-space", type=float, default=100.0,
                      help="baseline space units (default 100)")
    cost.add_argument("--formula", choices=("additive", "weighted"), default="additive",
                      help="combined-row formula (default additive)")
    cost.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    cost.add_argument("--out", help="directory for cost_model.json plus manifest")
    cost.set_defaults(func=cmd_cost_model)

    atk = sub.add_parser("attack", help="drill the dedup-then-hammer scenario")
    atk.add_argument("--config", help="key=value settings file")
    atk.add_argument("--strategy", choices=_STRATEGIES, help="checking strategy (default enhanced)")
    atk.add_argument("--codec", choices=codec_names(), help="error-detecting codec (default parity)")
    atk.add_argument("--width", type=int, help=f"word width in bits (default {DEFAULT_WORD_WIDTH})")
    atk.add_argument("--seed", type=int, help=f"scenario seed (default ${SEED_ENV_VAR} or 0)")
    atk.add_argument(
        "--priority-victim", action="store_true", default=None,
        help="victim word carries the priority flag",
    )
    atk.add_argument(
        "--protect-page", action="store_true", default=None,
        help="exempt the victim page from deduplication",
    )
    atk.add_argument(
        "--force-merge", action="store_true", default=None,
        help="apply the flip even if the dedup scan declined to merge",
    )
    atk.add_argument("--out", help="directory for outcome/state artifacts plus manifest")
    atk.set_defaults(func=cmd_attack)

    aud = sub.add_parser("audit", help="verify the audit chain in a state dump")
    aud.add_argument("state", help="state dump JSON from simulate --dump-state or attack --out")
    aud.set_defaults(func=cmd_audit)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as e:
        print(f"msms: error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
