"""Command-line front end: batch runs, cost tables, attack drills, audits.

Four subcommands cover the workflow.  ``simulate`` runs the
overhead/detection experiment and emits per-operation CSVs plus JSON
reports; ``cost-model`` prints the closed-form time/space comparison;
``attack`` drills the dedup-then-hammer scenario against a live store
and reports whether the flip was prevented or caught; ``audit``
re-verifies a dumped store's hash-chained log and its details' schema.

Settings resolve in three layers: built-in defaults, then a key=value
config file (``--config``), then explicit flags.  A config key is the
name of one of the subcommand's flags, set at most once, and its value
is converted and checked exactly as that flag's would be; every error in
the file names ``path:line``.  ``MSMS_SEED`` in the environment supplies
the seed when neither flag nor file does.

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
from typing import Any, Optional

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
    step_cost,
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
        key = key.strip().lower().replace("-", "_")
        if key in out:
            first = out[key][0]
            raise CliError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {first})")
        out[key] = (lineno, value.strip())
    return out


def _apply_config(parser: argparse.ArgumentParser, path: Path) -> None:
    """Make a config file's settings the subcommand's defaults.

    Each key must name one of the subcommand's options.  Its value is
    converted with that option's type (a boolean for an on/off flag) and
    checked against its choices, so flags parsed afterwards still win.
    """
    # argparse lists a parser's options only in its private _actions.
    options = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, (lineno, text) in load_config_file(path).items():
        action = options.get(key)
        if action is None:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        cast = _parse_bool if action.nargs == 0 else action.type or str
        try:
            value = cast(text)
        except ValueError as e:
            raise CliError(f"{path}:{lineno}: {key}: {e}")
        if action.choices is not None and value not in action.choices:
            raise CliError(f"{path}:{lineno}: unknown {key} {value!r}")
        defaults[key] = value
    parser.set_defaults(**defaults)


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


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
    base_cfg = SimulationConfig(
        n_ops=args.n,
        word_width=args.width,
        priority_fraction=args.p_priority,
        per_op_probability=args.error_prob,
        strategy=args.strategy,
        codec=args.codec,
        seed=_seed(args),
        inject_check_zone=args.inject_check_zone,
        priority_mode=args.priority_mode,
    )
    engine = args.engine
    if args.dump_state:
        if base_cfg.n_ops > DUMP_STATE_MAX_OPS:
            raise CliError(
                f"state dumps require the store engine; use --n <= {DUMP_STATE_MAX_OPS}"
            )
        if not args.out:
            raise CliError("--dump-state needs --out DIR to write the state files into")
        engine = "store"

    strategies = list(Strategy) if args.compare else [base_cfg.strategy]
    out_path = Path(args.out) if args.out else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    outputs: list[Path] = []
    table_rows: list[list[str]] = []
    totals_by_strategy: dict[str, dict] = {}
    # Through the module, so a wrapper on simulation.draw_plan sees the call.
    plan = simulation.draw_plan(base_cfg)
    for strategy in strategies:
        cfg = replace(base_cfg, strategy=strategy)
        sink: Optional[list] = [] if args.dump_state else None
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
            with open(csv_path, "wb") as fh:
                records.write_csv(fh)
            outputs.append(csv_path)
            report_path = out_path / f"report_{strategy.value}.json"
            _write_json(report_path, report.to_dict())
            outputs.append(report_path)
            if sink:
                state_path = out_path / f"state_{strategy.value}.json"
                state_path.write_text(sink[0].dump_text())
                outputs.append(state_path)

    print(
        f"n={base_cfg.n_ops} width={base_cfg.word_width} "
        f"p_priority={base_cfg.priority_fraction:g} codec={base_cfg.codec} "
        f"seed={base_cfg.seed} engine={engine}"
    )
    headers = ["strategy", "total_steps", "priority_ops", "errors_injected", "detected", "miss_rate"]
    print(_format_table(headers, table_rows))

    if args.compare:
        # The selective strategy's cost decomposes as the unprotected total plus
        # (priority count) x (B + 2), a checked op's extra steps; surface that identity.
        w = base_cfg.word_width
        extra = step_cost(Strategy.ENHANCED, True, w) - step_cost(Strategy.NONE, True, w)
        none_t = totals_by_strategy[Strategy.NONE.value]
        enh_t = totals_by_strategy[Strategy.ENHANCED.value]
        identity_holds = (
            none_t["total_steps"] + enh_t["priority_ops"] * extra == enh_t["total_steps"]
        )
        print(
            f"enhanced == none + priority_ops x (B+2) with B={baseline_steps(w)}: "
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
    technique = CostDescriptor(time_multiplier=args.time_mult, space_multiplier=args.space_mult)
    result = theoretical_cost(
        args.p_priority,
        technique,
        base=(args.base_time, args.base_space),
        formula=args.formula,
    )

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
    seed = _seed(args)
    if args.protect_page and args.force_merge:
        raise CliError(
            "--protect-page excludes the victim from merging; "
            "--force-merge asserts co-location anyway. Pick one."
        )

    store = ProtectedStore(codec=args.codec, strategy=args.strategy, word_width=args.width)
    rng = RandomSource(seed)

    # Victim materializes a page; the attacker knows its content, which
    # is the precondition of a dedup-then-hammer attack.
    victim_addr = Address(0, 0)
    content = []
    for offset in range(VICTIM_WORDS):
        word = rng.word(args.width)
        content.append(word)
        store.store_write(
            Address(0, offset),
            word,
            priority=args.priority_victim and offset == victim_addr.offset,
        )
    if args.protect_page:
        store.protect_page(victim_addr.page)

    outcome = flip_feng_shui_scenario(
        store, content, victim_addr, rng=rng, force_merge=args.force_merge
    )
    defended = not outcome.flip_applied or outcome.detected
    payload = {
        "tool": "msms",
        "version": __version__,
        "scenario": {
            "strategy": args.strategy,
            "codec": store.codec.codec_id.value,
            "width": args.width,
            "seed": seed,
            "priority_victim": args.priority_victim,
            "protect_page": args.protect_page,
            "force_merge": args.force_merge,
        },
        "outcome": outcome.to_dict(),
        "defended": defended,
    }
    print(json.dumps(payload, indent=2))

    if args.out:
        out_path = Path(args.out)
        out_path.mkdir(parents=True, exist_ok=True)
        outcome_path = out_path / "attack_outcome.json"
        _write_json(outcome_path, payload)
        state_path = out_path / "state.json"
        state_path.write_text(store.dump_text())
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
        verdict = verify_entry_dicts(entries)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{path} holds malformed log entries: {e}")
    if not verdict[0]:
        print(f"chain BROKEN at sequence {verdict[1]}")
        return EXIT_ERROR
    print(f"chain OK ({len(entries)} entries)")
    if verdict.off_schema is None:
        return EXIT_OK
    event, detail = entries[verdict.off_schema]["event"], entries[verdict.off_schema]["detail"]
    print(f"detail OFF SCHEMA at sequence {verdict.off_schema}: "
          f"event {json.dumps(event)}, keys {json.dumps(list(detail))}")
    return EXIT_ERROR


# -- parser -------------------------------------------------------------------


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """The settings that simulate and attack share, with their one default each."""
    p.add_argument("--config", help="key=value settings file; its keys are these flags' names")
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.ENHANCED.value, help="checking strategy (default %(default)s)")
    p.add_argument("--codec", choices=codec_names(), default="parity",
                   help="error-detecting codec (default %(default)s)")
    p.add_argument("--width", type=int, default=DEFAULT_WORD_WIDTH,
                   help="word width in bits (default %(default)s)")
    p.add_argument("--seed", type=int, help=f"seed (default ${SEED_ENV_VAR} or 0)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each subcommand's own parser by name."""
    parser = _Parser(
        prog="msms",
        description="Protected memory store simulator: selective integrity "
        "checking, bit-flip fault injection, cost model, audit tooling.",
    )
    parser.add_argument("--version", action="version", version=f"msms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run the overhead/detection experiment")
    _add_shared_flags(sim)
    sim.add_argument("--n", type=int, default=DEFAULT_N_OPS,
                     help="operations per run (default %(default)s)")
    sim.add_argument("--p-priority", type=float, default=DEFAULT_PRIORITY_FRACTION,
                     help="fraction of operations flagged priority (default %(default)s)")
    sim.add_argument(
        "--error-prob", type=float, default=DEFAULT_ERROR_PROBABILITY,
        help="per-operation fault probability (default %(default).4g, 7.5 expected errors)",
    )
    sim.add_argument(
        "--compare", action="store_true",
        help="run all three strategies on the same operation stream",
    )
    sim.add_argument("--out", help="directory for CSV/JSON artifacts plus manifest")
    sim.add_argument(
        "--inject-check-zone", action="store_true",
        help="let faults land in stored check bits as well as data",
    )
    sim.add_argument(
        "--engine", choices=("fast", "store"), default="fast",
        help="fast evaluates the plan; store drives every op through a real store, "
        "as the fast engine's oracle (default %(default)s; --dump-state uses store)",
    )
    sim.add_argument(
        "--dump-state", action="store_true",
        help="write the final store state (store engine; small runs only)",
    )
    sim.add_argument(
        "--priority-mode", choices=("bernoulli", "quota"), default="bernoulli",
        help="per-op coin flip, or an exact priority count (default %(default)s)",
    )
    sim.set_defaults(func=cmd_simulate)

    cost = sub.add_parser("cost-model", help="print the theoretical time/space table")
    # The technique defaults to the dup codec's multipliers.
    dup = get_codec("dup").cost()
    cost.add_argument("--p-priority", type=float, default=DEFAULT_PRIORITY_FRACTION,
                      help="priority fraction P (default %(default)s)")
    cost.add_argument("--time-mult", type=float, default=float(dup.time_multiplier),
                      help="technique time multiplier (default %(default)s)")
    cost.add_argument("--space-mult", type=float, default=float(dup.space_multiplier),
                      help="technique space multiplier (default %(default)s)")
    cost.add_argument("--base-time", type=float, default=100.0,
                      help="baseline time units (default %(default)s)")
    cost.add_argument("--base-space", type=float, default=100.0,
                      help="baseline space units (default %(default)s)")
    cost.add_argument("--formula", choices=("additive", "weighted"), default="additive",
                      help="combined-row formula (default %(default)s)")
    cost.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    cost.add_argument("--out", help="directory for cost_model.json plus manifest")
    cost.set_defaults(func=cmd_cost_model)

    atk = sub.add_parser("attack", help="drill the dedup-then-hammer scenario")
    _add_shared_flags(atk)
    atk.add_argument("--priority-victim", action="store_true",
                     help="victim word carries the priority flag")
    atk.add_argument("--protect-page", action="store_true",
                     help="exempt the victim page from deduplication")
    atk.add_argument("--force-merge", action="store_true",
                     help="apply the flip even if the dedup scan declined to merge")
    atk.add_argument("--out", help="directory for outcome/state artifacts plus manifest")
    atk.set_defaults(func=cmd_attack)

    aud = sub.add_parser("audit", help="verify the audit chain in a state dump")
    aud.add_argument("state", help="state dump JSON from simulate --dump-state or attack --out")
    aud.set_defaults(func=cmd_audit)

    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The file's settings become defaults, so the second parse lets flags win.
            _apply_config(commands[args.command], Path(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as e:
        print(f"msms: error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
