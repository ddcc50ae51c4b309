"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of each msms module from outside the
package: it replaces the attribute on the module or class (and on every
module that imported the name by value), so nothing under ``src/msms``
changes.  Each wrapped call is a span.  Spans nest through a stack, so a
span's self time is its duration minus the time of the spans it caused.
Stats are aggregated as calls arrive rather than kept span by span,
which keeps the traced run's memory close to the untraced one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# Spans whose per-call durations are kept for percentiles.
PERCENTILE_SPANS = ("store.store_write", "store.store_read")

FULL_SCALE_ROWS = 4_729_000


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.process_time) -> None:
        self.clock, self.cpu_clock = clock, cpu_clock
        self.active = True
        # name -> [calls, total_s, self_s, cpu_s]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = {n: [] for n in PERCENTILE_SPANS}
        self._stack: list[float] = []  # child time accumulated per open span

    def wrap(
        self,
        name: Any,
        fn: Callable,
        cpu: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's positional
        arguments.  ``before(args)`` runs ahead of the span and its value
        is handed to ``after(args, result, value)``, which runs once the
        span has closed; both feed counters and are not timed.
        """
        stack = self._stack
        perf, proc = self.clock, self.cpu_clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            state = before(args) if before else None
            stack.append(0.0)
            c0 = proc() if cpu else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                cdur = proc() - c0 if cpu else 0.0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = self.stats[span]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
                st[3] += cdur
                if span in self.durations:
                    self.durations[span].append(dur)
            if after:
                after(args, result, state)
            return result

        return wrapper

    def to_state(self) -> dict:
        return {"stats": dict(self.stats), "counters": dict(self.counters), "durations": self.durations}

    def merge(self, state: dict) -> None:
        """Add the stats of a tracer that ran in another process."""
        for span, row in state["stats"].items():
            mine = self.stats[span]
            for i, v in enumerate(row):
                mine[i] += v
        for key, v in state["counters"].items():
            self.counters[key] += v
        for span, ds in state["durations"].items():
            self.durations.setdefault(span, []).extend(ds)

    def calls(self, span: str) -> int:
        return int(self.stats[span][0]) if span in self.stats else 0

    def total_s(self, span: str) -> float:
        return self.stats[span][1] if span in self.stats else 0.0

    def self_s(self, span: str) -> float:
        return self.stats[span][2] if span in self.stats else 0.0

    def cpu_s(self, span: str) -> float:
        return self.stats[span][3] if span in self.stats else 0.0

    def percentile_us(self, span: str, q: float) -> float:
        ds = sorted(self.durations.get(span, ()))
        if not ds:
            return 0.0
        return ds[min(len(ds) - 1, int(q * len(ds)))] * 1e6


def _dedup_span(args) -> str:
    # Label the scan by store size: 1,002 live pages -> "1k".
    return f"store.dedup_scan.{round(len(args[0].live_physical_pages()) / 1000)}k"


class _Counting:
    """Iterable that counts what passes through, without materialising it."""

    def __init__(self, it, tracer: Tracer, key: str):
        self.it, self.tracer, self.key = it, tracer, key

    def __iter__(self):
        for item in self.it:
            self.tracer.counters[self.key] += 1
            yield item


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap msms's public functions in spans; returns a function that undoes it."""
    import msms
    from msms import cli, codecs, faults, simulation, store

    undo: list[tuple[Any, str, Any]] = []

    def patch(owners, attr, wrapped):
        for owner in owners:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    c = tracer.counters

    # simulation
    def csv_after(args, _result, pos0):
        c["simulation.write_csv.rows"] += len(args[0])
        c["simulation.write_csv.bytes"] += args[1].tell() - pos0

    patch(
        [simulation.RecordSet],
        "write_csv",
        tracer.wrap(
            "simulation.write_csv",
            simulation.RecordSet.write_csv,
            cpu=True,
            before=lambda args: args[1].tell(),
            after=csv_after,
        ),
    )
    patch([simulation, msms], "draw_plan", tracer.wrap("simulation.draw_plan", simulation.draw_plan))
    patch(
        [simulation, msms, cli],
        "run_simulation",
        tracer.wrap("simulation.run_simulation", simulation.run_simulation),
    )
    patch(
        [simulation, msms],
        "run_comparison",
        tracer.wrap("simulation.run_comparison", simulation.run_comparison),
    )

    # store
    cls = store.ProtectedStore
    patch([cls], "store_write", tracer.wrap("store.store_write", cls.store_write))
    patch([cls], "store_read", tracer.wrap("store.store_read", cls.store_read))
    patch([cls], "dump_state", tracer.wrap("store.dump_state", cls.dump_state))

    def dedup_before(args):
        return len(args[0].live_physical_pages())

    def dedup_after(_args, report, pages):
        c["store.dedup_scan.merges"] += report.pairs_merged
        c["store.dedup_scan.pages"] += pages

    patch(
        [cls],
        "dedup_scan",
        tracer.wrap(_dedup_span, cls.dedup_scan, before=dedup_before, after=dedup_after),
    )
    patch([store.AuditLog], "append", tracer.wrap("store.audit_append", store.AuditLog.append))

    verify_span = tracer.wrap("store.verify_entry_dicts", store.verify_entry_dicts)

    @functools.wraps(store.verify_entry_dicts)
    def verify_counted(entries, *args, **kwargs):
        if tracer.active:
            if hasattr(entries, "__len__"):
                c["store.verify_entry_dicts.entries"] += len(entries)
            else:
                entries = _Counting(entries, tracer, "store.verify_entry_dicts.entries")
        return verify_span(entries, *args, **kwargs)

    patch([store, msms, cli], "verify_entry_dicts", verify_counted)

    # codecs: every concrete codec class defines its own encode/verify.
    def verify_after(_args, result, _state):
        if not result.valid:
            c["codecs.verify.invalid"] += 1

    for codec_cls in (codecs.ParityCodec, codecs.BergerCodec, codecs.DuplicationCodec, codecs.NullCodec):
        patch([codec_cls], "encode", tracer.wrap("codecs.encode", codec_cls.encode))
        patch(
            [codec_cls],
            "verify",
            tracer.wrap("codecs.verify", codec_cls.verify, after=verify_after),
        )

    # faults
    def scenario_after(_args, outcome, _state):
        if not outcome.flip_applied or outcome.detected:
            c["faults.defended"] += 1

    patch(
        [faults, msms, cli],
        "flip_feng_shui_scenario",
        tracer.wrap("faults.scenario", faults.flip_feng_shui_scenario, after=scenario_after),
    )

    # cli
    patch([cli], "main", tracer.wrap("cli.main", cli.main))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tr: Tracer) -> dict[str, dict]:
    """Per-layer metrics of one traced pass, by name with unit, in host
    time; the caller adds ``trace.overhead_s``."""
    c = tr.counters
    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    put("simulation.write_csv.self_s", tr.self_s("simulation.write_csv"), "s")
    put("simulation.write_csv.cpu_s", tr.cpu_s("simulation.write_csv"), "s")
    put("simulation.write_csv.rows", c["simulation.write_csv.rows"], "count")
    put("simulation.write_csv.bytes", c["simulation.write_csv.bytes"], "bytes")
    put("simulation.draw_plan.calls", tr.calls("simulation.draw_plan"), "count")
    put("simulation.draw_plan.self_s", tr.self_s("simulation.draw_plan"), "s")
    put("simulation.run_simulation.self_s", tr.self_s("simulation.run_simulation"), "s")
    put("simulation.run_comparison.calls", tr.calls("simulation.run_comparison"), "count")
    for op in ("store_write", "store_read"):
        span = f"store.{op}"
        put(f"{span}.calls", tr.calls(span), "count")
        put(f"{span}.self_s", tr.self_s(span), "s")
        put(f"{span}.p50_us", tr.percentile_us(span, 0.50), "us")
        put(f"{span}.p99_us", tr.percentile_us(span, 0.99), "us")
    put("store.audit_append.calls", tr.calls("store.audit_append"), "count")
    put("store.audit_append.self_s", tr.self_s("store.audit_append"), "s")
    writes = tr.calls("store.store_write")
    put("store.audit_entries_per_op", tr.calls("store.audit_append") / writes if writes else 0.0, "count")
    put("store.dump_state.self_s", tr.self_s("store.dump_state"), "s")
    put("store.verify_entry_dicts.self_s", tr.self_s("store.verify_entry_dicts"), "s")
    put("store.verify_entry_dicts.entries", c["store.verify_entry_dicts.entries"], "count")
    for size in ("1k", "2k", "4k"):
        put(f"store.dedup_scan.{size}.self_s", tr.self_s(f"store.dedup_scan.{size}"), "s")
    pages = c["store.dedup_scan.pages"]
    put("store.dedup_scan.merges", c["store.dedup_scan.merges"], "count")
    put("store.dedup_scan.merge_ratio", c["store.dedup_scan.merges"] / pages if pages else 0.0, "ratio")
    put("codecs.encode.calls", tr.calls("codecs.encode"), "count")
    put("codecs.encode.self_s", tr.self_s("codecs.encode"), "s")
    put("codecs.verify.calls", tr.calls("codecs.verify"), "count")
    put("codecs.verify.self_s", tr.self_s("codecs.verify"), "s")
    put("codecs.verify.invalid", c["codecs.verify.invalid"], "count")
    put("faults.scenario.calls", tr.calls("faults.scenario"), "count")
    put("faults.scenario.self_s", tr.self_s("faults.scenario"), "s")
    put("faults.defended", c["faults.defended"], "count")
    put("cli.main.calls", tr.calls("cli.main"), "count")
    put("cli.main.self_s", tr.self_s("cli.main"), "s")
    return m


# The baseline table in ROADMAP.md: (label, baseline, unit, workloads
# that exercise the layer at the baseline's scale).
BASELINE = (
    ("write_csv per 4.729M rows", 4.70, "s", ("experiment_out",)),
    ("store engine per op", 49.0, "us", ("store_oracle",)),
    ("verify_entry_dicts per entry", 11.0, "us", ("store_oracle", "dedup_attack")),
    ("draw_plan per full-scale call", 0.14, "s", ("experiment_out", "seed_sweep")),
    ("dedup_scan at 2k pages", 0.26, "s", ("dedup_attack",)),
    ("dedup_scan at 4k pages", 0.77, "s", ("dedup_attack",)),
)


def baseline_rows(tr: Tracer, workload: str) -> list[tuple[str, float, str, float]]:
    """The baseline rows a workload measures, beside the measured value."""

    def per(total: float, n: float, scale: float = 1.0) -> float:
        return total / n * scale if n else float("nan")

    measured = (
        per(tr.total_s("simulation.write_csv"), tr.counters["simulation.write_csv.rows"], FULL_SCALE_ROWS),
        # run_simulation covers both engines; the fast engine's share of
        # a 20k-op run is a few milliseconds.
        per(tr.total_s("simulation.run_simulation"), tr.calls("store.store_write"), 1e6),
        per(tr.total_s("store.verify_entry_dicts"), tr.counters["store.verify_entry_dicts.entries"], 1e6),
        per(tr.total_s("simulation.draw_plan"), tr.calls("simulation.draw_plan")),
        per(tr.total_s("store.dedup_scan.2k"), tr.calls("store.dedup_scan.2k")),
        per(tr.total_s("store.dedup_scan.4k"), tr.calls("store.dedup_scan.4k")),
    )
    return [
        (label, base, unit, value)
        for (label, base, unit, workloads), value in zip(BASELINE, measured)
        if workload in workloads
    ]
