#!/usr/bin/env python3
"""Run one ``msms`` CLI command with the host sampler or the tracer on.

Usage: python3 perfbench/child.py sample|trace OUT_JSON <msms arguments...>

The measured counterpart of ``python3 -m msms``, for workloads that run
the CLI as a subprocess.  It takes host-speed samples while the command
runs (see sampling.py), and with ``trace`` also records spans (see
tracer.py).  The samples and span stats go to OUT_JSON; the exit status
is the command's.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import msms.cli  # noqa: E402

import sampling  # noqa: E402
import tracer as tracing  # noqa: E402


def main() -> int:
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    sampler = sampling.HostSampler()
    tr = None
    if mode == "trace":
        tr = tracing.Tracer(sampler.clock, sampler.cpu_clock)
        tracing.install(tr)
    sampler.start()
    status = msms.cli.main(argv)
    sampler.stop()
    out.write_text(json.dumps({"samples": sampler.to_state(), "trace": tr and tr.to_state()}))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
