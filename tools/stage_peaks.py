#!/usr/bin/env python3
"""Traced allocation peak of each stage of one nearfocus CLI call.

    python3 tools/stage_peaks.py run tools/corridor_weights.json
    python3 tools/stage_peaks.py layout corridor.json --threads 2

Runs ``nearfocus.cli.main`` in-process (from the ``src/`` beside this
script) with ``tracemalloc`` on, and resets the traced peak as each stage
of ``cli._Stages`` opens, so that a stage's peak is the most its own
work held on top of what the stages before it left allocated.  A stage
run more than once keeps its highest peak.  Prints one JSON line: the
exit code, the sources, and per stage the peak in MB (2^20 B) and in
bytes per source.  Artifacts go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def stage_peaks(subcommand: str, scenario, outdir, threads: int = 1) -> dict:
    """Exit code, sources and each stage's traced peak in bytes, of one
    CLI call that writes its artifacts to outdir."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from nearfocus import cli

    peaks: dict = {}
    sources = 0
    stage = cli._Stages.__call__

    @contextlib.contextmanager
    def traced(self, name):
        nonlocal sources
        tracemalloc.reset_peak()
        with stage(self, name):
            yield
        peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
        sources = self.counters["sources"]

    cli._Stages.__call__ = traced
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([subcommand, "--scenario", str(scenario), "--out", str(outdir),
                             "--threads", str(threads)])
    finally:
        tracemalloc.stop()
        cli._Stages.__call__ = stage
    return {"exit": code, "sources": sources, "peak_bytes": peaks}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("subcommand", choices=("run", "validate", "analytic", "layout"))
    p.add_argument("scenario", type=Path)
    p.add_argument("--threads", type=int, default=1)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="stage-peaks-") as tmp:
        result = stage_peaks(args.subcommand, args.scenario, tmp, args.threads)
    n = result["sources"]
    print(json.dumps({
        "exit": result["exit"],
        "sources": n,
        "stages": {name: {"peak_mb": peak / 2.0 ** 20,
                          "bytes_per_source": peak / n if n else None}
                   for name, peak in result.pop("peak_bytes").items()},
    }, sort_keys=True))
    return result["exit"]


if __name__ == "__main__":
    raise SystemExit(main())
