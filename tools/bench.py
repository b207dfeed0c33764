#!/usr/bin/env python3
"""Stage timings and peaks of nearfocus runs at fixed scales, from their manifests.

    python3 tools/bench.py --out BENCH_n.json
    python3 tools/bench.py --baseline ../parent-checkout --runs 7 --out BENCH_n.json

Runs ``python3 -m nearfocus.cli run`` in a fresh process for every run of
every row: the baseline ring's default 141-point cut
(``tools/ring_default_cut.json``) and its 59 x 59 plane
(``tools/ring_plane.json``), and the full corridor's default 141-point
x-cut (``tools/corridor_cut.json``) and 1 cm cut
(``tools/corridor_weights.json``), each at 1 and 2 threads.
With ``--baseline``, each run of a row is made on both checkouts, the
first side alternating from run to run.  Every child takes its package
from its checkout's ``src/``, one BLAS thread, and bytecode cached under
a ``PYTHONPYCACHEPREFIX`` that this script makes, warms with one untimed
import per checkout and removes at the end, so no timed run compiles the
package.  Writes one JSON document: per row, thread count and checkout,
the commit, the runs that failed, and the median and range of the
manifest's wall time, peak resident memory and per-stage times and
peaks, with its kernel points and pairs; plus each run's process wall
time, interpreter start and import included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("ring_default_cut", "ring_plane", "corridor_cut", "corridor_weights")
THREADS = (1, 2)


def _commit(tree: Path) -> str:
    """The checkout's HEAD, with "+dirty" where its files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _env(tree: Path, pycache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(pycache),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run(tree: Path, scenario: Path, threads: int, env: dict, outdir: Path):
    """The manifest and process wall time of one fresh-process run, or
    None for the manifest where the run failed."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nearfocus.cli", "run", "--scenario",
                           str(scenario), "--out", str(outdir), "--threads", str(threads)],
                          capture_output=True, text=True, env=env, cwd=tree)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return None, elapsed
    return json.loads((outdir / "manifest.json").read_text()), elapsed


def _spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def _summary(commit: str, manifests: list, process_s: list) -> dict:
    done = [m for m in manifests if m is not None]
    out = {"commit": commit, "runs": len(manifests), "failed": len(manifests) - len(done),
           "process_s": _spread(process_s)}
    if not done:
        return out
    stages = sorted({name for m in done for name in m["timings_s"]})
    out.update(
        wall_s=_spread([m["wall_time_s"] for m in done]),
        peak_rss_mb=_spread([m["peak_rss_mb"] for m in done]),
        timings_s={name: _spread([m["timings_s"][name] for m in done]) for name in stages},
        stage_peak_rss_mb={name: _spread([m["stage_peak_rss_mb"][name] for m in done])
                           for name in stages},
        # the same for every run of a checkout: a list shows where they differ
        **{key: sorted({m["counters"][key] for m in done}) for key in
           ("sources", "field_nodes", "kernel_pairs")},
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    p.add_argument("--baseline", type=Path, help="a second checkout to alternate with")
    p.add_argument("--runs", type=int, default=5, help="fresh processes per row, thread "
                   "count and checkout (at least 5)")
    args = p.parse_args(argv)
    if args.runs < 5:
        p.error("--runs must be at least 5")
    trees = {"this": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    commits = {side: _commit(tree) for side, tree in trees.items()}
    rows = []
    with tempfile.TemporaryDirectory(prefix="nearfocus-bench-") as tmp:
        pycache = Path(tmp) / "pycache"
        envs = {side: _env(tree, pycache) for side, tree in trees.items()}
        for side, tree in trees.items():
            subprocess.run([sys.executable, "-c", "import nearfocus.cli"], env=envs[side],
                           cwd=tree, check=True)
        for row in ROWS:
            scenario = ROOT / "tools" / f"{row}.json"
            for threads in THREADS:
                manifests = {side: [] for side in trees}
                process_s = {side: [] for side in trees}
                for i in range(args.runs):
                    order = list(trees) if i % 2 == 0 else list(reversed(trees))
                    for side in order:
                        outdir = Path(tmp) / f"{side}-{row}-{threads}-{i}"
                        manifest, elapsed = _run(trees[side], scenario, threads,
                                                 envs[side], outdir)
                        manifests[side].append(manifest)
                        process_s[side].append(elapsed)
                rows.append({"row": row, "scenario": f"tools/{row}.json", "threads": threads,
                             **{side: _summary(commits[side], manifests[side], process_s[side])
                                for side in trees}})
                print(f"bench: {row} at {threads} threads done", file=sys.stderr)
    document = {
        "tool": "tools/bench.py",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "system": platform.system()},
        "runs_per_cell": args.runs,
        "order": "fresh process per run; with a baseline, the first side alternates",
        "bytecode": "cached under a PYTHONPYCACHEPREFIX made by this script and warmed by "
                    "one untimed import per checkout; PYTHONDONTWRITEBYTECODE unset",
        "commits": commits,
        "rows": rows,
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 1 if any(r[side].get("failed") for r in rows for side in trees) else 0


if __name__ == "__main__":
    raise SystemExit(main())
