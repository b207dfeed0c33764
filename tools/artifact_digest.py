#!/usr/bin/env python3
"""SHA-256 of every artifact of the benchmark's invocations, for same-bytes checks.

    python3 tools/artifact_digest.py --workload scenario_mix --seed 0 7 --threads 1 2
    python3 tools/artifact_digest.py --root ../other-checkout --workload corridor_weights
    python3 tools/artifact_digest.py --call layout corridor.json

Runs ``nearfocus.cli.main`` in-process for every invocation of the named
workloads (``perfbench/workloads.py``, read and not changed) at every
seed and thread count, then for every ``--call SUBCOMMAND SCENARIO`` at
every thread count.  The package and the workloads are loaded from the
checkout ``--root`` (by default the one holding this script), so the
same script digests two checkouts.  Prints one JSON document: per run,
the exit code, the SHA-256 of every file it wrote except
``manifest.json``, which holds the wall time, and for a run that exits
non-zero its stdout line (a refusal's error or a failed validation's
summary), with the temporary output directory written as ``<out>``.  Two
checkouts give the same results when their documents are equal.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py: the CLI's workers are the only
# compute threads
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and perfbench/workloads.py are used")
    p.add_argument("--workload", action="append", default=[],
                   help="workload name from perfbench/workloads.py (repeatable)")
    p.add_argument("--seed", type=int, nargs="+", default=[0])
    p.add_argument("--threads", type=int, nargs="+", default=[1])
    p.add_argument("--call", nargs=2, action="append", default=[],
                   metavar=("SUBCOMMAND", "SCENARIO"),
                   help="one more invocation outside the workloads (repeatable)")
    return p.parse_args(argv)


def _load_workloads(root: Path):
    path = root / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("artifact_digest_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _digest(main, subcommand: str, scenario_path: Path, threads: int, outdir: Path) -> dict:
    """Exit code, artifact digests and, unless it exits 0, the stdout line of
    one CLI call; the artifacts are removed."""
    outdir.mkdir()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([subcommand, "--scenario", str(scenario_path), "--out", str(outdir),
                     "--threads", str(threads)])
    sha = {}
    for path in sorted(outdir.iterdir()):
        if path.name != "manifest.json":
            digest = hashlib.sha256()
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    digest.update(chunk)
            sha[path.name] = digest.hexdigest()
        path.unlink()
    outdir.rmdir()
    if code == 0:
        return {"exit": code, "sha256": sha}
    # the directory as the line spells it, JSON-escaped
    line = stdout.getvalue().strip().replace(json.dumps(str(outdir))[1:-1], "<out>")
    return {"exit": code, "sha256": sha, "stdout": line}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from nearfocus.cli import main as cli_main

    workloads = _load_workloads(root)
    unknown = [name for name in args.workload if name not in workloads]
    if unknown:
        print(f"artifact_digest: unknown workloads {unknown}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    runs = {}
    with tempfile.TemporaryDirectory(prefix="artifact-digest-") as tmp:
        work = Path(tmp)
        calls = []  # (key, subcommand, scenario file, threads)
        for name in args.workload:
            for seed in args.seed:
                workload = workloads[name](seed)
                for inv in workload.invocations:
                    path = work / f"{name}-{seed}-{inv.name}.json"
                    path.write_text(json.dumps(inv.scenario, sort_keys=True))
                    for threads in args.threads:
                        calls.append((f"{name}/seed{seed}/threads{threads}/{inv.name}",
                                      inv.subcommand, path, threads))
        for subcommand, scenario in args.call:
            for threads in args.threads:
                calls.append((f"call/{subcommand}/{scenario}/threads{threads}",
                              subcommand, Path(scenario), threads))
        for key, subcommand, path, threads in calls:
            runs[key] = _digest(cli_main, subcommand, path, threads, work / "out")
    print(json.dumps(runs, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
