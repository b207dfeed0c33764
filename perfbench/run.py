#!/usr/bin/env python3
"""nearfocus benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  Each pass calls ``nearfocus.cli.main(argv)`` once per
invocation of the workload, one after another, and every invocation goes
through the correctness gate (``gate.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds per warm pass, tracing off;
* ``setup_s``: median seconds from a fresh interpreter until
  ``nearfocus.cli`` is imported, over several fresh interpreters;
* ``peak_rss_mb``: peak resident memory of this process, which runs only
  the one workload.

``--trace 1`` reports the per-layer metrics from passes traced by
``tracing.py``, alternated with untraced passes so that ``trace.overhead_rel``
compares like with like.

Both modes start with an untimed warm-up pass, and end with a pass at the
other thread count (1 or 2) whose artifacts, manifests aside, must be
byte-identical to those of the last timed pass.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` counts gated invocations plus the determinism
comparison.
"""

from __future__ import annotations

import os

# Pin every BLAS pool to one thread before numpy loads, so that a process
# runs at most --threads compute threads (the CLI's own field workers).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 4          # timed passes per run, however long they take
MIN_TRACED_PASSES = 2   # of each kind (traced, untraced) in a traced run
SETUP_SAMPLES = 7


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> tuple[float, list[float]]:
    """Median wall seconds of fresh interpreters that import nearfocus.cli.

    One untimed import first writes the bytecode caches, as a user's
    first run would.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import nearfocus.cli"]
    subprocess.run(cmd, env=env, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        # no timeout: with one, the wait polls at 50 ms steps
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        # the ceiling stops git from reporting an enclosing repository's SHA
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_pin": BLAS_PIN}


class Client:
    """Runs passes of one workload and gates every invocation."""

    def __init__(self, workload, workdir: Path, frozen):
        from nearfocus import cli

        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.frozen = frozen
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.scenario_files = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for inv in workload.invocations:
            path = workdir / f"{inv.name}.json"
            path.write_text(json.dumps(inv.scenario, sort_keys=True))
            self.scenario_files[inv.name] = path

    def run_pass(self, tag: str, threads: int) -> float:
        """One pass; returns seconds spent inside cli.main."""
        elapsed = 0.0
        gc.collect()
        for inv in self.workload.invocations:
            outdir = self.workdir / tag / inv.name
            shutil.rmtree(outdir, ignore_errors=True)
            argv = [inv.subcommand, "--scenario", str(self.scenario_files[inv.name]),
                    "--out", str(outdir), "--threads", str(threads)]
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = self.cli.main(argv)
            except Exception as e:  # an escaped traceback is a gated failure
                code = f"exception {type(e).__name__}: {e}"
            elapsed += time.perf_counter() - t0
            self.attempted += 1
            problems = gate.check(inv, code, outdir, self.frozen)
            self.failed += bool(problems)
            self.problems += problems
        return elapsed

    def check_determinism(self, tag_a: str, tag_b: str) -> None:
        """Artifacts of two passes, manifests aside, must be byte-identical."""
        self.attempted += 1
        for inv in self.workload.invocations:
            for name in inv.artifacts:
                if name == "manifest.json":
                    continue
                a = self.workdir / tag_a / inv.name / name
                b = self.workdir / tag_b / inv.name / name
                if not (a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)):
                    self.failed += 1
                    self.problems.append(f"{inv.name}/{name} differs between "
                                         f"{tag_a} and {tag_b}")
                    return


def other_threads(threads: int) -> int:
    return 1 if threads == 2 else 2


def timed(client: Client, seconds: float) -> dict:
    """End-to-end metrics with tracing off.

    Peak RSS is read before the pass at the other thread count: a pass on
    other threads leaves malloc arenas behind that raise later peaks.
    """
    w = client.workload
    client.run_pass("timed", w.threads)  # warm-up
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(client.run_pass("timed", w.threads))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    client.run_pass("det", other_threads(w.threads))
    client.check_determinism("timed", "det")
    return {"passes": passes, "wall_s": statistics.median(passes), "peak_rss_mb": rss_mb}


LAYER_TIMES = {  # per-layer metric -> span name
    "geometry.build_s": "geometry.build",
    "fields.channel_s": "fields.channel",
    "fields.evaluate_s": "fields.evaluate",
    "focusing.solve_s": "focusing.solve",
    "csvio.write_s": "csvio.write",
    "analytic.profile_s": "analytic.profile",
    "analytic.closed_form_s": "analytic.closed_form",
    "specfun.s": "specfun",
    "metrics.cut_s": "metrics.cut",
    "metrics.contour_s": "metrics.contour",
    "cli.self_s": "cli.self",
}

LAYER_COUNTS = ("geometry.sources", "fields.channel_sources", "fields.pairs",
                "fields.near_singular_points", "focusing.ports", "focusing.clipped_ports",
                "focusing.idle_ports", "focusing.power_residual_rel", "csvio.rows",
                "csvio.bytes", "metrics.skipped", "specfun.calls")


def traced(client: Client, seconds: float) -> dict:
    """Per-layer metrics; see tracing.py for what each span covers."""
    from tracing import Tracer, installed

    w = client.workload
    tracer = Tracer()

    def traced_pass(tag, threads):
        tracer.reset()
        with installed(tracer):
            wall = client.run_pass(tag, threads)
        return wall, tracer.layer_seconds(), dict(tracer.counts)

    client.run_pass("timed", w.threads)  # warm-up
    plain, runs = [], []
    start = time.perf_counter()
    while (len(runs) < MIN_TRACED_PASSES
           or time.perf_counter() - start < seconds):
        plain.append(client.run_pass("timed", w.threads))
        runs.append(traced_pass("timed", w.threads))
    tracer.write(OUT / f"spans-{w.name}.json")
    counts = runs[-1][2]
    _, other_secs, _ = traced_pass("det", other_threads(w.threads))
    client.check_determinism("timed", "det")

    alloc = Tracer(alloc=True)
    with installed(alloc):
        client.run_pass("alloc", w.threads)

    def median_secs(span):
        return statistics.median(secs.get(span, 0.0) for _, secs, _ in runs)

    m = {name: median_secs(span) for name, span in LAYER_TIMES.items()}
    m.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    m["cli.invocations"] = counts.get("cli.main.calls", 0)
    own_eval = m["fields.evaluate_s"]
    other_eval = other_secs.get("fields.evaluate", 0.0)
    eval_1t, eval_2t = (own_eval, other_eval) if w.threads == 1 else (other_eval, own_eval)
    m["fields.evaluate_1t_s"] = eval_1t
    m["fields.thread_speedup"] = eval_1t / eval_2t if eval_2t else 0.0
    m["fields.ns_per_pair"] = 1e9 * own_eval / m["fields.pairs"] if m["fields.pairs"] else 0.0
    m["fields.alloc_peak_mb"] = alloc.alloc_peak_mb.get("fields.evaluate", 0.0)
    m["csvio.ns_per_row"] = 1e9 * m["csvio.write_s"] / m["csvio.rows"] if m["csvio.rows"] else 0.0
    m["csvio.alloc_peak_mb"] = alloc.alloc_peak_mb.get("csvio.write", 0.0)
    m["analytic.calls"] = (counts.get("analytic.profile.calls", 0)
                           + counts.get("analytic.closed_form.calls", 0))
    m["trace.overhead_rel"] = (statistics.median(wall for wall, _, _ in runs)
                               / statistics.median(plain) - 1.0)
    return m


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "nearfocus" / "cli.py").is_file():
        print(f"perfbench: no nearfocus sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = load_units()
    OUT.mkdir(exist_ok=True)
    setup = measure_setup() if args.trace == 0 else None

    workload = WORKLOADS[args.workload](args.seed)
    frozen = json.loads((BENCH / "frozen.json").read_text()) if args.seed == 0 else None
    workdir = OUT / f"work-{workload.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    client = Client(workload, workdir, frozen)
    try:
        if args.trace == 0:
            result = timed(client, args.seconds)
            values = {"wall_s": result["wall_s"], "setup_s": setup[0],
                      "peak_rss_mb": result["peak_rss_mb"]}
            detail = {"pass_s": result["passes"], "setup_samples_s": setup[1]}
        else:
            values = traced(client, args.seconds)
            detail = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = client.failed
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "threads": workload.threads,
              "environment": environment(), "attempted": client.attempted,
              "failed": failed, "problems": client.problems, "values": values, **detail}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for problem in client.problems:
        print(f"FAILED {problem}")
    if args.trace == 0:
        print(f"wall_s samples: {len(detail['pass_s'])} passes; "
              f"setup_s samples: {len(detail['setup_samples_s'])}")
    print(f"failed_ratio {failed}/{client.attempted} = {failed / client.attempted:.3g}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": client.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
