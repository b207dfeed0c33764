#!/usr/bin/env python3
"""Run every workload once and print its end-to-end metrics and failures.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (``run.py``), so each peak RSS
belongs to one workload.  Prints every metric by name with its unit and
``failed_ratio`` (failed over attempted) per workload; exits 1 if any
workload reports a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ok = True
    for workload in spec["workloads"]:
        cmd = spec["command"] + ["--workload", workload["name"], "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload['name']}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"== {workload['name']}  failed_ratio "
              f"{result['failed'] / result['attempted']:.3g} "
              f"({result['failed']}/{result['attempted']})")
        for line in lines[:-1]:
            if line.startswith("FAILED") or line.startswith("wall_s samples"):
                print(f"   {line}")
        for name, metric in result["metrics"].items():
            print(f"   {name:30s} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
