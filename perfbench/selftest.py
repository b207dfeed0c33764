#!/usr/bin/env python3
"""Self-test of the correctness gate: corrupted artifacts must fail it.

    python3 perfbench/selftest.py

Runs one small invocation (the scenario mix's dipole-approximation run at
seed 0), checks that its clean artifacts pass the gate, then corrupts a
copy of them in each of several ways and checks that the gate reports
every copy as a failure.  Exits 0 only if all of that holds.
"""

from __future__ import annotations

import shutil
import sys

import gate
import run
from workloads import Workload, scenario_mix


def _flip_focal_sample(outdir, inv):
    """Negate the target component at the focus sample of cut.csv."""
    path = outdir / "cut.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    col = header.index(f"re_e{inv.scenario.get('target_polarization', 'z')}")
    focus = [inv.scenario[f"focus_{a}_m"] for a in "xyz"]
    ix = [header.index(a) for a in "xyz"]
    for i, line in enumerate(lines[1:], start=1):
        row = line.rstrip("\n").split(",")
        if [float(row[j]) for j in ix] == focus:
            row[col] = repr(-float(row[col]))
            lines[i] = ",".join(row) + "\n"
            break
    path.write_text("".join(lines))


def _weight_over_cap(outdir, inv):
    """Raise the first port's amplitude to 1.5 times the cap."""
    path = outdir / "weights.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines[1].split(",")
    row[1] = repr(1.5 * inv.scenario.get("amplitude_cap_a", 0.02))
    lines[1] = ",".join(row)
    path.write_text("".join(lines))


def _missing_file(outdir, inv):
    (outdir / "metrics.json").unlink()


CORRUPTIONS = {
    "flipped focal sample": _flip_focal_sample,
    "weight over the cap": _weight_over_cap,
    "missing metrics.json": _missing_file,
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    inv = next(i for i in scenario_mix(0).invocations if i.name == "run-dipole-approx")
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    client = run.Client(Workload("selftest", 1, [inv]), workdir, None)
    ok = True
    try:
        client.run_pass("clean", 1)
        clean = workdir / "clean" / inv.name
        print(f"clean artifacts: {'pass' if not client.problems else client.problems}")
        ok = not client.problems
        for label, corrupt in CORRUPTIONS.items():
            copy = workdir / label.replace(" ", "-")
            shutil.copytree(clean, copy)
            corrupt(copy, inv)
            problems = gate.check(inv, 0, copy)
            print(f"{label}: {'counted as a failure' if problems else 'MISSED'}"
                  + (f" ({problems[0]})" if problems else ""))
            ok = ok and bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("gate self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
