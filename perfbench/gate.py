"""Correctness gate applied to the artifacts of every benchmark invocation.

``check`` returns a list of problems; an empty list means the invocation
passed.  Raw CSV bytes are never pinned across commits, because a
legitimate kernel rewrite may move the 17th significant digit; the gate
checks physics and contract instead:

* the exit code and the artifact set (on disk and in the manifest);
* the solver's focal field in weights.json against the evaluated field at
  the focus sample, within 1e-9 relative;
* max |w| <= cap * (1 + 1e-9) and total power <= P0 * (1 + 1e-9); the
  amplitude of cap * conj(g)/|g| can exceed the cap by a few ulp;
* report.json's ``passed`` against the exit code;
* at seed 0, the invocation's key value against the frozen one, within
  1e-9 relative.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def key_value(inv, outdir: Path):
    """The scalar the frozen table pins for this invocation, or None.

    |E_focus| for run, the numeric co/cross ratio for ratio references and
    the main-lobe deviation for profile references.
    """
    if inv.subcommand == "run":
        side = json.loads((outdir / "weights.json").read_text())
        return math.hypot(side["e_focus_re"], side["e_focus_im"])
    if inv.subcommand == "validate":
        report = json.loads((outdir / "report.json").read_text())
        if report["kind"] == "ratio":
            return report["numeric_ratio"]
        return report["main_lobe_linf_rel"]
    return None


def _focus_sample(path: Path, scenario: dict) -> complex:
    """Field component at the grid point that equals the focus exactly."""
    focus = [scenario[f"focus_{a}_m"] for a in "xyz"]
    comp = scenario["target_polarization"]
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        ix = [header.index(a) for a in "xyz"]
        re_i, im_i = header.index(f"re_e{comp}"), header.index(f"im_e{comp}")
        for row in reader:
            if [float(row[i]) for i in ix] == focus:
                return complex(float(row[re_i]), float(row[im_i]))
    raise LookupError(f"{path.name} has no sample at the focus")


def _max_amplitude(path: Path) -> float:
    return float(np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1).max())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(inv, code, outdir: Path, frozen=None) -> list[str]:
    """Problems found in one invocation's exit code and artifacts."""
    try:
        return _check(inv, code, outdir, frozen)
    except (OSError, ValueError, LookupError, TypeError) as e:
        return [f"{inv.name}: bad or missing artifact: {e!r}"]


def _check(inv, code, outdir: Path, frozen) -> list[str]:
    if code != inv.expected_code:
        return [f"{inv.name}: exit code {code}, expected {inv.expected_code}"]
    expected = sorted(inv.artifacts)
    on_disk = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
    if on_disk != expected:
        return [f"{inv.name}: artifacts {on_disk}, expected {expected}"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    if manifest["artifacts"] != expected:
        return [f"{inv.name}: manifest lists {manifest['artifacts']}"]

    problems = []
    s = manifest["scenario"]  # resolved, defaults included
    if (outdir / "weights.json").exists():
        side = json.loads((outdir / "weights.json").read_text())
        e_solver = complex(side["e_focus_re"], side["e_focus_im"])
        grid = outdir / ("cut.csv" if (outdir / "cut.csv").exists() else "fieldmap.csv")
        e_field = _focus_sample(grid, s)
        if abs(e_field - e_solver) > REL_TOL * abs(e_solver):
            problems.append(f"{inv.name}: focal field {e_field} differs from "
                            f"solver E_focus {e_solver}")
        cap = s["amplitude_cap_a"]
        w_max = _max_amplitude(outdir / "weights.csv")
        if w_max > cap * (1.0 + REL_TOL):
            problems.append(f"{inv.name}: max |w| {w_max} exceeds cap {cap}")
        budget = s["power_budget_w"]
        if side["total_power_w"] > budget * (1.0 + REL_TOL):
            problems.append(f"{inv.name}: total power {side['total_power_w']} W "
                            f"exceeds budget {budget} W")
    if (outdir / "report.json").exists():
        report = json.loads((outdir / "report.json").read_text())
        if report["passed"] != (code == 0):
            problems.append(f"{inv.name}: report passed={report['passed']} "
                            f"but exit code {code}")
    if frozen is not None and inv.name in frozen:
        value = key_value(inv, outdir)
        if not _close(value, frozen[inv.name]):
            problems.append(f"{inv.name}: key value {value!r} differs from frozen "
                            f"{frozen[inv.name]!r}")
    return problems
