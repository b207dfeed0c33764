#!/usr/bin/env python3
"""Kernel points that each cut of the baseline ring takes, for the node levels of cli._evaluate.

    python3 tools/node_sweep.py
    python3 tools/node_sweep.py --axis y --focus-x 0.9 --half-span 0.1 0.33

Runs ``nearfocus.cli.main`` ``run`` in-process (from the ``src/`` beside
this script) on the baseline ring of ``tools/ring_default_cut.json``, once
per cut: every axis, focus x and half span given, at the default lambda/64
step.  By default that is the 105 cuts of axes x, y and z, focus x from 0.3
to 0.9 m and half spans from 0.05 to 0.33 m.  Prints one JSON line per cut
from its manifest: the cut's samples, the nodes its axis ended at, why it
was evaluated at its own samples if it was (``exact``: small, standoff,
unresolved or spot-check) and the kernel points it evaluated
(``field_nodes``); then one line with the cuts, their kernel points and the
count of each ``exact`` outcome in all, ``interpolated`` for none.
Artifacts go to a temporary directory.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AXES = ("x", "y", "z")
FOCUS_X_M = (0.3, 0.45, 0.6, 0.75, 0.9)
HALF_SPANS_M = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.33)


def sweep(axes=AXES, focus_x=FOCUS_X_M, half_spans=HALF_SPANS_M):
    """One record per cut: its axis, focus x, half span, samples, nodes,
    exact and field_nodes; raises RuntimeError if a run fails."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from nearfocus import cli

    ring = json.loads((ROOT / "tools" / "ring_default_cut.json").read_text())
    with tempfile.TemporaryDirectory(prefix="node-sweep-") as tmp:
        scenario, out = Path(tmp) / "cut.json", Path(tmp) / "out"
        for axis, x, half_span in itertools.product(axes, focus_x, half_spans):
            cut = dict(axis=axis, focus_x_m=x, half_span_m=half_span)
            scenario.write_text(json.dumps(dict(ring, cut_axis=axis, focus_x_m=x,
                                                cut_half_span_m=half_span)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--scenario", str(scenario), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"run exited {code} on the cut {cut}")
            manifest = json.loads((out / "manifest.json").read_text())
            (record,) = manifest["field_grids"][0]
            yield dict(cut, samples=record["samples"], nodes=record["nodes"],
                       exact=record["exact"], field_nodes=manifest["counters"]["field_nodes"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--axis", nargs="+", choices=AXES, default=AXES)
    p.add_argument("--focus-x", nargs="+", type=float, default=FOCUS_X_M, metavar="M")
    p.add_argument("--half-span", nargs="+", type=float, default=HALF_SPANS_M, metavar="M")
    args = p.parse_args(argv)
    cuts, points, exact = 0, 0, collections.Counter()
    for record in sweep(args.axis, args.focus_x, args.half_span):
        print(json.dumps(record, sort_keys=True))
        cuts += 1
        points += record["field_nodes"]
        exact[record["exact"] or "interpolated"] += 1
    print(json.dumps({"cuts": cuts, "field_nodes": points, "exact": dict(exact)},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
