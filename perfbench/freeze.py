#!/usr/bin/env python3
"""Regenerate ``frozen.json``: every invocation's key value at seed 0.

    python3 perfbench/freeze.py

The gate compares runs at seed 0 against these values within 1e-9
relative (see ``gate.key_value``).  Regenerate only in a change that is
meant to move the physics, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    frozen = {}
    for make in WORKLOADS.values():
        workload = make(0)
        workdir = run.OUT / f"freeze-{workload.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        client = run.Client(workload, workdir, None)
        try:
            client.run_pass("freeze", workload.threads)
            if client.problems:
                print("\n".join(client.problems), file=sys.stderr)
                return 1
            for inv in workload.invocations:
                value = gate.key_value(inv, workdir / "freeze" / inv.name)
                if value is not None:
                    frozen[inv.name] = value
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "frozen.json").write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
