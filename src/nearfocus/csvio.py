"""Deterministic CSV serialization shared by all export paths.

Numbers are written with 17 significant digits, '.' decimal separator,
and '\\n' line endings regardless of platform, so identical inputs
produce byte-identical files.  Integers below 1e17 print as integers.
"""

from __future__ import annotations

import numpy as np

# rows formatted per template application
_BLOCK_ROWS = 65536


def write_csv(path, header: list[str], rows) -> None:
    """Write an (n, k) numeric table, k = len(header), one '%.17g' per cell."""
    table = np.asarray(rows, dtype=float)
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"CSV table must be (n, {len(header)}), got {table.shape}")
    # checked before the file is opened, so a NaN writes no file
    if not np.isfinite(table).all():
        raise ValueError("non-finite value in CSV output")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, table.shape[0], _BLOCK_ROWS):
            # adding 0.0 turns -0 into 0, so reruns are byte-identical
            block = table[lo:lo + _BLOCK_ROWS] + 0.0
            f.write(line * block.shape[0] % tuple(block.ravel().tolist()))
