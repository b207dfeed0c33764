"""Deterministic CSV serialization shared by all export paths.

Numbers are written with 17 significant digits, '.' decimal separator,
and '\\n' line endings regardless of platform, so identical inputs
produce byte-identical files.  Integers below 1e17 print as integers.
"""

from __future__ import annotations

import math

import numpy as np

# rows of a 3-column table formatted per template application; wider
# tables take fewer rows, so a block always holds 3 * _BLOCK_ROWS cells
_BLOCK_ROWS = 65536


def write_csv(path, columns) -> None:
    """Write named 1-D columns, in mapping order, one '%.17g' per cell.

    columns maps each header name to a numeric 1-D array, all of one
    length; views are read in place.  Rows are stacked in blocks of
    3 * _BLOCK_ROWS cells, so no full-length table is built and the
    formatted text of a block does not grow with the column count.
    """
    names = list(columns)
    data = [np.asarray(c) for c in columns.values()]
    n = data[0].size if data else 0
    # checked before the file is opened, so a bad column writes no file
    if any(c.shape != (n,) for c in data):
        raise ValueError("CSV columns must be 1-D and of equal length, got "
                         f"{[c.shape for c in data]}")
    if not all(np.isfinite(c).all() for c in data):
        raise ValueError("non-finite value in CSV output")
    line = ",".join(["%.17g"] * len(names)) + "\n"
    step = max(1, 3 * _BLOCK_ROWS // len(names))
    block = np.empty((min(n, step), len(names)))
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(",".join(names) + "\n")
        for lo in range(0, n, step):
            rows = block[:min(step, n - lo)]
            for j, c in enumerate(data):
                rows[:, j] = c[lo:lo + rows.shape[0]]
            # adding 0.0 turns -0 into 0, so reruns are byte-identical
            rows += 0.0
            f.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def angle(z: np.ndarray) -> np.ndarray:
    """arg z by libm atan2, as math.atan2 calls it, _BLOCK_ROWS at a time.

    numpy's SIMD arctan2 can round the last bit differently, which would
    change the bytes of a written phase; the blocks keep the Python float
    lists short.
    """
    out = np.empty(z.shape[0])
    for lo in range(0, z.shape[0], _BLOCK_ROWS):
        part = z[lo:lo + _BLOCK_ROWS]
        out[lo:lo + part.shape[0]] = list(map(math.atan2, part.imag.tolist(),
                                              part.real.tolist()))
    return out
