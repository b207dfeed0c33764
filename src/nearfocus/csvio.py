"""Deterministic CSV serialization shared by all export paths.

Numbers are written as '%.17g' writes them (17 significant digits,
trailing zeros and a bare point dropped, exponent form below 1e-4 and
from 1e17), with -0 written as 0, '.' decimal separator and '\\n' line
endings regardless of platform, so identical inputs produce
byte-identical files.  Integers below 1e17 print as integers.

The digits come from exact numpy arithmetic, not from one CPython
format call per cell.  For 1e-5 <= |x| < 1e16, E = floor(log10|x|),
corrected by one where the 17-digit integer falls outside
[1e16, 1e17), gives s = 16 - E in [0, 22], so 10**s is an exact double.
Dekker's product (Veltkamp split at 2**27 + 1) writes |x| * 10**s as
p + err with no rounding, and p >= 2**53 is an even integer, so
D = p + rint(err) is |x| * 10**s rounded half to even: printf's digits,
ties included.  Each cell is laid out in fixed slots (sign, "0.000",
the 17 digits with the point, "e-05", separator), unused slots hold a
0 byte, and the block's 0 bytes are dropped.  Zeros take the same path;
every other value (below 1e-5 or from 1e16, subnormals included) goes
through the '%.17g' template, one call per block.

A block is a 32nd of the table's cells, but at least 4,096 and at most
32,768: each block costs about 180 us whatever its size, and the block
and its work arrays take 145 B per cell, so tables up to 131,072 cells
are written in 0.6 MB of them and larger ones in at most 4.8 MB.
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

# angle() converts _BLOCK_ROWS values at a time; write_csv formats blocks
# of _BLOCK_ROWS // 16 to _BLOCK_ROWS // 2 cells: smaller blocks keep the
# work arrays of mid-sized tables out of a run's peak resident size, and
# blocks beyond the larger bound ran slower
_BLOCK_ROWS = 65536
_BLOCKS_PER_TABLE = 32

_POW10 = 10.0 ** np.arange(23)
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# slots of a cell: sign, "0.000", 17 digits and the point, "e-05", separator
_WIDTH = 29
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_MAX_X = np.array([-1, -1, -2, -3, -4], np.int8)[:, None]
_EXP = np.frombuffer(b"e-05", np.uint8)[:, None]
_SLOT = np.arange(18, dtype=np.int8)[:, None]


def _exact_digits(a, s, D, f, t) -> None:
    """D = a * 10**s rounded half to even, exactly, for s in [0, 22].

    f is five float work rows and t one int8 work row of a's length.
    The result is exact wherever a * 10**s >= 2**53; smaller products
    only show that s is one too small.
    """
    p, hi, lo, ph, err = f
    np.take(_POW10, s, out=ph, mode="clip")
    np.multiply(a, ph, out=p)
    np.multiply(a, _SPLIT, out=hi)
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)
    np.take(_POW10_HI, s, out=ph, mode="clip")
    # err = ((hi*ph - p) + hi*pl + lo*ph) + lo*pl, each step exact
    np.multiply(hi, ph, out=err)
    err -= p
    D[...] = p
    pl = np.take(_POW10_LO, s, out=p, mode="clip")
    hi *= pl
    err += hi
    ph *= lo
    err += ph
    pl *= lo
    err += pl
    np.rint(err, out=err)
    t[...] = err
    D += t


def _misfits(D) -> np.ndarray:
    return np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))


class _Cells:
    """Work arrays that format up to size cells of an ncols-column table.

    They are allocated once per file: numpy arrays allocated afresh for
    every block cost more in page faults than the arithmetic.  The
    layout reuses the float rows' memory for its integers and masks.
    """

    def __init__(self, size: int, ncols: int):
        self.f = np.empty((6, size))
        self.s = np.empty(size, np.int64)
        self.D = np.empty(size, np.int64)
        self.x = np.empty((4, size), np.int8)
        self.b = np.empty((3, size), bool)
        self.z = np.zeros((19, size), np.uint8)
        self.keep = np.zeros((18, size), bool)
        self.slots = np.empty((_WIDTH, size), np.uint8)
        self.sep = np.full(ncols, ord(","), np.uint8)
        self.sep[-1] = ord("\n")

    def format(self, block: np.ndarray) -> bytes:
        """The CSV lines of a (rows, ncols) float block."""
        v = block.ravel()
        n = v.size
        a, f = self.f[0, :n], self.f[1:, :n]
        s, D, X = self.s[:n], self.D[:n], self.x[0, :n]
        other, neg = self.b[:2, :n]

        # other: the cells outside [1e-5, 1e16)
        np.abs(v, out=a)
        np.less(a, 1e-5, out=other)
        np.greater_equal(a, 1e16, out=neg)
        other |= neg
        slow = bool(other.any())
        if slow:
            a[other] = 1.0
        np.log10(a, out=f[0])
        np.floor(f[0], out=f[0])
        np.subtract(16.0, f[0], out=f[0])
        s[...] = f[0]
        _exact_digits(a, s, D, f, X)
        fix = _misfits(D)
        while fix.size:
            # a 16-digit D means E was one too large, an 18-digit D one too small
            sf = s[fix] + np.where(D[fix] < 10 ** 16, 1, -1)
            s[fix] = sf
            Df = np.empty(fix.size, np.int64)
            _exact_digits(a[fix], sf, Df, np.empty((5, fix.size)),
                          np.empty(fix.size, np.int8))
            D[fix] = Df
            fix = fix[_misfits(Df)]
        if slow:
            # zeros print as the digit 0, and so, until marked below, do
            # the cells the template writes
            D[other] = 0
            s[other] = 16
        np.subtract(16, s, out=X, casting="unsafe")
        np.less(v, 0.0, out=neg)
        slots = self.slots[:, :n]
        self._layout(n)
        slots[-1].reshape(block.shape)[...] = self.sep
        if slow:
            other &= v != 0.0
            cells = np.flatnonzero(other)
            # laid out as a bare 0 so far; the 0 becomes a marker byte
            slots[0, cells] = 0
            slots[6, cells] = 1
        text = slots.T.tobytes().translate(None, b"\0")
        if slow and cells.size:
            # one template call fills every marked cell
            text = text.replace(b"\1", b"%.17g") % tuple(v[cells].tolist())
        return text

    def _layout(self, n) -> None:
        """Fill the slots of n cells from their 17-digit D, exponent X and sign.

        Fixed form puts the point after digit X (X >= 0) or writes
        "0." and -X - 1 zeros first (-4 <= X < 0); X = -5 is exponent
        form.  Trailing zeros after the point are blanked, and so is a
        point with no digit after it.
        """
        size = self.f.shape[1]
        D, slots, z, keep = self.D[:n], self.slots[:, :n], self.z[:, :n], self.keep[:, :n]
        X, K, ps, last = self.x[:, :n]
        neg, ex = self.b[1:, :n]
        # masks and integers in the float rows, which are free now
        cmp = self.f[:3].view(bool).reshape(24, size)[:18, :n]
        t, u = self.f[:2, :n].view(np.int64)
        u8 = np.uint8
        np.multiply(neg.view(u8), ord("-"), out=slots[0])
        np.less_equal(X, _PREFIX_MAX_X, out=cmp[:5])
        cmp[:5] &= X >= -4
        np.multiply(cmp[:5].view(u8), _PREFIX, out=slots[1:6])
        np.equal(X, -5, out=ex)
        np.multiply(ex.view(u8), _EXP, out=slots[24:28])
        # K digits stand before the point; ps is the point's slot, 18
        # (none) when "0." is written in front
        np.add(X, 1, out=K)
        np.maximum(K, 0, out=K)
        K += ex.view(np.int8)
        np.equal(K, 0, out=ex)
        np.multiply(ex.view(np.int8), 18, out=ps)
        ps += K

        # D = d0 * 10**16 + hi * 10**8 + lo, and hi and lo split into
        # 4-digit, then 2-digit, then 1-digit parts, digit k in z[k + 1]
        halves = self.f[2].view(np.int32).reshape(2, size)[:, :n]
        np.floor_divide(D, 10 ** 8, out=t)
        np.multiply(t, 10 ** 8, out=u)
        np.subtract(D, u, out=halves[1], casting="unsafe")
        np.floor_divide(t, 10 ** 8, out=u)
        z[1] = u
        u *= 10 ** 8
        np.subtract(t, u, out=halves[0], casting="unsafe")
        quads = self.f[:2].view(np.int32).reshape(2, 2, size)[:, :, :n]
        pairs = self.f[3:5].view(np.int16).reshape(4, 2, size)[:, :, :n]
        for parts, split, div in ((halves, quads, 10000), (quads.reshape(4, n), pairs, 100)):
            np.floor_divide(parts, div, out=split[:, 0], casting="unsafe")
            np.multiply(split[:, 0], div, out=split[:, 1], dtype=split.dtype)
            np.subtract(parts, split[:, 1], out=split[:, 1], casting="unsafe")
        pairs = pairs.reshape(8, n)
        tens = self.f[:2].view(np.int16).reshape(8, size)[:, :n]
        np.floor_divide(pairs, 10, out=tens)
        z[2:18:2] = tens
        tens *= 10
        pairs -= tens
        z[3:19:2] = pairs
        digits = z[1:18]
        digits += ord("0")

        # digit k prints while k <= max(last nonzero digit, K - 1)
        nonzero_at = cmp[:17].view(u8)
        np.not_equal(digits, ord("0"), out=cmp[:17])
        nonzero_at *= _SLOT[:17].view(u8)
        np.max(nonzero_at, axis=0, out=last.view(u8))
        K -= 1
        np.maximum(K, last, out=K)
        np.less_equal(_SLOT[:17], K, out=keep[:17])
        digits *= keep[:17].view(u8)
        # slot k holds digit k before the point, digit k - 1 after it
        region = slots[6:24]
        np.greater(ps, _SLOT, out=cmp)
        np.multiply(z[1:19], cmp.view(u8), out=region)
        np.less(ps, _SLOT, out=cmp)
        np.multiply(z[0:18], cmp.view(u8), out=cmp.view(u8))
        region += cmp.view(u8)
        np.equal(ps, _SLOT, out=cmp)
        cmp &= keep
        np.multiply(cmp.view(u8), ord("."), out=cmp.view(u8))
        region += cmp.view(u8)


@dataclass(frozen=True)
class Table:
    """A CSV table whose columns are formed a block of rows at a time.

    block(a, b) returns the values of rows [a, b), one 1-D array per
    name, in the names' order; write_csv calls it once per block, so no
    column is held at full length.
    """

    names: tuple
    rows: int
    block: Callable[[int, int], Sequence[np.ndarray]]


def write_csv(path, columns) -> None:
    """Write named 1-D columns, in order, as '%.17g' would.

    columns is a Table, or maps each header name to a numeric 1-D array,
    all of one length, whose views are read in place.  Rows are formed,
    stacked and formatted a block at a time (_block_rows), so no
    full-length table is built and the work arrays do not grow with the
    column count.  A non-finite value, found as its block is formed,
    writes no file: the part written so far is removed.
    """
    if not isinstance(columns, Table):
        data = [np.asarray(c) for c in columns.values()]
        n = data[0].size if data else 0
        # checked before the file is opened, so a bad column writes no file
        if any(c.shape != (n,) for c in data):
            raise ValueError("CSV columns must be 1-D and of equal length, got "
                             f"{[c.shape for c in data]}")
        columns = Table(tuple(columns), n, lambda a, b: [c[a:b] for c in data])
    names, n = columns.names, columns.rows
    step = _block_rows(n, len(names))
    block = np.empty((min(n, step), len(names)))
    cells = _Cells(block.size, len(names))
    f = open(path, "wb")
    try:
        with f:
            f.write((",".join(names) + "\n").encode("ascii"))
            for lo in range(0, n, step):
                rows = block[:min(step, n - lo)]
                for j, c in enumerate(columns.block(lo, lo + rows.shape[0])):
                    rows[:, j] = c
                if not np.isfinite(rows).all():
                    raise ValueError("non-finite value in CSV output")
                f.write(cells.format(rows))
    except BaseException:
        os.remove(path)
        raise


def _block_rows(n: int, ncols: int) -> int:
    """Rows per block of an n-row table: a _BLOCKS_PER_TABLE-th of its
    cells, within [_BLOCK_ROWS // 16, _BLOCK_ROWS // 2], and at least one row."""
    cells = -(-n * ncols // _BLOCKS_PER_TABLE)
    cells = min(max(cells, _BLOCK_ROWS // 16), _BLOCK_ROWS // 2)
    return max(1, cells // ncols)


def angle(z: np.ndarray) -> np.ndarray:
    """arg z by libm atan2, as math.atan2 calls it, _BLOCK_ROWS at a time.

    cmath.phase makes math.atan2's call, atan2(imag, real), with the same
    answers for signed zeros, so the phases are math.atan2's bit for
    bit; where atan2 underflows cmath.phase raises instead, and that
    block is converted by math.atan2 itself.  numpy's SIMD arctan2 can
    round the last bit differently, which would change the bytes of a
    written phase.  The blocks keep the lists of Python numbers short.
    """
    out = np.empty(z.shape[0])
    for lo in range(0, z.shape[0], _BLOCK_ROWS):
        part = z[lo:lo + _BLOCK_ROWS]
        try:
            phases = np.fromiter(map(cmath.phase, part.tolist()), float, part.shape[0])
        except OverflowError:
            phases = list(map(math.atan2, part.imag.tolist(), part.real.tolist()))
        out[lo:lo + part.shape[0]] = phases
    return out
