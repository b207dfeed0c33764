"""Vector E-field evaluation for impressed currents and Hertzian dipoles.

One routine, _dyadic, evaluates the closed-form point-source kernels
(electric current with all reactive terms, magnetic-current curl, and
the radiating 1/r dipole approximation) on one work unit of points and
sources.  Per (point, source) pair it forms the unit vector, one phasor
F = j exp(-jkR)/(kR) from a single tan, and from F the few real arrays
the kernel needs: A and C = 2F - 3A for electric currents (C = -A for
the radiating form), C alone for magnetic ones.  The constant
k^2 eta0/(4 pi) (k^2/(4 pi) for magnetic currents) scales each unit's
result, and only the moment components that are nonzero in a unit are
formed.  It has two output modes: the weighted sum over sources at each
point, reduced by real matmuls (evaluate_field), and each source's field
projected on one polarization by real dot products (assemble_channel
for every aperture, the single element included, and green_electric and
green_magnetic, the 3x3 tensors that the oracle tests check, as the
three axis projections).
Sources are a geometry.Aperture, whatever its kind, and weights one
complex array, so nothing here reads the solvers' types: each work unit
makes its own slice of source positions and moments, and the channel
keeps one port-resistance scale per strip, as a run over the strip's rows.
Work units tile the grid in point slices of equal size (to one point),
and evaluate_field's workers claim them in turn from one counter, so
two workers share even a 141-point cut equally; the calling thread is
always one of the workers, so a lone worker starts no thread.

Sign convention: the electric kernel is oriented so that its far-field
limit reproduces the dipole constant R_e = j*eta0*l*k/(4*pi) exactly,
making the full and approximate kernels phase-compatible.  Amplitudes
are unaffected by this choice.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import FREE_SPACE_IMPEDANCE, Wavelength

FOUR_PI = 4.0 * math.pi

# (point, source) pairs per work unit, at most: _BUFFERS float arrays of
# this size per thread (5.2 MB), large enough that two threads seldom wait on
# the GIL
_CHUNK_BUDGET = 65_536
_BUFFERS = 10
# floats per point for the weighted sum's products and one temporary, which
# it writes into the kernel's buffers that are free by then: 37 for magnetic
# currents (a (6P, 6) product) in 4 buffers, 13 for electric ones in 2.  A
# unit of fewer than 10 sources gets 37 - 4 per source more, which covers both
_SUM_ROOM = 37
# sources per matmul when the grid fills a unit: BLAS adds a block's products
# one after another, so short blocks keep a focal sum's rounding small
_SOURCE_BLOCK = 512
# ports per block of ChannelVector.resistances: its temporaries are a block's
_PORT_BLOCK = 8_192


class ChannelVector:
    """Scalar channel of every source at one focal point.

    g[n] is the component along the target polarization of the E-field
    that a unit drive of source n produces at the focus; it is all the
    weight solvers read besides the ports' resistance multipliers (patch
    area over the half-wavelength-square reference area for meshes, 1 for
    dipoles).  Those are runs: counts[i] consecutive ports of scale
    resistance_scale[i].  An aperture's strips give one run each, in row
    order, so the channel holds a few floats where a per-port array would
    hold 8 B per port; per-port scales are runs of count 1.  Only
    resistances reads the runs, into a caller's array, block by block.
    """

    def __init__(self, g: np.ndarray, resistance_scale: np.ndarray, counts: np.ndarray):
        self.g = np.asarray(g, dtype=complex)
        scale = np.asarray(resistance_scale, dtype=float)
        counts = np.asarray(counts, dtype=np.intp)
        if self.g.ndim != 1:
            raise ValueError("g must be (N,)")
        if not (scale.ndim == 1 and counts.shape == scale.shape
                and np.all(counts >= 0) and counts.sum() == self.g.size):
            raise ValueError("resistance scale runs must cover every source once")
        # min, not a full-length comparison; a NaN makes it NaN, which fails too
        if not np.min(scale, initial=math.inf) > 0.0:
            raise ValueError("resistance scales must be positive")
        # each run's end, one past its last port
        self._scale, self._ends = scale, np.cumsum(counts)

    def __len__(self) -> int:
        return self.g.shape[0]

    def resistances(self, R0: float, out: np.ndarray, start: int = 0) -> np.ndarray:
        """out = R0 times the resistance multiplier of ports start,
        start + 1, ..., one per element of out, filled in blocks of
        _PORT_BLOCK ports from the runs that meet each block."""
        ends, stop = self._ends, start + out.size
        for a in range(start, stop, _PORT_BLOCK):
            b = min(a + _PORT_BLOCK, stop)
            # the first run that ends after a, through the first that reaches b
            i = np.searchsorted(ends, a, side="right")
            j = np.searchsorted(ends, b) + 1
            counts = np.minimum(ends[i:j], b)
            counts[1:] -= ends[i:j - 1]
            counts[0] -= a
            np.multiply(np.repeat(self._scale[i:j], counts), R0, out=out[a - start:b - start])
        return out


@dataclass(frozen=True)
class FieldMap:
    """Sampled complex vector E-field over an evaluation grid: the (P, 3)
    points, their (P, 3) field, whether each point lies inside the
    quarter-wavelength standoff, and the worker threads that computed it."""

    points: np.ndarray
    E: np.ndarray
    near_singular: np.ndarray
    workers: int

    def __len__(self) -> int:
        return self.points.shape[0]

    def component(self, axis: str) -> np.ndarray:
        return self.E[:, "xyz".index(axis)]


# ------------------------------------------------------------------ kernel

def _dyadic(points, src, m, k, kernel, source_kind, scratch, w=None, e_hat=None):
    """The dyadic kernel on one work unit, and each point's nearest-source distance.

    points is (P, 3); src and m hold the unit's N source positions and
    unit-drive moments as contiguous (3, N) columns.  With r_hat the unit
    vector from source to point, t = 1/(kR) and F = j exp(-jkR)/(kR), moment
    m gives A*m + C*(m.r_hat)*r_hat for electric currents, where
    A = F*(a - jt), a = 1 - t^2 and C = 2F - 3A (the radiating approximation
    keeps a = 1 and t = 0, so C = -A), and C*(r_hat x m) with C = F*(1 - jt)
    for magnetic ones.  The constant k^2 eta0/(4 pi), or k^2/(4 pi),
    multiplies the unit's result, not every pair.

    Given the unit's weights w, returns the weighted sum over sources at each
    point, (P, 3), by real matmuls: E = A@(w m) + sum_i ((C md r_i)@w) e_i with
    md = m.r_hat for electric currents, E_i = eps_ijk (C r_j)@(w m_k) for
    magnetic ones.  Given e_hat instead, returns each pair's field projected
    on it, (P, N), by real dot products.  Only the moment components that are
    nonzero in the unit enter md and the matmuls.  The (P, N) arrays are
    consecutive slices of scratch, which a thread reuses from unit to unit;
    the weighted sum and its products are written into scratch too, so the
    sum is a (P, 3, 2) view of it (real and imaginary parts), valid until
    the next unit.
    """
    P, N = points.shape[0], src.shape[1]
    n = P * N
    X, Y, Z, B3, B4, B5, Ar, Ai, Ci, Cr = (
        scratch[i * n:(i + 1) * n].reshape(P, N) for i in range(_BUFFERS))
    r = (X, Y, Z)
    # p - s with the row s copied in first: numpy subtracts a full array from
    # a column faster than it broadcasts a column and a row into a third
    for i, v in enumerate(r):
        np.copyto(v, src[i])
        np.subtract(points[:, i, None], v, out=v)
    R = np.multiply(X, X, out=B3)
    R += np.multiply(Y, Y, out=B4)
    R += np.multiply(Z, Z, out=B4)
    dmin = np.sqrt(R, out=R).min(axis=1)
    if not np.all(dmin > 0.0):
        raise ValueError("grid point coincides with a source")
    # r_hat by division: on a source's axis it is exactly a unit axis, so the
    # radiating kernel's A*m and C*r_hat cancel to 0
    for v in r:
        np.divide(v, R, out=v)
    # F = S + jCo = (sin kR + j cos kR) t, with sin = 2hq and cos = 2q - 1,
    # q = 1/(1 + h^2) and h = tan(kR/2): one vectorized tan in place of
    # scalar libm sin and cos
    h = np.tan(np.multiply(R, 0.5 * k, out=B4), out=B4)
    t = np.divide(1.0 / k, R, out=R)
    tq2 = np.divide(t, np.add(np.multiply(h, h, out=B5), 1.0, out=B5), out=Ci)
    tq2 += tq2
    radiating = kernel == "dipole-approx"
    S, Co = (Ar, Ai) if radiating else (B4, B5)
    np.subtract(tq2, t, out=Co)
    np.multiply(h, tq2, out=S)
    if source_kind == "magnetic":
        scale = k * k / FOUR_PI
        np.add(np.multiply(Co, t, out=Cr), S, out=Cr)
        np.subtract(Co, np.multiply(S, t, out=Ci), out=Ci)
    else:
        scale = k * k * FREE_SPACE_IMPEDANCE / FOUR_PI
        if not radiating:
            a = np.subtract(1.0, np.multiply(t, t, out=Ci), out=Ci)
            np.multiply(S, a, out=Ar)
            Ar += np.multiply(Co, t, out=Cr)
            np.multiply(Co, a, out=Ai)
            Ai -= np.multiply(S, t, out=Cr)
        # C*md as (S - 1.5 Ar)*(2 md), or -S*md when C = -A, into Cr and Ci
        md = _dot(r, m * (-1.0 if radiating else 2.0), Ci, B3)
        if radiating:
            np.multiply(S, md, out=Cr)
            md *= Co
        else:
            np.multiply(Ar, -1.5, out=Cr)
            Cr += S
            Cr *= md
            md *= np.add(np.multiply(Ai, -1.5, out=B3), Co, out=B3)
    if e_hat is not None:
        if source_kind == "magnetic":
            # e.(r_hat x m) = r_hat.(m x e)
            d = _dot(r, np.ascontiguousarray(np.cross(m, e_hat, axis=0)), B3, B4)
            Cr *= d
            Ci *= d
        else:
            d = _dot(r, e_hat, B3, B4)
            em = e_hat @ m
            Cr *= d
            Cr += np.multiply(Ar, em, out=B4)
            Ci *= d
            Ci += np.multiply(Ai, em, out=B4)
        g = np.empty((P, N), dtype=complex)
        np.multiply(Cr, scale, out=g.real)
        np.multiply(Ci, scale, out=g.imag)
        return g, dmin
    # C*r_hat in the six slices from X: real x, y, z, then imaginary x, y, z
    for v, out in zip(r, (B3, B4, B5)):
        np.multiply(Ci, v, out=out)
    for v in r:
        v *= Cr
    G = scratch[:6 * n].reshape(6 * P, N)
    nz = [i for i in range(3) if np.any(m[i])]
    wm = _re_im((w * m[nz]).T)
    # the products go into the buffers that are free by then (and the room
    # after them), E into G's first 6P floats once G is read
    E = scratch[:6 * P].reshape(P, 3, 2)
    if source_kind == "magnetic":
        M, t = _product(G, wm, scratch[6 * n:], P)
        E.fill(0.0)
        # moment component c adds to E_(c+1) and E_(c+2) with eps = +1 and -1
        for i, c in enumerate(nz):
            _accumulate(E[:, (c + 1) % 3], M, (c + 2) % 3, i, t)
            _accumulate(E[:, (c + 2) % 3], M, (c + 1) % 3, i, t, np.subtract)
    else:
        M, t = _product(G, _re_im(w), scratch[8 * n:], P)
        E.fill(0.0)
        for c in range(3):
            _accumulate(E[:, c], M, c, 0, t)
        M, t = _product(scratch[6 * n:8 * n].reshape(2 * P, N), wm, scratch[8 * n:], P)
        for i, c in enumerate(nz):
            _accumulate(E[:, c], M, 0, i, t)
    E *= scale
    return E, dmin


def _dot(r, v, out, tmp):
    """out = sum_i r_i v_i over the components i where v is not all zero."""
    nz = [i for i in range(3) if np.any(v[i])]
    if not nz:
        out.fill(0.0)
        return out
    np.multiply(r[nz[0]], v[nz[0]], out=out)
    for i in nz[1:]:
        out += np.multiply(r[i], v[i], out=tmp)
    return out


def _re_im(z):
    """Complex columns z, (N, c) or (N,), as the real right-hand side [re | im].

    The result is C-ordered: BLAS reads a transposed one several times slower.
    """
    return np.column_stack([z.real, z.imag])


def _product(stacked, M, free, P):
    """stacked @ M by one real matmul written into free, and P floats of
    free after it."""
    size = stacked.shape[0] * M.shape[1]
    out = np.matmul(stacked, M, out=free[:size].reshape(stacked.shape[0], M.shape[1]))
    return out, free[size:size + P]


def _accumulate(E, out, j, i, t, op=np.add):
    """E = op(E, z) in place, z the complex column i, row block j, of
    (re + j im) @ (Mr + j Mi).

    out = [re; im] @ [Mr | Mi] is its real product, so z is
    (re@Mr - im@Mi) + j (re@Mi + im@Mr) in P-row blocks; E is (P, 2), real
    and imaginary parts, and t is P free floats.
    """
    P, h, q = E.shape[0], out.shape[0] // 2, out.shape[1] // 2
    a, b = out[j * P:(j + 1) * P], out[h + j * P:h + (j + 1) * P]
    op(E[:, 0], np.subtract(a[:, i], b[:, q + i], out=t), out=E[:, 0])
    op(E[:, 1], np.add(a[:, q + i], b[:, i], out=t), out=E[:, 1])


def _units(n_points, n_src):
    """(point slice, source slice) units cut by problem size, source-major, and
    the scratch size: _BUFFERS floats per pair and, for a unit of fewer than
    10 sources, the weighted sum's room per point, in the same budget.

    The points are cut into the fewest slices that the budget allows, whose
    sizes differ by at most one (141 points are 70 + 71), so the units on
    one source slice are equal shares; the scratch holds the largest."""
    block = min(n_src, max(_SOURCE_BLOCK, _CHUNK_BUDGET // max(1, n_points)))
    width = _BUFFERS * block + max(0, _SUM_ROOM - 4 * block)
    per = max(1, _BUFFERS * _CHUNK_BUDGET // width)
    n_slices = max(1, -(-n_points // per))
    cuts = [n_points * j // n_slices for j in range(n_slices + 1)]
    units = [(slice(a, b), slice(s, min(s + block, n_src)))
             for s in range(0, n_src, block) for a, b in zip(cuts, cuts[1:])]
    return units, -(-n_points // n_slices) * width


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _point_tensor(r, r_src, wl, source_kind, kernel="full"):
    """The 3x3 tensor as three axis projections of the fields of unit x, y and z moments."""
    point = np.atleast_2d(np.asarray(r, dtype=float))
    src = np.repeat(np.asarray(r_src, dtype=float).reshape(3, 1), 3, axis=1)
    scratch = np.empty(_units(1, 3)[1])
    eye = np.eye(3)
    return np.vstack([_dyadic(point, src, eye, wl.k, kernel, source_kind, scratch,
                              e_hat=e)[0] for e in eye])


def green_electric(r: np.ndarray, r_src: np.ndarray, wl: Wavelength,
                   kernel: str = "full") -> np.ndarray:
    """Electric-current kernel: 3x3 tensor with all 1/R..1/R^3 terms, or
    only the radiating 1/R term for the dipole-approx kernel."""
    return _point_tensor(r, r_src, wl, "electric", kernel)


def green_magnetic(r: np.ndarray, r_src: np.ndarray, wl: Wavelength) -> np.ndarray:
    """Magnetic-current curl kernel: antisymmetric 3x3 tensor."""
    return _point_tensor(r, r_src, wl, "magnetic")


# -------------------------------------------------------- vectorized fields

def _check_kernel(kernel: str, source_kind: str) -> None:
    if kernel not in ("full", "dipole-approx"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if source_kind not in ("electric", "magnetic"):
        raise ValueError(f"unknown source kind {source_kind!r}")
    if kernel == "dipole-approx" and source_kind == "magnetic":
        raise ValueError("the dipole approximation applies to electric sources only")


def _inside_standoff(dmin, wl: Wavelength) -> ValueError:
    return ValueError(f"a point lies {dmin} m from a source, inside the "
                      f"quarter-wavelength standoff {0.25 * wl.lam} m")


def assemble_channel(sources, focal: np.ndarray, e_hat: np.ndarray, wl: Wavelength,
                     kernel: str = "full", source_kind: str = "electric") -> ChannelVector:
    """Per-source scalar channel at the focal point for unit drives.

    Unit drive means 1 A for a dipole element and a unit surface-current
    density (1 A/m times the patch area) for a mesh patch.  The focal
    point must keep the quarter-wavelength standoff from every source
    and, for an aperture of more than one row, sit inside its bounding
    box; a one-row aperture (the single element) has a single point for
    a box, so only the standoff applies.  The kernel projects each
    source's focal field on e_hat as it computes it.
    """
    _check_kernel(kernel, source_kind)
    focal = np.asarray(focal, dtype=float)
    if abs(float(np.linalg.norm(e_hat)) - 1.0) > 1e-12:
        raise ValueError("e_hat must be a unit vector")
    n = len(sources)
    lo, hi = sources.bounds()
    if n > 1 and (np.any(focal < lo - 1e-12) or np.any(focal > hi + 1e-12)):
        raise ValueError("focal point lies outside the aperture region")
    g = np.empty(n, dtype=complex)
    units, size = _units(1, n)
    scratch = np.empty(size)
    dmin = math.inf
    for _, s in units:
        part, d = _dyadic(focal[None, :], sources.positions(s.start, s.stop),
                          sources.moments(s.start, s.stop), wl.k, kernel, source_kind,
                          scratch, e_hat=e_hat)
        g[s], dmin = part[0], min(dmin, d[0])
    if dmin < 0.25 * wl.lam:
        raise _inside_standoff(dmin, wl)
    # one run per strip: its scale over its rows
    strips = sources.strips
    return ChannelVector(g, [s.resistance_scale for s in strips],
                         [len(s) * sources.z.size for s in strips])


def evaluate_field(sources, w: np.ndarray, grid: np.ndarray, wl: Wavelength,
                   kernel: str = "full", source_kind: str = "electric",
                   threads: int = 1) -> FieldMap:
    """Superpose the sources' fields, weighted by w, (N,), over a grid of points.

    The approximate kernel refuses points inside the quarter-wavelength
    standoff; the full kernel evaluates them (it is finite anywhere off
    the source) but flags them near_singular.  At most threads workers
    run, and no more than the CPUs this process may use; the result is
    the same bytes for every worker count.  The caller is one worker and a
    pool runs the rest, whose errors are raised once all stop; each takes the
    next unit as it finishes one, so a slow worker's share falls to the others.
    """
    _check_kernel(kernel, source_kind)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    w = np.asarray(w, dtype=complex)
    if w.shape != (len(sources),):
        raise ValueError("need one weight per source")

    units, size = _units(grid.shape[0], len(sources))
    # more workers than CPUs would only add scratch buffers
    workers = max(1, min(threads, len(units), _usable_cpus()))
    # one row of scratch per worker, made by this thread (a worker's arrays go
    # back to its own malloc arena, not the caller's); each takes the next free
    # row with its first unit, so unit 0, the largest, is always in row 0
    free = iter(np.empty((workers, size)))
    E = np.zeros(grid.shape, dtype=complex)
    # the units' sums are (P, 3, 2) real views; complex addition is the
    # addition of the parts
    E_parts = E.view(np.float64).reshape(-1, 3, 2)
    dmin = np.full(grid.shape[0], np.inf)
    # units are source-major, so the parts on one point slice are every
    # n_slices-th unit; each is added to E as soon as the one before it is
    # in, and that order of the sums makes the bytes independent of the
    # worker count.  turn[j] is the next unit that slice j takes; a part
    # that finishes out of turn waits in stash, and the thread that adds
    # its predecessor adds it too, so no worker waits.  A part lives in its
    # worker's scratch, so the stash keeps a copy.
    n_slices = sum(1 for _, s in units if s.start == 0)
    turn = list(range(n_slices))
    stash = {}
    lock = threading.Lock()

    def add(i, part):
        while part is not None:
            p = units[i][0]
            E_parts[p] += part[0]
            np.minimum(dmin[p], part[1], out=dmin[p])
            i += n_slices
            with lock:
                turn[i % n_slices] = i
                part = stash.pop(i, None)

    # the one counter the workers claim units from, in index order
    pending = iter(range(len(units)))

    def work():
        # each worker keeps its scratch row; units are source-major, so it
        # makes a source slice's rows once for all the units it claims on
        # that slice in a row
        rows = scratch = None
        while True:
            with lock:
                i = next(pending, None)
                scratch = next(free) if scratch is None else scratch
            if i is None:
                return
            p, s = units[i]
            if rows is None or rows[0] != s:
                rows = s, sources.positions(s.start, s.stop), sources.moments(s.start, s.stop)
            part = _dyadic(grid[p], rows[1], rows[2], wl.k, kernel, source_kind,
                           scratch, w=w[s])
            with lock:
                mine = turn[i % n_slices] == i
                if not mine:
                    stash[i] = part[0].copy(), part[1]
            if mine:
                add(i, part)

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    near = dmin < 0.25 * wl.lam
    if kernel == "dipole-approx" and near.any():
        raise _inside_standoff(dmin.min(), wl)
    return FieldMap(grid, E, near, workers)
