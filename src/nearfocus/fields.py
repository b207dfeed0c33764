"""Vector E-field evaluation for impressed currents and Hertzian dipoles.

One routine, _dyadic, evaluates the closed-form point-source kernels
(electric current with all reactive terms, magnetic-current curl, and
the radiating 1/r dipole approximation) for the 3x3 tensors, the scalar
focal channel and the superposition of weighted sources over grids.

Sign convention: the electric kernel is oriented so that its far-field
limit reproduces the dipole constant R_e = j*eta0*l*k/(4*pi) exactly,
making the full and approximate kernels phase-compatible.  Amplitudes
are unaffected by this choice.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import FREE_SPACE_IMPEDANCE, ArrayLayout, SurfaceMesh, Wavelength

FOUR_PI = 4.0 * math.pi

# (point, source) pairs per work unit: 15 float arrays of this size per
# thread (8 MB), large enough that two threads seldom wait on the GIL
_CHUNK_BUDGET = 65_536
# sources per matmul when the grid fills a unit: BLAS adds a block's products
# one after another, so short blocks keep a focal sum's rounding small
_SOURCE_BLOCK = 512


class ChannelVector:
    """Scalar channel of every source at one focal point.

    g[n] is the component along the target polarization of the E-field
    that a unit drive of source n produces at the focus; it is all the
    weight solvers read.  resistance_scale carries the per-port resistance
    multiplier (patch area over the half-wavelength-square reference area
    for meshes, 1 for dipoles).
    """

    def __init__(self, g: np.ndarray, resistance_scale: np.ndarray):
        self.g = np.asarray(g, dtype=complex)
        self.resistance_scale = np.asarray(resistance_scale, dtype=float)
        if self.g.ndim != 1:
            raise ValueError("g must be (N,)")
        if self.resistance_scale.shape != self.g.shape:
            raise ValueError("resistance_scale must have one value per source")
        if np.any(self.resistance_scale <= 0.0):
            raise ValueError("resistance scales must be positive")

    def __len__(self) -> int:
        return self.g.shape[0]


def project(fields: np.ndarray, e_hat: np.ndarray) -> np.ndarray:
    """(N, 3) complex field vectors projected on the unit polarization e_hat."""
    return fields @ np.asarray(e_hat, dtype=float).astype(complex)


class FieldMap:
    """Sampled complex vector E-field over an evaluation grid."""

    def __init__(self, points: np.ndarray, E: np.ndarray, near_singular: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.E = np.asarray(E, dtype=complex)
        self.near_singular = np.asarray(near_singular, dtype=bool)
        if self.E.shape != self.points.shape or self.near_singular.shape != (self.points.shape[0],):
            raise ValueError("inconsistent field map shapes")

    def __len__(self) -> int:
        return self.points.shape[0]

    def component(self, axis: str) -> np.ndarray:
        return self.E[:, "xyz".index(axis)]


# ------------------------------------------------------------------ kernel

def _dyadic(points, src, moments, k, kernel, source_kind, scratch, standoff=0.0,
            rhs=None):
    """The dyadic kernel on one work unit, and each point's nearest-source distance.

    With r_hat the unit vector from source to point, moment m gives A*m + C*g
    for (P, N) complex scalars A and C: g = r_hat and C = B*(m.r_hat) for
    electric currents, g = r_hat x m and A = 0 for magnetic ones.  Given
    rhs = [wm, w] as [re | im] columns, the weighted sum over sources is
    E = A@wm + sum_i ((C*g_i)@w) e_i in real matmuls; without, the point's
    per-source fields come back as (N, 3).  The (P, N) arrays are consecutive
    slices of scratch, which a thread reuses from unit to unit.
    """
    P, n = points.shape[0], points.shape[0] * src.shape[0]
    x, y, z, R, Ar, Ai, Cr, Ci, sin, cos, q, md, tb, u, tmp = (
        scratch[i * n:(i + 1) * n].reshape(P, -1) for i in range(15))
    for i, v in enumerate((x, y, z)):
        np.subtract(points[:, i, None], src[:, i], out=v)
    np.multiply(x, x, out=R)
    R += np.multiply(y, y, out=u)
    R += np.multiply(z, z, out=u)
    dmin = np.sqrt(R, out=R).min(axis=1)
    if not np.all(dmin > 0.0):
        raise ValueError("grid point coincides with a source")
    if np.any(dmin < standoff):
        raise ValueError(f"a point lies {dmin.min()} m from a source, inside the "
                         f"quarter-wavelength standoff {standoff} m")
    # r_hat by division: on a source's axis it is exactly a unit axis, so the
    # radiating kernel's A*m and C*r_hat cancel to 0
    for v in (x, y, z):
        np.divide(v, R, out=v)
    # exp(-jkR) = (cos - j sin) / (1 + h^2) with cos = 1 - h^2, sin = 2h and
    # h = tan(kR/2): one vectorized tan in place of scalar libm sin and cos;
    # q carries the 1/(1 + h^2)
    np.tan(np.multiply(R, 0.5 * k, out=sin), out=sin)
    np.add(np.multiply(sin, sin, out=cos), 1.0, out=q)
    np.subtract(1.0, cos, out=cos)
    sin *= 2.0
    inv = np.divide(1.0, R, out=R)
    np.divide(inv, q, out=q)
    if source_kind == "magnetic":
        # C = (jk + 1/R) exp(-jkR) / (4 pi R)
        q *= 1.0 / FOUR_PI
        _phasor(sin, cos, k, inv, q, Cr, Ci, tmp)
        mx, my, mz = moments.T
        np.subtract(np.multiply(y, mz, out=Ar), np.multiply(z, my, out=u), out=Ar)
        np.subtract(np.multiply(z, mx, out=Ai), np.multiply(x, mz, out=u), out=Ai)
        np.subtract(np.multiply(x, my, out=z), np.multiply(y, mx, out=u), out=z)
        g = (Ar, Ai, z)
    else:
        # A = j k eta0 exp(-jkR) / (4 pi R) * (a - jt) and C = the same times
        # (b + 3jt) (m.r_hat), where a = 1 - t^2, b = 3t^2 - 1, t = 1/(kR);
        # the radiating approximation keeps a = 1, b = -1, t = 0
        q *= k * FREE_SPACE_IMPEDANCE / FOUR_PI
        np.multiply(x, moments[:, 0], out=md)
        md += np.multiply(y, moments[:, 1], out=u)
        md += np.multiply(z, moments[:, 2], out=u)
        a, t = 1.0, 0.0
        if kernel == "full":
            t = np.multiply(inv, 1.0 / k, out=tb)
            a = np.subtract(1.0, np.multiply(t, t, out=u), out=u)
        _phasor(sin, cos, a, t, q, Ar, Ai, tmp)
        a *= -3.0
        a += 2.0
        t *= -3.0
        _phasor(sin, cos, a, t, q, Cr, Ci, tmp)
        Cr *= md
        Ci *= md
        g = (x, y, z)
    # C*g in the six slices after Ci: real x, y, z, then imaginary x, y, z
    G = scratch[8 * n:14 * n].reshape(6, P, -1)
    for i, v in enumerate(g):
        np.multiply(Cr, v, out=G[i])
        np.multiply(Ci, v, out=G[3 + i])
    if rhs is None:
        E = (G[:3, 0] + 1j * G[3:, 0]).T
        if source_kind == "electric":
            E += (Ar[0] + 1j * Ai[0])[:, None] * moments
        return E, dmin
    E = _cmatmul(G.reshape(6 * P, -1), rhs[1]).reshape(3, P).T
    if source_kind == "electric":
        E += _cmatmul(scratch[4 * n:6 * n].reshape(2 * P, -1), rhs[0])
    return E, dmin


def _phasor(sin, cos, x, y, q, re, im, tmp):
    """re + j im = (sin + j cos) * (x - j y) * q, written in place."""
    np.multiply(sin, x, out=re)
    re += np.multiply(cos, y, out=tmp)
    re *= q
    np.multiply(cos, x, out=im)
    im -= np.multiply(sin, y, out=tmp)
    im *= q


def _cmatmul(stacked, M):
    """(re + j im) @ (Mr + j Mi) by one real matmul, stacked = [re; im], M = [Mr | Mi]."""
    h, q = stacked.shape[0] // 2, M.shape[1] // 2
    out = stacked @ M
    a, b = out[:h], out[h:]
    return a[:, :q] - b[:, q:] + 1j * (a[:, q:] + b[:, :q])


def _units(n_points, n_src):
    """(point slice, source slice) units cut by problem size, and the scratch size."""
    block = min(n_src, max(_SOURCE_BLOCK, _CHUNK_BUDGET // max(1, n_points)))
    per = max(1, _CHUNK_BUDGET // block)
    units = [(slice(p, p + per), slice(s, s + block))
             for p in range(0, n_points, per) for s in range(0, n_src, block)]
    return units, 15 * min(per, n_points) * block


def _point_tensor(r, r_src, wl, source_kind):
    point, src = np.atleast_2d(np.asarray(r, dtype=float)), np.tile(r_src, (3, 1))
    entries, _ = _dyadic(point, src.astype(float), np.eye(3), wl.k, "full", source_kind,
                         np.empty(_units(1, 3)[1]))
    return entries.T


def green_electric(r: np.ndarray, r_src: np.ndarray, wl: Wavelength) -> np.ndarray:
    """Electric-current kernel: 3x3 tensor with all 1/R..1/R^3 terms."""
    return _point_tensor(r, r_src, wl, "electric")


def green_magnetic(r: np.ndarray, r_src: np.ndarray, wl: Wavelength) -> np.ndarray:
    """Magnetic-current curl kernel: antisymmetric 3x3 tensor."""
    return _point_tensor(r, r_src, wl, "magnetic")


# -------------------------------------------------------- vectorized fields

def _source_arrays(sources, mesh_current: str):
    """Positions, and the unit-drive moment vectors of a slice of sources.

    Moments are formed per slice, so no (N, 3) moment array is ever held.
    """
    if isinstance(sources, ArrayLayout):
        return sources.positions, lambda s: sources.orientations[s] * sources.length_l
    if isinstance(sources, SurfaceMesh):
        if mesh_current == "z":
            tang = sources.tangents_z
        elif mesh_current == "phi":
            tang = sources.tangents_phi
        else:
            raise ValueError(f"unknown mesh current direction {mesh_current!r}")
        return sources.centroids, lambda s: tang[s] * sources.areas[s, None]
    raise TypeError(f"unsupported source container {type(sources).__name__}")


def _check_kernel(kernel: str, source_kind: str) -> None:
    if kernel not in ("full", "dipole-approx"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if source_kind not in ("electric", "magnetic"):
        raise ValueError(f"unknown source kind {source_kind!r}")
    if kernel == "dipole-approx" and source_kind == "magnetic":
        raise ValueError("the dipole approximation applies to electric sources only")


def assemble_channel(sources, focal: np.ndarray, e_hat: np.ndarray, wl: Wavelength,
                     kernel: str = "full", source_kind: str = "electric",
                     mesh_current: str = "z") -> ChannelVector:
    """Per-source scalar channel at the focal point for unit drives.

    Unit drive means 1 A for a dipole element and a unit surface-current
    density (1 A/m times the patch area) for a mesh patch.  The focal
    point must keep the quarter-wavelength standoff from every source
    and sit inside the aperture's bounding region.  Each work unit's field
    vectors are projected on e_hat as soon as they are computed.
    """
    _check_kernel(kernel, source_kind)
    focal = np.asarray(focal, dtype=float)
    if abs(float(np.linalg.norm(e_hat)) - 1.0) > 1e-12:
        raise ValueError("e_hat must be a unit vector")
    src_pos, moments = _source_arrays(sources, mesh_current)

    lo, hi = src_pos.min(axis=0), src_pos.max(axis=0)
    if np.any(focal < lo - 1e-12) or np.any(focal > hi + 1e-12):
        raise ValueError("focal point lies outside the aperture region")
    n = src_pos.shape[0]
    g = np.empty(n, dtype=complex)
    units, size = _units(1, n)
    scratch = np.empty(size)
    for _, s in units:
        E, _ = _dyadic(focal[None, :], src_pos[s], moments(s), wl.k, kernel,
                       source_kind, scratch, standoff=0.25 * wl.lam)
        g[s] = project(E, e_hat)

    if isinstance(sources, SurfaceMesh):
        return ChannelVector(g, sources.areas / (0.5 * wl.lam) ** 2)
    return ChannelVector(g, np.ones(n))


def evaluate_field(sources, weights, grid: np.ndarray, wl: Wavelength,
                   kernel: str = "full", source_kind: str = "electric",
                   mesh_current: str = "z", threads: int = 1) -> FieldMap:
    """Superpose weighted per-source fields over a grid of points.

    The approximate kernel refuses points inside the quarter-wavelength
    standoff; the full kernel evaluates them (it is finite anywhere off
    the source) but flags them near_singular.
    """
    _check_kernel(kernel, source_kind)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    src_pos, moments = _source_arrays(sources, mesh_current)
    w = np.asarray(getattr(weights, "w", weights), dtype=complex)
    if w.shape != (src_pos.shape[0],):
        raise ValueError("need one weight per source")

    standoff = 0.25 * wl.lam if kernel == "dipole-approx" else 0.0
    units, size = _units(grid.shape[0], src_pos.shape[0])
    workers = max(1, min(threads, len(units)))
    parts = [None] * len(units)

    def work(first):
        # each worker takes every workers-th unit and keeps one scratch
        scratch = np.empty(size)
        for i in range(first, len(units), workers):
            p, s = units[i]
            m, ws = moments(s), w[s, None]
            rhs = [np.hstack([M.real, M.imag]) for M in (ws * m, ws)]
            parts[i] = _dyadic(grid[p], src_pos[s], m, wl.k, kernel, source_kind,
                               scratch, standoff, rhs)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, range(workers)))
    E = np.zeros(grid.shape, dtype=complex)
    dmin = np.full(grid.shape[0], np.inf)
    for (p, _), (e, d) in zip(units, parts):
        E[p] += e
        np.minimum(dmin[p], d, out=dmin[p])
    return FieldMap(grid, E, dmin < 0.25 * wl.lam)
