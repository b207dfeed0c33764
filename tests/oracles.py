"""Independent reference implementations the tests compare the package with.

- Direct-integration oracles for the closed forms in ``nearfocus.analytic``:
  each integrates the continuum amplitude density that a closed form
  claims to sum, with scipy's adaptive quadrature.  The package itself
  never imports ``scipy.integrate``.
- A projected-gradient oracle that certifies the drives of
  ``nearfocus.focusing`` on small instances, and the water level from
  the ports in stable descending order and sequential cumulative sums,
  which the solver's sort-free level must match within 1e-11.
- The point-focus kernels of an ideal point-source continuum and of a
  dipole continuum, which the focal-size checks measure.
- The co/cross-polarized level ratio, with its input checks.
- The one-template CSV writer that ``nearfocus.csvio.write_csv`` must
  match byte for byte.
- Flat aperture builders, which make every row at full length, that the
  rows of ``nearfocus.geometry.Aperture`` must match bit for bit: patch
  meshes as arrays, and dipole rings and the single element as
  ``FlatSources``, which also carries sources of arbitrary orientation
  into ``nearfocus.fields``.
- ``project``, which projects field vectors on a polarization, for
  comparing the channel with the 3x3 tensors times the moments.
- ``port_scales``, each port's resistance multiplier from a channel's runs.
"""

import math

import numpy as np
from scipy import integrate

from nearfocus.analytic import sinc, spherical_j1_over_x
from nearfocus.fields import ChannelVector
from nearfocus.focusing import ExcitationWeights, PowerConstraints

_QUAD_OPTS = {"epsabs": 1.0e-12, "epsrel": 1.0e-12, "limit": 200}


def port_scales(h: ChannelVector) -> np.ndarray:
    """Each port's resistance multiplier, (N,), from the channel's runs."""
    return h.resistances(1.0, np.empty(len(h)))


def ez_cp_radial_quadrature(xf, spec):
    """Direct surface integration of the co-polarized amplitude density
    at the midplane focus (xf, 0, 0)."""
    a, length = spec.radius_a, spec.length_L

    def integrand(l, phi):
        rho2 = a * a + xf * xf - 2.0 * a * xf * math.cos(phi)
        return rho2 / (rho2 + l * l) ** 1.5

    value, _ = integrate.dblquad(
        integrand, 0.0, 2.0 * math.pi,
        lambda _: -length / 2.0, lambda _: length / 2.0,
        epsabs=1.0e-11, epsrel=1.0e-11,
    )
    return 0.25 * value


def _transverse_azimuthal_cp(component, u, a):
    # Exact azimuthal integral of the |amplitude| geometric factor.
    if component == "x":
        return 2.0 * math.pi * u * u + math.pi * a * a
    if component == "y":
        return 2.0 * a * a
    return 4.0 * a * abs(u)


def _transverse_azimuthal_tr(component, u, a):
    # Exact azimuthal integral of the squared geometric factor.
    if component == "x":
        return 2.0 * math.pi * u**4 + 2.0 * math.pi * a * a * u * u + 0.75 * math.pi * a**4
    if component == "y":
        return 0.25 * math.pi * a**4
    return math.pi * a * a * u * u


def _transverse_quadrature(component, zf, spec, azimuthal, power, scale):
    if component not in ("x", "y", "z"):
        raise ValueError(f"component must be one of x, y, z, got {component!r}")
    a, length = spec.radius_a, spec.length_L

    def integrand(l):
        u = l - zf
        return azimuthal(component, u, a) / (a * a + u * u) ** power

    value, _ = integrate.quad(
        integrand, -length / 2.0, length / 2.0, points=[zf], **_QUAD_OPTS
    )
    return scale * value


def transverse_pol_cp_quadrature(component, zf, spec):
    """Direct integration of the transverse-element |amplitude| density.

    The azimuthal integral is exact; only the axial integral is numerical.
    """
    return _transverse_quadrature(component, zf, spec, _transverse_azimuthal_cp, 1.5, 0.25)


def transverse_pol_tr_quadrature(component, zf, spec):
    """Direct integration of the transverse-element squared-amplitude density."""
    return _transverse_quadrature(
        component, zf, spec, _transverse_azimuthal_tr, 3.0, 0.25 * spec.radius_a
    )


# --------------------------------------------------------- optimality oracle

class OracleReport:
    def __init__(self, oracle_objective: float, weight_objective: float):
        self.oracle_objective = oracle_objective
        self.weight_objective = weight_objective
        denom = max(oracle_objective, weight_objective)
        self.relative_gap = (oracle_objective - weight_objective) / denom


def _project_box_ball(x: np.ndarray, cap: np.ndarray, p0: float) -> np.ndarray:
    """Exact projection of rows of x onto {0 <= u <= cap, sum u^2 <= p0}.

    The projection alternates the two constraint actions, a uniform ball
    scaling 1/(1+nu) and a box clip, with the scaling multiplier nu
    bisected until both hold simultaneously.
    """
    y = np.clip(x, 0.0, cap)
    need = np.sum(y * y, axis=1) > p0
    if not np.any(need):
        return y
    xs = x[need]
    lo = np.zeros(xs.shape[0])
    hi = np.ones(xs.shape[0])
    for _ in range(100):
        yt = np.clip(xs / (1.0 + hi)[:, None], 0.0, cap)
        bad = np.sum(yt * yt, axis=1) > p0
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        yt = np.clip(xs / (1.0 + mid)[:, None], 0.0, cap)
        over = np.sum(yt * yt, axis=1) > p0
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    y[need] = np.clip(xs / (1.0 + hi)[:, None], 0.0, cap)
    return y


def optimality_oracle(h: ChannelVector, pc: PowerConstraints,
                      weights: ExcitationWeights, seed: int = 0,
                      starts: int = 20) -> OracleReport:
    """Certify weights by independent projected gradient ascent.

    Works on the real reduced problem max sum(|g_n| a_n) over amplitude
    vectors a in the box/power-ball intersection, in coordinates where
    the power constraint is a Euclidean ball.  The step length grows
    geometrically; with an exact projection the optimum is the fixed
    point of the iteration at any step, so the iterates converge to it
    from every start.
    """
    if len(h) > 256:
        raise ValueError("oracle is limited to 256 ports")
    g = h.g
    absg = np.abs(g)
    if float(np.max(absg)) == 0.0:
        raise ValueError("channel is zero for the requested polarization")
    R = pc.R0_per_port * port_scales(h)

    s = np.sqrt(0.5 * R)      # u = s * |w| turns the power cap into a ball
    cap = s * pc.w_max
    q = absg / s
    p0 = pc.P0
    rng = np.random.default_rng(seed)
    u = _project_box_ball(rng.uniform(0.0, 1.0, size=(starts, absg.size)) * cap,
                          cap, p0)
    alpha = 0.25 * math.sqrt(p0) / float(np.linalg.norm(q))
    for _ in range(48):
        u = _project_box_ball(u + alpha * q, cap, p0)
        alpha *= 2.0
    oracle_best = float(np.max(np.sum(u * q, axis=1)))
    achieved = abs(complex(np.sum(np.asarray(weights.w) * g)))
    return OracleReport(oracle_objective=oracle_best, weight_objective=achieved)


def stable_water_level(v: np.ndarray, R: np.ndarray, cap: float, P0: float) -> float:
    """Level beta at which sum(R/2 * min(beta*v, cap)^2) equals P0.

    The ports sorted by a stable descending sort, so tied values of v
    keep their input order, and the breakpoints' powers from sequential
    cumulative sums.  Where the unclipped rest's power is below the
    budget's last bits, its level can come out low, or 0.
    """
    order = np.argsort(-v, kind="stable")
    v_desc, half_r = v[order], 0.5 * R[order]
    spent = np.cumsum(half_r * cap ** 2)
    rest = np.cumsum((v_desc ** 2 * half_r)[::-1])[::-1]
    breakpoint_power = (cap / v_desc[:-1]) ** 2 * rest[1:] + spent[:-1]
    k = int(np.count_nonzero(breakpoint_power <= P0))
    return math.sqrt((P0 - (spent[k - 1] if k else 0.0)) / rest[k])


# ------------------------------------------------------- point-focus kernels

def kernel_point(k_r: float) -> float:
    """Focal kernel of an ideal point-source continuum: sinc of k*r."""
    if k_r < 0.0:
        raise ValueError("k_r must be non-negative")
    return sinc(k_r)


def kernel_dipole(k_r: float, theta: float) -> float:
    """Focal kernel of a dipole continuum at polar angle theta from the dipole axis.

    The r -> 0 limit is 2/3 for every theta; both special-function factors
    are finite there, so no explicit branch is needed.
    """
    if k_r < 0.0:
        raise ValueError("k_r must be non-negative")
    s2 = math.sin(theta) ** 2
    return sinc(k_r) * s2 - spherical_j1_over_x(k_r) * (3.0 * s2 - 2.0)


def polarization_ratio(e_long: float, e_trans: float) -> float:
    """Ratio of the co-polarized to the cross-polarized field level."""
    if not (math.isfinite(e_long) and e_long >= 0.0):
        raise ValueError("e_long must be finite and non-negative")
    if not (math.isfinite(e_trans) and e_trans > 0.0):
        raise ValueError("e_trans must be finite and positive")
    return e_long / e_trans


# ------------------------------------------------------------- CSV writer

_BLOCK_ROWS = 65536


def template_write_csv(path, columns) -> None:
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


# --------------------------------------------------------- flat apertures

class FlatSources:
    """Dipoles as full-length (N, 3) position and unit-orientation arrays and
    one dipole length, with the row methods nearfocus.fields reads."""

    def __init__(self, xyz, orientations, length):
        self.xyz = np.asarray(xyz, dtype=float)
        self.orientations = np.asarray(orientations, dtype=float)
        self.length = float(length)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        if self.orientations.shape != self.xyz.shape:
            raise ValueError("orientations shape must match positions")
        norms = np.linalg.norm(self.orientations, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("all orientations must be unit vectors")

    def __len__(self):
        return self.xyz.shape[0]

    def positions(self, a, b):
        return np.ascontiguousarray(self.xyz[a:b].T)

    def moments(self, a, b):
        return np.multiply(self.orientations[a:b].T, self.length, order="C")


def flat_ring_array(spec, wl, polarization, dipole_length=None):
    """build_ring_array's dipoles, ring-major, every row at full length."""
    half_lam = 0.5 * wl.lam
    per_ring = int(math.ceil(2.0 * math.pi * spec.radius_a / half_lam))
    rings = int(math.floor(spec.length_L / half_lam)) + 1
    z_planes = (np.arange(rings) - 0.5 * (rings - 1)) * half_lam
    phi = 2.0 * math.pi * np.arange(per_ring) / per_ring
    cosp, sinp = np.cos(phi), np.sin(phi)
    positions = np.empty((rings * per_ring, 3))
    positions[:, 0] = np.tile(spec.radius_a * cosp, rings)
    positions[:, 1] = np.tile(spec.radius_a * sinp, rings)
    positions[:, 2] = np.repeat(z_planes, per_ring)
    if polarization == "axial":
        orientations = np.tile(np.array([0.0, 0.0, 1.0]), (rings * per_ring, 1))
    else:
        tangent = np.stack([-sinp, cosp, np.zeros(per_ring)], axis=1)
        orientations = np.tile(tangent, (rings, 1))
    return FlatSources(positions, orientations,
                       wl.lam / 100.0 if dipole_length is None else dipole_length)


def flat_single_element(radius, polarization, length):
    """The CLI's one-element aperture: a dipole at (radius, 0, 0) along z
    (axial) or y (azimuthal)."""
    orientation = [0.0, 0.0, 1.0] if polarization == "axial" else [0.0, 1.0, 0.0]
    return FlatSources([[radius, 0.0, 0.0]], [orientation], length)

def flat_cylinder_mesh(spec, n_axial, n_azimuthal):
    """Centroids (N, 3), areas (N,) and perimeter tangents (N, 3) of
    build_cylinder_mesh's patches, every row at full length."""
    dz = spec.length_L / n_axial
    dphi = 2.0 * math.pi / n_azimuthal
    z = (np.arange(n_axial) + 0.5) * dz - 0.5 * spec.length_L
    phi = (np.arange(n_azimuthal) + 0.5) * dphi
    cosp, sinp = np.cos(phi), np.sin(phi)
    n = n_axial * n_azimuthal
    centroids = np.empty((n, 3))
    centroids[:, 0] = np.tile(spec.radius_a * cosp, n_axial)
    centroids[:, 1] = np.tile(spec.radius_a * sinp, n_axial)
    centroids[:, 2] = np.repeat(z, n_azimuthal)
    areas = np.full(n, spec.radius_a * dphi * dz)
    tangents_phi = np.empty((n, 3))
    tangents_phi[:, 0] = np.tile(-sinp, n_axial)
    tangents_phi[:, 1] = np.tile(cosp, n_axial)
    tangents_phi[:, 2] = 0.0
    return centroids, areas, tangents_phi


def flat_rect_corridor_mesh(spec, patch_target):
    """Centroids (N, 3), areas (N,) and perimeter tangents (N, 3) of
    build_rect_corridor_mesh's patches, every row at full length."""
    nz = max(2, int(math.ceil(spec.length_L / patch_target)))
    walls = [
        (np.array([0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, 0.5 * spec.height_Lb, 0.0]), np.array([-1.0, 0.0, 0.0]), spec.width_La),
        (np.array([-0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, -0.5 * spec.height_Lb, 0.0]), np.array([1.0, 0.0, 0.0]), spec.width_La),
    ]
    nts = [max(1, int(math.ceil(extent / patch_target))) for _, _, extent in walls]
    n = nz * sum(nts)
    centroids = np.empty((n, 3))
    areas = np.empty(n)
    tangents_phi = np.empty((n, 3))
    dz = spec.length_L / nz
    z_offsets = ((np.arange(nz) + 0.5) * dz - 0.5 * spec.length_L)[:, None] \
        * np.array([0.0, 0.0, 1.0])
    lo = 0
    for (origin, tphi, extent), nt in zip(walls, nts):
        hi = lo + nz * nt
        dt = extent / nt
        tc = (np.arange(nt) + 0.5) * dt - 0.5 * extent
        np.add(origin + tc[:, None] * tphi, z_offsets[:, None, :],
               out=centroids[lo:hi].reshape(nz, nt, 3))
        areas[lo:hi] = dt * dz
        tangents_phi[lo:hi] = tphi
        lo = hi
    return centroids, areas, tangents_phi


# -------------------------------------------------------- field projection

def project(fields: np.ndarray, e_hat: np.ndarray) -> np.ndarray:
    """(N, 3) complex field vectors projected on the unit polarization e_hat."""
    return fields @ np.asarray(e_hat, dtype=float).astype(complex)
