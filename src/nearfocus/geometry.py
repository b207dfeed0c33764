"""Aperture geometry: dipole ring arrays and surface meshes.

Every source description used downstream is one Aperture: cross-section
strips repeated at axial offsets, with the current direction fixed when
it is built.  Discrete rings of Hertzian dipoles wrapped around a
cylindrical corridor are one strip of ring slots at the ring planes;
rectangular-patch meshes of the corridor wall itself (cylinder or
four-wall rectangular cross section) are one strip per wall on a grid of
patch rows; a single element is a one-point strip at z = 0.  An aperture
makes the positions and moments of any slice of its rows on request, so
it holds no array of length N.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0          # m/s
FREE_SPACE_IMPEDANCE = 376.730313668  # ohm

# rows per block of Aperture.scan_box: its temporaries are a block's
_ROW_BLOCK = 65_536


@dataclass(frozen=True)
class Wavelength:
    """Free-space wavelength bundle for a single operating frequency."""

    frequency: float  # Hz
    lam: float        # m
    k: float          # rad/m

    @staticmethod
    def from_frequency(frequency: float) -> "Wavelength":
        if not (frequency > 0.0 and math.isfinite(frequency)):
            raise ValueError(f"frequency must be positive and finite, got {frequency}")
        lam = SPEED_OF_LIGHT / frequency
        return Wavelength(frequency=frequency, lam=lam, k=2.0 * math.pi / lam)


@dataclass(frozen=True)
class CylinderSpec:
    radius_a: float  # m
    length_L: float  # m

    def __post_init__(self):
        if not (self.radius_a > 0.0 and self.length_L > 0.0):
            raise ValueError("cylinder radius and length must be positive")


@dataclass(frozen=True)
class RectCorridorSpec:
    """Rectangular corridor cross section, width x height, axis along z."""

    width_La: float   # m
    height_Lb: float  # m
    length_L: float   # m

    def __post_init__(self):
        if not (self.width_La >= self.height_Lb > 0.0):
            raise ValueError("require width_La >= height_Lb > 0")
        if not self.length_L > 0.0:
            raise ValueError("corridor length must be positive")

    def inscribed_radius(self) -> float:
        return 0.5 * self.height_Lb

    def circumscribed_radius(self) -> float:
        return 0.5 * math.hypot(self.width_La, self.height_Lb)


# the corridor axis: every aperture repeats its strips along it, so it is
# every element's axial tangent
AXIAL = np.array([0.0, 0.0, 1.0])
AXIAL.setflags(write=False)


class Strip:
    """One cross section of an aperture: M element positions at z = 0 and
    their perimeter tangents (unit vectors across the axis) as (3, M)
    columns, the size of each element (patch area or dipole length) and
    the scale of its port resistance.

    A tangent that is the same for every point may be given as one (3, 1)
    column; it is kept as a read-only broadcast, not M copies.
    """

    def __init__(self, positions: np.ndarray, tangents: np.ndarray, size: float,
                 resistance_scale: float):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] != 3:
            raise ValueError("strip positions must be (3, M) columns")
        tangents = np.asarray(tangents, dtype=float)
        self.tangents = np.broadcast_to(tangents, self.positions.shape)
        self.size = float(size)
        self.resistance_scale = float(resistance_scale)
        if not (self.size > 0.0 and self.resistance_scale > 0.0):
            raise ValueError("element sizes and resistance scales must be positive")
        # one (M,) temporary at a time: the squared norms, then the axial
        # components, which are the dot products with the axial tangent
        norm2 = np.einsum("ij,ij->j", tangents, tangents)
        norm2 -= 1.0
        if np.max(np.abs(norm2, out=norm2), initial=0.0) > 1e-12:
            raise ValueError("perimeter tangents must be unit vectors")
        del norm2
        if np.max(np.abs(tangents[2]), initial=0.0) > 1e-12:
            raise ValueError("perimeter tangents must be orthogonal to the axis")
        self.positions.setflags(write=False)

    def __len__(self) -> int:
        return self.positions.shape[1]


class Aperture:
    """Sources on a corridor wall: cross-section strips repeated at axial
    offsets, with one current direction.

    Strip b's row lo_b + i*M_b + j is its point j moved by z[i] along the
    axis, where lo_b counts the rows of the strips before b.  A mesh's
    strips are its walls' patch profiles and z its grid of patch rows; a
    dipole ring array is one strip of ring slots, and z its ring planes.
    Every element's current runs along AXIAL ("axial" polarization) or
    along its strip's perimeter tangent ("azimuthal").  The aperture holds
    only the strips and offsets; the rows of any slice [a, b) are made on
    request as (3, b - a) columns, whole z-rows at a time.
    """

    def __init__(self, strips, z, polarization: str):
        self.strips = tuple(strips)
        self.z = np.asarray(z, dtype=float)
        if polarization not in ("axial", "azimuthal"):
            raise ValueError(f"unknown polarization {polarization!r}")
        self.polarization = polarization
        if not (self.strips and self.z.ndim == 1 and self.z.size):
            raise ValueError("an aperture needs strips and axial offsets")
        self.z.setflags(write=False)
        # each strip's unit-drive moment profile, its size times its direction
        self._moments = [(np.broadcast_to(AXIAL[:, None], s.positions.shape)
                          if polarization == "axial" else s.tangents) * s.size
                         for s in self.strips]

    def __len__(self) -> int:
        return self.z.size * sum(len(s) for s in self.strips)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise min and max over every position, exactly.

        Rounded addition is monotone in each operand, so the extremes are
        the profile's extremes plus the extreme axial offsets.
        """
        lo = np.min([s.positions.min(axis=1) for s in self.strips], axis=0)
        hi = np.max([s.positions.max(axis=1) for s in self.strips], axis=0)
        lo[2] += self.z.min()
        hi[2] += self.z.max()
        return lo, hi

    def scan_box(self, lo: np.ndarray, hi: np.ndarray, axes) -> tuple[float, list]:
        """The least distance from any element to the box of corners lo and
        hi, (3,) each, and for each coordinate c in axes the least sum of an
        element's distances to the two ends of the box's nearest line along
        c, sqrt((p_c - lo_c)**2 + d**2) + sqrt((p_c - hi_c)**2 + d**2),
        where d is how far the element lies outside the box's slabs across
        c.  One scan in blocks of _ROW_BLOCK rows, whose temporaries each
        block reuses."""
        n = len(self)
        gap = np.empty((3, min(n, _ROW_BLOCK)))
        across, r, t = (np.empty(gap.shape[1]) for _ in range(3))
        least, sums = math.inf, [math.inf] * len(axes)
        for a in range(0, n, _ROW_BLOCK):
            p = self.positions(a, min(a + _ROW_BLOCK, n))
            size = p.shape[1]
            g, d2, rb, tb = gap[:, :size], across[:size], r[:size], t[:size]
            # per component, how far each element lies outside the box's slab
            for i in range(3):
                np.maximum(np.subtract(lo[i], p[i], out=g[i]),
                           np.subtract(p[i], hi[i], out=tb), out=g[i])
            np.maximum(g, 0.0, out=g)
            least = min(least, float(np.sum(np.square(g, out=g), axis=0, out=d2).min()))
            for i, c in enumerate(axes):
                # d**2: the squared gaps outside the slabs of the other two
                np.add(g[(c + 1) % 3], g[(c + 2) % 3], out=d2)
                for end, out in ((lo[c], rb), (hi[c], tb)):
                    np.square(np.subtract(p[c], end, out=out), out=out)
                    np.sqrt(np.add(out, d2, out=out), out=out)
                sums[i] = min(sums[i], float(np.add(rb, tb, out=rb).min()))
        return math.sqrt(least), sums

    def _pieces(self, a: int, b: int):
        """Rows [a, b) as rectangles of z-rows by strip points: (strip index,
        first z-row, z-rows, first point, points, offset in the slice)."""
        lo, nz = 0, self.z.size
        for k, strip in enumerate(self.strips):
            m = len(strip)
            u, v = max(a - lo, 0), min(b - lo, m * nz)
            while u < v:
                row, j = divmod(u, m)
                # part of one z-row, or every whole z-row left
                rows, n = (1, min(m - j, v - u)) if j or v - u < m else ((v - u) // m, m)
                yield k, row, rows, j, n, lo + u - a
                u += rows * n
            lo += m * nz

    def rows(self, a: int, b: int, profiles, axial: bool = False) -> np.ndarray:
        """Rows [a, b) of one (k, M) profile per strip, M its points,
        (k, b - a), with z added to the third component if axial."""
        if not 0 <= a <= b <= len(self):
            raise IndexError(f"rows [{a}, {b}) outside an aperture of {len(self)}")
        out = np.empty((len(profiles[0]), b - a))
        for k, row, rows, j, n, at in self._pieces(a, b):
            # a view: the slice's rows are contiguous
            dst = out[:, at:at + rows * n].reshape(-1, rows, n)
            np.copyto(dst, profiles[k][:, None, j:j + n])
            if axial:
                dst[2] += self.z[row:row + rows, None]
        return out

    def positions(self, a: int, b: int) -> np.ndarray:
        """Element positions of rows [a, b), (3, b - a)."""
        return self.rows(a, b, [s.positions for s in self.strips], axial=True)

    def moments(self, a: int, b: int) -> np.ndarray:
        """Each element's size times its unit current direction for rows
        [a, b), (3, b - a): the moment of a unit drive."""
        return self.rows(a, b, self._moments)


def _check_fits(n: int, per: int = 16, what: str = "sources: their channel") -> None:
    """Refuse, before any array is built, n items whose one full-length
    array alone, per B each, exceeds the machine's physical memory: an
    aperture's channel (16 B per source) unless told otherwise.  Where the
    system does not report it, the first array too large to allocate
    fails instead."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if per * n > physical:
        raise MemoryError(f"{n} {what} alone needs {per * n} B, "
                          f"more than the {physical} B of physical memory")


def _circular_strip(radius: float, phi: np.ndarray, size: float,
                    resistance_scale: float) -> Strip:
    """A strip round the circle of the given radius at the angles phi:
    positions radius * (cos phi, sin phi, 0), tangents (-sin phi, cos phi, 0)."""
    cosp, sinp, zero = np.cos(phi), np.sin(phi), np.zeros(phi.size)
    return Strip(np.stack([radius * cosp, radius * sinp, zero]),
                 np.stack([-sinp, cosp, zero]), size, resistance_scale)


def build_ring_array(spec: CylinderSpec, wl: Wavelength,
                     polarization: str = "axial",
                     dipole_length: float | None = None) -> Aperture:
    """Stack concentric dipole rings on the cylinder surface: one strip of
    ring slots, repeated at the ring planes.

    Each ring closes the circumference with equal arcs no longer than
    half a wavelength; rings are stacked at exactly half-wavelength
    pitch, centered on z=0.  Axial polarization orients every dipole
    along z, azimuthal along the local ring tangent.
    """
    half_lam = 0.5 * wl.lam
    if spec.radius_a < 0.25 * wl.lam:
        raise ValueError(
            f"cylinder radius {spec.radius_a} m is below the quarter-wavelength "
            f"floor {0.25 * wl.lam} m for ring construction")
    per_ring = int(math.ceil(2.0 * math.pi * spec.radius_a / half_lam))
    rings = int(math.floor(spec.length_L / half_lam)) + 1
    _check_fits(per_ring * rings)
    if dipole_length is None:
        dipole_length = wl.lam / 100.0
    strip = _circular_strip(spec.radius_a, 2.0 * math.pi * np.arange(per_ring) / per_ring,
                            dipole_length, 1.0)
    # centered stack; odd ring counts put a ring plane exactly at z=0
    return Aperture([strip], (np.arange(rings) - 0.5 * (rings - 1)) * half_lam, polarization)


def _axial_grid(length_L: float, nz: int) -> np.ndarray:
    """The centres of nz equal rows along a length L centred on z = 0,
    (i + 1/2) L/nz - L/2, computed in place."""
    z = np.arange(nz, dtype=float)
    z += 0.5
    z *= length_L / nz
    z -= 0.5 * length_L
    return z


def _patch_resistance_scale(area: float, wl: Wavelength) -> float:
    """A patch port's resistance over the base: its area over a half-wavelength square."""
    return area / (0.5 * wl.lam) ** 2


def build_cylinder_mesh(spec: CylinderSpec, n_axial: int, n_azimuthal: int,
                        wl: Wavelength, polarization: str = "axial") -> Aperture:
    """Segment the cylinder wall into n_axial x n_azimuthal flat patches:
    one strip of n_azimuthal points."""
    if n_axial < 2:
        raise ValueError("need at least 2 axial segments")
    if n_azimuthal < 3:
        raise ValueError("need at least 3 azimuthal segments")
    _check_fits(n_axial * n_azimuthal)
    dphi = 2.0 * math.pi / n_azimuthal
    # exact arc area so the patch areas tile the wall
    area = spec.radius_a * dphi * (spec.length_L / n_axial)
    strip = _circular_strip(spec.radius_a, (np.arange(n_azimuthal) + 0.5) * dphi, area,
                            _patch_resistance_scale(area, wl))
    return Aperture([strip], _axial_grid(spec.length_L, n_axial), polarization)


def build_rect_corridor_mesh(spec: RectCorridorSpec, patch_target: float,
                             wl: Wavelength, polarization: str = "axial") -> Aperture:
    """Mesh the four walls of a rectangular corridor with square-ish patches:
    one strip per wall.

    patch_target caps the patch edge length and may not exceed a quarter
    wavelength, keeping the point-dipole treatment of patches valid.
    """
    if patch_target <= 0.0:
        raise ValueError("patch_target must be positive")
    if patch_target > 0.25 * wl.lam + 1e-15:
        raise ValueError(
            f"patch_target {patch_target} m exceeds quarter wavelength {0.25 * wl.lam} m")

    # walls ordered +x, +y, -x, -y; perimeter tangent is counterclockwise
    # as seen from +z, playing the role of the cylinder's phi direction
    walls = [
        (np.array([0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, 0.5 * spec.height_Lb, 0.0]), np.array([-1.0, 0.0, 0.0]), spec.width_La),
        (np.array([-0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, -0.5 * spec.height_Lb, 0.0]), np.array([1.0, 0.0, 0.0]), spec.width_La),
    ]
    nz = max(2, int(math.ceil(spec.length_L / patch_target)))
    # patches across each wall
    nts = [max(1, int(math.ceil(extent / patch_target))) for _, _, extent in walls]
    _check_fits(nz * sum(nts))
    dz = spec.length_L / nz
    strips = []
    for (origin, tphi, extent), nt in zip(walls, nts):
        dt = extent / nt
        tc = (np.arange(nt) + 0.5) * dt - 0.5 * extent
        positions = np.multiply.outer(tphi, tc)
        positions += origin[:, None]
        area = dt * dz
        strips.append(Strip(positions, tphi[:, None], area, _patch_resistance_scale(area, wl)))
    return Aperture(strips, _axial_grid(spec.length_L, nz), polarization)
