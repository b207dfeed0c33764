"""Aperture geometry: dipole ring arrays and surface meshes.

Builds the two source descriptions used everywhere downstream: discrete
rings of Hertzian dipoles wrapped around a cylindrical corridor, and
rectangular-patch meshes of the corridor wall itself (cylinder or
four-wall rectangular cross section).  Layouts store flat (N,) and
(N, 3) numpy arrays.  A mesh stores one cross-section strip per wall and
its axial grid, and makes the rows of any slice on request, so it holds
no array of length N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0          # m/s
FREE_SPACE_IMPEDANCE = 376.730313668  # ohm


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


class ArrayLayout:
    """Ordered collection of dipole elements arranged in stacked rings.

    Index order is ring-major: element i sits in ring i // per_ring at
    azimuthal slot i % per_ring.  positions and orientations are (N, 3)
    float arrays.
    """

    def __init__(self, positions: np.ndarray, orientations: np.ndarray,
                 rings: int, per_ring: int, spacing_d: float, length_l: float):
        positions = np.asarray(positions, dtype=float)
        orientations = np.asarray(orientations, dtype=float)
        if positions.shape != (rings * per_ring, 3):
            raise ValueError("positions shape must be (rings*per_ring, 3)")
        if orientations.shape != positions.shape:
            raise ValueError("orientations shape must match positions")
        norms = np.linalg.norm(orientations, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("all orientations must be unit vectors")
        self.positions = positions
        self.orientations = orientations
        self.rings = rings
        self.per_ring = per_ring
        self.spacing_d = spacing_d
        self.length_l = length_l
        positions.setflags(write=False)
        orientations.setflags(write=False)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise min and max over every element position."""
        # column by column: numpy reduces an (N, 3) array over axis 0 eight
        # times slower
        return (np.array([c.min() for c in self.positions.T]),
                np.array([c.max() for c in self.positions.T]))


# the corridor axis: every mesh repeats its strips along it, so it is
# every patch's axial tangent
AXIAL = np.array([0.0, 0.0, 1.0])
AXIAL.setflags(write=False)


class Strip:
    """One wall's cross section: M patch centroids at z = 0 and their
    perimeter tangents as (3, M) columns, and the area of its patches.

    A tangent that is the same for every point may be given as one (3, 1)
    column; it is kept as a read-only broadcast, not M copies.
    """

    def __init__(self, positions: np.ndarray, tangents_phi: np.ndarray, area: float):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] != 3:
            raise ValueError("strip positions must be (3, M) columns")
        self.tangents_phi = np.broadcast_to(np.asarray(tangents_phi, dtype=float),
                                            self.positions.shape)
        self.area = float(area)
        if not self.area > 0.0:
            raise ValueError("patch areas must be positive")
        # the axial tangent is z, so the z component is the dot product;
        # one (M,) temporary
        if np.max(np.abs(self.tangents_phi[2]), initial=0.0) > 1e-12:
            raise ValueError("patch tangents must be orthogonal")
        self.positions.setflags(write=False)

    def __len__(self) -> int:
        return self.positions.shape[1]


class SurfaceMesh:
    """Flat-patch mesh of a corridor wall: cross-section strips repeated
    along the axis.

    The length L is cut into nz rows at z_i = (i + 1/2) L/nz - L/2.  Strip
    b's row lo_b + i*M_b + j is its point j moved by z_i along the axis:
    centroid positions[:, j] with z_i added to its z, perimeter tangent
    tangents_phi[:, j], axial tangent AXIAL and the strip's area, where
    lo_b counts the rows of the strips before b.  The mesh holds only the
    strips; the rows of any slice [a, b) are made on request as (3, b - a)
    columns, whole z-rows at a time.
    """

    def __init__(self, strips, length_L: float, nz: int):
        self.strips = tuple(strips)
        self.length_L = float(length_L)
        self.nz = int(nz)
        if not (self.strips and self.nz >= 1 and self.length_L > 0.0):
            raise ValueError("a mesh needs strips, axial rows and a positive length")

    def __len__(self) -> int:
        return self.nz * sum(len(s) for s in self.strips)

    def total_area(self) -> float:
        return self.nz * sum(len(s) * s.area for s in self.strips)

    def _z(self, rows: np.ndarray) -> np.ndarray:
        """Axial offsets of the given z-rows."""
        return (rows + 0.5) * (self.length_L / self.nz) - 0.5 * self.length_L

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise min and max over every centroid, exactly.

        Rounded addition is monotone in each operand, so the extremes are
        the profile's extremes plus the extreme axial offsets.
        """
        lo = np.min([s.positions.min(axis=1) for s in self.strips], axis=0)
        hi = np.max([s.positions.max(axis=1) for s in self.strips], axis=0)
        z_first, z_last = self._z(np.array([0, self.nz - 1]))
        lo[2] += z_first
        hi[2] += z_last
        return lo, hi

    def _pieces(self, a: int, b: int):
        """Rows [a, b) as rectangles of z-rows by strip points: (strip, first
        z-row, z-rows, first point, points, offset in the slice)."""
        lo = 0
        for strip in self.strips:
            m = len(strip)
            u, v = max(a - lo, 0), min(b - lo, m * self.nz)
            while u < v:
                row, j = divmod(u, m)
                # part of one z-row, or every whole z-row left
                rows, n = (1, min(m - j, v - u)) if j or v - u < m else ((v - u) // m, m)
                yield strip, row, rows, j, n, lo + u - a
                u += rows * n
            lo += m * self.nz

    def _rows(self, a: int, b: int, k: int, profile, axial: bool = False) -> np.ndarray:
        """Rows [a, b) of a per-strip (k, M) or (k, 1) profile, (k, b - a),
        with z_i added to the third component if axial."""
        if not 0 <= a <= b <= len(self):
            raise IndexError(f"rows [{a}, {b}) outside a mesh of {len(self)}")
        out = np.empty((k, b - a))
        for strip, row, rows, j, n, at in self._pieces(a, b):
            # a view: the slice's rows are contiguous
            dst = out[:, at:at + rows * n].reshape(k, rows, n)
            src = profile(strip)
            np.copyto(dst, src[:, None, j:j + n] if src.shape[1] > 1 else src[:, None])
            if axial:
                dst[2] += self._z(np.arange(row, row + rows))[:, None]
        return out

    def positions(self, a: int, b: int) -> np.ndarray:
        """Centroids of rows [a, b), (3, b - a)."""
        return self._rows(a, b, 3, lambda s: s.positions, axial=True)

    def tangents_phi(self, a: int, b: int) -> np.ndarray:
        """Perimeter tangents of rows [a, b), (3, b - a)."""
        return self._rows(a, b, 3, lambda s: s.tangents_phi)

    def areas(self, a: int, b: int) -> np.ndarray:
        """Patch areas of rows [a, b), (b - a,)."""
        return self._rows(a, b, 1, lambda s: np.array([[s.area]]))[0]

    def moments(self, a: int, b: int, direction: str) -> np.ndarray:
        """Each patch's area times its unit tangent along direction ("z" or
        "phi") for rows [a, b), (3, b - a): the moment of a unit current."""
        if direction == "z":
            return self._rows(a, b, 3, lambda s: AXIAL[:, None] * s.area)
        if direction == "phi":
            return self._rows(a, b, 3, lambda s: s.tangents_phi * s.area)
        raise ValueError(f"unknown mesh current direction {direction!r}")


def _ring_z_planes(length_L: float, half_lam: float) -> np.ndarray:
    rings = int(math.floor(length_L / half_lam)) + 1
    # centered stack; odd ring counts put a ring plane exactly at z=0
    return (np.arange(rings) - 0.5 * (rings - 1)) * half_lam


def build_ring_array(spec: CylinderSpec, wl: Wavelength,
                     polarization: str = "axial",
                     dipole_length: float | None = None) -> ArrayLayout:
    """Stack concentric dipole rings on the cylinder surface.

    Each ring closes the circumference with equal arcs no longer than
    half a wavelength; rings are stacked at exactly half-wavelength
    pitch, centered on z=0.  Axial polarization orients every dipole
    along z, azimuthal along the local ring tangent.
    """
    if polarization not in ("axial", "azimuthal"):
        raise ValueError(f"unknown polarization {polarization!r}")
    half_lam = 0.5 * wl.lam
    if spec.radius_a < 0.25 * wl.lam:
        raise ValueError(
            f"cylinder radius {spec.radius_a} m is below the quarter-wavelength "
            f"floor {0.25 * wl.lam} m for ring construction")
    per_ring = int(math.ceil(2.0 * math.pi * spec.radius_a / half_lam))
    if per_ring < 3:
        raise ValueError(f"degenerate ring with {per_ring} elements")
    z_planes = _ring_z_planes(spec.length_L, half_lam)
    rings = z_planes.size

    phi = 2.0 * math.pi * np.arange(per_ring) / per_ring
    cosp, sinp = np.cos(phi), np.sin(phi)
    ring_xy = np.stack([spec.radius_a * cosp, spec.radius_a * sinp], axis=1)

    positions = np.empty((rings * per_ring, 3))
    positions[:, 0] = np.tile(ring_xy[:, 0], rings)
    positions[:, 1] = np.tile(ring_xy[:, 1], rings)
    positions[:, 2] = np.repeat(z_planes, per_ring)

    if polarization == "axial":
        orientations = np.tile(np.array([0.0, 0.0, 1.0]), (rings * per_ring, 1))
    else:
        tangent = np.stack([-sinp, cosp, np.zeros(per_ring)], axis=1)
        orientations = np.tile(tangent, (rings, 1))

    if dipole_length is None:
        dipole_length = wl.lam / 100.0
    return ArrayLayout(positions, orientations, rings=rings, per_ring=per_ring,
                       spacing_d=half_lam, length_l=dipole_length)


def build_cylinder_mesh(spec: CylinderSpec, n_axial: int, n_azimuthal: int) -> SurfaceMesh:
    """Segment the cylinder wall into n_axial x n_azimuthal flat patches:
    one strip of n_azimuthal points."""
    if n_axial < 2:
        raise ValueError("need at least 2 axial segments")
    if n_azimuthal < 3:
        raise ValueError("need at least 3 azimuthal segments")
    dphi = 2.0 * math.pi / n_azimuthal
    phi = (np.arange(n_azimuthal) + 0.5) * dphi
    cosp, sinp = np.cos(phi), np.sin(phi)
    zero = np.zeros(n_azimuthal)
    # exact arc area so the patch areas tile the wall
    area = spec.radius_a * dphi * (spec.length_L / n_axial)
    strip = Strip(np.stack([spec.radius_a * cosp, spec.radius_a * sinp, zero]),
                  np.stack([-sinp, cosp, zero]), area)
    return SurfaceMesh([strip], spec.length_L, n_axial)


def build_rect_corridor_mesh(spec: RectCorridorSpec, patch_target: float,
                             wl: Wavelength) -> SurfaceMesh:
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

    nz = max(2, int(math.ceil(spec.length_L / patch_target)))
    dz = spec.length_L / nz
    # walls ordered +x, +y, -x, -y; perimeter tangent is counterclockwise
    # as seen from +z, playing the role of the cylinder's phi direction
    walls = [
        (np.array([0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, 0.5 * spec.height_Lb, 0.0]), np.array([-1.0, 0.0, 0.0]), spec.width_La),
        (np.array([-0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, -0.5 * spec.height_Lb, 0.0]), np.array([1.0, 0.0, 0.0]), spec.width_La),
    ]
    strips = []
    for origin, tphi, extent in walls:
        nt = max(1, int(math.ceil(extent / patch_target)))
        dt = extent / nt
        tc = (np.arange(nt) + 0.5) * dt - 0.5 * extent
        positions = np.multiply.outer(tphi, tc)
        positions += origin[:, None]
        strips.append(Strip(positions, tphi[:, None], dt * dz))
    return SurfaceMesh(strips, spec.length_L, nz)
