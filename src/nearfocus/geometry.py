"""Aperture geometry: dipole ring arrays and surface meshes.

Builds the two source descriptions used everywhere downstream: discrete
rings of Hertzian dipoles wrapped around a cylindrical corridor, and
rectangular-patch meshes of the corridor wall itself (cylinder or
four-wall rectangular cross section).  Layouts and meshes store their
data as flat (N,) and (N, 3) numpy arrays; a tangent that is the same
for every patch is a read-only broadcast of one vector, not N copies.
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


class SurfaceMesh:
    """Flat-patch mesh of a corridor wall.

    centroids (N, 3), areas (N,), tangents_phi/tangents_z (N, 3), all
    read-only.  tangents_phi runs along the cross-section perimeter and
    tangents_z along the corridor axis.
    """

    def __init__(self, centroids: np.ndarray, areas: np.ndarray,
                 tangents_phi: np.ndarray, tangents_z: np.ndarray):
        self.centroids = np.asarray(centroids, dtype=float)
        self.areas = np.asarray(areas, dtype=float)
        self.tangents_phi = np.asarray(tangents_phi, dtype=float)
        self.tangents_z = np.asarray(tangents_z, dtype=float)
        n = self.centroids.shape[0]
        if not (self.areas.shape == (n,) and self.tangents_phi.shape == (n, 3)
                and self.tangents_z.shape == (n, 3)):
            raise ValueError("inconsistent mesh array shapes")
        if np.any(self.areas <= 0.0):
            raise ValueError("patch areas must be positive")
        # one (N,) temporary, made absolute in place
        dots = np.einsum("ij,ij->i", self.tangents_phi, self.tangents_z)
        if np.max(np.abs(dots, out=dots)) > 1e-12:
            raise ValueError("patch tangents must be orthogonal")
        for a in (self.centroids, self.areas, self.tangents_phi, self.tangents_z):
            a.setflags(write=False)

    def __len__(self) -> int:
        return self.centroids.shape[0]

    def total_area(self) -> float:
        return float(np.sum(self.areas))


def _axial(n: int) -> np.ndarray:
    """The unit z vector for each of n sources, as one read-only broadcast row."""
    return np.broadcast_to(np.array([0.0, 0.0, 1.0]), (n, 3))


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
    """Segment the cylinder wall into n_axial x n_azimuthal flat patches."""
    if n_axial < 2:
        raise ValueError("need at least 2 axial segments")
    if n_azimuthal < 3:
        raise ValueError("need at least 3 azimuthal segments")
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
    # exact arc area so the patch areas tile the wall
    areas = np.full(n, spec.radius_a * dphi * dz)
    tangents_phi = np.empty((n, 3))
    tangents_phi[:, 0] = np.tile(-sinp, n_axial)
    tangents_phi[:, 1] = np.tile(cosp, n_axial)
    tangents_phi[:, 2] = 0.0
    return SurfaceMesh(centroids, areas, tangents_phi, _axial(n))


def build_rect_corridor_mesh(spec: RectCorridorSpec, patch_target: float,
                             wl: Wavelength) -> SurfaceMesh:
    """Mesh the four walls of a rectangular corridor with square-ish patches.

    patch_target caps the patch edge length and may not exceed a quarter
    wavelength, keeping the point-dipole treatment of patches valid.
    """
    if patch_target <= 0.0:
        raise ValueError("patch_target must be positive")
    if patch_target > 0.25 * wl.lam + 1e-15:
        raise ValueError(
            f"patch_target {patch_target} m exceeds quarter wavelength {0.25 * wl.lam} m")

    nz = max(2, int(math.ceil(spec.length_L / patch_target)))
    # walls ordered +x, +y, -x, -y; perimeter tangent is counterclockwise
    # as seen from +z, playing the role of the cylinder's phi direction
    walls = [
        (np.array([0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, 0.5 * spec.height_Lb, 0.0]), np.array([-1.0, 0.0, 0.0]), spec.width_La),
        (np.array([-0.5 * spec.width_La, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), spec.height_Lb),
        (np.array([0.0, -0.5 * spec.height_Lb, 0.0]), np.array([1.0, 0.0, 0.0]), spec.width_La),
    ]
    nts = [max(1, int(math.ceil(extent / patch_target))) for _, _, extent in walls]
    n = nz * sum(nts)
    # sized before any other array, so that an impossible mesh fails at once
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
    return SurfaceMesh(centroids, areas, tangents_phi, _axial(n))
