"""Ring, mesh and single-element apertures: counts, symmetry, areas, rows, exports."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from nearfocus import cli, csvio, geometry
from nearfocus.geometry import (
    AXIAL,
    SPEED_OF_LIGHT,
    Aperture,
    CylinderSpec,
    RectCorridorSpec,
    Strip,
    Wavelength,
    build_cylinder_mesh,
    build_rect_corridor_mesh,
    build_ring_array,
)

from oracles import (
    flat_cylinder_mesh,
    flat_rect_corridor_mesh,
    flat_ring_array,
    flat_single_element,
)

WL_1GHZ = Wavelength.from_frequency(1.0e9)
WL_6GHZ = Wavelength.from_frequency(6.0e9)
CYL = CylinderSpec(radius_a=1.0, length_L=10.0)


def all_positions(aperture):
    """Every element position, (N, 3)."""
    return aperture.positions(0, len(aperture)).T


def all_moments(aperture):
    """Every element's unit-drive moment, (N, 3)."""
    return aperture.moments(0, len(aperture)).T


def tangent_rows(aperture, a, b):
    return aperture.rows(a, b, [s.tangents for s in aperture.strips])


def size_rows(aperture, a, b):
    return aperture.rows(a, b, [np.full((1, len(s)), s.size) for s in aperture.strips])[0]


def total_size(aperture):
    return aperture.z.size * sum(len(s) * s.size for s in aperture.strips)


def test_wavelength_fields():
    assert WL_1GHZ.lam == pytest.approx(SPEED_OF_LIGHT / 1.0e9, rel=1e-15)
    assert WL_1GHZ.k == pytest.approx(2.0 * math.pi / WL_1GHZ.lam, rel=1e-15)
    with pytest.raises(ValueError):
        Wavelength.from_frequency(0.0)
    with pytest.raises(ValueError):
        Wavelength.from_frequency(-5.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        CylinderSpec(radius_a=0.0, length_L=1.0)
    with pytest.raises(ValueError):
        CylinderSpec(radius_a=1.0, length_L=-1.0)
    with pytest.raises(ValueError):
        RectCorridorSpec(width_La=1.0, height_Lb=2.0, length_L=1.0)
    with pytest.raises(ValueError):
        RectCorridorSpec(width_La=2.0, height_Lb=0.0, length_L=1.0)


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan])
def test_corridor_length_must_be_positive(length):
    with pytest.raises(ValueError, match="corridor length must be positive"):
        RectCorridorSpec(width_La=2.0, height_Lb=1.0, length_L=length)


# ------------------------------------------------------------- ring arrays

def test_ring_counts_1ghz():
    # a=1 m circumference fits 42 half-wavelength arcs; 10 m length
    # fits 67 ring planes at half-wavelength pitch
    layout = build_ring_array(CYL, WL_1GHZ, "axial")
    assert len(layout.strips) == 1
    assert len(layout.strips[0]) == 42
    assert layout.z.size == 67
    assert len(layout) == 42 * 67


def test_ring_counts_6ghz():
    layout = build_ring_array(CYL, WL_6GHZ, "axial")
    assert len(layout.strips[0]) == 252
    assert layout.z.size == 401


def test_ring_spacing_below_half_wavelength():
    layout = build_ring_array(CYL, WL_1GHZ, "axial")
    arc = 2.0 * math.pi * 1.0 / len(layout.strips[0])
    assert arc <= 0.5 * WL_1GHZ.lam + 1e-12
    zs = np.unique(all_positions(layout)[:, 2])
    assert np.allclose(np.diff(zs), 0.5 * WL_1GHZ.lam, atol=1e-12)


def test_ring_stack_centered_with_middle_plane():
    layout = build_ring_array(CYL, WL_1GHZ, "axial")
    zs = np.unique(all_positions(layout)[:, 2])
    assert layout.z.size % 2 == 1
    assert np.min(np.abs(zs)) < 1e-12          # a ring plane sits at z=0
    assert abs(zs[0] + zs[-1]) < 1e-12         # stack centered


def test_ring_z_reflection_symmetry():
    layout = build_ring_array(CYL, WL_1GHZ, "axial")
    positions = all_positions(layout)
    flipped = positions.copy()
    flipped[:, 2] *= -1.0
    a = np.array(sorted(map(tuple, np.round(positions, 12))))
    b = np.array(sorted(map(tuple, np.round(flipped, 12))))
    assert np.allclose(a, b, atol=1e-12)


def test_ring_rotation_symmetry():
    layout = build_ring_array(CYL, WL_1GHZ, "axial")
    ang = 2.0 * math.pi / len(layout.strips[0])
    c, s = math.cos(ang), math.sin(ang)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    positions = all_positions(layout)
    rotated = positions @ rot.T
    a = np.array(sorted(map(tuple, np.round(positions, 9))))
    b = np.array(sorted(map(tuple, np.round(rotated, 9))))
    assert np.allclose(a, b, atol=1e-9)


def test_ring_polarizations():
    ax = build_ring_array(CYL, WL_1GHZ, "axial")
    length = WL_1GHZ.lam / 100.0
    assert np.allclose(all_moments(ax) / length, [0.0, 0.0, 1.0])
    az = build_ring_array(CYL, WL_1GHZ, "azimuthal")
    # azimuthal orientation is perpendicular to the radial direction and to z
    orientations = all_moments(az) / length
    assert np.allclose(np.linalg.norm(orientations, axis=1), 1.0)
    radial = all_positions(az).copy()
    radial[:, 2] = 0.0
    radial /= np.linalg.norm(radial, axis=1)[:, None]
    assert np.max(np.abs(np.einsum("ij,ij->i", orientations, radial))) < 1e-12
    assert np.max(np.abs(orientations[:, 2])) == 0.0
    with pytest.raises(ValueError):
        build_ring_array(CYL, WL_1GHZ, "diagonal")


def test_ring_radius_floor():
    lam = WL_1GHZ.lam
    with pytest.raises(ValueError):
        build_ring_array(CylinderSpec(radius_a=0.25 * lam * (1 - 1e-9), length_L=1.0),
                         WL_1GHZ, "axial")
    # exactly at the floor is allowed and still yields a closed ring: the
    # circumference of pi/2 wavelengths takes ceil(pi) = 4 half-wavelength slots
    layout = build_ring_array(CylinderSpec(radius_a=0.25 * lam, length_L=1.0),
                              WL_1GHZ, "axial")
    assert len(layout.strips[0]) == 4


def test_layout_invariants_enforced():
    strip = Strip(np.zeros((3, 2)), np.array([[1.0], [0.0], [0.0]]), 0.01, 1.0)
    with pytest.raises(ValueError):  # zero tangents
        Strip(np.zeros((3, 2)), np.zeros((3, 2)), 0.01, 1.0)
    with pytest.raises(ValueError):  # tangents not of unit length
        Strip(np.zeros((3, 2)), np.array([[1.0, 0.6], [0.0, 0.6], [0.0, 0.0]]), 0.01, 1.0)
    with pytest.raises(ValueError):  # no axial offsets
        Aperture([strip], [], "axial")
    with pytest.raises(ValueError):  # offsets not a 1-D grid
        Aperture([strip], [[0.0, 1.0]], "axial")
    with pytest.raises(ValueError):
        Aperture([], [0.0], "axial")
    with pytest.raises(ValueError):
        Aperture([strip], [0.0], "diagonal")


# ------------------------------------------------------------------ meshes

def test_cylinder_mesh_baseline_counts_and_area():
    mesh = build_cylinder_mesh(CYL, 2000, 360, WL_1GHZ)
    assert len(mesh) == 720000
    assert total_size(mesh) == pytest.approx(20.0 * math.pi, rel=1e-9)


def test_cylinder_mesh_small():
    mesh = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=1.0), 2, 3, WL_1GHZ)
    assert len(mesh) == 6
    areas = size_rows(mesh, 0, 6)
    assert np.array_equal(mesh.moments(0, 6), AXIAL[:, None] * areas)
    # perimeter tangents are orthogonal to the axial one
    assert np.all(tangent_rows(mesh, 0, 6)[2] == 0.0)


@pytest.mark.parametrize("a, b", [(0, 7), (4, 3), (-1, 2)])
def test_aperture_rows_out_of_range(a, b):
    mesh = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=1.0), 2, 3, WL_1GHZ)
    with pytest.raises(IndexError, match="outside an aperture of 6"):
        size_rows(mesh, a, b)


def test_cylinder_mesh_preconditions():
    with pytest.raises(ValueError):
        build_cylinder_mesh(CYL, 1, 10, WL_1GHZ)
    with pytest.raises(ValueError):
        build_cylinder_mesh(CYL, 10, 2, WL_1GHZ)
    with pytest.raises(ValueError):
        build_cylinder_mesh(CYL, 10, 10, WL_1GHZ, "diagonal")


def test_rect_mesh_area_and_radii():
    spec = RectCorridorSpec(width_La=2.0, height_Lb=2.0, length_L=10.0)
    mesh = build_rect_corridor_mesh(spec, 0.05, WL_1GHZ)
    assert total_size(mesh) == pytest.approx(80.0, rel=1e-9)
    assert spec.inscribed_radius() == 1.0
    assert spec.circumscribed_radius() == pytest.approx(math.sqrt(2.0), rel=1e-15)
    rect = RectCorridorSpec(width_La=4.0, height_Lb=3.0, length_L=10.0)
    assert rect.inscribed_radius() == 1.5
    assert rect.circumscribed_radius() == 2.5


def test_rect_mesh_patch_cap():
    spec = RectCorridorSpec(width_La=2.0, height_Lb=2.0, length_L=10.0)
    with pytest.raises(ValueError):
        build_rect_corridor_mesh(spec, 0.3 * WL_1GHZ.lam, WL_1GHZ)
    with pytest.raises(ValueError):
        build_rect_corridor_mesh(spec, 0.0, WL_1GHZ)


def test_rect_mesh_walls_lie_on_boundary():
    spec = RectCorridorSpec(width_La=4.0, height_Lb=2.0, length_L=6.0)
    mesh = build_rect_corridor_mesh(spec, 0.07, WL_1GHZ)
    centroids = all_positions(mesh)
    tangents_phi = tangent_rows(mesh, 0, len(mesh)).T
    on_x = np.abs(np.abs(centroids[:, 0]) - 2.0) < 1e-12
    on_y = np.abs(np.abs(centroids[:, 1]) - 1.0) < 1e-12
    assert np.all(on_x | on_y)
    assert np.all(np.abs(centroids[:, 2]) <= 3.0)
    # perimeter tangents stay tangent to their wall
    assert np.max(np.abs(np.einsum(
        "ij,ij->i", tangents_phi, centroids * on_x[:, None] * [1, 0, 0]))) < 1e-9


def test_mesh_patch_views_validate():
    with pytest.raises(ValueError):
        Strip(np.zeros((3, 2)), np.array([[1.0], [0.0], [0.0]]), -1.0, 1.0)
    with pytest.raises(ValueError):
        Strip(np.zeros((3, 2)), np.array([[1.0], [0.0], [0.0]]), 1.0, 0.0)
    with pytest.raises(ValueError):  # perimeter tangent along the axis
        Strip(np.zeros((3, 2)), np.array([[0.0], [0.0], [1.0]]), 1.0, 1.0)
    with pytest.raises(ValueError):  # rows, not columns
        Strip(np.zeros((2, 3)), np.array([[1.0], [0.0], [0.0]]), 1.0, 1.0)


def test_mesh_orthogonality_check_holds_one_temporary():
    # the unit-length and orthogonality checks hold one (M,) float temporary
    # at a time over a strip's points: 8 B per point, where two took 16
    n = 200_000
    tangents_phi = np.zeros((3, n))
    tangents_phi[0] = 1.0
    positions = np.zeros((3, n))
    tracemalloc.start()
    try:
        Strip(positions, tangents_phi, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * n


def row_slices(aperture):
    """Slices of every kind: whole, single rows, across z-rows and across strips."""
    n, m = len(aperture), len(aperture.strips[0])
    wall = m * aperture.z.size
    slices = [(0, n), (0, 1), (n - 1, n), (3, m - 2), (m - 2, m + 3), (5, 3 * m + 4),
              (m, 4 * m), (wall - m - 2, min(wall + 2, n)), (wall - 3, n - 1),
              (2 * m + 1, 2 * m + 2)]
    rng = np.random.default_rng(5)
    slices += [tuple(sorted(rng.choice(n + 1, 2, replace=False))) for _ in range(20)]
    return [(a, b) for a, b in slices if 0 <= a <= b <= n]


@pytest.mark.parametrize("kind", ["cylinder", "rectangle", "ring", "single"])
def test_mesh_rows_match_flat_builders(kind):
    # the flat builders make every row at full length; the rows of any
    # slice must be the same bits, for either current direction
    for polarization in ("axial", "azimuthal"):
        if kind == "cylinder":
            spec = CylinderSpec(radius_a=1.3, length_L=2.7)
            aperture = build_cylinder_mesh(spec, 9, 7, WL_1GHZ, polarization)
            flat = flat_cylinder_mesh(spec, 9, 7)
        elif kind == "rectangle":
            spec = RectCorridorSpec(width_La=1.1, height_Lb=0.7, length_L=1.9)
            aperture = build_rect_corridor_mesh(spec, 0.07, WL_1GHZ, polarization)
            flat = flat_rect_corridor_mesh(spec, 0.07)
        elif kind == "ring":
            spec = CylinderSpec(radius_a=0.4, length_L=1.3)
            aperture = build_ring_array(spec, WL_1GHZ, polarization)
            flat = flat_ring_array(spec, WL_1GHZ, polarization)
        else:
            aperture = cli._single_layout(dict(radius_m=1.0, dipole_length_m=0.003,
                                               element_polarization=polarization))
            flat = flat_single_element(1.0, polarization, 0.003)
        n = len(aperture)
        if kind in ("cylinder", "rectangle"):
            centroids, areas, tangents_phi = flat
            direction = (np.broadcast_to(AXIAL, (n, 3)) if polarization == "axial"
                         else tangents_phi)
            rows = {"positions": centroids, "tangents": tangents_phi, "sizes": areas,
                    "moments": np.multiply(direction, areas[:, None])}
        else:
            centroids = flat.xyz
            rows = {"positions": centroids, "moments": flat.moments(0, n).T}
        assert n == centroids.shape[0]
        for a, b in row_slices(aperture):
            made = {"positions": aperture.positions(a, b).T,
                    "tangents": tangent_rows(aperture, a, b).T,
                    "sizes": size_rows(aperture, a, b), "moments": aperture.moments(a, b).T}
            for name, full in rows.items():
                assert made[name].tobytes() == full[a:b].tobytes(), (polarization, name, a, b)
        # exact bounds, as the min and max over every row
        lo, hi = aperture.bounds()
        assert np.array_equal(lo, centroids.min(axis=0))
        assert np.array_equal(hi, centroids.max(axis=0))
        if kind in ("cylinder", "rectangle"):
            assert total_size(aperture) == pytest.approx(areas.sum(), rel=1e-13)


def test_full_corridor_mesh_holds_no_full_length_array():
    # 1,015,928 patches: the rows are made on request, so building the mesh
    # allocates only its strips and axial grid (57 MB with flat arrays)
    spec = RectCorridorSpec(width_La=12.0, height_Lb=10.5, length_L=126.0)
    tracemalloc.start()
    try:
        mesh = build_rect_corridor_mesh(spec, 0.25 * WL_1GHZ.lam, WL_1GHZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mesh) == 1_015_928
    assert peak < 1_000_000


def box_scan_loop(aperture, lo, hi):
    """scan_box's least distance, one element at a time, and for each
    coordinate along which the box spans 2h > 0, the least semi-major axis
    over h of the Bernstein ellipse through each element's singularity
    z = (s + i d)/h: s is the element's offset from the box's middle along
    the coordinate, d its distance to the box's nearest line along it, and
    rho = |z + sqrt(z - 1) sqrt(z + 1)| (Trefethen, ch. 8)."""
    least, semi = math.inf, {c: math.inf for c in range(3) if hi[c] > lo[c]}
    for p in all_positions(aperture).tolist():
        q = [min(max(x, a), b) for x, a, b in zip(p, lo, hi)]
        least = min(least, math.dist(p, q))
        for c in semi:
            h = 0.5 * (hi[c] - lo[c])
            d = math.dist(p[:c] + p[c + 1:], q[:c] + q[c + 1:])
            z = complex(p[c] - 0.5 * (lo[c] + hi[c]), d) / h
            rho = abs(z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0))
            semi[c] = min(semi[c], 0.5 * (rho + 1.0 / rho))
    return least, semi


def check_box_scan(aperture, box):
    lo, hi = (np.array(corner) for corner in box)
    least, semi = box_scan_loop(aperture, lo.tolist(), hi.tolist())
    distance, sums = aperture.scan_box(lo, hi, [0, 1, 2])
    assert distance == pytest.approx(least, rel=1e-14, abs=0.0)
    assert len(sums) == 3
    for c, a in semi.items():
        assert sums[c] / (hi[c] - lo[c]) == pytest.approx(a, rel=1e-12), c
    # one axis at a time, in either order, gives the same sums
    assert aperture.scan_box(lo, hi, [2, 0]) == (distance, [sums[2], sums[0]])


BOXES = [
    ([-0.1, -0.2, 1.0], [0.3, 0.2, 1.0]),     # a cut or plane inside the ring
    ([0.85, -0.1, -0.1], [0.985, 0.1, 0.1]),  # a plane reaching the wall
    ([1.2, 0.0, 6.0], [1.5, 0.0, 7.0]),       # outside the cylinder and past its end
    ([-2.0, -2.0, -6.0], [2.0, 2.0, 6.0]),    # holding every element
]


@pytest.mark.parametrize("box", BOXES)
def test_distance_to_box_matches_every_element(box, monkeypatch):
    # blocks of 1,000 rows over the mesh's 10,800, the last one short
    monkeypatch.setattr(geometry, "_ROW_BLOCK", 1_000)
    check_box_scan(build_cylinder_mesh(CYL, 60, 180, WL_1GHZ), box)


@pytest.mark.parametrize("box", BOXES + [
    ([0.9, -0.15, 0.0], [0.9, 0.15, 0.0]),    # a y-cut beside the ring wall
    ([0.9, 0.0, -0.33], [0.9, 0.0, 0.33]),    # a z-cut beside it
    ([-0.3, 0.1, 4.9], [0.3, 0.1, 4.9]),      # an x-cut by the last ring
    ([0.5, -0.15, -0.15], [0.5, 0.15, 0.15]),  # a yz plane
    ([-0.4, -0.3, 0.7], [0.4, 0.3, 0.7]),     # an xy plane
], ids=[f"box{i}" for i in range(9)])
@pytest.mark.parametrize("build", [
    lambda: build_ring_array(CYL, WL_1GHZ),
    lambda: build_rect_corridor_mesh(RectCorridorSpec(1.9, 1.0, 1.3), 0.07, WL_1GHZ),
], ids=["rings", "rectangle-mesh"])
def test_box_scan_matches_a_per_element_loop(build, box, monkeypatch):
    # blocks of 1,000 rows, the last one short
    monkeypatch.setattr(geometry, "_ROW_BLOCK", 1_000)
    check_box_scan(build(), box)


@pytest.mark.parametrize("build", [
    # the 5.7e13-patch corridor of a 10-micron patch
    lambda: build_rect_corridor_mesh(RectCorridorSpec(12.0, 10.5, 126.0), 1e-5, WL_1GHZ),
    lambda: build_cylinder_mesh(CYL, 2, 10**13, WL_1GHZ),
    # 1.4e25 dipoles at 1e20 Hz
    lambda: build_ring_array(CYL, Wavelength.from_frequency(1e20)),
], ids=["corridor", "cylinder-mesh", "rings"])
def test_aperture_beyond_memory_refused_before_allocating(build):
    # the channel alone, 16 B per source, would exceed any machine's memory,
    # which build_* knows from the counts before it makes a profile
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="physical memory"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ----------------------------------------------------------------- exports

def xyz_columns(prefix, vectors):
    return {prefix + axis: vectors[:, i] for i, axis in enumerate("xyz")}


def test_layout_csv_roundtrip(tmp_path):
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=0.4), WL_1GHZ, "axial")
    n = len(layout)
    path = tmp_path / "layout.csv"
    columns = {**xyz_columns("", all_positions(layout)), **xyz_columns("m", all_moments(layout)),
               "length": size_rows(layout, 0, n)}
    csvio.write_csv(path, columns)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + n
    first = [float(v) for v in lines[1].split(",")]
    assert first[:3] == pytest.approx(list(all_positions(layout)[0]), abs=1e-15)


def test_mesh_csv_roundtrip(tmp_path):
    mesh = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=1.0), 2, 4, WL_1GHZ)
    n = len(mesh)
    path = tmp_path / "mesh.csv"
    columns = {**xyz_columns("", all_positions(mesh)),
               **xyz_columns("tphi_", tangent_rows(mesh, 0, n).T),
               **xyz_columns("tz_", np.broadcast_to(AXIAL, (n, 3))), "area": size_rows(mesh, 0, n)}
    csvio.write_csv(path, columns)
    lines = path.read_text().splitlines()
    assert len(lines) == 9
    areas = [float(line.split(",")[-1]) for line in lines[1:]]
    assert sum(areas) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_csv_format_determinism(tmp_path):
    columns = {"a": [1.0 / 3.0, 1e-300], "b": [2, 1e300], "c": [-0.0, math.pi]}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    csvio.write_csv(p1, columns)
    csvio.write_csv(p2, columns)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"a,b,c\n")
    assert b"-0\n" not in p1.read_bytes()
    assert b"0.33333333333333331" in p1.read_bytes()
    with pytest.raises(ValueError):
        csvio.write_csv(tmp_path / "nan.csv", {"a": [float("nan")]})
    assert not (tmp_path / "nan.csv").exists()
    with pytest.raises(ValueError):
        csvio.write_csv(tmp_path / "ragged.csv", {"a": [1.0, 2.0], "b": [1.0]})
    assert not (tmp_path / "ragged.csv").exists()


def test_csv_blocks_do_not_change_bytes(tmp_path, monkeypatch):
    mesh = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=1.0), 3, 5, WL_1GHZ)
    n = len(mesh)
    areas = size_rows(mesh, 0, n)
    w = np.exp(1j * np.linspace(-3.0, 3.0, n)) * areas
    columns = {**xyz_columns("tz_", np.broadcast_to(AXIAL, (n, 3))), "area": areas,
               "phase": csvio.angle(w)}
    csvio.write_csv(tmp_path / "one.csv", columns)
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 4)
    columns["phase"] = csvio.angle(w)
    csvio.write_csv(tmp_path / "blocks.csv", columns)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert list(columns["phase"]) == [math.atan2(v.imag, v.real) for v in w]
