"""Field kernels and superposition against finite-difference oracles.

All fields come from one kernel.  Its 3x3 tensors (green_electric and
green_magnetic) are checked against high-order central differences of
the scalar spherical wave, its radiating approximation against the full
form in its validity regime, and the superposition layer for linearity,
symmetry, chunking, thread count and determinism.
"""

import math
import os
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from nearfocus import fields
from nearfocus.fields import (
    ChannelVector,
    assemble_channel,
    evaluate_field,
    green_electric,
    green_magnetic,
)
from nearfocus.geometry import (
    FREE_SPACE_IMPEDANCE,
    Aperture,
    CylinderSpec,
    RectCorridorSpec,
    Strip,
    Wavelength,
    _patch_resistance_scale,
    build_cylinder_mesh,
    build_rect_corridor_mesh,
    build_ring_array,
)

from oracles import FlatSources, flat_ring_array, port_scales, project

WL = Wavelength.from_frequency(1.0e9)
LAM = WL.lam
FOUR_PI = 4.0 * math.pi
# a mesh's current direction by the name of its tangent
POLARIZATION = {"z": "axial", "phi": "azimuthal"}


def row(sources, i):
    """Position and unit-drive moment of source i."""
    return sources.positions(i, i + 1)[:, 0], sources.moments(i, i + 1)[:, 0]


def scalar_wave(r, r_src, k):
    R = np.linalg.norm(np.asarray(r, float) - np.asarray(r_src, float))
    return np.exp(-1j * k * R) / (FOUR_PI * R)


def fd_gradient(f, r, h):
    # 4th-order central differences, one axis at a time
    grad = np.zeros(3, dtype=complex)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        grad[i] = (-f(r + 2 * h * e) + 8 * f(r + h * e)
                   - 8 * f(r - h * e) + f(r - 2 * h * e)) / (12 * h)
    return grad


def fd_hessian(f, r, h):
    H = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = 1.0
        H[i, i] = (-f(r + 2 * h * ei) + 16 * f(r + h * ei) - 30 * f(r)
                   + 16 * f(r - h * ei) - f(r + 2 * h * ei) * 0
                   - f(r - 2 * h * ei)) / (12 * h * h)
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = 1.0
            def di(p):
                return (-f(p + 2 * h * ei) + 8 * f(p + h * ei)
                        - 8 * f(p - h * ei) + f(p + 2 * h * ei) * 0
                        + f(p - 2 * h * ei)) / (12 * h)
            H[i, j] = H[j, i] = (-di(r + 2 * h * ej) + 8 * di(r + h * ej)
                                 - 8 * di(r - h * ej) + di(r - 2 * h * ej)) / (12 * h)
    return H


def random_pair(rng):
    r_src = rng.uniform(-1.0, 1.0, 3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return r_src + rng.uniform(0.3 * LAM, 3.0 * LAM) * direction, r_src


# ------------------------------------------------------------- point kernels

def test_green_electric_matches_fd_oracle():
    rng = np.random.default_rng(7)
    k = WL.k
    for _ in range(5):
        r, r_src = random_pair(rng)
        f = lambda p: scalar_wave(p, r_src, k)
        G_fd = 1j * k * FREE_SPACE_IMPEDANCE * (
            f(r) * np.eye(3) + fd_hessian(f, r, 5e-4 * LAM) / k**2)
        G = green_electric(r, r_src, WL)
        assert np.max(np.abs(G - G_fd)) / np.max(np.abs(G)) < 1e-7


def test_green_magnetic_matches_fd_oracle():
    rng = np.random.default_rng(8)
    k = WL.k
    r, r_src = random_pair(rng)
    f = lambda p: scalar_wave(p, r_src, k)
    grad = fd_gradient(f, r, 5e-4 * LAM)
    G = green_magnetic(r, r_src, WL)
    for v in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0.4, -0.3, 0.86])):
        ref = -np.cross(grad, v)
        assert np.max(np.abs(G @ v - ref)) / np.max(np.abs(ref)) < 1e-10


def test_tensor_symmetries():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r, r_src = random_pair(rng)
        Ge = green_electric(r, r_src, WL)
        Gm = green_magnetic(r, r_src, WL)
        assert np.max(np.abs(Ge - Ge.T)) < 1e-12 * np.max(np.abs(Ge))
        assert np.max(np.abs(Gm + Gm.T)) < 1e-12 * np.max(np.abs(Gm))


def test_coincident_points_rejected():
    p = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        green_electric(p, p, WL)
    with pytest.raises(ValueError):
        green_magnetic(p, p, WL)


def test_far_field_limit_on_axis_and_broadside():
    l = LAM / 100.0
    R = 100.0 * LAM
    # along the dipole axis the transverse components vanish identically
    G = green_electric(np.array([0.0, 0.0, R]), np.zeros(3), WL)
    E_axis = G @ np.array([0.0, 0.0, l])
    assert E_axis[0] == 0.0 and E_axis[1] == 0.0
    # the longitudinal remnant is a pure near-field term, down by ~2/(kR)
    re = FREE_SPACE_IMPEDANCE * l * WL.k / FOUR_PI
    broadside_ff = re / R
    assert abs(E_axis[2]) < 2.5 / (WL.k * R) * broadside_ff
    # broadside, the full kernel reaches the radiating form to 1e-4
    Gb = green_electric(np.array([R, 0.0, 0.0]), np.zeros(3), WL)
    E_b = Gb @ np.array([0.0, 0.0, l])
    assert abs(np.linalg.norm(E_b) - broadside_ff) / broadside_ff < 1e-4


def test_magnetic_on_axis_null():
    G = green_magnetic(np.array([0.0, 0.0, 2.0 * LAM]), np.zeros(3), WL)
    assert np.max(np.abs(G @ np.array([0.0, 0.0, 1.0]))) == 0.0


# --------------------------------------------------------- dipole approx

def single_element(orientation=(0.0, 0.0, 1.0), position=(0.0, 0.0, 0.0)):
    """One dipole of length wavelength/100, at the origin along z by default."""
    return FlatSources([position], [orientation], LAM / 100.0)


def one_element_field(el, r, kernel="dipole-approx"):
    """Field of the one-element layout at r for a 1 A drive."""
    return evaluate_field(el, np.ones(1), np.asarray(r, float)[None, :], WL,
                          kernel=kernel).E[0]


def test_dipole_axis_null_and_broadside_magnitude():
    el = single_element()
    on_axis = one_element_field(el, [0.0, 0.0, LAM])
    assert np.max(np.abs(on_axis)) == 0.0
    r = 2.0 * LAM
    broadside = one_element_field(el, [r, 0.0, 0.0])
    re = FREE_SPACE_IMPEDANCE * el.length * WL.k / FOUR_PI
    assert np.linalg.norm(broadside) == pytest.approx(re / r, rel=1e-12)


def test_dipole_axis_null_off_origin_in_a_grid():
    # an x-directed element away from the origin: every grid point on its
    # axis gets exactly 0 whatever the rest of the grid and the unit cuts
    el = single_element(orientation=(1.0, 0.0, 0.0), position=(0.3, -0.2, 1.7))
    axis = [[0.3 + d * LAM, -0.2, 1.7] for d in (-3.0, -0.7, 0.4, 2.5)]
    grid = np.array(axis + [[0.3, 0.5, 1.7], [1.1, -0.2, 2.2]])
    E = evaluate_field(el, np.ones(1), grid, WL, kernel="dipole-approx").E
    assert np.max(np.abs(E[:4])) == 0.0
    assert np.all(np.abs(E[4:]).max(axis=1) > 0.0)


def test_dipole_standoff_enforced():
    el = single_element()
    with pytest.raises(ValueError):
        one_element_field(el, [0.2 * LAM, 0.0, 0.0])


def test_dipole_approx_vs_full_kernel_at_2lam():
    # amplitude agreement away from the dipole axis, where the
    # approximate pattern is not passing through its null
    el = single_element()
    position, moment = row(el, 0)
    for theta in np.radians([45, 60, 90, 120, 135]):
        obs = 2.0 * LAM * np.array([math.sin(theta), 0.0, math.cos(theta)])
        full = green_electric(obs, position, WL) @ moment
        approx = one_element_field(el, obs)
        dev = abs(np.linalg.norm(full) - np.linalg.norm(approx)) / np.linalg.norm(full)
        assert dev < 0.02


def test_dipole_approx_vs_full_kernel_beyond_1lam():
    el = single_element()
    position, moment = row(el, 0)
    for dist in (1.0, 1.5, 3.0, 10.0):
        for theta in np.radians([45, 70, 90, 110, 135]):
            obs = dist * LAM * np.array([math.sin(theta), 0.0, math.cos(theta)])
            full = green_electric(obs, position, WL) @ moment
            approx = one_element_field(el, obs)
            dev = abs(np.linalg.norm(full) - np.linalg.norm(approx)) / np.linalg.norm(full)
            assert dev < 0.05


# ------------------------------------------------------------ channel vector

def test_channel_single_element_consistency():
    focal = np.array([0.0, 5.0 * LAM, 0.0])
    el = single_element()
    layout_like = build_ring_array(CylinderSpec(radius_a=1.0, length_L=0.1), WL, "axial")
    # direct one-element check without ring scaffolding
    field = one_element_field(el, focal)
    z_hat = np.array([0.0, 0.0, 1.0])
    ch = ChannelVector(g=project(field[None, :], z_hat), resistance_scale=np.ones(1),
                       counts=[1])
    assert ch.g[0] == field[2]
    # the field of one element is its tensor times its moment, full or radiating
    position, moment = row(el, 0)
    for kernel in ("full", "dipole-approx"):
        evaluated = one_element_field(el, focal, kernel=kernel)
        ref = green_electric(focal, position, WL, kernel) @ moment
        assert np.max(np.abs(evaluated - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert len(layout_like) >= 42
    # a one-row aperture's channel, which the CLI's single element takes, is
    # its tensor times its moment projected on e_hat: random foci (outside
    # the one point that is its box), moments and target axes, electric and
    # magnetic sources, full and radiating kernels
    rng = np.random.default_rng(23)
    cases = [("electric", "full"), ("electric", "dipole-approx"), ("magnetic", "full")]
    worst = 0.0
    for i in range(402):
        source_kind, kernel = cases[i % 3]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        strip = Strip(rng.uniform(-1.0, 1.0, (3, 1)),
                      [[math.cos(angle)], [math.sin(angle)], [0.0]],
                      rng.uniform(0.001, 0.1) * LAM, 1.0)
        one = Aperture([strip], [rng.uniform(-1.0, 1.0)], ("axial", "azimuthal")[i % 2])
        position, moment = row(one, 0)
        direction = rng.normal(size=3)
        focal = position + rng.uniform(0.26, 5.0) * LAM * direction / np.linalg.norm(direction)
        e_hat = rng.normal(size=3)
        e_hat /= np.linalg.norm(e_hat)
        ch = assemble_channel(one, focal, e_hat, WL, kernel=kernel, source_kind=source_kind)
        assert len(ch) == 1 and np.array_equal(port_scales(ch), [1.0])
        tensor = (green_electric(focal, position, WL, kernel) if source_kind == "electric"
                  else green_magnetic(focal, position, WL))
        field = tensor @ moment
        # relative to |field|: where e_hat is nearly orthogonal to the field,
        # g is small but its rounding is not
        worst = max(worst, abs(ch.g[0] - project(field[None, :], e_hat)[0])
                    / np.linalg.norm(field))
    assert worst <= 1e-13
    # two rows have a box, and a focus outside it is still refused
    two = Aperture([strip], [0.0, 0.5 * LAM], "axial")
    with pytest.raises(ValueError, match="outside the aperture region"):
        assemble_channel(two, two.positions(0, 1)[:, 0] + [LAM, 0.0, 0.0], z_hat, WL)


def test_channel_ring_symmetry_on_axis():
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=0.16), WL, "axial")
    assert layout.z.size == 2
    ch = assemble_channel(layout, np.zeros(3), np.array([0.0, 0.0, 1.0]), WL)
    g = ch.g
    ring = g[:len(layout.strips[0])]
    assert np.max(np.abs(ring - ring[0])) < 1e-12 * abs(ring[0])


def test_channel_ring_cosphi_weighting():
    import scipy.integrate as si
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=0.16), WL, "axial")
    ch = assemble_channel(layout, np.zeros(3), np.array([1.0, 0.0, 0.0]), WL,
                          kernel="dipole-approx")
    n = len(layout.strips[0])
    ring = np.abs(ch.g[:n])
    a, z0 = 1.0, 0.25 * LAM
    r = math.hypot(a, z0)
    re = FREE_SPACE_IMPEDANCE * layout.strips[0].size * WL.k / FOUR_PI
    amp = re / r * (z0 * a / r**2)
    integral, _ = si.quad(lambda p: amp * abs(math.cos(p)), 0.0, 2.0 * math.pi)
    assert np.sum(ring) == pytest.approx(n / (2.0 * math.pi) * integral, rel=5e-3)


def test_channel_standoff_and_region_checks():
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=1.0), WL, "axial")
    e_z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        assemble_channel(layout, np.array([0.99, 0.0, 0.0]), e_z, WL)  # standoff
    with pytest.raises(ValueError):
        assemble_channel(layout, np.array([0.0, 0.0, 5.0]), e_z, WL)   # outside
    with pytest.raises(ValueError):
        assemble_channel(layout, np.zeros(3), 2.0 * e_z, WL)           # not a unit
    with pytest.raises(ValueError):
        assemble_channel(layout, np.zeros(3), e_z, WL, kernel="nearest")
    with pytest.raises(ValueError):
        assemble_channel(layout, np.zeros(3), e_z, WL, kernel="dipole-approx",
                         source_kind="magnetic")


def test_channel_refuses_an_unknown_source_kind():
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=1.0), WL, "axial")
    with pytest.raises(ValueError, match="unknown source kind"):
        assemble_channel(layout, np.zeros(3), np.array([0.0, 0.0, 1.0]), WL,
                         source_kind="dielectric")


@pytest.mark.parametrize("source_kind, current", [
    ("electric", "z"), ("electric", "phi"), ("magnetic", "phi"), ("magnetic", "z"),
])
def test_channel_matches_projected_tensors(source_kind, current):
    # the kernel's in-place projection against the 3x3 tensor of each
    # source times its moment, projected afterwards
    mesh = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=2.0), 16, 24, WL,
                               POLARIZATION[current])
    focal = np.array([0.1, -0.2, 0.3])
    e_hat = np.array([0.48, -0.6, 0.64])
    g = assemble_channel(mesh, focal, e_hat, WL, source_kind=source_kind).g
    pos, moments = mesh.positions(0, len(mesh)), mesh.moments(0, len(mesh))
    green = green_electric if source_kind == "electric" else green_magnetic
    ref = np.array([project((green(focal, s, WL) @ m)[None, :], e_hat)[0]
                    for s, m in zip(pos.T, moments.T)])
    assert np.max(np.abs(g - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_channel_mesh_resistance_scale():
    spec = CylinderSpec(radius_a=1.0, length_L=10.0)
    mesh = build_cylinder_mesh(spec, 50, 12, WL)
    ch = assemble_channel(mesh, np.zeros(3), np.array([0.0, 0.0, 1.0]), WL)
    area = 2.0 * math.pi * spec.radius_a * spec.length_L / (50 * 12)
    assert np.allclose(port_scales(ch), area / (0.5 * LAM) ** 2, rtol=1e-12)
    assert port_scales(ch).shape == (len(mesh),)
    # dipole ports take the base resistance
    ring = build_ring_array(spec, WL, "axial")
    ch = assemble_channel(ring, np.zeros(3), np.array([0.0, 0.0, 1.0]), WL)
    assert np.array_equal(port_scales(ch), np.ones(len(ring)))


def test_channel_resistance_scale_follows_the_row_order():
    # a corridor whose x walls (8 patches across 0.5 m) and y walls (15
    # across 1 m) have patches of different area: each row's scale is its
    # own wall's, the wall told by the row's position, not by the strips
    spec = RectCorridorSpec(width_La=1.0, height_Lb=0.5, length_L=1.3)
    mesh = build_rect_corridor_mesh(spec, 0.07, WL)
    ch = assemble_channel(mesh, np.array([0.1, -0.05, 0.2]), np.array([0.0, 0.0, 1.0]), WL)
    nz = math.ceil(spec.length_L / 0.07)
    pos = mesh.positions(0, len(mesh))
    on_x_wall = np.abs(pos[0]) == 0.5 * spec.width_La
    assert np.array_equal(on_x_wall, np.abs(pos[1]) != 0.5 * spec.height_Lb)
    x_area = spec.height_Lb / 8 * (spec.length_L / nz)
    y_area = spec.width_La / 15 * (spec.length_L / nz)
    assert abs(x_area / y_area - 1.0) > 0.05
    want = np.where(on_x_wall, _patch_resistance_scale(x_area, WL),
                    _patch_resistance_scale(y_area, WL))
    assert port_scales(ch).shape == (len(mesh),)
    np.testing.assert_allclose(port_scales(ch), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scale, counts", [
    pytest.param(np.ones(2), [1, 1], id="per-port-short"),
    pytest.param(np.ones((3, 1)), [1, 1, 1], id="per-port-shape"),
    pytest.param([1.0, 2.0], [1, 1], id="runs-short"),
    pytest.param([1.0, 2.0], [2, 2], id="runs-long"),
    pytest.param([1.0, 2.0], [4, -1], id="runs-negative-count"),
    pytest.param([1.0, 2.0], [3], id="runs-count-per-scale"),
    pytest.param([1.0, 0.0, 2.0], [1, 1, 1], id="per-port-zero"),
    pytest.param([1.0, np.nan, 2.0], [1, 1, 1], id="per-port-nan"),
    pytest.param([1.0, -2.0], [1, 2], id="runs-negative"),
    pytest.param([0.0, 2.0], [0, 3], id="runs-zero-on-no-port"),
])
def test_channel_refuses_bad_resistance_scales(scale, counts):
    # three ports, per-port scales (runs of one port each) or longer runs
    with pytest.raises(ValueError):
        ChannelVector(np.ones(3), scale, counts)


def test_channel_refuses_a_g_that_is_not_one_row():
    with pytest.raises(ValueError, match=r"\(N,\)"):
        ChannelVector(np.ones((3, 1)), [1.0], [3])


def test_channel_keeps_one_resistance_scale_per_strip():
    # a 203,548-patch corridor: the channel retains its 16 B per port of g,
    # and its resistance scales as one run per wall
    mesh = build_rect_corridor_mesh(RectCorridorSpec(width_La=12.0, height_Lb=10.5,
                                                     length_L=25.2), 0.25 * LAM, WL)
    n = len(mesh)
    assert n >= 200_000
    tracemalloc.start()
    try:
        ch = assemble_channel(mesh, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), WL)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ch) == n
    assert retained <= 16 * n + 65_536


# ------------------------------------------------------------- field maps

def small_layout():
    return build_ring_array(CylinderSpec(radius_a=1.0, length_L=2.0), WL, "axial")


def cp_phases(layout, focal, e_hat):
    ch = assemble_channel(layout, focal, e_hat, WL)
    g = ch.g
    return np.conj(g) / np.abs(g)


def probe_dipole(point, e_hat):
    """A unit-length, unit-drive dipole at point with moment e_hat, which is
    z or a direction across the axis."""
    axial = e_hat[2] == 1.0
    strip = Strip(np.array([[point[0]], [point[1]], [0.0]]),
                  np.array([[0.0], [1.0], [0.0]]) if axial else e_hat[:, None], 1.0, 1.0)
    return Aperture([strip], [point[2]], "axial" if axial else "azimuthal")


@pytest.mark.parametrize("aperture, polarization, axis", [
    ("ring", "axial", "z"), ("ring", "axial", "x"), ("ring", "azimuthal", "z"),
    ("ring", "azimuthal", "x"), ("corridor", "axial", "z"), ("corridor", "azimuthal", "x")])
def test_reciprocity(aperture, polarization, axis):
    # Lorentz reciprocity for electric currents: source n's field at the
    # focus projected on e_hat, the channel (the kernel's projected branch),
    # equals the field of a dipole e_hat at the focus evaluated at source n
    # and dotted with its moment (the weighted-sum branch)
    if aperture == "ring":
        sources = build_ring_array(CylinderSpec(1.0, 10.0), WL, polarization)
        focus = (0.3, -0.2, 1.0)
    else:
        # the full-scale corridor, 1,015,928 patches
        sources = build_rect_corridor_mesh(RectCorridorSpec(12.0, 10.5, 126.0), 0.25 * LAM, WL,
                                           polarization)
        focus = (1.0, -0.5, 20.0)
    n = len(sources)
    e_hat = {"x": np.array([1.0, 0.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}[axis]
    g = assemble_channel(sources, np.array(focus), e_hat, WL).g
    field = evaluate_field(probe_dipole(focus, e_hat), np.ones(1),
                           sources.positions(0, n).T, WL, threads=2).E
    reciprocal = np.einsum("ni,in->n", field, sources.moments(0, n))
    assert np.max(np.abs(reciprocal - g)) <= 1e-14 * np.max(np.abs(g))


def test_zero_weights_zero_field():
    layout = small_layout()
    grid = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.2]])
    fm = evaluate_field(layout, np.zeros(len(layout), dtype=complex), grid, WL)
    assert np.max(np.abs(fm.E)) == 0.0


def test_single_source_matches_kernel():
    layout = small_layout()
    w = np.zeros(len(layout), dtype=complex)
    w[17] = 2.0 - 1.0j
    pt = np.array([[0.0, 0.1, 0.3]])
    fm = evaluate_field(layout, w, pt, WL, kernel="full")
    position, moment = row(layout, 17)
    ref = w[17] * (green_electric(pt[0], position, WL) @ moment)
    assert np.max(np.abs(fm.E[0] - ref)) < 1e-15 * np.max(np.abs(ref))


def test_linearity():
    layout = small_layout()
    rng = np.random.default_rng(3)
    w1 = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    w2 = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, -0.4], [0.0, 0.3, 0.6]])
    a, b = 1.7, -0.6 + 0.2j
    fa = evaluate_field(layout, w1, grid, WL).E
    fb = evaluate_field(layout, w2, grid, WL).E
    fab = evaluate_field(layout, a * w1 + b * w2, grid, WL).E
    assert np.max(np.abs(fab - (a * fa + b * fb))) < 1e-12 * np.max(np.abs(fab))


def test_cp_phase_coherence_at_focus():
    layout = small_layout()
    focal = np.zeros(3)
    e_hat = np.array([0.0, 0.0, 1.0])
    ch = assemble_channel(layout, focal, e_hat, WL)
    g = ch.g
    w = np.conj(g) / np.abs(g)
    contrib = w * g
    assert np.all(contrib.real >= 0.0)
    assert np.max(np.abs(contrib.imag)) <= 1e-9 * np.max(np.abs(contrib))


def test_xz_cut_symmetry():
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=10.0), WL, "axial")
    w = cp_phases(layout, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    xs = np.array([0.11, 0.23])
    zs = np.array([0.17, 0.31])
    pts = []
    for x in xs:
        for z in zs:
            pts += [[x, 0, z], [-x, 0, z], [x, 0, -z], [-x, 0, -z]]
    fm = evaluate_field(layout, w, np.array(pts), WL)
    ez = np.abs(fm.component("z")).reshape(-1, 4)
    for quad in ez:
        assert np.max(np.abs(quad - quad[0])) < 1e-10 * quad[0]


def test_full_vs_approx_kernel_on_interior_points():
    layout = small_layout()
    w = cp_phases(layout, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    # interior points at least 1 wavelength from every element
    grid = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.5],
                     [0.15, 0.15, 0.3]])
    full = evaluate_field(layout, w, grid, WL, kernel="full").E
    approx = evaluate_field(layout, w, grid, WL, kernel="dipole-approx").E
    mag_f = np.linalg.norm(full, axis=1)
    mag_a = np.linalg.norm(approx, axis=1)
    assert np.max(np.abs(mag_f - mag_a) / mag_f) < 0.05


def test_standoff_flags_and_errors():
    layout = small_layout()
    w = np.ones(len(layout), dtype=complex)
    p0 = row(layout, 0)[0]
    inward = -p0 / np.linalg.norm(p0[:2])
    inward[2] = 0.0
    close = (p0 + 0.26 * LAM * inward)[None, :]
    fm = evaluate_field(layout, w, close, WL, kernel="full")
    assert not fm.near_singular[0]
    closer = (p0 + 0.2 * LAM * inward)[None, :]
    fm2 = evaluate_field(layout, w, closer, WL, kernel="full")
    assert fm2.near_singular[0]
    with pytest.raises(ValueError):
        evaluate_field(layout, w, closer, WL, kernel="dipole-approx")
    with pytest.raises(ValueError):
        evaluate_field(layout, w, p0[None, :], WL, kernel="full")


def test_field_refuses_a_weight_per_source_short():
    layout = small_layout()
    with pytest.raises(ValueError, match="one weight per source"):
        evaluate_field(layout, np.ones(len(layout) - 1, dtype=complex), np.zeros((1, 3)), WL)


def test_determinism_and_thread_equivalence():
    layout = small_layout()
    rng = np.random.default_rng(5)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 64), np.zeros(64), np.zeros(64)], axis=1)
    e1 = evaluate_field(layout, w, grid, WL, threads=1).E
    e2 = evaluate_field(layout, w, grid, WL, threads=1).E
    e4 = evaluate_field(layout, w, grid, WL, threads=4).E
    assert np.array_equal(e1, e2)
    assert np.array_equal(e1, e4)


def inline_executor(requested, submitted):
    """A stand-in for ThreadPoolExecutor that records its pool size and the
    arguments submitted to it, and runs each submitted call at once, in the
    calling thread."""

    class InlineExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            done = Future()
            done.set_result(fn(*args))
            return done

    return InlineExecutor


def test_workers_capped_at_usable_cpus(monkeypatch):
    # the caller is one worker and the pool runs the others; an inline
    # executor records the pool size and starts no thread
    layout = small_layout()
    rng = np.random.default_rng(6)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 64), np.zeros(64), np.zeros(64)], axis=1)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", len(layout))
    ref = evaluate_field(layout, w, grid, WL, threads=1).E
    requested, submitted = [], []
    monkeypatch.setattr(fields, "ThreadPoolExecutor", inline_executor(requested, submitted))
    units, _ = fields._units(len(grid), len(layout))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert len(units) > cpus
    fm = evaluate_field(layout, w, grid, WL, threads=4000)
    assert fm.workers == cpus
    assert requested == [max(1, cpus - 1)]
    assert submitted == [()] * (cpus - 1)
    assert np.array_equal(fm.E, ref)


def test_lone_worker_submits_nothing(monkeypatch):
    # one thread runs every unit in the caller, and gives the same bytes
    # as two workers
    layout = small_layout()
    rng = np.random.default_rng(9)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 64), np.zeros(64), np.zeros(64)], axis=1)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", len(layout))
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    two = evaluate_field(layout, w, grid, WL, threads=2)
    assert two.workers == 2
    requested, submitted = [], []
    monkeypatch.setattr(fields, "ThreadPoolExecutor", inline_executor(requested, submitted))
    one = evaluate_field(layout, w, grid, WL, threads=1)
    assert one.workers == 1 and requested == [1] and submitted == []
    assert one.E.tobytes() == two.E.tobytes()


def deferred_executor():
    """A stand-in for ThreadPoolExecutor whose submitted calls run, in the
    calling thread, only when their result is read: the caller's own share
    runs first."""

    class Deferred:
        def __init__(self, fn):
            self.fn = fn

        def result(self):
            return self.fn()

    class DeferredExecutor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return Deferred(lambda: fn(*args))

    return DeferredExecutor


@pytest.mark.parametrize("first", ["helper", "caller"])
def test_first_unit_in_scratch_row_zero(monkeypatch, first):
    # whichever worker claims unit 0, the largest, runs it in scratch row 0
    layout = small_layout()
    rng = np.random.default_rng(11)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 64), np.zeros(64), np.zeros(64)], axis=1)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", len(layout))
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    ref = evaluate_field(layout, w, grid, WL, threads=1).E
    executor = (inline_executor([], []) if first == "helper" else deferred_executor())
    monkeypatch.setattr(fields, "ThreadPoolExecutor", executor)
    rows, kernel = [], fields._dyadic

    def recording(*args, **kw):
        scratch = args[6]
        rows.append((scratch.ctypes.data - scratch.base.ctypes.data) // scratch.nbytes)
        return kernel(*args, **kw)

    monkeypatch.setattr(fields, "_dyadic", recording)
    fm = evaluate_field(layout, w, grid, WL, threads=2)
    assert fm.workers == 2
    # one worker claims every unit, in index order
    assert len(rows) == len(fields._units(len(grid), len(layout))[0]) > 1
    assert rows == [0] * len(rows)
    assert fm.E.tobytes() == ref.tobytes()


def test_parts_added_in_source_order_by_many_workers(monkeypatch):
    # 21 point slices and 10 source blocks: each slice's parts come from
    # different workers, so many finish out of turn and wait in the stash;
    # a part lost or added out of order changes E's bytes
    layout = small_layout()
    rng = np.random.default_rng(7)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 63), np.zeros(63), np.zeros(63)], axis=1)
    monkeypatch.setattr(fields, "_SOURCE_BLOCK", 64)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", 3 * 64)
    assert len(fields._units(len(grid), len(layout))[0]) == 21 * 10
    ref = evaluate_field(layout, w, grid, WL, threads=1).E
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fm = evaluate_field(layout, w, grid, WL, threads=5)
            assert fm.workers == 5
            assert np.array_equal(fm.E, ref)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_points", [1, 5, 127, 128, 129, 141, 256, 257, 3481])
@pytest.mark.parametrize("n_src", [1, 2814, 1_015_928])
def test_units_tile_points_evenly(n_points, n_src):
    # the fewest point slices that the budget allows, in order and within one
    # point of each other, the same on every source slice, which tile the
    # sources in order; the scratch holds the largest unit
    units, size = fields._units(n_points, n_src)
    blocks = sorted({(s.start, s.stop) for _, s in units})
    slices = [p for p, s in units if s.start == 0]
    assert units == [(p, slice(a, b)) for a, b in blocks for p in slices]
    assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
    assert blocks[-1][1] == n_src
    assert [p.start for p in slices] == [0] + [p.stop for p in slices[:-1]]
    assert slices[-1].stop == n_points
    sizes = [p.stop - p.start for p in slices]
    assert max(sizes) - min(sizes) <= 1
    block = blocks[0][1]
    width = fields._BUFFERS * block + max(0, fields._SUM_ROOM - 4 * block)
    per = fields._BUFFERS * fields._CHUNK_BUDGET // width
    assert max(sizes) <= per and len(slices) == -(-n_points // per)
    assert size == max(sizes) * width
    if n_src == 2814:
        # the baseline ring's default cut and plane
        expected = {141: [70, 71], 3481: [124] * 19 + [125] * 9}.get(n_points)
        assert expected is None or sorted(sizes) == expected


def test_stalled_worker_leaves_its_units_to_the_other(monkeypatch):
    # the first unit claimed stalls until every other unit has been taken:
    # only workers that claim units as they go get there, where a fixed
    # share per worker would wait out the timeout.  The stalled unit's
    # slice then gets its later parts from the stash, in source order
    layout = small_layout()
    rng = np.random.default_rng(12)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 64), np.zeros(64), np.zeros(64)], axis=1)
    monkeypatch.setattr(fields, "_SOURCE_BLOCK", 64)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", 16 * 64)
    n_units = len(fields._units(len(grid), len(layout))[0])
    assert n_units >= 12
    ref = evaluate_field(layout, w, grid, WL, threads=1).E
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    dyadic = fields._dyadic
    guard = threading.Lock()
    claims = []
    released = threading.Event()
    waited = []

    def stalling(*args, **kwargs):
        with guard:
            claims.append(threading.get_ident())
            first, last = len(claims) == 1, len(claims) == n_units
        if last:
            released.set()
        if first:
            waited.append(released.wait(timeout=10.0))
        return dyadic(*args, **kwargs)

    monkeypatch.setattr(fields, "_dyadic", stalling)
    fm = evaluate_field(layout, w, grid, WL, threads=2)
    assert fm.workers == 2 and len(claims) == n_units
    assert waited == [True]
    assert claims.count(claims[0]) == 1
    assert np.array_equal(fm.E, ref)


def test_evaluate_field_peak_near_its_result(monkeypatch):
    # one ring of 42 dipoles on 100,000 points: one source block, so at the
    # parent of this check the units' parts alone were as large as E
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", 16_384)
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=0.05), WL, "axial")
    n = 100_000
    grid = np.stack([np.linspace(-0.5, 0.5, n), np.zeros(n), np.zeros(n)], axis=1)
    w = np.ones(len(layout), dtype=complex)
    tracemalloc.start()
    try:
        fm = evaluate_field(layout, w, grid, WL, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = fm.workers * fields._units(n, len(layout))[1] * 8
    # E and dmin take 56 B per point; measured 1.21 E + scratch on one
    # worker and 1.24 E + scratch on two, 2.12 E + scratch before
    assert peak <= 1.3 * fm.E.nbytes + scratch


@pytest.mark.parametrize("threads", [1, 2])
def test_one_source_sums_in_its_scratch(monkeypatch, threads):
    # with one source a unit is all points and one pair each, so the
    # weighted sum's products and the (P, 3) part are as large as the
    # kernel's buffers: they are written into the scratch.  Measured 1.19 E
    # + scratch on one worker and 1.20 on two; 2.34 and 3.29 when the sum
    # allocated them per unit
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    el = single_element(orientation=(0.0, 1.0, 0.0), position=(1.0, 0.0, 0.0))
    n = 300_000
    grid = np.stack([np.zeros(n), np.zeros(n), np.linspace(-0.5, 0.5, n)], axis=1)
    tracemalloc.start()
    try:
        fm = evaluate_field(el, np.ones(1), grid, WL, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fm.workers == threads
    scratch = fm.workers * fields._units(n, 1)[1] * 8
    assert peak <= 1.3 * fm.E.nbytes + scratch


def test_worker_scratch_is_one_array_made_by_the_caller(monkeypatch):
    # each worker computes its units in its own row of one (workers, size)
    # array that evaluate_field makes before the workers start, so the
    # scratch's pages go back to the calling thread's heap
    layout = small_layout()
    rng = np.random.default_rng(8)
    w = rng.normal(size=len(layout)) + 1j * rng.normal(size=len(layout))
    grid = np.stack([np.linspace(-0.3, 0.3, 64), np.zeros(64), np.zeros(64)], axis=1)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", len(layout))
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 3)
    seen = []
    dyadic = fields._dyadic

    def recording(*args, **kwargs):
        seen.append(args[6])
        return dyadic(*args, **kwargs)

    monkeypatch.setattr(fields, "_dyadic", recording)
    fm = evaluate_field(layout, w, grid, WL, threads=3)
    assert fm.workers == 3 and len(seen) == len(fields._units(len(grid), len(layout))[0])
    base = seen[0].base
    assert base is not None
    assert all(scratch.base is base for scratch in seen)
    assert base.shape == (3, fields._units(len(grid), len(layout))[1])
    rows = {(scratch.ctypes.data - base.ctypes.data) // base.strides[0] for scratch in seen}
    assert rows == {0, 1, 2}


def brute_force_field(sources, w, grid, source_kind):
    """Per-point, per-source sum of the 3x3 tensors, in index order."""
    pos, moments = sources.positions(0, len(sources)), sources.moments(0, len(sources))
    green = green_electric if source_kind == "electric" else green_magnetic
    return np.array([sum(wn * (green(p, s, WL) @ m)
                         for wn, s, m in zip(w, pos.T, moments.T))
                     for p in grid])


@pytest.mark.parametrize("source_kind", ["electric", "magnetic"])
def test_chunk_invariance_across_threads(monkeypatch, source_kind):
    if source_kind == "electric":
        sources = build_ring_array(CylinderSpec(radius_a=1.0, length_L=0.5), WL, "axial")
    else:
        sources = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=2.0), 8, 12, WL,
                                      "azimuthal")
    n = len(sources)
    pos = sources.positions(0, n).T
    rng = np.random.default_rng(11)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    # a line from 0.1 wavelength inside the wall at source 0 across the
    # axis: its first points are inside the quarter-wavelength standoff
    start = pos[0] * (1.0 - 0.1 * LAM / np.linalg.norm(pos[0]))
    grid = start + np.linspace(0.0, 1.0, 64)[:, None] * (np.array([0.0, 0.0, 0.1]) - start)
    ref = brute_force_field(sources, w, grid, source_kind)
    # units of at most 20 points and every source, then of at most 3 points
    # and a third of them: the 64 points tile as 4 slices of 16, then as 22
    # slices of 2 or 3 points
    for budget, block, sizes in ((20 * n, n, {16}), (n, n // 3, {2, 3})):
        monkeypatch.setattr(fields, "_CHUNK_BUDGET", budget)
        monkeypatch.setattr(fields, "_SOURCE_BLOCK", block)
        units, _ = fields._units(len(grid), n)
        first = [p for p, s in units if s.start == 0]
        assert units[0] == (slice(0, min(sizes)), slice(0, block))
        assert len(first) == -(-len(grid) // (budget // block))
        assert {p.stop - p.start for p in first} == sizes
        maps = [evaluate_field(sources, w, grid, WL, source_kind=source_kind, threads=t)
                for t in (1, 2, 3)]
        for fm in maps[1:]:
            assert np.array_equal(fm.E, maps[0].E)
            assert np.array_equal(fm.near_singular, maps[0].near_singular)
        assert np.max(np.abs(maps[0].E - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert maps[0].near_singular.any() and not maps[0].near_singular.all()


def test_accuracy_far_from_origin():
    direction = np.array([-0.48, 0.6, 0.64])
    el = single_element(orientation=(0.6, 0.0, 0.8), position=(60.0, 0.0, 0.0))
    position, moment = row(el, 0)
    obs = position + 0.26 * LAM * direction
    ref = green_electric(obs, position, WL) @ moment
    E = one_element_field(el, obs, kernel="full")
    assert np.max(np.abs(E - ref)) <= 1e-14 * np.max(np.abs(ref))


def longdouble_field(sources, w, grid, kernel, source_kind):
    """Every (point, source) dyadic term written out in long double and
    summed over sources: E = A m + C (m.r_hat) r_hat for electric
    currents, E = C r_hat x m for magnetic ones."""
    ld = np.longdouble
    n = len(sources)
    pos, m = np.asarray(sources.positions(0, n).T, ld), np.asarray(sources.moments(0, n).T, ld)
    d = np.asarray(grid, ld)[:, None, :] - pos[None]
    R = np.sqrt(np.sum(d * d, axis=-1))
    r_hat = d / R[..., None]
    k = ld(WL.k)
    phase = np.cos(k * R) - 1j * np.sin(k * R)
    if source_kind == "magnetic":
        C = (1j * k + 1 / R) * phase / (4 * ld(math.pi) * R)
        terms = C[..., None] * np.cross(r_hat, m[None])
    else:
        t = 1 / (k * R) if kernel == "full" else np.zeros_like(R)
        A = 1j * k * ld(FREE_SPACE_IMPEDANCE) * phase / (4 * ld(math.pi) * R)
        C = A * (3 * t * t - 1 + 3j * t) * np.sum(r_hat * m[None], axis=-1)
        terms = (A * (1 - t * t - 1j * t))[..., None] * m[None] + C[..., None] * r_hat
    return np.sum(terms * np.asarray(w, np.clongdouble)[None, :, None], axis=1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("aperture, kernel, source_kind, current", [
    ("ring", "full", "electric", "z"),
    ("ring", "dipole-approx", "electric", "z"),
    ("mesh", "full", "electric", "z"),
    ("mesh", "full", "magnetic", "phi"),
    ("azimuthal_ring", "full", "electric", "z"),
    ("azimuthal_ring", "dipole-approx", "electric", "z"),
    ("oblique_ring", "full", "electric", "z"),
    ("mesh", "full", "magnetic", "z"),
])
def test_fused_kernel_accuracy_against_long_double(aperture, kernel, source_kind, current):
    # random-phase drives, so no coherent focus hides the rounding; a cut
    # through the aperture plus scattered interior points.  The rings cover
    # one (axial), two (azimuthal) and three (oblique: random unit
    # orientations) nonzero moment components; a mesh's current runs along
    # its z or phi tangent.  Measured on x86-64 (80-bit
    # long double): 1.4e-15 to 2.0e-15 of the peak field, at most 2.7e-15
    # over five drive seeds.
    spec = CylinderSpec(radius_a=1.0, length_L=1.0)
    if aperture == "ring":
        sources = build_ring_array(spec, WL, "axial")
    elif aperture == "azimuthal_ring":
        sources = build_ring_array(spec, WL, "azimuthal")
    elif aperture == "oblique_ring":
        ring = flat_ring_array(spec, WL, "axial")
        o = np.random.default_rng(4).normal(size=(len(ring), 3))
        sources = FlatSources(ring.xyz, o / np.linalg.norm(o, axis=1)[:, None], ring.length)
    else:
        sources = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=2.0), 16, 24, WL,
                                      POLARIZATION[current])
    rng = np.random.default_rng(3)
    n = len(sources)
    w = np.exp(2j * np.pi * rng.random(n)) * (0.5 + rng.random(n))
    cut = np.linspace(-0.6, 0.6, 25)
    grid = np.vstack([np.stack([cut, np.zeros(25), 2.0 * cut / 3.0], axis=1),
                      rng.uniform(-0.6, 0.6, (15, 3)) * [1.0, 1.0, 0.6]])
    E = evaluate_field(sources, w, grid, WL, kernel=kernel, source_kind=source_kind,
                       threads=2).E
    ref = longdouble_field(sources, w, grid, kernel, source_kind)
    assert np.max(np.abs(E - ref)) <= 5e-15 * np.max(np.abs(ref))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("n_src", [1, 3])
@pytest.mark.parametrize("kernel, source_kind", [
    ("full", "electric"), ("dipole-approx", "electric"), ("full", "magnetic")])
def test_few_sources_on_many_points_against_long_double(n_src, kernel, source_kind):
    # oblique elements, three nonzero moment components each, on 40,000
    # points: a unit of so few sources holds many points, and its weighted
    # sum's products (for magnetic currents a (6P, 6) one) fill the room
    # that _units gives it, exactly so for these two counts.  Measured on
    # x86-64 (80-bit long double): at most 5.3e-15 of the peak field, for
    # the one magnetic source
    rng = np.random.default_rng(9)
    o = rng.normal(size=(n_src, 3))
    sources = FlatSources(rng.uniform(-0.2, 0.2, (n_src, 3)),
                          o / np.linalg.norm(o, axis=1)[:, None], LAM / 100.0)
    w = np.exp(2j * np.pi * rng.random(n_src))
    n = 40_000
    grid = rng.uniform(0.5, 1.5, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    assert len(fields._units(n, n_src)[0]) > 2
    maps = [evaluate_field(sources, w, grid, WL, kernel=kernel, source_kind=source_kind,
                           threads=t) for t in (1, 2)]
    assert maps[0].E.tobytes() == maps[1].E.tobytes()
    ref = longdouble_field(sources, w, grid, kernel, source_kind)
    assert np.max(np.abs(maps[0].E - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_coincident_point_raises_before_dividing():
    layout = small_layout()
    w = np.ones(len(layout), dtype=complex)
    p5 = row(layout, 5)[0]
    grid = np.vstack([np.zeros(3), p5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kernel in ("full", "dipole-approx"):
            with pytest.raises(ValueError, match="coincides"):
                evaluate_field(layout, w, grid, WL, kernel=kernel)
        with pytest.raises(ValueError, match="coincides"):
            green_electric(p5, p5, WL)
        with pytest.raises(ValueError, match="coincides"):
            green_magnetic(p5, p5, WL)


def test_magnetic_source_field_antisymmetry_use():
    mesh = build_cylinder_mesh(CylinderSpec(radius_a=1.0, length_L=2.0), 8, 12, WL,
                               "azimuthal")
    w = np.ones(len(mesh), dtype=complex)
    fm = evaluate_field(mesh, w, np.array([[0.0, 0.0, 0.0]]), WL, source_kind="magnetic")
    assert np.all(np.isfinite(fm.E))
    # phi-directed magnetic ring current through the origin drives E mostly
    # along z by symmetry
    assert abs(fm.E[0, 2]) > 10.0 * max(abs(fm.E[0, 0]), abs(fm.E[0, 1]))


def test_mesh_refinement_convergence():
    spec = CylinderSpec(radius_a=1.0, length_L=10.0)
    e_hat = np.array([0.0, 0.0, 1.0])
    vals = []
    for (na, nph) in [(100, 18), (200, 36)]:
        mesh = build_cylinder_mesh(spec, na, nph, WL)
        ch = assemble_channel(mesh, np.zeros(3), e_hat, WL)
        g = ch.g
        w = np.conj(g) / np.abs(g)  # unit-amplitude phase conjugation
        # focal field per unit total drive area keeps refinements comparable
        vals.append(abs(np.sum(w * g)) / (len(mesh) * mesh.strips[0].size))
    assert abs(vals[1] - vals[0]) / vals[1] < 0.005
