"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one ``[acceptance NN] label: PASS/FAIL`` line with
the measured numbers, then asserts the guarantee at its stated tolerance.
Checks that carry a runtime budget time themselves and assert it too.

Frozen expectations come from independent oracles: adaptive quadrature for
the closed forms and special functions, projected gradient
ascent for the water-level solver, and axially refined surface meshes as
continuum proxies for the discrete cuts.  The focal extents and limits of
checks 04-07 are computed in the test itself, without ``nearfocus``, or
taken from a closed form's documented first-order expansion:

* 04: the long-cylinder constants, and 2(1 - 2a/L) and (pi/2)(1 + 2a/L)
  for the two uniform-drive forms that approach theirs at first order;
* 05: the stretched ideal-sinc depth, and a continuum integral over exact
  path lengths for the longitudinal main lobe;
* 06: the time-reversal continuum integrals of sin^4(theta) over the span;
* 07: the 3-dB point of 2 Si(x)/x, with Si by Gauss-Legendre quadrature.

Round figures that none of these oracles reproduces (0.66 wl for the
time-reversal depth, 0.84 wl for the cross-polarized y width, 0.1% from
the bare limits at L = 1000a) are not asserted; see the README.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize, special

from nearfocus import analytic, cli
from nearfocus.fields import ChannelVector, assemble_channel, evaluate_field
from nearfocus.focusing import PowerConstraints, cp_weights, hybrid_weights, tr_weights
from nearfocus.geometry import (CylinderSpec, RectCorridorSpec, Wavelength,
                                build_cylinder_mesh, build_rect_corridor_mesh,
                                build_ring_array)
from nearfocus.metrics import cut_metrics

from oracles import (kernel_dipole, kernel_point, optimality_oracle,
                     transverse_pol_tr_quadrature)

WL = Wavelength.from_frequency(1.0e9)
LAM = WL.lam
BASELINE = CylinderSpec(radius_a=1.0, length_L=10.0)
X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

# pure-CP and pure-TR constraint sets: one cap binds, the other is slack
PC_CP = PowerConstraints(w_max=0.02, P0=1.0e9, R0_per_port=50.0)
PC_TR = PowerConstraints(w_max=1.0e9, P0=1.0, R0_per_port=50.0)


def _report(index, label, failures, detail):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {index:02d}] {label}: {status} ({detail})")
    if failures:
        pytest.fail(f"{label}: " + "; ".join(failures), pytrace=False)


def _cut(sources, weights, axis, component, half_span_wl=1.6, **kwargs):
    n = int(round(half_span_wl * 128.0))
    offsets = np.arange(-n, n + 1) * (LAM / 128.0)
    points = offsets[:, None] * axis[None, :]
    fm = evaluate_field(sources, weights.w, points, WL, **kwargs)
    values = np.abs(fm.E[:, {"x": 0, "y": 1, "z": 2}[component]])
    return offsets, values


def _width_wl(offsets, values):
    return cut_metrics(offsets, values, LAM).width_3db / LAM


def _main_lobe_linf(offsets, values, reference):
    """Peak-normalized worst deviation from a reference curve, between the
    sampled minima that flank the peak."""
    nn = values / values.max()
    aa = reference / reference.max()
    lo = hi = len(offsets) // 2
    while lo > 0 and nn[lo - 1] < nn[lo]:
        lo -= 1
    while hi < len(nn) - 1 and nn[hi + 1] < nn[hi]:
        hi += 1
    return float(np.max(np.abs(nn[lo:hi + 1] - aa[lo:hi + 1])))


def _closed_form(kind, offsets):
    return np.abs(analytic.resolution_profiles(kind, np.abs(offsets) / LAM,
                                               BASELINE))


def _half_power_width_wl(profile, lo, hi):
    """Full 3-dB width, in wavelengths, of an even profile f(x), x = k*offset:
    twice the root of f(x) = f(0)/sqrt(2) in [lo, hi], over 2*pi."""
    target = profile(0.0) / math.sqrt(2.0)
    return optimize.brentq(lambda x: profile(x) - target, lo, hi,
                           xtol=1e-13) / math.pi


def _gauss_legendre(f, lo, hi, panels=400, order=20):
    """Composite Gauss-Legendre integral of f(t) over [lo, hi]; f may return
    one row per argument, giving one integral per row.  400 panels of 20
    nodes resolve integrands with up to about 10^3 radians of phase."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return f(t) @ w


def _cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


@pytest.fixture(scope="module")
def baseline_array():
    """Discrete baseline: 1 GHz axial rings on the 1 m x 10 m cylinder."""
    layout = build_ring_array(BASELINE, WL, polarization="axial")
    focus = np.zeros(3)
    h_z = assemble_channel(layout, focus, Z_HAT, WL)
    h_x = assemble_channel(layout, focus, X_HAT, WL)
    return layout, h_z, h_x


def test_01_kernel_focal_sizes():
    """Sampled point and dipole kernels show the advertised 3-dB widths
    and first nulls."""
    t0 = time.perf_counter()
    n = int(round(1.1 * 128))
    offsets = np.arange(-n, n + 1) * (LAM / 128.0)
    kr = WL.k * np.abs(offsets)
    cases = (
        ("point", [abs(kernel_point(v)) for v in kr], 0.44, 0.50),
        ("dipole axis", [abs(kernel_dipole(v, 0.0)) for v in kr],
         0.578, 0.715),
        ("dipole equator",
         [abs(kernel_dipole(v, math.pi / 2)) for v in kr],
         0.402, 0.437),
    )
    failures, shown = [], []
    for name, values, want_w, want_n in cases:
        m = cut_metrics(offsets, values, LAM)
        width, null = m.width_3db / LAM, m.first_null / LAM
        shown.append(f"{name} {width:.4f}/{null:.4f}")
        if abs(width - want_w) > 0.01:
            failures.append(f"{name} width {width:.4f} wl not {want_w} +- 0.01")
        if abs(null - want_n) > 0.005:
            failures.append(f"{name} null {null:.4f} wl not {want_n} +- 0.005")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s not under 1s")
    _report(1, "kernel focal sizes", failures,
            f"width/null wl: {', '.join(shown)}; {elapsed:.2f}s")


def test_02_drive_regimes():
    """Raising the per-element cap against a fixed 1 W budget walks the
    water-level solution from flat clipping through a plateau to the
    channel-proportional taper."""
    t0 = time.perf_counter()
    mesh = build_cylinder_mesh(BASELINE, 200, 36, WL)
    h = assemble_channel(mesh, np.zeros(3), Z_HAT, WL)
    w_tr, _ = tr_weights(h, PowerConstraints(1.0e9, 1.0, 50.0))
    a_tr = np.abs(w_tr.w)
    failures, shown = [], []
    for w_m, want in ((0.002, "CP"), (0.008, "hybrid"), (0.02, "TR")):
        w, _ = hybrid_weights(h, PowerConstraints(w_m, 1.0, 50.0))
        amps = np.abs(w.w)
        clipped = int(np.sum(amps >= w_m * (1.0 - 1e-9)))
        shown.append(f"w_m={w_m}: {w.regime} {clipped}/{amps.size} clipped")
        if w.regime != want:
            failures.append(f"w_m={w_m} regime {w.regime}, expected {want}")
        if want == "CP" and np.ptp(amps) > 1e-12 * w_m:
            failures.append(f"w_m={w_m} profile not flat (spread {np.ptp(amps):.2e})")
        if want == "TR":
            c = _cosine(amps, a_tr)
            shown[-1] += f" cos={c:.6f}"
            if c < 0.999:
                failures.append(f"w_m={w_m} cosine {c:.6f} below 0.999")
        if want == "hybrid":
            if not 0 < clipped < amps.size:
                failures.append(f"w_m={w_m} clipped {clipped} not a strict subset")
            free = amps < w_m * (1.0 - 1e-9)
            c = _cosine(amps[free], a_tr[free])
            shown[-1] += f" tail-cos={c:.6f}"
            if c < 0.999:
                failures.append(f"w_m={w_m} unclipped tail cosine {c:.6f} below 0.999")
            if abs(w.total_power - 1.0) > 1e-9:
                failures.append(f"w_m={w_m} budget not met ({w.total_power})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s not under 10s")
    _report(2, "drive regimes", failures, f"{'; '.join(shown)}; {elapsed:.2f}s")


def test_03_water_level_matches_oracle():
    """The exact water-level solver matches independent projected gradient ascent
    on 100 random channels across all regimes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for i in range(100):
        n_el = (4, 16, 64)[i % 3]
        g = rng.normal(size=n_el) + 1j * rng.normal(size=n_el)
        h = ChannelVector(g, [1.0], [n_el])
        w_max = 10.0 ** rng.uniform(-2.0, 0.0)
        budget_fraction = rng.uniform(0.05, 2.0)
        pc = PowerConstraints(w_max,
                              0.5 * 50.0 * budget_fraction * n_el * w_max**2,
                              50.0)
        w, _ = hybrid_weights(h, pc)
        worst = max(worst, abs(optimality_oracle(h, pc, w, seed=i).relative_gap))
    elapsed = time.perf_counter() - t0
    failures = []
    if worst > 1e-7:
        failures.append(f"worst relative gap {worst:.3e} exceeds 1e-7")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s not under 30s")
    _report(3, "water level vs oracle", failures,
            f"worst gap {worst:.3e}; {elapsed:.2f}s")


def test_04_long_cylinder_limits():
    """At L = 1000a the on-axis closed forms sit on their long-cylinder
    limits to 1e-3.

    The co-polarized uniform-drive peak and both channel-proportional forms
    are checked against the bare constants pi, 3 pi^2/16, pi^2/32 and 6.
    The cross-polarized uniform-drive peak, 2 - 4a/sqrt(L^2 + 4a^2), and
    with it the co/cross ratio, approach their limits at first order in
    a/L; at L = 1000a they sit 2e-3 from 2 and pi/2 by construction, so
    they are checked against their first-order laws 2(1 - 2a/L) and
    (pi/2)(1 + 2a/L).  Doubling L must halve both deviations from the bare
    limits, which asserts the order itself.
    """
    def forms(length):
        spec = CylinderSpec(1.0, length)
        ez_cp = analytic.ez_cp_axis(0.0, spec)
        ex_cp = analytic.ex_cp_axis(0.0, spec)
        ez_tr = analytic.ez_tr_axis(0.0, spec)
        ex_tr = analytic.ex_tr_axis(0.0, spec)
        return {"ez_cp": ez_cp, "ex_cp": ex_cp, "ez_tr": ez_tr, "ex_tr": ex_tr,
                "cp ratio": ez_cp / ex_cp, "tr ratio": ez_tr / ex_tr}

    a_over_l = 1.0 / 1000.0
    got, doubled = forms(1000.0), forms(2000.0)
    bare = {"ez_cp": math.pi, "ex_cp": 2.0, "ez_tr": 3.0 * math.pi**2 / 16.0,
            "ex_tr": math.pi**2 / 32.0, "cp ratio": math.pi / 2.0, "tr ratio": 6.0}
    first_order = {"ex_cp": 2.0 * (1.0 - 2.0 * a_over_l),
                   "cp ratio": math.pi / 2.0 * (1.0 + 2.0 * a_over_l)}
    failures, shown = [], []
    for name, limit in bare.items():
        want = first_order.get(name, limit)
        dev = abs(got[name] / want - 1.0)
        shown.append(f"{name} {dev:.1e}")
        if dev > 1e-3:
            failures.append(f"{name} = {got[name]!r} deviates {dev:.3e} from"
                            f" {want!r}, tolerance 1e-3")
    for name in first_order:
        halving = (got[name] / bare[name] - 1.0) / (doubled[name] / bare[name] - 1.0)
        shown.append(f"{name} halving {halving:.4f}")
        if abs(halving / 2.0 - 1.0) > 1e-3:
            failures.append(f"{name} deviation from {bare[name]!r} shrinks by"
                            f" {halving:.4f}, not 2, when L doubles: the"
                            " approach is not first order in a/L")
    _report(4, "long-cylinder limits", failures, "rel dev " + ", ".join(shown))


def test_05_copolarized_cuts_match_closed_forms(baseline_array):
    """Full-drive co-polarized focal cuts of the discrete baseline track
    their continuum references.

    Transverse: the sinc closed form over the main lobe and a 0.44 wl
    width.  Longitudinal: a depth equal to the ideal-sinc 3-dB width
    stretched by sqrt(1 + 4a^2/L^2), and a main lobe that follows the
    continuum integral of the sin^2(theta)/R amplitude over the axial span
    with exact path lengths sqrt(a^2 + (l - z)^2).  The ``ez_long`` closed
    form linearises the path difference, which at a = 3.3 wl fills its
    first null; its deviation is shown, not asserted.
    """
    t0 = time.perf_counter()
    layout, h_z, _ = baseline_array
    w, _ = cp_weights(h_z, PC_CP)
    off_t, val_t = _cut(layout, w, X_HAT, "z")
    off_l, val_l = _cut(layout, w, Z_HAT, "z")
    width_t = _width_wl(off_t, val_t)
    width_l = _width_wl(off_l, val_l)
    linf_t = _main_lobe_linf(off_t, val_t, _closed_form("ez_trans", off_t))

    a, length = BASELINE.radius_a, BASELINE.length_L
    col = off_l[:, None]

    def exact_path(l):
        r_focus = np.hypot(a, l)
        r = np.hypot(a, l - col)
        return a * a / r**3 * np.exp(-1j * WL.k * (r - r_focus))

    continuum_l = np.abs(_gauss_legendre(exact_path, -length / 2.0, length / 2.0,
                                         panels=100))
    linf_l = _main_lobe_linf(off_l, val_l, continuum_l)
    linf_closed = _main_lobe_linf(off_l, val_l, _closed_form("ez_long", off_l))
    stretch = math.sqrt(1.0 + 4.0 * a * a / (length * length))
    want_l = stretch * _half_power_width_wl(lambda x: np.sinc(x / math.pi),
                                            1.0, 2.0)
    elapsed = time.perf_counter() - t0

    failures = []
    if linf_t > 0.02:
        failures.append(f"transverse main-lobe deviation {linf_t:.4f} exceeds 0.02")
    if linf_l > 0.02:
        failures.append(f"longitudinal main-lobe deviation {linf_l:.4f} from the"
                        " exact-path continuum exceeds 0.02")
    if abs(width_t - 0.44) > 0.01:
        failures.append(f"transverse width {width_t:.4f} wl not 0.44 +- 0.01")
    if abs(width_l - want_l) > 0.01:
        failures.append(f"longitudinal depth {width_l:.4f} wl not the stretched"
                        f" closed-form depth {want_l:.4f} +- 0.01")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s not under 60s")
    _report(5, "co-polarized focal cuts", failures,
            f"widths {width_t:.4f}/{width_l:.4f} wl (depth want {want_l:.4f}),"
            f" main-lobe dev {linf_t:.4f}/{linf_l:.4f}, linearised closed form"
            f" {linf_closed:.4f}; {elapsed:.2f}s")


def test_06_time_reversal_focal_size(baseline_array):
    """Power-limited focusing on the discrete baseline gives the 3-dB
    extents of the time-reversal continuum over the same span.

    Driving each element with its conjugate channel, sin^2(theta)/R, and
    summing the field in the element-density measure dl = a dtheta /
    sin^2(theta) gives sin^4(theta) over the rim angles.  Longitudinally
    the integrand carries exp(j x cos(theta)), transversely the azimuthal
    average J0(x sin(theta)), with x = k * offset; both are integrated with
    scipy.  On an infinite span the longitudinal form is 8 J2(x)/x^2.
    """
    layout, h_z, _ = baseline_array
    w, _ = tr_weights(h_z, PC_TR)
    width_l = _width_wl(*_cut(layout, w, Z_HAT, "z"))
    width_t = _width_wl(*_cut(layout, w, X_HAT, "z"))

    rim = math.atan2(BASELINE.radius_a, BASELINE.length_L / 2.0)

    def span_integral(phase_factor):
        return lambda x: integrate.quad(
            lambda t: math.sin(t) ** 4 * phase_factor(x, t), rim, math.pi - rim,
            epsabs=1e-13, epsrel=1e-13)[0]

    # the span is symmetric about theta = pi/2, so exp(j x cos) keeps its cosine
    want_l = _half_power_width_wl(
        span_integral(lambda x, t: math.cos(x * math.cos(t))), 1.0, 3.0)
    want_t = _half_power_width_wl(
        span_integral(lambda x, t: special.j0(x * math.sin(t))), 0.5, 2.0)
    infinite_l = _half_power_width_wl(
        lambda x: 8.0 * special.jv(2, x) / x**2 if x else 1.0, 1.0, 3.0)

    failures = []
    if abs(width_l - want_l) > 0.02:
        failures.append(f"longitudinal width {width_l:.4f} wl not {want_l:.4f} +- 0.02")
    if abs(width_t - want_t) > 0.02:
        failures.append(f"transverse width {width_t:.4f} wl not {want_t:.4f} +- 0.02")
    _report(6, "time-reversal focal size", failures,
            f"widths {width_l:.4f}/{width_t:.4f} wl, continuum"
            f" {want_l:.4f}/{want_t:.4f} wl, infinite span {infinite_l:.4f} wl")


def test_07_crosspolarized_focal_size(baseline_array):
    """The cross-polarized closed-form cuts have their main-lobe widths
    along z, x and y.

    The z and x widths are checked against 0.31 and 0.54 wl.  The y cut,
    2 Si(x)/x, is the axial dipole's x-component integrated over azimuth
    and polar angle; its expected width is the root of Si(x)/x = 1/sqrt(2),
    with Si by Gauss-Legendre quadrature of sin(t)/t.
    """
    layout, _, h_x = baseline_array
    n = int(round(1.6 * 128))
    offsets = np.arange(-n, n + 1) * (LAM / 128.0)

    def curve_width(kind):
        return _width_wl(offsets, _closed_form(kind, offsets))

    w_long = curve_width("ex_long")
    w_x = curve_width("ex_trans_x")
    w_y = curve_width("ex_trans_y")
    # Si(x)/x is the integral of sin(t)/t, t = x*u, over u in [0, 1]
    want_y = _half_power_width_wl(
        lambda x: _gauss_legendre(lambda u: np.sinc(x * u / math.pi), 0.0, 1.0,
                                  panels=4), 1.0, 4.0)
    # discrete baseline counterparts, shown for context
    w, _ = cp_weights(h_x, PC_CP)
    d_long = _width_wl(*_cut(layout, w, Z_HAT, "x"))
    d_x = _width_wl(*_cut(layout, w, X_HAT, "x"))
    d_y = _width_wl(*_cut(layout, w, Y_HAT, "x"))

    failures = []
    if abs(w_long - 0.31) > 0.02:
        failures.append(f"longitudinal width {w_long:.4f} wl not 0.31 +- 0.02")
    if abs(w_x - 0.54) > 0.03:
        failures.append(f"transverse-x width {w_x:.4f} wl not 0.54 +- 0.03")
    if abs(w_y - want_y) > 0.03:
        failures.append(f"transverse-y width {w_y:.4f} wl not {want_y:.4f} +- 0.03")
    _report(7, "cross-polarized focal size", failures,
            f"curve widths {w_long:.4f}/{w_x:.4f}/{w_y:.4f} wl"
            f" (y want {want_y:.4f}), discrete {d_long:.4f}/{d_x:.4f}/{d_y:.4f} wl")


def _cylinder_mesh(radius, length, patch):
    """A cylinder wall meshed with patches no larger than patch on a side."""
    spec = CylinderSpec(radius_a=radius, length_L=length)
    return build_cylinder_mesh(spec, int(np.ceil(length / patch)),
                               int(np.ceil(2.0 * math.pi * radius / patch)), WL)


def test_08_rectangle_bounded_by_cylinders():
    """Focal amplitude from a rectangular corridor sits strictly between
    its inscribed and circumscribed cylinders at every sampled focus.

    Checked here at reduced scale (8 x 7 wavelength cross-section, 20
    long) at six foci; check 12 checks the full-size 40 x 35 x 420
    wavelength corridor, 1,015,928 patches, at the origin.
    """
    rect = RectCorridorSpec(width_La=8 * LAM, height_Lb=7 * LAM,
                            length_L=20 * LAM)
    patch = 0.25 * LAM
    mesh_rect = build_rect_corridor_mesh(rect, patch, WL)
    mesh_in = _cylinder_mesh(rect.inscribed_radius(), rect.length_L, patch)
    mesh_out = _cylinder_mesh(rect.circumscribed_radius(), rect.length_L, patch)
    foci = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 3.0],
                     [-1.0, 0.5, -5.0], [1.5, -1.0, 2.0],
                     [0.0, 2.0, 7.0]]) * LAM
    failures, ratios = [], []
    for focus in foci:
        amps = []
        for mesh in (mesh_in, mesh_rect, mesh_out):
            h = assemble_channel(mesh, focus, Z_HAT, WL)
            _, rep = cp_weights(h, PC_CP)
            amps.append(abs(rep.E_focus))
        e_in, e_rect, e_out = amps
        ratios.append(f"{e_in / e_rect:.3f}/{e_rect / e_out:.3f}")
        if not e_in <= 0.99 * e_rect:
            failures.append(f"focus {focus / LAM} wl: inscribed {e_in:.3f} not"
                            f" 1% below rectangle {e_rect:.3f}")
        if not e_rect <= 0.99 * e_out:
            failures.append(f"focus {focus / LAM} wl: rectangle {e_rect:.3f} not"
                            f" 1% below circumscribed {e_out:.3f}")
    _report(8, "rectangle bounded by cylinders", failures,
            f"in/rect and rect/circ ratios {', '.join(ratios)}")


def test_09_frequency_invariant_taper():
    """Normalized power-limited ring tapers at 1 and 6 GHz coincide on the
    fixed 10 m x 1 m geometry."""
    def ring_profile(frequency):
        wl = Wavelength.from_frequency(frequency)
        layout = build_ring_array(BASELINE, wl, polarization="axial")
        h = assemble_channel(layout, np.zeros(3), Z_HAT, wl)
        w, _ = tr_weights(h, PowerConstraints(1.0e9, 1.0, 50.0))
        amps = np.abs(w.w).reshape(layout.z.size, -1)[:, 0]
        return layout.z, amps / amps.max()

    z1, p1 = ring_profile(1.0e9)
    z6, p6 = ring_profile(6.0e9)
    deviation = float(np.max(np.abs(np.interp(z6, z1, p1) - p6)))
    failures = []
    if deviation > 0.01:
        failures.append(f"max profile deviation {deviation:.4f} exceeds 0.01")
    _report(9, "frequency-invariant taper", failures,
            f"max deviation {deviation:.4f} over {z6.size} rings")


def test_10_transverse_asymptote_settled(tmp_path):
    """Adaptive quadrature pins the transverse-drive cross-component
    plateau to 41*pi^2/128, rejects the 41*pi^2/108 alternative, and the
    run manifest records that resolution."""
    oracle = transverse_pol_tr_quadrature(
        "x", 0.0, CylinderSpec(1.0, 1.0e4))
    dev = abs(oracle / analytic.TRANSVERSE_TR_X_LIMIT - 1.0)
    dev_alt = abs(oracle / analytic.TRANSVERSE_TR_X_LIMIT_ALTERNATE - 1.0)

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"geometry": "cylinder", "radius_m": 1.0,
                                    "length_m": 10.0, "frequency_hz": 1.0e9}))
    out = tmp_path / "out"
    code = cli.main(["layout", "--scenario", str(scenario), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = manifest.get("resolved_conventions", {})

    failures = []
    if dev > 0.005:
        failures.append(f"quadrature {oracle!r} deviates {dev:.3e} from"
                        " 41*pi^2/128, tolerance 0.5%")
    if dev_alt <= 0.005:
        failures.append("quadrature does not reject the 41*pi^2/108 alternative")
    if code != 0:
        failures.append(f"manifest-producing run exited {code}")
    if recorded.get("transverse_tr_x_asymptote") != "41*pi^2/128":
        failures.append("manifest does not record the settled asymptote")
    if abs(recorded.get("transverse_tr_x_asymptote_value", 0.0)
           - analytic.TRANSVERSE_TR_X_LIMIT) > 1e-12:
        failures.append("manifest asymptote value mismatch")
    if "transverse_tr_x_resolution" not in recorded:
        failures.append("manifest does not record how the constant was settled")
    _report(10, "transverse asymptote settled", failures,
            f"quadrature {oracle:.6f}, dev {dev:.1e} vs accepted,"
            f" {dev_alt:.1e} vs rejected; manifest records it")


def test_11_special_function_oracles():
    """Every special function matches an independent oracle on 10^3
    log-spaced arguments within its stated tolerance: integral
    representations by Gauss-Legendre quadrature, H_-1 through the
    recurrence H_-1 = 2/pi - H_1, and K through the arithmetic-geometric
    mean."""
    t0 = time.perf_counter()
    xs = np.logspace(-3.0, 3.0, 1000)
    col = xs[:, None]
    h0 = 2.0 / math.pi * _gauss_legendre(
        lambda t: np.sin(col * np.cos(t)), 0.0, 0.5 * math.pi)
    h1 = 2.0 * xs / math.pi * _gauss_legendre(
        lambda t: np.sin(col * np.cos(t)) * np.sin(t) ** 2, 0.0, 0.5 * math.pi)
    si = _gauss_legendre(lambda u: np.sin(col * u) / u, 0.0, 1.0)
    j1x = _gauss_legendre(lambda t: t * np.sin(col * t), 0.0, 1.0) / xs
    ms = 1.0 - np.logspace(-6.0, 0.0, 1000)[::-1]
    a, b = np.ones_like(ms), np.sqrt(1.0 - ms)
    for _ in range(40):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    agm_k = 0.5 * math.pi / a
    checks = (
        ("sinc", np.max(np.abs(analytic.sinc(xs) - np.sin(xs) / xs)), 1e-12),
        ("spherical j1/x", np.max(np.abs(analytic.spherical_j1_over_x(xs) - j1x)),
         1e-12),
        ("struve h0", np.max(np.abs(analytic.struve_h(0, xs) - h0)), 1e-9),
        ("struve h-1", np.max(np.abs(analytic.struve_h(-1, xs)
                                     - (2.0 / math.pi - h1))), 1e-9),
        ("sine integral", np.max(np.abs(analytic.sine_integral(xs) - si)), 1e-10),
        ("elliptic K", np.max(np.abs(analytic.complete_elliptic_k(ms) / agm_k
                                     - 1.0)), 1e-10),
    )
    elapsed = time.perf_counter() - t0
    failures = [f"{name} max error {err:.3e} exceeds {tol:.0e}"
                for name, err, tol in checks if err > tol]
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s not under 5s")
    worst = max(err / tol for _, err, tol in checks)
    _report(11, "special function oracles", failures,
            f"worst error at {worst:.1e} of tolerance; {elapsed:.2f}s")


def test_12_full_scale_rectangle_bounded_by_cylinders():
    """Under CP, the full-size corridor's focal amplitude sits between its
    inscribed and circumscribed cylinders.

    The 12 x 10.5 x 126 m corridor (40 x 35 x 420 wavelengths at 1 GHz,
    1,015,928 quarter-wavelength patches) and cylinders of radius 5.25 m and
    hypot(12, 10.5)/2 m meshed at the same patch size are built one at a
    time.  Each drives every port at the 0.02 A cap with the conjugate phase
    of its z channel at the origin.  The time-reversal amplitudes at 1 W are
    shown, not asserted: with area-scaled port resistance the long
    cylinder's does not depend on the radius, so bounding holds under CP
    only.
    """
    t0 = time.perf_counter()
    rect = RectCorridorSpec(width_La=12.0, height_Lb=10.5, length_L=126.0)
    patch = 0.25 * LAM
    builds = (
        ("inscribed", lambda: _cylinder_mesh(rect.inscribed_radius(), rect.length_L, patch)),
        ("rectangle", lambda: build_rect_corridor_mesh(rect, patch, WL)),
        ("circumscribed",
         lambda: _cylinder_mesh(rect.circumscribed_radius(), rect.length_L, patch)),
    )
    failures, cp, tr, sizes = [], [], [], []
    for name, build in builds:
        mesh = build()
        h = assemble_channel(mesh, np.zeros(3), Z_HAT, WL)
        w, rep = cp_weights(h, PC_CP)
        if rep.active_constraint != "local":
            failures.append(f"{name}: CP solve is {w.regime}/{rep.active_constraint},"
                            " not CP/local")
        cp.append(abs(rep.E_focus))
        tr.append(abs(tr_weights(h, PC_TR)[1].E_focus))
        sizes.append(len(mesh))
        del mesh, h, w
    e_in, e_rect, e_out = cp
    if sizes[1] != 1_015_928:
        failures.append(f"rectangle has {sizes[1]} patches, not 1,015,928")
    if not e_in < e_rect < e_out:
        failures.append(f"CP amplitudes {e_in:.1f} / {e_rect:.1f} / {e_out:.1f} V/m"
                        " not ordered inscribed < rectangle < circumscribed")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s not under 30s")
    _report(12, "full-scale rectangle bounded by cylinders", failures,
            f"CP {e_in:.1f}/{e_rect:.1f}/{e_out:.1f} V/m, TR"
            f" {tr[0]:.2f}/{tr[1]:.2f}/{tr[2]:.2f} V/m over"
            f" {'/'.join(f'{n:,}' for n in sizes)} patches; {elapsed:.2f}s")


def test_13_resolution_by_drive(baseline_array):
    """Under CP the co-polarized focal spot of the discrete baseline is as
    long as it is wide, up to the finite span's stretch; under TR its two
    widths differ.

    CP: the longitudinal 3-dB width equals the transverse one times
    sqrt(1 + 4a^2/L^2), within acceptance 05's 0.01 wl.  TR: the
    longitudinal width departs from the stretched transverse one by more
    than ten times that tolerance.
    """
    layout, h_z, _ = baseline_array
    a, length = BASELINE.radius_a, BASELINE.length_L
    stretch = math.sqrt(1.0 + 4.0 * a * a / (length * length))
    widths = {}
    for drive, (w, _) in (("CP", cp_weights(h_z, PC_CP)), ("TR", tr_weights(h_z, PC_TR))):
        widths[drive] = (_width_wl(*_cut(layout, w, Z_HAT, "z")),
                         _width_wl(*_cut(layout, w, X_HAT, "z")))
    failures = []
    cp_l, cp_t = widths["CP"]
    tr_l, tr_t = widths["TR"]
    if abs(cp_l - stretch * cp_t) > 0.01:
        failures.append(f"CP longitudinal {cp_l:.4f} wl not {stretch:.4f} x transverse"
                        f" {cp_t:.4f} wl +- 0.01")
    if abs(tr_l - stretch * tr_t) <= 0.1:
        failures.append(f"TR longitudinal {tr_l:.4f} wl within 0.1 of {stretch:.4f} x"
                        f" transverse {tr_t:.4f} wl")
    _report(13, "resolution by drive", failures,
            f"longitudinal/transverse CP {cp_l:.4f}/{cp_t:.4f} wl (ratio"
            f" {cp_l / cp_t:.4f}, stretch {stretch:.4f}), TR {tr_l:.4f}/{tr_t:.4f} wl"
            f" (ratio {tr_l / tr_t:.4f})")


def test_14_clipped_ports_invariant_across_frequency():
    """Under the hybrid drive, where the clipped ports sit on the 10 m x 1 m
    ring, in coordinates normalized by the aperture, does not change with
    frequency.

    At 1, 3 and 6 GHz, each polarization focuses at the origin on its
    co-polarized component (z for axial elements, x for azimuthal ones)
    with a 1 W budget and the cap at the geometric mean of the hybrid band:
    the uniform amplitude that spends the budget and the largest TR
    amplitude.  Each port's |z|/L is its ring plane's offset.  The clipped
    fraction and the largest clipped |z|/L of every frequency are compared
    with those at 1 GHz.  Ring planes are lambda/2 apart, a pitch of
    p = lambda/(2L) in |z|/L, 0.015 at 1 GHz and less above, so the
    largest clipped ring lies within one 1 GHz pitch of the clipped
    region's edge at every frequency.  On each side of the focal plane the
    clipped band can gain or lose one ring, and there are more than 1/p
    rings, so the fraction can move by 2p.  The difference between the
    polarizations is printed and not asserted.
    """
    pitch = 0.5 * LAM / BASELINE.length_L
    pc = PowerConstraints(1.0e9, 1.0, 50.0)
    failures, shown, by_polarization = [], [], []
    for polarization, e_hat in (("axial", Z_HAT), ("azimuthal", X_HAT)):
        seen = []
        by_polarization.append(seen)
        for frequency in (1.0e9, 3.0e9, 6.0e9):
            wl = Wavelength.from_frequency(frequency)
            ring = build_ring_array(BASELINE, wl, polarization)
            h = assemble_channel(ring, np.zeros(3), e_hat, wl)
            low = np.abs(cp_weights(h, pc)[0].w).max()
            high = np.abs(tr_weights(h, pc)[0].w).max()
            cap = math.sqrt(low * high)
            w, _ = hybrid_weights(h, PowerConstraints(cap, 1.0, 50.0))
            clipped = np.abs(w.w) >= cap * (1.0 - 1e-12)
            z_rel = np.repeat(np.abs(ring.z) / BASELINE.length_L, len(ring.strips[0]))
            fraction, edge = float(clipped.mean()), float(z_rel[clipped].max())
            seen.append((fraction, edge))
            if w.regime != "hybrid":
                failures.append(f"{polarization} {frequency / 1e9:g} GHz: regime {w.regime}")
        (f1, e1), rest = seen[0], seen[1:]
        for frequency, (fraction, edge) in zip((3.0, 6.0), rest):
            if abs(fraction - f1) > 2.0 * pitch:
                failures.append(f"{polarization} {frequency:g} GHz: clipped fraction"
                                f" {fraction:.4f} not {f1:.4f} +- {2.0 * pitch:.4f}")
            if abs(edge - e1) > pitch:
                failures.append(f"{polarization} {frequency:g} GHz: largest clipped |z|/L"
                                f" {edge:.4f} not {e1:.4f} +- {pitch:.4f}")
        shown.append(f"{polarization} fraction "
                     + "/".join(f"{f:.3f}" for f, _ in seen) + ", |z|/L "
                     + "/".join(f"{e:.3f}" for _, e in seen))
    difference = "/".join(f"{az[0] - ax[0]:+.3f} and {az[1] - ax[1]:+.3f}"
                          for ax, az in zip(*by_polarization))
    _report(14, "clipped ports invariant across frequency", failures,
            f"at 1/3/6 GHz: {'; '.join(shown)}; tolerance {2.0 * pitch:.3f}/{pitch:.3f};"
            f" azimuthal minus axial fraction and |z|/L {difference}")
