"""Tests for the closed-form focal curves.

Frozen reference values come from 40-digit mpmath root solves and direct
scipy integration of the amplitude densities, computed independently of
this package before the module was written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from nearfocus.analytic import (
    CP_EX_AXIS_LIMIT,
    CP_EZ_AXIS_LIMIT,
    CP_FIELD_RATIO_LIMIT,
    EX_LONG_PROFILE_PEAK,
    TR_EX_AXIS_LIMIT,
    TR_EZ_AXIS_LIMIT,
    TR_FIELD_RATIO_LIMIT,
    TRANSVERSE_CP_Y_LIMIT,
    TRANSVERSE_CP_Z_LIMIT,
    TRANSVERSE_TR_X_LIMIT,
    TRANSVERSE_TR_X_LIMIT_ALTERNATE,
    TRANSVERSE_TR_Y_LIMIT,
    TRANSVERSE_TR_Z_LIMIT,
    _rim_angles,
    ex_cp_axis,
    ex_cp_radial_x,
    ex_cp_radial_y,
    ex_tr_axis,
    ez_cp_axis,
    ez_cp_radial,
    ez_tr_axis,
    resolution_profiles,
    transverse_pol_cp,
    transverse_pol_tr,
)
from nearfocus.geometry import CylinderSpec, RectCorridorSpec

from oracles import (
    ez_cp_radial_quadrature,
    kernel_dipole,
    kernel_point,
    transverse_pol_cp_quadrature,
    transverse_pol_tr_quadrature,
)

BASE = CylinderSpec(radius_a=1.0, length_L=10.0)
LONG = CylinderSpec(radius_a=1.0, length_L=1000.0)

# Root solves of the kernel/profile definitions (x = k * offset).
X_POINT_3DB = 1.3915573782515102
X_DIPOLE0_3DB = 1.8148229770012292
X_DIPOLE0_NULL = 4.4934094579090642
X_DIPOLE90_3DB = 1.2631716996014599
X_DIPOLE90_NULL = 2.7437072699922694


def solve_crossing(f, target, lo, hi):
    return optimize.brentq(lambda x: f(x) - target, lo, hi, xtol=1e-14)


class TestKernels:
    def test_point_kernel_values(self):
        assert kernel_point(0.0) == 1.0
        assert kernel_point(math.pi) == pytest.approx(0.0, abs=1e-16)
        assert kernel_point(1.0) == pytest.approx(math.sin(1.0), rel=1e-15)
        with pytest.raises(ValueError):
            kernel_point(-0.1)

    def test_point_kernel_width_and_null(self):
        x = solve_crossing(kernel_point, 1.0 / math.sqrt(2.0), 1.0, 1.8)
        assert x == pytest.approx(X_POINT_3DB, rel=1e-12)
        # full 3-dB width and one-sided null distance, in wavelengths
        assert x / math.pi == pytest.approx(0.44294647068945234, rel=1e-12)
        x0 = solve_crossing(kernel_point, 0.0, 2.0, 4.0)
        assert x0 / (2.0 * math.pi) == pytest.approx(0.5, rel=1e-12)

    def test_dipole_kernel_origin_limit(self):
        for theta in (0.0, 0.3, math.pi / 2, 2.0, math.pi):
            assert kernel_dipole(0.0, theta) == pytest.approx(2.0 / 3.0, rel=1e-15)
            assert kernel_dipole(1e-12, theta) == pytest.approx(2.0 / 3.0, rel=1e-9)
        with pytest.raises(ValueError):
            kernel_dipole(-1.0, 0.0)

    def test_dipole_kernel_axial_cut(self):
        f = lambda x: kernel_dipole(x, 0.0)
        x = solve_crossing(f, (2.0 / 3.0) / math.sqrt(2.0), 1.2, 2.4)
        assert x == pytest.approx(X_DIPOLE0_3DB, rel=1e-12)
        assert x / math.pi == pytest.approx(0.57767609525298943, rel=1e-12)
        xn = solve_crossing(f, 0.0, 3.5, 5.0)
        assert xn == pytest.approx(X_DIPOLE0_NULL, rel=1e-12)
        assert xn / (2.0 * math.pi) == pytest.approx(0.71514832656210138, rel=1e-12)

    def test_dipole_kernel_broadside_cut(self):
        f = lambda x: kernel_dipole(x, math.pi / 2.0)
        x = solve_crossing(f, (2.0 / 3.0) / math.sqrt(2.0), 0.8, 1.8)
        assert x == pytest.approx(X_DIPOLE90_3DB, rel=1e-12)
        assert x / math.pi == pytest.approx(0.40208003993072611, rel=1e-12)
        xn = solve_crossing(f, 0.0, 2.0, 3.3)
        assert xn == pytest.approx(X_DIPOLE90_NULL, rel=1e-12)
        assert xn / (2.0 * math.pi) == pytest.approx(0.43667457441643914, rel=1e-12)

    @given(
        k_r=st.floats(min_value=0.0, max_value=50.0),
        theta=st.floats(min_value=0.0, max_value=math.pi / 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dipole_kernel_polar_symmetry(self, k_r, theta):
        assert kernel_dipole(k_r, theta) == pytest.approx(
            kernel_dipole(k_r, math.pi - theta), rel=1e-12, abs=1e-12
        )

    def test_dipole_kernel_subnormal_argument(self):
        for theta in (0.0, 0.7, math.pi / 2.0):
            assert kernel_dipole(5e-324, theta) == pytest.approx(2.0 / 3.0, rel=1e-15)


class TestGeometryAngles:
    def test_for_focus_matches_tangent_definition(self):
        phi_plus, phi_minus = _rim_angles(1.3, BASE)
        assert math.tan(phi_plus) == pytest.approx(1.0 / 6.3, rel=1e-14)
        assert math.tan(phi_minus) == pytest.approx(1.0 / 3.7, rel=1e-14)

    def test_span_validation(self):
        with pytest.raises(ValueError):
            ez_cp_axis(5.0, BASE)
        with pytest.raises(ValueError):
            ez_cp_axis(-5.1, BASE)


class TestAxisCurves:
    def test_frozen_values_at_offset(self):
        assert ez_cp_axis(1.3, BASE) == pytest.approx(3.0677635321151737, rel=1e-13)
        assert ex_cp_axis(1.3, BASE) == pytest.approx(1.5823234306565169, rel=1e-13)
        assert ez_tr_axis(1.3, BASE) == pytest.approx(1.850131359644466, rel=1e-13)
        assert ex_tr_axis(1.3, BASE) == pytest.approx(0.302870291972522, rel=1e-13)

    def test_short_cylinder_closed_value(self):
        spec = CylinderSpec(radius_a=1.0, length_L=2.0)
        assert ez_cp_axis(0.0, spec) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-14)

    def test_long_cylinder_limits(self):
        assert ez_cp_axis(0.0, LONG) == pytest.approx(3.1415863704233356, rel=1e-12)
        assert ex_cp_axis(0.0, LONG) == pytest.approx(1.996000007999976, rel=1e-12)
        assert ez_tr_axis(0.0, LONG) == pytest.approx(1.8505508252042346, rel=1e-12)
        assert ex_tr_axis(0.0, LONG) == pytest.approx(0.30842513334528241, rel=1e-12)
        # channel-proportional curves converge fast: ratio hits 6 to 1e-7 already
        assert ez_tr_axis(0.0, LONG) / ex_tr_axis(0.0, LONG) == pytest.approx(6.0, rel=1e-7)

    @staticmethod
    def cp_axis_surface_integral(component, zf, spec):
        """Direct surface integral of the uniform-drive amplitude density at
        the on-axis focus (0, 0, zf): an axial radiating dipole's field is
        sin(theta) * theta_hat / R, so |E_z| = sin^2(theta) / R and
        |E_x| = sin(theta) |cos(theta) cos(phi)| / R, with the 1/4 scale of
        ``ez_cp_radial_quadrature``.  The axial integral is split at the
        focus, where the density peaks."""
        a, half = spec.radius_a, spec.length_L / 2.0

        def integrand(l, phi):
            r = math.hypot(a, zf - l)
            sin_t, cos_t = a / r, (zf - l) / r
            if component == "z":
                return sin_t * sin_t / r
            return sin_t * abs(cos_t * math.cos(phi)) / r

        total = 0.0
        for lo, hi in ((-half, zf), (zf, half)):
            value, _ = integrate.dblquad(integrand, 0.0, 2.0 * math.pi, lo, hi,
                                         epsabs=1e-11, epsrel=1e-11)
            total += value
        return 0.25 * total

    @pytest.mark.parametrize("spec, zf", [
        (BASE, 0.0), (BASE, 1.3), (CylinderSpec(3.33, 33.0), -10.0), (LONG, 0.0),
    ])
    def test_cp_axis_curves_match_direct_integration(self, spec, zf):
        assert ez_cp_axis(zf, spec) == pytest.approx(
            self.cp_axis_surface_integral("z", zf, spec), rel=1e-9
        )
        assert ex_cp_axis(zf, spec) == pytest.approx(
            self.cp_axis_surface_integral("x", zf, spec), rel=1e-9
        )

    def test_cp_long_cylinder_approach_is_first_order(self):
        # The continuum integral itself, not only the closed form, sits
        # 4a/L below the cross-polarized limit 2 (to O(a^3/L^3)), while the
        # co-polarized peak is only O(a^2/L^2) below pi.
        ex = self.cp_axis_surface_integral("x", 0.0, LONG)
        ez = self.cp_axis_surface_integral("z", 0.0, LONG)
        assert ex == pytest.approx(2.0 * (1.0 - 2.0 / 1000.0), rel=1e-7)
        assert 2.0 - ex == pytest.approx(4.0 / 1000.0, rel=1e-4)
        assert ez / ex == pytest.approx(math.pi / 2.0 * (1.0 + 2.0 / 1000.0), rel=1e-5)

    def test_named_limits(self):
        assert CP_EZ_AXIS_LIMIT == math.pi
        assert CP_EX_AXIS_LIMIT == 2.0
        assert TR_EZ_AXIS_LIMIT == pytest.approx(3.0 * math.pi**2 / 16.0, rel=1e-15)
        assert TR_EX_AXIS_LIMIT == pytest.approx(math.pi**2 / 32.0, rel=1e-15)
        assert CP_EZ_AXIS_LIMIT / CP_EX_AXIS_LIMIT == pytest.approx(
            CP_FIELD_RATIO_LIMIT, rel=1e-15
        )
        assert TR_EZ_AXIS_LIMIT / TR_EX_AXIS_LIMIT == pytest.approx(
            TR_FIELD_RATIO_LIMIT, rel=1e-15
        )

    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        aspect=st.floats(min_value=0.5, max_value=100.0),
        frac=st.floats(min_value=-0.99, max_value=0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_evenness_and_bounds(self, a, aspect, frac):
        spec = CylinderSpec(radius_a=a, length_L=aspect * a)
        zf = frac * spec.length_L / 2.0
        for f in (ez_cp_axis, ex_cp_axis, ez_tr_axis, ex_tr_axis):
            assert f(zf, spec) == pytest.approx(f(-zf, spec), rel=1e-12)
        assert 0.0 < ez_cp_axis(zf, spec) <= math.pi
        assert 0.0 < ex_cp_axis(zf, spec) < 2.0
        assert 0.0 < ez_tr_axis(zf, spec) < TR_EZ_AXIS_LIMIT * 1.000001
        assert 0.0 < ex_tr_axis(zf, spec) < TR_EX_AXIS_LIMIT * 1.000001

    def test_out_of_span_errors(self):
        for f in (ez_cp_axis, ex_cp_axis, ez_tr_axis, ex_tr_axis):
            with pytest.raises(ValueError):
                f(5.0, BASE)

    def test_rectangle_refused(self):
        # the closed forms are the cylinder's
        rect = RectCorridorSpec(width_La=4.0, height_Lb=3.0, length_L=10.0)
        for f in (ez_cp_axis, ex_cp_axis, ez_tr_axis, ex_tr_axis):
            with pytest.raises(TypeError, match="CylinderSpec"):
                f(0.0, rect)


class TestRadialCuts:
    SPEC = CylinderSpec(radius_a=3.33, length_L=33.0)

    def test_center_matches_axis_curve(self):
        assert ez_cp_radial(0.0, self.SPEC) == pytest.approx(
            ez_cp_axis(0.0, self.SPEC), rel=1e-13
        )
        assert ez_cp_radial(0.0, self.SPEC) == pytest.approx(3.0795035930701161, rel=1e-13)

    def test_frozen_half_radius_value(self):
        assert ez_cp_radial(1.665, self.SPEC) == pytest.approx(3.065411952732765, rel=1e-12)

    def test_matches_direct_integration(self):
        for xf in (0.3 * 3.33, 0.75 * 3.33):
            closed = ez_cp_radial(xf, self.SPEC)
            quad = ez_cp_radial_quadrature(xf, self.SPEC)
            assert closed == pytest.approx(quad, rel=1e-8)

    def test_evenness_and_mild_decay(self):
        assert ez_cp_radial(0.7 * 3.33, self.SPEC) == pytest.approx(
            ez_cp_radial(-0.7 * 3.33, self.SPEC), rel=1e-13
        )
        # at this aspect ratio the continuum cut decays mildly toward the wall
        assert ez_cp_radial(0.9 * 3.33, self.SPEC) < ez_cp_radial(0.25 * 3.33, self.SPEC)
        assert ez_cp_radial(0.25 * 3.33, self.SPEC) < ez_cp_radial(0.0, self.SPEC)

    def test_radius_validation(self):
        for bad in (3.33, -3.33, 4.0):
            with pytest.raises(ValueError):
                ez_cp_radial(bad, self.SPEC)
            with pytest.raises(ValueError):
                ex_cp_radial_x(bad, self.SPEC)
            with pytest.raises(ValueError):
                ex_cp_radial_y(bad, self.SPEC)

    def test_element_aligned_cut_flat_level(self):
        assert ex_cp_radial_x(0.0, BASE) == 2.0
        assert ex_cp_radial_x(0.9, BASE) == 2.0

    def test_element_aligned_flatness_is_exact_in_long_limit(self):
        # (1/2) * integral of |xf - a cos(phi)| / transverse distance over phi
        # is exactly 2 for every |xf| < a: the level is not an approximation.
        a = 1.0
        for xf in (0.0, 0.5, 0.9):
            f = lambda p: abs(xf - a * math.cos(p)) / math.sqrt(
                a * a + xf * xf - 2.0 * a * xf * math.cos(p)
            )
            val, _ = integrate.quad(f, 0.0, 2.0 * math.pi, epsabs=1e-12, limit=200)
            assert 0.5 * val == pytest.approx(2.0, rel=1e-9)

    def test_orthogonal_cut_frozen_value(self):
        spec = CylinderSpec(radius_a=1.0, length_L=100.0)
        assert ex_cp_radial_y(0.5, spec) == pytest.approx(1.9600099954525609, rel=1e-13)

    def test_orthogonal_cut_equals_difference_quotient_form(self):
        spec = CylinderSpec(radius_a=1.0, length_L=100.0)
        a, length = 1.0, 100.0
        for yf in (0.2, 0.5, 0.9):
            raw = (
                2.0 * a + 2.0 * yf - 2.0 * abs(a - yf)
                + math.sqrt(length**2 + 4.0 * (yf - a) ** 2)
                - math.sqrt(length**2 + 4.0 * (yf + a) ** 2)
            ) / (2.0 * yf)
            assert ex_cp_radial_y(yf, spec) == pytest.approx(raw, rel=1e-12)

    def test_orthogonal_cut_center_limit_and_evenness(self):
        spec = CylinderSpec(radius_a=1.0, length_L=100.0)
        limit = 2.0 - 4.0 / math.sqrt(100.0**2 + 4.0)
        assert ex_cp_radial_y(0.0, spec) == pytest.approx(limit, rel=1e-14)
        assert ex_cp_radial_y(1e-13, spec) == pytest.approx(limit, rel=1e-10)
        assert ex_cp_radial_y(0.6, spec) == ex_cp_radial_y(-0.6, spec)
        assert math.isfinite(ex_cp_radial_y(0.999999, spec))

    def test_orthogonal_cut_matches_direct_integration(self):
        a, length, yf = 1.0, 100.0, 0.5
        spec = CylinderSpec(radius_a=a, length_L=length)

        def integrand(l, phi):
            rho2 = a * a + yf * yf - 2.0 * a * yf * math.sin(phi)
            return a * abs(math.cos(phi)) * abs(l) / (rho2 + l * l) ** 1.5

        val, _ = integrate.dblquad(
            integrand, 0.0, 2.0 * math.pi,
            lambda _: -length / 2.0, lambda _: length / 2.0,
            epsabs=1e-10, epsrel=1e-10,
        )
        assert ex_cp_radial_y(yf, spec) == pytest.approx(0.25 * val, rel=1e-7)


class TestResolutionProfiles:
    def test_origin_limits(self):
        assert resolution_profiles("ez_trans", 0.0, BASE) == pytest.approx(math.pi, rel=1e-15)
        assert resolution_profiles("ez_long", 0.0, BASE) == pytest.approx(
            3.0805850470027103, rel=1e-13
        )
        assert resolution_profiles("ex_long", 0.0, BASE) == pytest.approx(
            EX_LONG_PROFILE_PEAK, rel=1e-12
        )
        assert resolution_profiles("ex_trans_x", 0.0, BASE) == 2.0
        assert resolution_profiles("ex_trans_y", 0.0, BASE) == 2.0
        # tiny arguments approach the same limits smoothly
        assert resolution_profiles("ex_trans_x", 1e-9, BASE) == pytest.approx(2.0, rel=1e-9)
        assert resolution_profiles("ex_trans_y", 1e-9, BASE) == pytest.approx(2.0, rel=1e-9)

    def test_frozen_half_widths(self):
        cases = {
            "ez_trans": (math.pi / math.sqrt(2.0), 0.22147323534472617, (0.15, 0.3)),
            "ez_long": (3.0805850470027103 / math.sqrt(2.0), 0.22585926975225721, (0.15, 0.3)),
            "ex_long": (EX_LONG_PROFILE_PEAK / math.sqrt(2.0), 0.15393544850854261, (0.1, 0.25)),
            "ex_trans_x": (math.sqrt(2.0), 0.27417968567794769, (0.2, 0.35)),
            "ex_trans_y": (math.sqrt(2.0), 0.40150983894695789, (0.3, 0.5)),
        }
        for kind, (target, expected, window) in cases.items():
            root = solve_crossing(
                lambda d: resolution_profiles(kind, d, BASE), target, *window
            )
            assert root == pytest.approx(expected, rel=1e-10), kind

    def test_short_cylinder_stretch_factor(self):
        spec = CylinderSpec(radius_a=1.0, length_L=2.0)
        target_trans = math.pi / math.sqrt(2.0)
        w_trans = solve_crossing(
            lambda d: resolution_profiles("ez_trans", d, spec), target_trans, 0.15, 0.3
        )
        peak_long = resolution_profiles("ez_long", 0.0, spec)
        w_long = solve_crossing(
            lambda d: resolution_profiles("ez_long", d, spec),
            peak_long / math.sqrt(2.0), 0.2, 0.45,
        )
        assert w_long / w_trans == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            resolution_profiles("ez_diag", 0.1, BASE)
        with pytest.raises(ValueError):
            resolution_profiles("ez_trans", -0.1, BASE)
        for kind in ("ez_long", "ez_trans", "ex_long", "ex_trans_x", "ex_trans_y"):
            with pytest.raises(ValueError):
                resolution_profiles(kind, np.array([0.0, 0.3, -1e-9, 0.5]), BASE)

    def test_array_matches_scalar_calls(self):
        stretch = math.sqrt(1.0 + 4.0 / 100.0)
        origin = {"ez_long": math.pi / stretch, "ez_trans": math.pi,
                  "ex_long": EX_LONG_PROFILE_PEAK, "ex_trans_x": 2.0, "ex_trans_y": 2.0}
        deltas = np.array([0.4, 0.0, 1e-9, 0.25, 2.7, 0.0])
        for kind, peak in origin.items():
            values = resolution_profiles(kind, deltas, BASE)
            assert values.shape == deltas.shape
            for d, value in zip(deltas, values):
                assert value == resolution_profiles(kind, float(d), BASE), kind
            assert values[1] == values[5] == pytest.approx(peak, rel=1e-15), kind

    def test_bounded_by_peak(self):
        for kind in ("ez_long", "ez_trans", "ex_long", "ex_trans_x", "ex_trans_y"):
            peak = resolution_profiles(kind, 0.0, BASE)
            for d in np.linspace(0.01, 3.0, 60):
                assert abs(resolution_profiles(kind, d, BASE)) <= peak * (1.0 + 1e-12)


class TestTransversePolarization:
    FROZEN_CP = {
        ("x", 0.0): 5.7244467813204916,
        ("x", 1.7): 5.5559341726949023,
        ("x", 3.9): 4.6587357196520943,
        ("y", 0.0): 0.98058067569092016,
        ("y", 1.7): 0.97303438576325081,
        ("y", 3.9): 0.86684344275647037,
        ("z", 0.0): 1.6077677297236319,
        ("z", 1.7): 1.5623740424644385,
        ("z", 3.9): 1.2156702608220025,
    }
    FROZEN_TR = {
        ("x", 0.0): 2.5491439059242046,
        ("x", 1.7): 2.4809923038652146,
        ("x", 3.9): 1.9960646321491717,
        ("y", 0.0): 0.23129574756033538,
        ("y", 1.7): 0.23123297565293555,
        ("y", 3.9): 0.22469649423969967,
        ("z", 0.0): 0.30452155807158401,
        ("z", 1.7): 0.30136661398931143,
        ("z", 3.9): 0.2402705458996275,
    }

    def test_frozen_values(self):
        for (comp, zf), expected in self.FROZEN_CP.items():
            assert transverse_pol_cp(comp, zf, BASE) == pytest.approx(expected, rel=1e-12)
        for (comp, zf), expected in self.FROZEN_TR.items():
            assert transverse_pol_tr(comp, zf, BASE) == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_match_direct_integration(self):
        for comp in ("x", "y", "z"):
            for zf in (0.0, 1.7, 3.9):
                assert transverse_pol_cp(comp, zf, BASE) == pytest.approx(
                    transverse_pol_cp_quadrature(comp, zf, BASE), rel=1e-9
                )
                assert transverse_pol_tr(comp, zf, BASE) == pytest.approx(
                    transverse_pol_tr_quadrature(comp, zf, BASE), rel=1e-9
                )

    def test_limits(self):
        assert transverse_pol_cp("y", 0.0, LONG) == pytest.approx(
            0.99999800000599998, rel=1e-12
        )
        assert transverse_pol_cp("z", 0.0, LONG) == pytest.approx(
            1.996000007999976, rel=1e-12
        )
        assert abs(transverse_pol_cp("y", 0.0, LONG) - TRANSVERSE_CP_Y_LIMIT) < 1e-5
        assert abs(transverse_pol_cp("z", 0.0, LONG) - TRANSVERSE_CP_Z_LIMIT) < 5e-3
        very_long = CylinderSpec(radius_a=1.0, length_L=10000.0)
        tr_x = transverse_pol_tr("x", 0.0, very_long)
        assert tr_x == pytest.approx(3.1607293412099724, rel=1e-12)
        assert abs(tr_x - TRANSVERSE_TR_X_LIMIT) / TRANSVERSE_TR_X_LIMIT < 2.5e-4
        # the alternate candidate constant is far outside any convergence tail
        assert abs(tr_x - TRANSVERSE_TR_X_LIMIT_ALTERNATE) / TRANSVERSE_TR_X_LIMIT_ALTERNATE > 0.1
        assert transverse_pol_tr("y", 0.0, very_long) == pytest.approx(
            TRANSVERSE_TR_Y_LIMIT, rel=1e-3
        )
        assert transverse_pol_tr("z", 0.0, very_long) == pytest.approx(
            TRANSVERSE_TR_Z_LIMIT, rel=1e-3
        )
        assert TRANSVERSE_TR_Z_LIMIT == TR_EX_AXIS_LIMIT

    def test_copol_grows_logarithmically(self):
        hundred = CylinderSpec(radius_a=1.0, length_L=100.0)
        thousand = CylinderSpec(radius_a=1.0, length_L=1000.0)
        v100 = transverse_pol_cp("x", 0.0, hundred)
        v1000 = transverse_pol_cp("x", 0.0, thousand)
        assert v100 == pytest.approx(12.897400675236956, rel=1e-12)
        assert v1000 == pytest.approx(20.130563193622668, rel=1e-12)
        # decade growth approaches pi * ln(10)
        assert v1000 - v100 == pytest.approx(math.pi * math.log(10.0), rel=1e-4)

    def test_crosspol_kernel_shared_with_axial_curve(self):
        for spec in (BASE, LONG, CylinderSpec(radius_a=1.0, length_L=2.0),
                     CylinderSpec(radius_a=3.33, length_L=33.0)):
            for frac in (0.0, 0.22, -0.52, 0.9):
                zf = frac * spec.length_L / 2.0
                assert transverse_pol_tr("z", zf, spec) == ex_tr_axis(zf, spec)
                assert transverse_pol_cp("z", zf, spec) == ex_cp_axis(zf, spec)
                # the shear row is the axial co-polarized row with K times 8
                assert 8.0 * transverse_pol_tr("y", zf, spec) == ez_tr_axis(zf, spec)
                assert transverse_pol_cp("y", zf, spec) == pytest.approx(
                    ez_cp_axis(zf, spec) / math.pi, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            transverse_pol_cp("w", 0.0, BASE)
        with pytest.raises(ValueError):
            transverse_pol_tr("q", 0.0, BASE)
        with pytest.raises(ValueError):
            transverse_pol_cp("x", 5.0, BASE)
        with pytest.raises(ValueError):
            transverse_pol_tr("x", -5.0, BASE)
        with pytest.raises(ValueError):
            transverse_pol_cp_quadrature("w", 0.0, BASE)

    @given(frac=st.floats(min_value=-0.95, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_evenness(self, frac):
        zf = frac * BASE.length_L / 2.0
        for comp in ("x", "y", "z"):
            assert transverse_pol_cp(comp, zf, BASE) == pytest.approx(
                transverse_pol_cp(comp, -zf, BASE), rel=1e-12
            )
            assert transverse_pol_tr(comp, zf, BASE) == pytest.approx(
                transverse_pol_tr(comp, -zf, BASE), rel=1e-12
            )

