"""Cut metrics, planar 3-dB contours, and polarization ratios.

Oracle values are frozen from high-precision root finding on the scalar
spot kernels (see test_analytic for the kernel roots themselves) and from
direct evaluation of the metric extractor on fixed sampling grids.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus.metrics import (
    CutMetrics,
    contour_3db,
    cut_metrics,
    _parabolic_peak,
    main_lobe,
    metrics_flat_dict,
)

from oracles import kernel_dipole, kernel_point, polarization_ratio

LAM = 0.3
K = 2.0 * math.pi / LAM

kp = np.vectorize(kernel_point)
kd = np.vectorize(kernel_dipole)

# half-width roots of the spot kernels, in phase units k*delta
X_POINT_3DB = 1.3915573782515102
X_DIPOLE0_3DB = 1.8148229770012292
X_DIPOLE0_NULL = 4.4934094579090642
X_DIPOLE90_3DB = 1.2631716996014599
X_DIPOLE90_NULL = 2.7437072699922694
SLR_POINT = 0.21723362821122166
SLR_DIPOLE0 = 0.086170894161907398
SLR_DIPOLE90 = 0.33547881000272691


def grid(span_wl, step_wl):
    n = int(round(2.0 * span_wl / step_wl))
    return np.linspace(-span_wl * LAM, span_wl * LAM, n + 1)


def sinc_cut(step_wl=1 / 128, span_wl=1.1, shift_m=0.0):
    x = grid(span_wl, step_wl) + shift_m
    return x, kp(K * np.abs(x))


class TestCutMetrics:
    def test_point_kernel_cut(self):
        m = cut_metrics(*sinc_cut(), LAM)
        assert m.peak_value == pytest.approx(1.0, abs=1e-12)
        assert m.peak_offset == pytest.approx(0.0, abs=1e-12)
        width_wl = m.width_3db / LAM
        assert width_wl == pytest.approx(X_POINT_3DB / math.pi, abs=5e-4)
        assert width_wl == pytest.approx(0.44, abs=0.005)
        null_wl = m.first_null / LAM
        assert null_wl == pytest.approx(0.5, abs=0.005)
        assert m.max_sidelobe_ratio == pytest.approx(SLR_POINT, abs=1e-3)

    def test_dipole_axis_cut(self):
        x = grid(1.1, 1 / 128)
        m = cut_metrics(x, kd(K * np.abs(x), 0.0), LAM)
        assert m.peak_value == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert m.width_3db / LAM == pytest.approx(X_DIPOLE0_3DB / math.pi, abs=5e-4)
        assert m.width_3db / LAM == pytest.approx(0.578, abs=0.005)
        assert m.first_null / LAM == pytest.approx(X_DIPOLE0_NULL / (2 * math.pi), abs=0.005)
        assert m.first_null / LAM == pytest.approx(0.715, abs=0.005)
        assert m.max_sidelobe_ratio == pytest.approx(SLR_DIPOLE0, abs=1e-3)

    def test_dipole_equator_cut(self):
        x = grid(1.1, 1 / 128)
        m = cut_metrics(x, kd(K * np.abs(x), math.pi / 2), LAM)
        assert m.peak_value == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert m.width_3db / LAM == pytest.approx(X_DIPOLE90_3DB / math.pi, abs=5e-4)
        assert m.first_null / LAM == pytest.approx(X_DIPOLE90_NULL / (2 * math.pi), abs=0.005)
        assert m.max_sidelobe_ratio == pytest.approx(SLR_DIPOLE90, abs=1e-3)

    def test_refinement_stability(self):
        x1 = grid(1.1, 1 / 128)
        x2 = grid(1.1, 1 / 256)
        m1 = cut_metrics(x1, kd(K * np.abs(x1), math.pi / 2), LAM)
        m2 = cut_metrics(x2, kd(K * np.abs(x2), math.pi / 2), LAM)
        assert abs(m2.width_3db - m1.width_3db) / m1.width_3db < 0.005
        assert abs(m2.first_null - m1.first_null) / m1.first_null < 0.005
        assert abs(m2.max_sidelobe_ratio - m1.max_sidelobe_ratio) < 0.005

    def test_parabolic_peak_on_shifted_grid(self):
        # true peak sits between samples; interpolation must recover it
        m = cut_metrics(*sinc_cut(shift_m=LAM / 384), LAM)
        assert m.peak_value == pytest.approx(1.0, abs=1e-6)
        assert abs(m.peak_offset) < 1e-5 * LAM

    @pytest.mark.parametrize("v", [[1.0, 0.5, 1.0], [0.0, 2.0, 3.0]],
                             ids=["convex", "vertex-beyond-neighbours"])
    def test_parabolic_peak_falls_back_to_the_sample(self, v):
        # a triple that is not strictly concave, or a parabola whose vertex
        # lies farther than a sample spacing away, gives the sample itself
        assert _parabolic_peak(np.array([-1.0, 0.0, 1.0]), np.array(v), 1) == (v[1], 0.0)

    def test_flat_profile_reports_absent(self):
        x = grid(0.5, 1 / 64)
        m = cut_metrics(x, np.full_like(x, 2.5), LAM)
        assert m.peak_value == 2.5
        assert m.width_3db is None
        assert m.first_null is None
        assert m.max_sidelobe_ratio is None

    def test_narrow_cut_reports_absent(self):
        # samples never drop below the 3-dB level: absent, not an error
        m = cut_metrics(*sinc_cut(step_wl=1 / 256, span_wl=0.1), LAM)
        assert m.peak_value == pytest.approx(1.0, abs=1e-6)
        assert m.width_3db is None
        assert m.first_null is None
        assert m.max_sidelobe_ratio is None

    def test_magnitudes_taken(self):
        x, v = sinc_cut()
        signed = cut_metrics(x, v, LAM)
        phased = cut_metrics(x, v * np.exp(0.7j), LAM)
        assert phased.peak_value == pytest.approx(signed.peak_value, rel=1e-12)
        assert phased.width_3db == pytest.approx(signed.width_3db, rel=1e-12)

    def test_reflection_invariance(self):
        x = grid(1.1, 1 / 128)
        v = kp(K * np.abs(x - 0.1 * LAM))
        m = cut_metrics(x, v, LAM)
        r = cut_metrics(-x[::-1], v[::-1], LAM)
        assert r.peak_offset == pytest.approx(-m.peak_offset, abs=1e-12)
        assert r.width_3db == pytest.approx(m.width_3db, rel=1e-12)
        assert r.first_null == pytest.approx(m.first_null, rel=1e-12)
        assert r.max_sidelobe_ratio == pytest.approx(m.max_sidelobe_ratio, rel=1e-12)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_scaling_invariance(self, scale):
        x, v = sinc_cut()
        base = cut_metrics(x, v, LAM)
        scaled = cut_metrics(x, scale * v, LAM)
        assert scaled.peak_value == pytest.approx(scale * base.peak_value, rel=1e-9)
        assert scaled.peak_offset == pytest.approx(base.peak_offset, abs=1e-12)
        assert scaled.width_3db == pytest.approx(base.width_3db, rel=1e-9)
        assert scaled.first_null == pytest.approx(base.first_null, rel=1e-9)
        assert scaled.max_sidelobe_ratio == pytest.approx(base.max_sidelobe_ratio, rel=1e-9)

    def test_too_few_samples(self):
        x, v = sinc_cut()
        with pytest.raises(ValueError, match="at least 32"):
            cut_metrics(x[:20], v[:20], LAM)

    def test_spacing_too_coarse(self):
        x = grid(1.1, 1 / 32)
        with pytest.raises(ValueError, match="spacing"):
            cut_metrics(x, kp(K * np.abs(x)), LAM)

    def test_boundary_peak_rejected(self):
        x = grid(0.3, 1 / 128)
        with pytest.raises(ValueError, match="boundary"):
            cut_metrics(x, x + 1.0, LAM)

    def test_non_increasing_offsets_rejected(self):
        x, v = sinc_cut()
        with pytest.raises(ValueError, match="increasing"):
            cut_metrics(x[::-1], v, LAM)

    def test_bad_inputs_rejected(self):
        x, v = sinc_cut()
        with pytest.raises(TypeError):
            cut_metrics("cut.csv", LAM)
        with pytest.raises(ValueError, match="wavelength"):
            cut_metrics(x, v, 0.0)
        bad = v.copy()
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cut_metrics(x, bad, LAM)

    def test_unequal_lengths_rejected(self):
        x, v = sinc_cut()
        with pytest.raises(ValueError, match="equal length"):
            cut_metrics(x, v[:-1], LAM)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="width_3db"):
            CutMetrics(1.0, 0.0, -0.1, None, None)
        with pytest.raises(ValueError, match="sidelobe"):
            CutMetrics(1.0, 0.0, 0.1, None, 1.0)
        with pytest.raises(ValueError, match="peak_value"):
            CutMetrics(-1.0, 0.0, None, None, None)

    @pytest.mark.parametrize("values, window", [
        ([0.0, 0.5, 0.2, 1.0, 0.3, 0.6, 0.1], (2, 4)),
        # a sample equal to both neighbours is no minimum, so a flat top
        # does not cut the lobe at the peak's neighbour
        ([0.1, 0.5, 1.0, 1.0, 1.0, 0.5, 0.2, 0.6, 0.1], (0, 6)),
        ([0.0, 0.2, 0.4, 1.0, 0.8], (0, 4)),
    ])
    def test_main_lobe(self, values, window):
        assert main_lobe(np.array(values)) == window

    def test_flat_dict(self):
        m = cut_metrics(*sinc_cut(), LAM)
        d = metrics_flat_dict(m, LAM)
        assert set(d) == {
            "peak", "peak_offset_m", "width_3db_m", "width_3db_lambda",
            "first_null_m", "first_null_lambda", "sidelobe_ratio",
        }
        assert d["peak"] == m.peak_value
        assert d["width_3db_lambda"] == pytest.approx(m.width_3db / LAM, rel=1e-15)
        assert d["first_null_lambda"] == pytest.approx(m.first_null / LAM, rel=1e-15)
        assert d["sidelobe_ratio"] == m.max_sidelobe_ratio
        assert json.loads(json.dumps(d)) == d

    def test_flat_dict_absent_values(self):
        m = cut_metrics(*sinc_cut(step_wl=1 / 256, span_wl=0.1), LAM)
        d = metrics_flat_dict(m, LAM)
        assert d["width_3db_m"] is None
        assert d["width_3db_lambda"] is None
        assert d["first_null_lambda"] is None
        assert d["sidelobe_ratio"] is None
        assert "null" in json.dumps(d)
        with pytest.raises(ValueError, match="wavelength"):
            metrics_flat_dict(m, 0.0)


def planar_map(values):
    """|values(y, z)| on a square grid of wavelength/64 steps, and its axes."""
    g = grid(0.45, 1 / 64)
    Y, Z = np.meshgrid(g, g, indexing="ij")
    return np.abs(values(Y, Z)), g, g


class TestContour3db:
    def test_isotropic_spot_is_a_circle(self):
        poly = contour_3db(*planar_map(lambda y, z: kp(K * np.hypot(y, z))))
        assert poly.shape[1] == 2
        assert len(poly) > 8
        assert np.array_equal(poly[0], poly[-1])
        radii = np.hypot(poly[:, 0], poly[:, 1]) / LAM
        target = X_POINT_3DB / (2.0 * math.pi)
        assert radii.min() == pytest.approx(target, rel=0.02)
        assert radii.max() == pytest.approx(target, rel=0.02)
        assert radii.max() - radii.min() < 0.005 * target

    def test_anisotropic_spot_extents(self):
        # dipole oriented along z: the spot is wider along the dipole axis
        def spot(y, z):
            return kd(K * np.hypot(y, z), np.arctan2(np.abs(y), z))

        poly = contour_3db(*planar_map(spot))
        y_extent = poly[:, 0].max() - poly[:, 0].min()
        z_extent = poly[:, 1].max() - poly[:, 1].min()
        assert z_extent > y_extent
        assert y_extent / LAM == pytest.approx(X_DIPOLE90_3DB / math.pi, rel=0.01)
        assert z_extent / LAM == pytest.approx(X_DIPOLE0_3DB / math.pi, rel=0.01)

    def test_spot_inside_a_ring_lobe_gives_its_own_loop(self):
        # the ring lobe stays above the 3-dB level, so its outer edge also
        # encloses the peak; the spot's own loop is the one that bounds it
        sigma = 0.05 * LAM

        def spot_and_ring(y, z):
            r = np.hypot(y, z)
            return np.exp(-(r / sigma) ** 2) + 0.9 * np.exp(-((r - 0.2 * LAM) / (0.05 * LAM)) ** 2)

        poly = contour_3db(*planar_map(spot_and_ring))
        radii = np.hypot(poly[:, 0], poly[:, 1])
        target = sigma * math.sqrt(0.5 * math.log(2.0))
        assert radii.min() == pytest.approx(target, rel=0.03)
        assert radii.max() == pytest.approx(target, rel=0.03)

    def test_hole_beside_the_peak_is_skipped(self):
        # a dip below the 3-dB level on the peak's row, 0.1 wavelength
        # towards +z: its loop is met first and does not contain the peak
        def spot_with_hole(y, z):
            dip = np.exp(-(y ** 2 + (z - 0.1 * LAM) ** 2) / (0.03 * LAM) ** 2)
            return np.exp(-(y ** 2 + z ** 2) / (0.4 * LAM) ** 2) * (1.0 - 0.5 * dip)

        poly = contour_3db(*planar_map(spot_with_hole))
        radii = np.hypot(poly[:, 0], poly[:, 1])
        target = 0.4 * LAM * math.sqrt(0.5 * math.log(2.0))
        assert radii.min() == pytest.approx(target, rel=0.005)
        assert radii.max() == pytest.approx(target, rel=0.005)

    def test_quantized_map_divides_by_no_zero(self):
        # plateaus of equal neighbouring magnitudes: only crossed edges,
        # whose ends differ, are interpolated
        sigma = 0.15 * LAM
        mags, y, z = planar_map(
            lambda y, z: np.round(8.0 * np.exp(-(y ** 2 + z ** 2) / sigma ** 2)) / 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            poly = contour_3db(mags, y, z)
        assert np.array_equal(poly[0], poly[-1])
        # the level lies between the plateaus 0.75 and 0.625, whose samples
        # meet where the Gaussian rounds across 0.6875
        radii = np.hypot(poly[:, 0], poly[:, 1])
        edge = sigma * math.sqrt(math.log(1.0 / 0.6875))
        step = z[1] - z[0]
        assert np.all(np.abs(radii - edge) <= math.sqrt(2.0) * step)

    @pytest.mark.parametrize("side, joined", [(0.0, False), (0.6, True)])
    def test_saddle_cell_joins_by_its_centre_average(self, side, joined):
        # one cell has the inside corners 1.0 and 0.9 on one diagonal and
        # `side` on the other: its centre average decides whether the
        # peak's loop goes round both.  The mirrored map moves the inside
        # corners from c0/c2 to c1/c3.
        mags = np.zeros((6, 6))
        mags[2, 2], mags[3, 3] = 1.0, 0.9
        mags[2, 3] = mags[3, 2] = side
        for grid in (mags, mags[:, ::-1]):
            poly = contour_3db(grid, np.arange(6.0), np.arange(6.0))
            assert (poly[:, 0].max() > 3.0) == joined

    def test_all_zero_map_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            contour_3db(*planar_map(lambda y, z: np.zeros_like(y)))

    def test_boundary_peak_rejected(self):
        corner = -0.45 * LAM

        def spot(y, z):
            return np.exp(-((y - corner) ** 2 + (z - corner) ** 2) / (0.02 * LAM) ** 2)

        with pytest.raises(ValueError, match="boundary"):
            contour_3db(*planar_map(spot))


class TestPolarizationRatio:
    def test_examples(self):
        assert polarization_ratio(math.pi, 2.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert polarization_ratio(3 * math.pi**2 / 16, math.pi**2 / 32) == pytest.approx(6.0, rel=1e-15)
        assert polarization_ratio(0.37, 0.37) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="e_trans"):
            polarization_ratio(1.0, 0.0)
        with pytest.raises(ValueError, match="e_trans"):
            polarization_ratio(1.0, -2.0)
        with pytest.raises(ValueError, match="e_long"):
            polarization_ratio(-1.0, 2.0)
        with pytest.raises(ValueError, match="e_long"):
            polarization_ratio(math.nan, 2.0)
