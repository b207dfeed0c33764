"""Special functions of ``nearfocus.analytic``: oracles, frozen values, properties.

The helpers wrap ``scipy.special`` with this package's conventions pinned.
Each is checked three ways:
  * against frozen reference values computed with 40-digit
    arbitrary-precision arithmetic,
  * against an adaptive-quadrature oracle built from an integral
    representation (sampled, since adaptive quadrature is slow),
  * on a dense sweep, evaluated as one array call, against oracles that do
    not use scipy.special: composite Gauss-Legendre quadrature of the same
    integral representations, the arithmetic-geometric mean for K and
    sin(x)/x for sinc.
The seams where the former hand-written series met their asymptotic
expansions (x = 19 for Struve, x = 14 for Si) are exercised from both sides.
"""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus.analytic import (
    complete_elliptic_k,
    sinc,
    sine_integral,
    spherical_j1_over_x,
    struve_h,
)

TWO_OVER_PI = 2.0 / math.pi


# ----------------------------------------------------------------- oracles

def struve0_quadrature(x: float) -> float:
    val, _ = si.quad(lambda t: math.sin(x * math.cos(t)), 0.0, 0.5 * math.pi,
                     limit=400, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val / math.pi

def struve1_quadrature(x: float) -> float:
    val, _ = si.quad(lambda t: math.sin(x * math.cos(t)) * math.sin(t) ** 2,
                     0.0, 0.5 * math.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * x * val / math.pi

def si_quadrature(x: float) -> float:
    val, _ = si.quad(lambda t: math.sin(t) / t if t != 0 else 1.0, 0.0, x,
                     limit=800, epsabs=1e-13, epsrel=1e-13)
    return val

def ellipk_quadrature(m: float) -> float:
    val, _ = si.quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                     0.0, 0.5 * math.pi, epsabs=1e-13, epsrel=1e-13)
    return val

def j1_over_x_quadrature(x: float) -> float:
    val, _ = si.quad(lambda t: t * math.sin(x * t), 0.0, 1.0,
                     limit=400, epsabs=1e-14, epsrel=1e-14)
    return val / x


def gauss_legendre(f, lo, hi, panels=400, order=20):
    """Composite Gauss-Legendre integral of f(t) over [lo, hi]; f returns one
    row per argument, giving one integral per row.  400 panels of 20 nodes
    resolve integrands with up to about 10^3 radians of phase."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return f(t) @ w


def ellipk_agm(m):
    """K(m) = pi / (2 AGM(1, sqrt(1 - m)))."""
    a, b = np.ones_like(m), np.sqrt(1.0 - m)
    for _ in range(40):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return 0.5 * math.pi / a


# ------------------------------------------------------------ frozen values

def test_frozen_reference_values():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert spherical_j1_over_x(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert spherical_j1_over_x(math.pi) == pytest.approx(0.10132118364233777, abs=1e-14)
    assert spherical_j1_over_x(10.0) == pytest.approx(0.0078466941798751547, abs=1e-14)
    assert struve_h(-1, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-15)
    assert struve_h(0, 0.0) == 0.0
    assert struve_h(0, 1.0) == pytest.approx(0.56865662704828795, abs=1e-11)
    assert struve_h(-1, 1.0) == pytest.approx(0.43816243616563694, abs=1e-11)
    assert sine_integral(0.0) == 0.0
    assert sine_integral(1.0) == pytest.approx(0.94608307036718301, abs=1e-12)
    assert sine_integral(math.pi) == pytest.approx(1.8519370519824662, abs=1e-12)
    assert complete_elliptic_k(0.0) == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert complete_elliptic_k(0.5) == pytest.approx(1.8540746773013719, rel=1e-12)
    assert complete_elliptic_k(-1.0) == pytest.approx(1.3110287771460599, rel=1e-12)


def test_si_large_argument_limit():
    # Si -> pi/2; at x = 1e3 the residual envelope is ~1/x
    assert abs(sine_integral(1.0e3) - 0.5 * math.pi) < 1e-3


# ------------------------------------------------------- quadrature oracles

@pytest.mark.parametrize("x", np.linspace(0.05, 40.0, 21).tolist() + [18.9, 19.1])
def test_struve0_against_quadrature(x):
    assert struve_h(0, x) == pytest.approx(struve0_quadrature(x), abs=1e-9)


@pytest.mark.parametrize("x", np.linspace(0.05, 40.0, 17).tolist() + [18.9, 19.1])
def test_struve_m1_against_quadrature(x):
    # H_{-1}(x) = 2/pi - H_1(x) gives an independent quadrature route
    assert struve_h(-1, x) == pytest.approx(TWO_OVER_PI - struve1_quadrature(x), abs=1e-9)


@pytest.mark.parametrize("x", np.linspace(0.1, 40.0, 19).tolist() + [13.9, 14.1])
def test_si_against_quadrature(x):
    assert sine_integral(x) == pytest.approx(si_quadrature(x), abs=1e-10)


@pytest.mark.parametrize("m", [-25.0, -5.0, -1.0, -0.25, 0.0, 0.3, 0.5, 0.9, 0.99])
def test_ellipk_against_quadrature(m):
    assert complete_elliptic_k(m) == pytest.approx(ellipk_quadrature(m), rel=1e-10)


@pytest.mark.parametrize("x", [0.3, 0.49, 0.51, 1.0, 4.0, 10.0, 31.4])
def test_j1_over_x_against_quadrature(x):
    assert spherical_j1_over_x(x) == pytest.approx(j1_over_x_quadrature(x), abs=1e-12)


# --------------------------------------------------------- dense sweeps

def test_struve_sweep_vs_independent_series():
    xs = np.geomspace(1e-3, 1e3, 1000)
    col = xs[:, None]
    h0 = TWO_OVER_PI * gauss_legendre(lambda t: np.sin(col * np.cos(t)), 0.0, 0.5 * math.pi)
    h1 = TWO_OVER_PI * xs * gauss_legendre(
        lambda t: np.sin(col * np.cos(t)) * np.sin(t) ** 2, 0.0, 0.5 * math.pi)
    assert np.max(np.abs(struve_h(0, xs) - h0)) < 1e-9
    assert np.max(np.abs(struve_h(-1, xs) - (TWO_OVER_PI - h1))) < 1e-9


def test_si_sweep_vs_independent_series():
    xs = np.geomspace(1e-3, 1e3, 1000)
    col = xs[:, None]
    ref = gauss_legendre(lambda u: np.sin(col * u) / u, 0.0, 1.0)
    assert np.max(np.abs(sine_integral(xs) - ref)) < 1e-10


def test_ellipk_sweep_vs_independent_series():
    ms = np.concatenate([-np.geomspace(1e-3, 1e3, 500), np.linspace(-0.999, 0.9999, 500)])
    ref = ellipk_agm(ms)
    assert np.max(np.abs(complete_elliptic_k(ms) - ref) / np.abs(ref)) < 1e-10


def test_sinc_and_j1x_sweeps():
    xs = np.linspace(-50.0, 50.0, 1001)
    col = xs[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        ref_sinc = np.where(xs == 0.0, 1.0, np.sin(xs) / xs)
        ref_j1x = np.where(xs == 0.0, 1.0 / 3.0,
                           gauss_legendre(lambda t: t * np.sin(col * t), 0.0, 1.0) / xs)
    assert np.max(np.abs(sinc(xs) - ref_sinc)) < 1e-14
    assert np.max(np.abs(spherical_j1_over_x(xs) - ref_j1x)) < 1e-13


# ----------------------------------------------------------------- seams

def test_crossovers_are_continuous():
    # the former series/asymptotic seams: Struve at x = 19, Si at x = 14
    for f, c in [
        (lambda x: struve_h(0, x), 19.0),
        (lambda x: struve_h(-1, x), 19.0),
        (sine_integral, 14.0),
    ]:
        lo = f(c * (1.0 - 1e-12))
        hi = f(c * (1.0 + 1e-12))
        assert abs(lo - hi) < 2e-9


# --------------------------------------------------------------- properties

def test_struve_recurrence_closes():
    # H_{-1}(x) + H_1(x) = 2/pi
    xs = np.linspace(0.0, 100.0, 401)
    resid = np.abs(struve_h(-1, xs) + sp.struve(1, xs) - TWO_OVER_PI)
    assert np.max(resid) < 1e-9


def test_struve_h0_nonnegative_on_first_arch():
    xs = np.linspace(0.0, math.pi, 200)
    assert np.all(struve_h(0, xs) >= -1e-15)


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_even_functions(x):
    assert sinc(x) == sinc(-x)
    assert spherical_j1_over_x(min(abs(x), 60.0)) == spherical_j1_over_x(-min(abs(x), 60.0))


@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_sine_integral_is_odd(x):
    assert sine_integral(-x) == -sine_integral(x)


@given(st.floats(min_value=-50.0, max_value=0.9999, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_eval_results_are_finite_with_nonneg_error(m):
    # scipy reports no error estimate; what remains to check is that every
    # helper stays finite on its domain, subnormal arguments included
    for value in [
        complete_elliptic_k(m),
        struve_h(0, abs(m) * 10.0),
        struve_h(-1, abs(m) * 10.0),
        sine_integral(m * 10.0),
        sinc(m),
        spherical_j1_over_x(m),
    ]:
        assert math.isfinite(value)


def test_elliptic_k_ordering():
    # K grows with the parameter; K(0) = pi/2 splits the sign of m
    assert complete_elliptic_k(-0.5) < 0.5 * math.pi < complete_elliptic_k(0.5)


# ------------------------------------------------------------- domain errors

def test_domain_errors():
    with pytest.raises(ValueError):
        struve_h(1, 1.0)
    with pytest.raises(ValueError):
        struve_h(0, -0.5)
    with pytest.raises(ValueError):
        struve_h(-1, np.array([0.5, -1e-9]))
    with pytest.raises(ValueError):
        complete_elliptic_k(1.0)
    with pytest.raises(ValueError):
        complete_elliptic_k(1.5)
    with pytest.raises(ValueError):
        complete_elliptic_k(np.array([0.5, 1.0]))
