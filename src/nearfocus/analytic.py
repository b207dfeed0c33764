"""Closed-form focal curves for a cylindrical aperture wrapped with dipole elements.

This module evaluates the continuum (dense-element) limits of the focused
field on and around the cylinder axis: peak curves versus focal position,
radial cuts across the cross section, and resolution profiles versus
displacement from the focus.  Everything is reported in dimensionless
normalized units so the curves can be compared directly against discrete
simulations after peak normalization:

* conjugate-phase (uniform-amplitude) curves report |E| divided by
  ``amplitude_scale * w_max * a / wavelength**2``,
* time-reversal (channel-proportional) curves report |E| divided by
  ``amplitude_scale * beta / wavelength**2``,

where ``amplitude_scale`` is the dipole far-field constant
|R_e| = eta0*l*k/(4*pi) and ``beta`` is the drive level in
|w| = min(beta*|g|/R, cap), which ``focusing.tr_weights`` and
``focusing.hybrid_weights`` report alike.  On these scales the long-cylinder
limits are pure numbers (pi, 2, 3*pi**2/16, ...), exposed below as named
constants so tests can assert against a single definition.

Each closed form whose printed source had an ambiguous convention is
checked in the test suite against a direct integration of its amplitude
density (``tests/oracles.py``); the quadrature is the ground truth.

The special-function wrappers import ``scipy.special`` when first called,
so importing this module, as ``run`` and ``layout`` do for its constants,
loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CylinderSpec

__all__ = [
    "CP_EZ_AXIS_LIMIT",
    "CP_EX_AXIS_LIMIT",
    "TR_EZ_AXIS_LIMIT",
    "TR_EX_AXIS_LIMIT",
    "CP_FIELD_RATIO_LIMIT",
    "TR_FIELD_RATIO_LIMIT",
    "TRANSVERSE_CP_Y_LIMIT",
    "TRANSVERSE_CP_Z_LIMIT",
    "TRANSVERSE_TR_X_LIMIT",
    "TRANSVERSE_TR_X_LIMIT_ALTERNATE",
    "TRANSVERSE_TR_Y_LIMIT",
    "TRANSVERSE_TR_Z_LIMIT",
    "EX_LONG_PROFILE_PEAK",
    "sinc",
    "spherical_j1_over_x",
    "struve_h",
    "sine_integral",
    "complete_elliptic_k",
    "ez_cp_axis",
    "ez_tr_axis",
    "ex_cp_axis",
    "ex_tr_axis",
    "ez_cp_radial",
    "ex_cp_radial_x",
    "ex_cp_radial_y",
    "resolution_profiles",
    "transverse_pol_cp",
    "transverse_pol_tr",
]

# Long-cylinder limits of the normalized peak curves.
CP_EZ_AXIS_LIMIT = math.pi
CP_EX_AXIS_LIMIT = 2.0
TR_EZ_AXIS_LIMIT = 3.0 * math.pi**2 / 16.0
TR_EX_AXIS_LIMIT = math.pi**2 / 32.0
CP_FIELD_RATIO_LIMIT = math.pi / 2.0    # co- over cross-polarized peak, uniform drive
TR_FIELD_RATIO_LIMIT = 6.0              # same ratio under channel-proportional drive

# Transversely polarized elements: limits of the three field components.
# The x limit has a documented alternate candidate that the direct
# integration of the squared-amplitude kernel rules out; both values are
# kept so the resolution can be recorded in run manifests.
TRANSVERSE_CP_Y_LIMIT = 1.0
TRANSVERSE_CP_Z_LIMIT = 2.0
TRANSVERSE_TR_X_LIMIT = 41.0 * math.pi**2 / 128.0
TRANSVERSE_TR_X_LIMIT_ALTERNATE = 41.0 * math.pi**2 / 108.0  # ruled out numerically
TRANSVERSE_TR_Y_LIMIT = 3.0 * math.pi**2 / 128.0
TRANSVERSE_TR_Z_LIMIT = math.pi**2 / 32.0

# Peak of the longitudinal cross-polarized resolution profile.  The profile
# normalization and the axis-curve limit (2.0) disagree by construction: the
# profile is derived in a displaced-focus limit with its own constant.  Only
# the profile shape is asserted against simulations; the offset is recorded
# here rather than patched.
EX_LONG_PROFILE_PEAK = 4.0 / math.pi


def _require_cylinder(spec: CylinderSpec) -> tuple[float, float]:
    if not isinstance(spec, CylinderSpec):
        raise TypeError("analytic curves are defined for CylinderSpec geometries")
    return spec.radius_a, spec.length_L


def _require_in_span(zf: float, spec: CylinderSpec) -> tuple[float, float]:
    a, length = _require_cylinder(spec)
    if not abs(zf) < length / 2.0:
        raise ValueError(
            f"focal offset {zf} lies outside the open span (-{length / 2}, {length / 2})"
        )
    return a, length


def _require_in_radius(offset: float, spec: CylinderSpec) -> tuple[float, float]:
    a, length = _require_cylinder(spec)
    if not abs(offset) < a:
        raise ValueError(f"focal offset {offset} must satisfy |offset| < radius {a}")
    return a, length


def _rim_angles(zf: float, spec: CylinderSpec) -> tuple[float, float]:
    """(phi_plus, phi_minus): the angles between the cylinder axis and the
    lines from the on-axis focus to the far and the near rim, which
    parameterize every conjugate-phase axis curve."""
    a, length = _require_in_span(zf, spec)
    return math.atan2(a, length / 2.0 + zf), math.atan2(a, length / 2.0 - zf)


# ---------------------------------------------------------------------------
# Special functions: scipy.special with this module's conventions pinned


def sinc(x):
    """Unnormalized cardinal sine sin(x)/x, with sinc(0) = 1."""
    return np.sinc(x / math.pi)


def spherical_j1_over_x(x):
    """j1(x)/x, limit 1/3 at x = 0.

    Below |x| = 1e-3 a short series replaces scipy's quotient, which loses
    digits for tiny x and is NaN for subnormal x.
    """
    from scipy import special

    x2 = np.square(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x2 < 1e-6, 1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0,
                        special.spherical_jn(1, x) / x)[()]


def struve_h(order, x):
    """Struve function H_order(x) for orders -1 and 0 and x >= 0."""
    if order not in (-1, 0):
        raise ValueError("struve_h supports orders -1 and 0 only")
    if np.any(np.asarray(x) < 0.0):
        raise ValueError("struve_h requires x >= 0")
    from scipy import special

    return special.struve(order, x)


def sine_integral(x):
    """Sine integral Si(x), the integral of sin(t)/t from 0 to x."""
    from scipy import special

    return special.sici(x)[0]


def complete_elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter convention m < 1."""
    if np.any(np.asarray(m) >= 1.0):
        raise ValueError("complete_elliptic_k requires parameter m < 1")
    from scipy import special

    return special.ellipk(m)


# ---------------------------------------------------------------------------
# Axis curves, axially polarized elements

def ez_cp_axis(zf: float, spec: CylinderSpec) -> float:
    """Co-polarized focal peak vs axial focus position, uniform-amplitude drive."""
    phi_plus, phi_minus = _rim_angles(zf, spec)
    return math.pi / 2.0 * (math.cos(phi_plus) + math.cos(phi_minus))


def ex_cp_axis(zf: float, spec: CylinderSpec) -> float:
    """Cross-polarized focal peak vs axial focus position, uniform-amplitude drive.

    At the midpoint this is 2 - 4a/sqrt(L^2 + 4a^2) = 2 - 4a/L + O(a^3/L^3):
    unlike the co-polarized curve, whose midpoint value pi*L/sqrt(L^2 + 4a^2)
    is pi - O(a^2/L^2), it approaches its limit at first order in a/L, and
    so does the co/cross ratio, (pi/2)(1 + 2a/L + O(a^2/L^2)).
    """
    phi_plus, phi_minus = _rim_angles(zf, spec)
    return 2.0 - math.sin(phi_plus) - math.sin(phi_minus)


# Each channel-proportional curve is an antiderivative of its squared-
# amplitude density, pi/K * [A*atan(u/a) + a*u*(B*a^2 + C*u^2)/(a^2 + u^2)^2],
# across the span: a row (K, A, B, C).  Written in the axial forms' order of
# operations, so those curves keep their last bits; K is a power of two, so
# scaling K alone by 8 gives exactly an eighth of the curve.
_TR_COPOL_AXIAL = (16.0, 3.0, 5.0, 3.0)
_TR_CROSSPOL = (32.0, 1.0, -1.0, 1.0)


def _tr_span_difference(row, zf: float, spec: CylinderSpec) -> float:
    a, length = _require_in_span(zf, spec)
    K, A, B, C = row

    def primitive(u):
        r2 = a * a + u * u
        return (math.pi * a * u * (B * a * a + C * u * u) / (K * r2 * r2)
                + A * math.pi / K * math.atan2(u, a))

    return primitive(length / 2.0 - zf) - primitive(-zf - length / 2.0)


def ez_tr_axis(zf: float, spec: CylinderSpec) -> float:
    """Co-polarized focal peak vs axial focus position, channel-proportional drive."""
    return _tr_span_difference(_TR_COPOL_AXIAL, zf, spec)


def ex_tr_axis(zf: float, spec: CylinderSpec) -> float:
    """Cross-polarized focal peak vs axial focus position, channel-proportional drive."""
    return _tr_span_difference(_TR_CROSSPOL, zf, spec)


# ---------------------------------------------------------------------------
# Radial cuts across the midplane, axially polarized elements

def ez_cp_radial(xf: float, spec: CylinderSpec) -> float:
    """Co-polarized peak vs radial focus offset in the midplane.

    The two elliptic terms are mathematically equal (a negative-parameter
    identity maps one onto the other); the doubled two-term form below is
    exactly the continuum surface integral, which the tests verify by direct
    integration, and reduces to ``ez_cp_axis(0, spec)`` at ``xf = 0``.
    """
    a, length = _require_in_radius(xf, spec)
    l2 = length * length
    delta_minus = l2 + 4.0 * (xf - a) ** 2
    delta_plus = l2 + 4.0 * (xf + a) ** 2
    term_minus = complete_elliptic_k(-16.0 * a * xf / delta_minus) / math.sqrt(delta_minus)
    term_plus = complete_elliptic_k(16.0 * a * xf / delta_plus) / math.sqrt(delta_plus)
    return length * (term_minus + term_plus)


def ex_cp_radial_x(xf: float, spec: CylinderSpec) -> float:
    """Cross-polarized level along the element-aligned radial axis.

    In the long-cylinder limit the cut is exactly flat at 2 for every
    |xf| < a (the azimuthal integral of |distance projection| / distance is
    constant); finite length lowers it by O(a/length).
    """
    _require_in_radius(xf, spec)
    return 2.0


def ex_cp_radial_y(yf: float, spec: CylinderSpec) -> float:
    """Cross-polarized level along the radial axis orthogonal to the elements.

    Algebraically identical to the difference-quotient form
    (2a + 2y - 2|a-y| + sqrt(L^2+4(y-a)^2) - sqrt(L^2+4(y+a)^2)) / (2y)
    for 0 < |y| < a, but rationalized so the y -> 0 limit needs no branch.
    """
    a, length = _require_in_radius(yf, spec)
    y = abs(yf)
    s_minus = math.hypot(length, 2.0 * (y - a))
    s_plus = math.hypot(length, 2.0 * (y + a))
    return 2.0 - 8.0 * a / (s_minus + s_plus)


# ---------------------------------------------------------------------------
# Resolution profiles vs displacement from an origin focus

_PROFILE_KINDS = ("ez_long", "ez_trans", "ex_long", "ex_trans_x", "ex_trans_y")


def resolution_profiles(kind: str, delta_wl, spec: CylinderSpec):
    """Normalized field vs focal displacement ``delta_wl`` (in wavelengths).

    ``delta_wl`` may be a scalar or an array; the result has its shape.
    ``ez_long`` depends on the aspect ratio: finite length stretches the
    profile by sqrt(1 + 4a^2/L^2) relative to the ideal sinc.  The other
    kinds are long-cylinder limits and use the geometry only for validation.

    Every profile linearises the path difference, R(delta) - R(0) ~ -delta
    times the direction cosine, so it holds for delta^2 << a * wavelength.
    The dropped quadratic term is of order pi * delta^2 / (a * wavelength)
    radians (about 0.24 rad at delta = 0.5 wavelength on a 3.33-wavelength
    radius) and fills the profile's nulls; beyond that range compare with a
    continuum integral over exact path lengths instead.
    """
    a, length = _require_cylinder(spec)
    if kind not in _PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {_PROFILE_KINDS}")
    x = 2.0 * math.pi * np.asarray(delta_wl, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("delta_wl must be non-negative; profiles are even")
    if kind == "ez_long":
        stretch = math.sqrt(1.0 + 4.0 * a * a / (length * length))
        return math.pi / stretch * sinc(x / stretch)
    if kind == "ez_trans":
        return math.pi * sinc(x)
    if kind == "ex_long":
        return 2.0 * struve_h(-1, x)
    # ex_trans_x and ex_trans_y both tend to 2 at the origin
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "ex_trans_x":
            ratio = math.pi * struve_h(0, x) / x
        else:
            ratio = 2.0 * sine_integral(x) / x
    return np.where(x == 0.0, 2.0, ratio)[()]


# ---------------------------------------------------------------------------
# Transversely polarized elements: the three field components on the axis

def transverse_pol_cp(component: str, zf: float, spec: CylinderSpec) -> float:
    """Field component peak for transversely polarized elements, uniform drive.

    The co-polarized x component grows logarithmically with length; y and z
    converge to TRANSVERSE_CP_Y_LIMIT and TRANSVERSE_CP_Z_LIMIT.
    """
    if component == "z":
        # the axial cross-polarized kernel under the axis swap
        return ex_cp_axis(zf, spec)
    phi_plus, phi_minus = _rim_angles(zf, spec)
    if component == "x":
        # with u = L +- 2zf and s = hypot(u, 2a) at each end, the log's
        # argument (s + u) / (2a) is cot(phi/2)
        return math.pi / 4.0 * (
            2.0 * math.log(1.0 / (math.tan(phi_plus / 2.0) * math.tan(phi_minus / 2.0)))
            - math.cos(phi_plus) - math.cos(phi_minus)
        )
    if component == "y":
        return 0.5 * (math.cos(phi_plus) + math.cos(phi_minus))
    raise ValueError(f"component must be one of x, y, z, got {component!r}")


_TRANSVERSE_TR_ROWS = {
    "x": (128.0, 41.0, -17.0, -23.0),
    # an eighth of the axial co-polarized curve
    "y": (128.0, 3.0, 5.0, 3.0),
    # the axial cross-polarized kernel under the axis swap
    "z": _TR_CROSSPOL,
}


def transverse_pol_tr(component: str, zf: float, spec: CylinderSpec) -> float:
    """Field component peak for transversely polarized elements, channel-proportional drive."""
    row = _TRANSVERSE_TR_ROWS.get(component)
    if row is None:
        raise ValueError(f"component must be one of x, y, z, got {component!r}")
    return _tr_span_difference(row, zf, spec)
