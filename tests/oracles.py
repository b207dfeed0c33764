"""Direct-integration oracles for the closed forms in ``nearfocus.analytic``.

Each function integrates the continuum amplitude density that a closed
form claims to sum, with scipy's adaptive quadrature, so the tests can
check the closed forms against an independent route.  They are test-only:
the package itself never imports ``scipy.integrate``.
"""

import math

from scipy import integrate

_QUAD_OPTS = {"epsabs": 1.0e-12, "epsrel": 1.0e-12, "limit": 200}


def ez_cp_radial_quadrature(xf, spec):
    """Direct surface integration of the co-polarized amplitude density
    at the midplane focus (xf, 0, 0)."""
    a, length = spec.radius_a, spec.length_L

    def integrand(l, phi):
        rho2 = a * a + xf * xf - 2.0 * a * xf * math.cos(phi)
        return rho2 / (rho2 + l * l) ** 1.5

    value, _ = integrate.dblquad(
        integrand, 0.0, 2.0 * math.pi,
        lambda _: -length / 2.0, lambda _: length / 2.0,
        epsabs=1.0e-11, epsrel=1.0e-11,
    )
    return 0.25 * value


def _transverse_azimuthal_cp(component, u, a):
    # Exact azimuthal integral of the |amplitude| geometric factor.
    if component == "x":
        return 2.0 * math.pi * u * u + math.pi * a * a
    if component == "y":
        return 2.0 * a * a
    return 4.0 * a * abs(u)


def _transverse_azimuthal_tr(component, u, a):
    # Exact azimuthal integral of the squared geometric factor.
    if component == "x":
        return 2.0 * math.pi * u**4 + 2.0 * math.pi * a * a * u * u + 0.75 * math.pi * a**4
    if component == "y":
        return 0.25 * math.pi * a**4
    return math.pi * a * a * u * u


def _transverse_quadrature(component, zf, spec, azimuthal, power, scale):
    if component not in ("x", "y", "z"):
        raise ValueError(f"component must be one of x, y, z, got {component!r}")
    a, length = spec.radius_a, spec.length_L

    def integrand(l):
        u = l - zf
        return azimuthal(component, u, a) / (a * a + u * u) ** power

    value, _ = integrate.quad(
        integrand, -length / 2.0, length / 2.0, points=[zf], **_QUAD_OPTS
    )
    return scale * value


def transverse_pol_cp_quadrature(component, zf, spec):
    """Direct integration of the transverse-element |amplitude| density.

    The azimuthal integral is exact; only the axial integral is numerical.
    """
    return _transverse_quadrature(component, zf, spec, _transverse_azimuthal_cp, 1.5, 0.25)


def transverse_pol_tr_quadrature(component, zf, spec):
    """Direct integration of the transverse-element squared-amplitude density."""
    return _transverse_quadrature(
        component, zf, spec, _transverse_azimuthal_tr, 3.0, 0.25 * spec.radius_a
    )
