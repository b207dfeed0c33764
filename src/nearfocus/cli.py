"""Scenario-driven command line front end.

A scenario is one flat JSON document whose keys carry their units
(radius_m, frequency_hz, amplitude_cap_a); nothing is inferred from
bare numbers.  The scenario rules are data: _SCHEMA holds each key's
kind (for an enumerated key, its allowed values), its default and the
settings under which it applies, and _NEEDS the rules that link two
keys.  The subcommands are the rows of _COMMANDS: run (weights, fields,
metrics), validate (numeric against a named closed-form reference),
analytic (closed-form curve only), layout (geometry only).  One scenario
per process.

The closed-form references are the rows of _REFERENCES: five resolution
profiles (a field component along a cut through an origin focus) and
two co/cross focal ratios (anywhere on the axis), each with its drive
method.  _reference checks what a row's closed form assumes of the
scenario before validate or analytic does any work.

Each subcommand fills one record, _Stages, which holds its output
directory and --threads.  Every artifact lands in that directory through
_write, which lists it in the record: CSV files are written with 17
significant digits and '\\n' line endings so reruns of the same scenario
are byte-identical, and manifest.json records the fully resolved
scenario (defaults included), the conventions the numbers rest on, tool
version, the requested threads, wall-clock time and the process's peak
resident memory so far (null where the resource module does not exist);
from the record, the artifacts, the field workers that ran, each stage's
wall time and the peak resident memory after it, the work's counts
(sources, grid points, the field nodes the kernel evaluated, kernel
pairs, near-singular points) and each field grid's outcome; and, for
run, the solver's diagnostics (regime, level, power, clipped and idle
ports, power residual) and the relative gap between the focal field the
solver predicts and the one evaluated at the focus.

Every cut and plane is evaluated by _evaluate, from Chebyshev-Lobatto
nodes along each axis, as many as the axis's span in wavelengths and
the sources' singularities along its lines are predicted to need, and
interpolated to its samples within about 1e-13 of its largest |E|
component; a grid near the sources, one that needs about as many nodes
as it has samples or has few sources, and an axis that does not resolve
at its nodes, is evaluated point by point.

Every aperture, the single element included, gets its channel from one
fields.assemble_channel call.

Exit codes: 0 success (for validate: comparison passed), 1 validate
comparison failed, 2 usage or scenario errors (their own codes), a
problem too large to allocate (out-of-memory), or a run the numeric
layers refuse, such as a focus inside the quarter-wavelength standoff of
any source (run-failed), or an output directory or artifact that cannot
be made or written (output-unwritable).  Errors print one
machine-readable JSON object to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # no such module on Windows
    resource = None

from . import __version__, analytic, fields
from .csvio import Table, angle, write_csv
from .fields import ChannelVector, FieldMap, assemble_channel, evaluate_field
# not called here: the benchmark's tracer rebinds them until ROADMAP item 1
from .fields import green_electric, green_magnetic  # noqa: F401
from .focusing import PowerConstraints, cp_weights, hybrid_weights, tr_weights
from .geometry import (
    AXIAL,
    Aperture,
    CylinderSpec,
    RectCorridorSpec,
    Strip,
    Wavelength,
    _check_fits,
    build_cylinder_mesh,
    build_rect_corridor_mesh,
    build_ring_array,
)
from .metrics import contour_3db, cut_metrics, main_lobe, metrics_flat_dict

__all__ = ["main", "load_scenario", "ScenarioError"]

# analytic_reference -> (drive method, axis the cut runs along, field
# component).  Profile rows compare a cut with analytic.resolution_profiles;
# ratio rows, which have no cut, compare the co/cross focal ratio with the
# on-axis closed forms analytic.e{z,x}_<method>_axis.
_REFERENCES = {
    "ez_long": ("cp", "z", "z"),
    "ez_trans": ("cp", "x", "z"),
    "ex_long": ("cp", "z", "x"),
    "ex_trans_x": ("cp", "x", "x"),
    "ex_trans_y": ("cp", "y", "x"),
    "ratio_cp": ("cp", None, None),
    "ratio_tr": ("tr", None, None),
}

# Field grids: the largest Chebyshev tail, and spot-check miss, relative
# to the grid's largest coefficient and |E| component, at which an axis is
# resolved; the coefficients read as the tail, which an axis's nodes hold
# beyond the degree it is predicted to need
_SPECTRAL_TOL = 1e-13
_TAIL = 4

_AXIS_UNIT = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}

# conventions behind the emitted numbers, recorded in every manifest
RESOLVED_CONVENTIONS = {
    "transverse_tr_x_asymptote": "41*pi^2/128",
    "transverse_tr_x_asymptote_value": analytic.TRANSVERSE_TR_X_LIMIT,
    "transverse_tr_x_rejected_alternate": "41*pi^2/108",
    "transverse_tr_x_rejected_value": analytic.TRANSVERSE_TR_X_LIMIT_ALTERNATE,
    "transverse_tr_x_resolution": "settled by quadrature of the transverse"
                                  " co-polarized kernel in the long-cylinder limit",
    "co_cross_ratio_cp": "field-amplitude ratio at equal per-element drive caps",
    "co_cross_ratio_tr": "focal-intensity ratio at equal total power budgets",
    "mesh_port_resistance": "base resistance scaled by patch area over (wavelength/2)^2",
    "green_electric_prefactor": "+1j*k*eta0*exp(-1j*k*R)/(4*pi*R)",
    "metrics_cut_spacing_cap": "wavelength/64 (stricter than the wavelength/16 grid floor)",
    "csv_number_format": "17 significant digits, '.' decimal, LF line endings",
}


class ScenarioError(Exception):
    """Scenario or usage problem, reported as machine-readable JSON."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _invalid(message: str) -> ScenarioError:
    return ScenarioError("scenario-invalid", message)


# ---------------------------------------------------------------------------
# scenario schema

# settings under which a cylinder mesh's grid counts have a meaning
_CYLINDER_MESH = {"aperture": ("mesh",), "geometry": ("cylinder",)}

# key -> (kind, default, applies).  kind is "pos", "nonneg", "num", "count"
# or, for an enumerated key, the tuple of its allowed values.  default is
# a constant, None (the key must be given wherever it applies) or a
# function of the scenario and its Wavelength, which may read the keys
# above it.  applies maps settings (keys above it) to the values under
# which the key has a meaning; elsewhere it must be absent, and resolves
# to None.
_SCHEMA = {
    "geometry": (("cylinder", "rectangle"), None, {}),
    "radius_m": ("pos", None, {"geometry": ("cylinder",)}),
    "length_m": ("pos", None, {}),
    "width_m": ("pos", None, {"geometry": ("rectangle",)}),
    "height_m": ("pos", None, {"geometry": ("rectangle",)}),
    "frequency_hz": ("pos", None, {}),
    "source_kind": (("electric", "magnetic"), "electric", {}),
    "element_polarization": (("axial", "azimuthal"), "axial", {}),
    "aperture": (("discrete", "mesh", "single"), "discrete", {}),
    "dipole_length_m": ("pos", lambda s, wl: wl.lam / 100.0,
                        {"aperture": ("discrete", "single")}),
    "mesh_axial_n": ("count", lambda s, wl: max(2, math.ceil(s["length_m"] / (0.5 * wl.lam))),
                     _CYLINDER_MESH),
    "mesh_azimuthal_n": ("count", lambda s, wl: max(3, math.ceil(
        2.0 * math.pi * s["radius_m"] / (0.5 * wl.lam))), _CYLINDER_MESH),
    "patch_target_m": ("pos", lambda s, wl: 0.25 * wl.lam, {"geometry": ("rectangle",)}),
    "focus_x_m": ("num", 0.0, {}),
    "focus_y_m": ("num", 0.0, {}),
    "focus_z_m": ("num", 0.0, {}),
    "target_polarization": (("x", "y", "z"), "z", {}),
    "method": (("cp", "tr", "hybrid"), "cp", {}),
    "amplitude_cap_a": ("pos", 0.02, {}),
    "power_budget_w": ("pos", 1.0, {}),
    "port_resistance_ohm": ("pos", 50.0, {}),
    "kernel": (("full", "dipole-approx"), "full", {}),
    "grid": (("cut", "plane"), "cut", {}),
    "cut_axis": (("x", "y", "z"), "x", {}),
    "cut_half_span_m": ("pos", lambda s, wl: 1.1 * wl.lam, {}),
    "cut_step_m": ("pos", lambda s, wl: wl.lam / 64.0, {}),
    "plane_axes": (("xy", "xz", "yz"), "yz", {}),
    "plane_half_span_a_m": ("pos", lambda s, wl: 0.45 * wl.lam, {}),
    "plane_half_span_b_m": ("pos", lambda s, wl: 0.45 * wl.lam, {}),
    "plane_step_m": ("pos", lambda s, wl: wl.lam / 64.0, {}),
    "analytic_reference": (("none",) + tuple(_REFERENCES), "none", {}),
    "tolerance_rel": ("nonneg", 0.02, {}),
}

# rules that link keys: (key, value) -> what that setting requires of others
_NEEDS = {
    ("geometry", "rectangle"): {"aperture": ("mesh",)},
    ("kernel", "dipole-approx"): {"source_kind": ("electric",)},
}


def _require(s: dict, required: dict, subject: str) -> None:
    """Reject the scenario unless each key in required has one of its values."""
    for key, allowed in required.items():
        if s[key] not in allowed:
            raise _invalid(f"{subject} requires {key} to be one of {list(allowed)}, "
                           f"got {s[key]!r}")


def _when(applies: dict) -> str:
    return " and ".join(f"{k} is one of {list(allowed)}" for k, allowed in applies.items())


def _check_value(key: str, kind: str | tuple, value):
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise _invalid(f"{key} must be one of {list(kind)}, got {value!r}")
        return value
    if kind == "count":
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise _invalid(f"{key} must be a positive integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise _invalid(f"{key} must be finite, got an integer beyond the float range")
    if not math.isfinite(value):
        raise _invalid(f"{key} must be finite, got {value!r}")
    if kind == "pos" and value <= 0.0:
        raise _invalid(f"{key} must be positive, got {value!r}")
    if kind == "nonneg" and value < 0.0:
        raise _invalid(f"{key} must be non-negative, got {value!r}")
    return value


def load_scenario(path) -> tuple[dict, list[str]]:
    """Parse, validate, and resolve a scenario file.

    Returns the fully resolved scenario dictionary (every key explicit)
    and the sorted list of keys the tool filled with defaults.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ScenarioError("scenario-unreadable", f"cannot read scenario file: {e}")
    except ValueError as e:  # not UTF-8, not JSON, or an integer too long to parse
        raise ScenarioError("scenario-unreadable", f"scenario is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise _invalid("scenario must be a JSON object")

    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise _invalid(f"unknown scenario keys: {unknown}")

    s: dict = {}
    for key, (kind, default, applies) in _SCHEMA.items():
        if not all(s[k] in allowed for k, allowed in applies.items()):
            if key in raw:
                raise _invalid(f"{key} applies only when {_when(applies)}")
            s[key] = None
        elif key in raw:
            s[key] = _check_value(key, kind, raw[key])
        elif default is None:
            raise _invalid(f"{key} is required" + (f" when {_when(applies)}" if applies else ""))
        else:
            s[key] = default
    for (key, value), required in _NEEDS.items():
        if s[key] == value:
            _require(s, required, f"{key} {value}")
    if s["geometry"] == "rectangle" and s["width_m"] < s["height_m"]:
        raise _invalid("width_m must be at least height_m")

    wl = Wavelength.from_frequency(s["frequency_hz"])
    for key, value in s.items():
        if callable(value):
            try:
                s[key] = value(s, wl)
            except OverflowError:
                raise _invalid(f"{key}'s default is beyond the float range")

    fx, fy, fz = s["focus_x_m"], s["focus_y_m"], s["focus_z_m"]
    if abs(fz) >= 0.5 * s["length_m"]:
        raise _invalid("focal point lies outside the geometry along z")
    if s["geometry"] == "cylinder":
        if math.hypot(fx, fy) >= s["radius_m"]:
            raise _invalid("focal point lies outside the cylinder")
    else:
        if abs(fx) >= 0.5 * s["width_m"] or abs(fy) >= 0.5 * s["height_m"]:
            raise _invalid("focal point lies outside the rectangle cross-section")

    step_cap = wl.lam / 16.0
    for step, spans in (("cut_step_m", ("cut_half_span_m",)),
                        ("plane_step_m", ("plane_half_span_a_m", "plane_half_span_b_m"))):
        if s[step] > step_cap * (1.0 + 1e-9):
            raise _invalid(f"{step} exceeds wavelength/16 = {step_cap}")
        # count the grid here, so one too fine to count, or whose field alone
        # (48 B per point) exceeds the machine's memory, fails before any work
        try:
            points = math.prod(2 * _steps(s[span], s[step]) + 1 for span in spans)
        except OverflowError:
            points = math.inf
        if points > sys.maxsize:
            raise _invalid(f"{' and '.join(spans)} over {step} give too many points to count")
        _check_fits(points, 48, f"points of {' and '.join(spans)} over {step}: their field")

    return s, sorted(set(_SCHEMA) - set(raw))


# ---------------------------------------------------------------------------
# builders shared by the subcommands

class _Stages:
    """The record of one subcommand: its output directory and --threads,
    the wall time and peak resident memory of each of its stages, the
    counts of its work, the artifacts it wrote and the field workers that
    ran.

    ``with stages(name):`` times one stage; a stage run more than once adds
    up its times and keeps the peak after its last run.  The peak never
    falls, so the first stage whose peak reaches the process's is the one
    that set it.
    """

    def __init__(self, outdir: Path, threads: int):
        self.outdir, self.threads = outdir, threads
        self.timings_s: dict = {}
        self.peak_rss_mb: dict = {}
        self.counters = dict.fromkeys(
            ("sources", "points", "field_nodes", "kernel_pairs", "near_singular_points"), 0)
        # each field grid's outcome, axis by axis
        self.grids: list = []
        # the files _write finished, and the most field workers of one
        # evaluate_field call: at most the usable CPUs, 0 when none ran
        self.artifacts: list = []
        self.workers = 0

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        yield
        self.timings_s[name] = self.timings_s.get(name, 0.0) + time.perf_counter() - start
        self.peak_rss_mb[name] = _peak_rss_mb()

    def manifest_entries(self) -> dict:
        return {"timings_s": self.timings_s, "stage_peak_rss_mb": self.peak_rss_mb,
                "counters": self.counters, "field_grids": self.grids,
                "artifacts": sorted(self.artifacts + ["manifest.json"]),
                "workers": self.workers}


def _geometry_spec(s: dict):
    if s["geometry"] == "cylinder":
        return CylinderSpec(radius_a=s["radius_m"], length_L=s["length_m"])
    return RectCorridorSpec(width_La=s["width_m"], height_Lb=s["height_m"],
                            length_L=s["length_m"])


def _single_layout(s: dict) -> Aperture:
    """One dipole on the wall at (radius, 0, 0): a one-point strip at z = 0."""
    strip = Strip(np.array([[s["radius_m"]], [0.0], [0.0]]), np.array([[0.0], [1.0], [0.0]]),
                  s["dipole_length_m"], 1.0)
    return Aperture([strip], [0.0], s["element_polarization"])


def _aperture(s: dict, wl: Wavelength, stages: _Stages) -> Aperture:
    spec, polarization = _geometry_spec(s), s["element_polarization"]
    with stages("aperture"):
        if s["aperture"] == "single":
            sources = _single_layout(s)
        elif s["aperture"] == "discrete":
            sources = build_ring_array(spec, wl, polarization=polarization,
                                       dipole_length=s["dipole_length_m"])
        elif s["geometry"] == "cylinder":
            sources = build_cylinder_mesh(spec, s["mesh_axial_n"], s["mesh_azimuthal_n"],
                                          wl, polarization)
        else:
            sources = build_rect_corridor_mesh(spec, s["patch_target_m"], wl, polarization)
    stages.counters["sources"] = len(sources)
    return sources


def _focus(s: dict) -> np.ndarray:
    return np.array([s["focus_x_m"], s["focus_y_m"], s["focus_z_m"]])


def _channel(s: dict, sources: Aperture, e_hat: np.ndarray, wl: Wavelength,
             stages: _Stages) -> ChannelVector:
    with stages("channel"):
        return assemble_channel(sources, _focus(s), e_hat, wl, kernel=s["kernel"],
                                source_kind=s["source_kind"])


def _solve_weights(s: dict, h: ChannelVector, stages: _Stages):
    pc = PowerConstraints(w_max=s["amplitude_cap_a"], P0=s["power_budget_w"],
                          R0_per_port=s["port_resistance_ohm"])
    with stages("solve"):
        if s["method"] == "cp":
            return cp_weights(h, pc)
        if s["method"] == "tr":
            return tr_weights(h, pc)
        return hybrid_weights(h, pc)


def _steps(half_span: float, step: float) -> int:
    """Whole steps from the focus out to about half_span, at least one;
    OverflowError when half_span over step is beyond the float range."""
    return max(1, round(half_span / step))


def _offsets(half_span: float, step: float) -> np.ndarray:
    """Whole steps from the focus out to about half_span on either side,
    at least one each way."""
    n = _steps(half_span, step)
    return np.arange(-n, n + 1) * step


def _plane(s: dict) -> list:
    """The plane's two axes and their offsets, the first axis slowest."""
    return [(axis, _offsets(s[f"plane_half_span_{ab}_m"], s["plane_step_m"]))
            for axis, ab in zip(s["plane_axes"], "ab")]


def _points(focus: np.ndarray, names: list, offsets: list) -> np.ndarray:
    """The focus plus every combination of offsets along the named axes,
    (P, 3), the first axis slowest."""
    points = focus[None, :]
    for axis, o in zip(names, np.meshgrid(*offsets, indexing="ij")):
        points = points + o.reshape(-1, 1) * _AXIS_UNIT[axis][None, :]
    return points


def _lobatto(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto points of [-1, 1], ascending, as
    sin(pi k / 2m) for k = -m, -m + 2, ..., m: the ends are -1 and 1, and
    for an even m the middle one is 0."""
    return np.array([math.sin(math.pi * k / (2 * m)) for k in range(-m, m + 1, 2)])


def _intervals(kh: float, a: float, samples: int) -> int:
    """The Lobatto intervals of an axis of half span h: the degree past
    which the Chebyshev coefficients of the field along it are predicted
    to be below _SPECTRAL_TOL, plus _TAIL, rounded up to even so that the
    focus is a node.  kh is the wavenumber times h, a the least semi-major
    axis over h of the sources' Bernstein ellipses (inf where it is not
    known).  The degree is counted up to samples at most: an axis that
    needs that many is evaluated at its samples."""
    # a propagating wave along the axis, exp(j kh cos(theta) t), has the
    # coefficients 2 j**d J_d(kh cos(theta)), and |J_d(x)| <= (x/2)**d / d!
    # (Abramowitz & Stegun 9.1.62); summed as logs, which do not overflow
    d, log_bound, log_tol = 0, 0.0, math.log(_SPECTRAL_TOL)
    while log_bound > log_tol and d < samples:
        d += 1
        log_bound += math.log(0.5 * kh / d)
    # a source at offset s along the axis and distance r across it makes
    # the field singular at t = (s +- i r)/h, on the Bernstein ellipse of
    # foci -1 and 1 and semi-major a, rho = a + sqrt(a**2 - 1), and the
    # coefficients decay as rho**-d (Trefethen, Approximation Theory and
    # Approximation Practice, ch. 8); log(rho) is acosh(a)
    log_rho = math.acosh(a)
    d = max(d, math.ceil(-log_tol / log_rho) if log_rho > 0.0 else samples) + _TAIL
    return d + d % 2


def _tail(values: np.ndarray, axis: int) -> float:
    """The largest of the last _TAIL Chebyshev coefficients along one axis
    of values, (..., 3) at that axis's Lobatto points, over the largest
    coefficient (0 for a zero field)."""
    n = values.shape[axis]
    f = np.moveaxis(values, axis, 0).reshape(n, -1)
    # point j is cos(pi i / (n - 1)) with i = n - 1 - j; the ends weigh half
    # in the sum, and so do the first and last coefficients
    j = np.arange(n)
    half = np.where((j == 0) | (j == n - 1), 0.5, 1.0)
    T = np.cos(np.pi * np.outer(j, n - 1 - j) / (n - 1)) * np.outer(half, half)
    c = np.abs(T @ f).max(axis=1)
    return float(c[-_TAIL:].max() / c.max()) if c.max() > 0.0 else 0.0


def _interpolate(values: np.ndarray, axis: int, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """values, complex (..., 3) at the Lobatto points t along one axis, at
    the points x by the barycentric formula (both on [-1, 1]); where x is
    one of the t, the result is that node's value, bytes and all."""
    w = np.where(np.arange(t.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - t[None, :]
    on, at = np.nonzero(d == 0.0)
    d[on, at] = 1.0
    B = w / d
    B /= B.sum(axis=1, keepdims=True)
    moved = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    f = moved.reshape(t.size, -1)
    # a real matmul on the real and imaginary parts
    out = (B @ f.view(np.float64)).view(complex)
    out[on] = f[at]
    return np.moveaxis(out.reshape((x.size,) + moved.shape[1:]), 0, axis)


def _spots(x: np.ndarray, t: np.ndarray) -> list:
    """The indices of the points x farthest from every point t, one on
    either side of the middle of x."""
    gap = np.abs(x[:, None] - t[None, :]).min(axis=1)
    mid = x.size // 2
    return [int(np.argmax(gap[:mid])), mid + 1 + int(np.argmax(gap[mid + 1:]))]


def _evaluate(s: dict, sources, weights, axes: list, wl: Wavelength,
              stages: _Stages) -> FieldMap:
    """The field on the grid of offsets from the focus along the named axes,
    the first axis slowest, interpolated from Chebyshev-Lobatto nodes.

    An axis of half span h takes the m + 1 nodes h * _lobatto(m), with m
    from _intervals: the degree its propagating waves need, and once the
    sources have been scanned, the degree their singularities need.  An
    axis whose m + 1 is at least its samples is exact: it is evaluated at
    its own offsets ("small"), as is every axis of a grid whose samples
    times sources fit one work unit of the kernel.  The scan runs only
    when some axis's propagating count is below its samples; a grid whose
    box comes within the quarter-wavelength standoff of a source is exact
    from the start ("standoff"): evaluate_field flags or refuses its
    points as it does any grid's, and a grid farther out has none to
    flag.  The nodes are the only level: an axis whose Chebyshev
    coefficients' tail exceeds _SPECTRAL_TOL is exact ("unresolved"), and
    once every axis is resolved or exact, each resolved one is checked
    directly at two samples off its nodes on its line through the focus,
    and one that misses the interpolant by more than _SPECTRAL_TOL of the
    largest |E| component is exact too ("spot-check"); the grid is then
    evaluated again at the samples of its exact axes.  The grid is the barycentric
    interpolant of the nodes, so a node that is a sample (the focus, the
    ends) keeps its bytes.  The manifest records each axis's outcome.
    """
    focus, names = _focus(s), [axis for axis, _ in axes]
    offsets = [o for _, o in axes]
    shape = tuple(o.size for o in offsets)
    grid = _points(focus, names, offsets)
    outcome = [{"axis": axis, "samples": n, "tail": None, "spot_check": None}
               for axis, n in zip(names, shape)]

    def field(points):
        fm = evaluate_field(sources, weights.w, points, wl, kernel=s["kernel"],
                            source_kind=s["source_kind"], threads=stages.threads)
        stages.workers = max(stages.workers, fm.workers)
        stages.counters["field_nodes"] += len(fm)
        stages.counters["kernel_pairs"] += len(fm) * len(sources)
        return fm

    with stages("field"):
        few = len(grid) * len(sources) <= fields._CHUNK_BUDGET
        m = [_intervals(wl.k * o[-1], math.inf, o.size) for o in offsets]
        # the axes that are exact, and why
        exact = {k: "small" for k, n in enumerate(shape) if few or m[k] + 1 >= n}
        if len(exact) < len(axes):
            dist, sums = sources.scan_box(grid.min(axis=0), grid.max(axis=0),
                                          ["xyz".index(axis) for axis in names])
            if dist < 0.25 * wl.lam:
                exact.update((k, "standoff") for k in range(len(axes)) if k not in exact)
            else:
                # each axis's ends are its focal sum's foci, 2h apart
                m = [_intervals(wl.k * o[-1], max(1.0, r / (2.0 * o[-1])), o.size)
                     for o, r in zip(offsets, sums)]
                exact.update((k, "small") for k, n in enumerate(shape) if m[k] + 1 >= n)
        while True:
            nodes = [o if k in exact else o[-1] * _lobatto(m[k]) for k, o in enumerate(offsets)]
            fm = field(_points(focus, names, nodes))
            values = fm.E.reshape(tuple(n.size for n in nodes) + (3,))
            near = fm.near_singular.reshape(values.shape[:-1])
            lobatto = [k for k in range(len(axes)) if k not in exact]
            for k in lobatto:
                outcome[k]["tail"] = _tail(values, k)
                if outcome[k]["tail"] > _SPECTRAL_TOL:
                    exact[k] = "unresolved"
            if any(k in exact for k in lobatto):
                continue
            if not lobatto:
                break
            # every axis is resolved or exact: the interpolant, and two
            # direct samples for each resolved axis
            spots = []
            for k in lobatto:
                x, t = offsets[k] / offsets[k][-1], _lobatto(m[k])
                values = _interpolate(values, k, x, t)
                for i in _spots(x, t):
                    at = [n // 2 for n in shape]
                    at[k] = i
                    spots.append(np.ravel_multi_index(at, shape))
            flat = values.reshape(-1, 3)
            direct = field(grid[spots]).E
            miss = np.abs(direct - flat[spots]).max(axis=1)
            peak = max(np.abs(flat).max(), np.abs(direct).max())
            for n, k in enumerate(lobatto):
                err = miss[2 * n:2 * n + 2].max()
                outcome[k]["spot_check"] = float(err / peak) if peak > 0.0 else 0.0
                if outcome[k]["spot_check"] > _SPECTRAL_TOL:
                    exact[k] = "spot-check"
            if all(k not in exact for k in lobatto):
                near = np.zeros(shape, dtype=bool)
                break
    for k, record in enumerate(outcome):
        record.update(nodes=int(nodes[k].size), exact=exact.get(k))
    stages.grids.append(outcome)
    fm = FieldMap(grid, values.reshape(-1, 3), near.reshape(-1), stages.workers)
    stages.counters["points"] += len(fm)
    stages.counters["near_singular_points"] += int(np.count_nonzero(fm.near_singular))
    return fm


def _peak_rss_mb():
    """The peak resident memory of this process so far, in MB (2^20 bytes),
    or None where the resource module does not exist."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _write(name: str, content: dict, stages: _Stages) -> None:
    """One artifact in the output directory, the named columns of a CSV
    file or a JSON document, as its own stage; the record lists it once
    it is written."""
    path = stages.outdir / name
    with stages("write " + name):
        if path.suffix == ".csv":
            write_csv(path, content)
        else:
            _write_json(path, content)
    stages.artifacts.append(name)


def _field_columns(fm: FieldMap) -> dict:
    """Point coordinates, then the real and imaginary part of each E component."""
    columns = {axis: fm.points[:, i] for i, axis in enumerate("xyz")}
    for i, axis in enumerate("xyz"):
        columns["re_e" + axis] = fm.E[:, i].real
        columns["im_e" + axis] = fm.E[:, i].imag
    return columns


def _cut(s: dict, sources, weights, axis: str, component: str, wl: Wavelength,
         stages: _Stages) -> tuple:
    """The field on the cut through the focus along axis, written to
    cut.csv: the offsets, the field map and |E_component| on the cut."""
    offsets = _offsets(s["cut_half_span_m"], s["cut_step_m"])
    fm = _evaluate(s, sources, weights, [(axis, offsets)], wl, stages)
    _write("cut.csv", {"offset_m": offsets, **_field_columns(fm)}, stages)
    return offsets, fm, np.abs(fm.component(component))


def _curve(s: dict, offsets: np.ndarray, wl: Wavelength, stages: _Stages) -> np.ndarray:
    """The reference's closed-form profile over the cut offsets, also
    written to curve.csv."""
    with stages("reference"):
        values = analytic.resolution_profiles(s["analytic_reference"],
                                              np.abs(offsets) / wl.lam, _geometry_spec(s))
    _write("curve.csv", {"offset_wl": offsets / wl.lam, "value": values}, stages)
    return values


# ---------------------------------------------------------------------------
# subcommands

# Each subcommand takes the resolved scenario, the wavelength and the
# subcommand's record, which holds the output directory and --threads and
# gathers the artifacts and field workers, and returns its exit code and
# its own entries for the manifest, of which "report" goes to stdout
# instead.

def _cmd_run(s: dict, wl: Wavelength, stages: _Stages) -> tuple[int, dict]:
    """Weights, the field on the scenario's grid, and its metrics."""
    sources = _aperture(s, wl, stages)
    # the channel is freed as soon as the weights are solved
    weights, report = _solve_weights(
        s, _channel(s, sources, _AXIS_UNIT[s["target_polarization"]], wl, stages), stages)

    w = weights.w
    _write("weights.csv", Table(
        ("index", "amplitude_a", "phase_rad"), w.size,
        lambda a, b: (np.arange(a, b), np.hypot(w[a:b].real, w[a:b].imag), angle(w[a:b]))),
        stages)
    solved = {"regime": weights.regime, "beta": report.beta,
              "total_power_w": weights.total_power}
    _write("weights.json", {
        **solved, "active_constraint": report.active_constraint,
        "e_focus_re": report.E_focus.real, "e_focus_im": report.E_focus.imag,
        "n_sources": w.size, "method": s["method"]}, stages)

    component = s["target_polarization"]
    metrics_payload: dict = {"component": component, "wavelength_m": wl.lam}
    if s["grid"] == "cut":
        offsets, fm, values = _cut(s, sources, weights, s["cut_axis"], component, wl,
                                   stages)
        metrics_payload["kind"] = "cut"
        metrics_payload["axis"] = s["cut_axis"]
        with stages("metrics"):
            flat, reason = _cut_metrics(offsets, values, wl.lam)
        metrics_payload.update(
            {"metrics": flat} if reason is None else {"skipped_reason": reason})
    else:
        axes = _plane(s)
        fm = _evaluate(s, sources, weights, axes, wl, stages)
        (ax_a, ua), (ax_b, vb) = axes
        _write("fieldmap.csv", _field_columns(fm), stages)
        metrics_payload["kind"] = "plane"
        metrics_payload["plane_axes"] = s["plane_axes"]
        with stages("metrics"):
            mags = np.abs(fm.component(component)).reshape(ua.size, vb.size)
            i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
            metrics_payload["peak"] = float(mags[i, j])
            # the peak's sample relative to the focus, along the plane's two axes
            metrics_payload["peak_offset_a_m"] = float(ua[i])
            metrics_payload["peak_offset_b_m"] = float(vb[j])
            try:
                poly = contour_3db(mags, s[f"focus_{ax_a}_m"] + ua, s[f"focus_{ax_b}_m"] + vb)
                metrics_payload["contour_3db"] = {
                    "n_points": int(len(poly)),
                    "extent_a_m": float(poly[:, 0].max() - poly[:, 0].min()),
                    "extent_b_m": float(poly[:, 1].max() - poly[:, 1].min()),
                }
            except ValueError as e:
                metrics_payload["contour_skipped"] = str(e)

    _write("metrics.json", metrics_payload, stages)
    # the middle sample of either grid, the cut's offset 0 or the plane's
    # centre, is the focal point itself
    gap = abs(fm.component(component)[len(fm) // 2] - report.E_focus)
    P0 = s["power_budget_w"]
    return 0, {"solver": {
        **solved, "clipped_ports": report.clipped_ports, "idle_ports": report.idle_ports,
        "power_residual_rel": (abs(weights.total_power - P0) / P0
                               if report.active_constraint in ("global", "both") else None),
        "focus_gap_rel": gap / abs(report.E_focus) if report.E_focus else None,
    }}


def _normalized(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(values))
    if peak <= 0.0:
        raise ValueError("field cut is identically zero")
    return values / peak


def _cut_metrics(offsets: np.ndarray, values: np.ndarray, lam: float) -> tuple:
    """(the cut's flat metrics, None), or (None, why cut_metrics refused it)."""
    try:
        return metrics_flat_dict(cut_metrics(offsets, values, lam), lam), None
    except ValueError as e:
        return None, str(e)


def _delta(numeric, ana, key: str):
    if numeric is None or ana is None:
        return None
    a, b = numeric.get(key), ana.get(key)
    if a is None or b is None:
        return None
    return a - b


def _reference(s: dict, subcommand: str) -> tuple:
    """The _REFERENCES row of the scenario's analytic_reference, after
    checking what its closed form assumes of the scenario.

    Every closed form integrates over a cylinder wall.  validate also
    compares it with the discrete path, which must then drive axial
    electric elements (not one alone) by the reference's method, focused
    at the origin for a profile or on the axis for a ratio.
    """
    kind = s["analytic_reference"]
    choices = [k for k, (_, axis, _) in _REFERENCES.items()
               if axis is not None or subcommand == "validate"]
    if kind not in choices:
        raise _invalid(f"{subcommand} requires analytic_reference to be one of "
                       f"{choices}, got {kind!r}")
    method, axis, component = _REFERENCES[kind]
    required = {"geometry": ("cylinder",)}
    if subcommand == "validate":
        required.update(source_kind=("electric",), element_polarization=("axial",),
                        aperture=("discrete", "mesh"), method=(method,),
                        focus_x_m=(0.0,), focus_y_m=(0.0,))
        if axis is not None:
            required["focus_z_m"] = (0.0,)
    _require(s, required, f"analytic_reference {kind}")
    return method, axis, component


def _cmd_validate(s: dict, wl: Wavelength, stages: _Stages) -> tuple[int, dict]:
    """A comparison of the numeric path with the scenario's closed-form
    reference; exit code 1 when it fails."""
    method, axis, component = _reference(s, "validate")
    sources = _aperture(s, wl, stages)
    if axis is None:
        # CP compares field amplitudes at equal caps, TR focal intensities at
        # equal budgets; x ** 1 is exact
        p = {"cp": 1, "tr": 2}[method]
        spec, zf = _geometry_spec(s), s["focus_z_m"]
        _, co = _solve_weights(s, _channel(s, sources, _AXIS_UNIT["z"], wl, stages), stages)
        _, cross = _solve_weights(s, _channel(s, sources, _AXIS_UNIT["x"], wl, stages),
                                  stages)
        numeric = abs(co.E_focus) ** p / abs(cross.E_focus) ** p
        with stages("reference"):
            reference = (getattr(analytic, f"ez_{method}_axis")(zf, spec)
                         / getattr(analytic, f"ex_{method}_axis")(zf, spec))
        constant = getattr(analytic, f"{method.upper()}_FIELD_RATIO_LIMIT")
        deviation = float(abs(numeric / reference - 1.0))
        report = {
            "kind": "ratio",
            "definition": RESOLVED_CONVENTIONS[f"co_cross_ratio_{method}"],
            "numeric_ratio": float(numeric),
            "analytic_ratio": float(reference),
            "asymptotic_constant": constant,
            "deviation_rel": deviation,
            "deviation_vs_constant_rel": float(abs(numeric / constant - 1.0)),
            "active_constraints": [co.active_constraint, cross.active_constraint],
        }
    else:
        weights, _ = _solve_weights(
            s, _channel(s, sources, _AXIS_UNIT[component], wl, stages), stages)
        offsets, _, numeric = _cut(s, sources, weights, axis, component, wl, stages)
        ana = _curve(s, offsets, wl, stages)
        with stages("metrics"):
            num_n, ana_n = _normalized(numeric), _normalized(ana)
            lo, hi = main_lobe(num_n)
            deviation = float(np.max(np.abs(num_n[lo:hi + 1] - ana_n[lo:hi + 1])))
            num_metrics = _cut_metrics(offsets, numeric, wl.lam)[0]
            ana_metrics = _cut_metrics(offsets, ana, wl.lam)[0]
        report = {
            "kind": "profile",
            "component": component,
            "axis": axis,
            "wavelength_m": wl.lam,
            "n_samples": int(offsets.size),
            "main_lobe_window_m": [float(offsets[lo]), float(offsets[hi])],
            "main_lobe_linf_rel": deviation,
            "numeric_metrics": num_metrics,
            "analytic_metrics": ana_metrics,
            "metric_deltas": {
                key: _delta(num_metrics, ana_metrics, key)
                for key in ("width_3db_lambda", "first_null_lambda", "sidelobe_ratio")
            },
        }
    passed = deviation <= s["tolerance_rel"]
    report.update(reference=s["analytic_reference"], tolerance_rel=s["tolerance_rel"],
                  passed=passed)
    _write("report.json", report, stages)
    return (0 if passed else 1), {"report": report}


def _cmd_analytic(s: dict, wl: Wavelength, stages: _Stages) -> tuple[int, dict]:
    """The closed-form curve of the scenario's profile reference."""
    _reference(s, "analytic")
    _curve(s, _offsets(s["cut_half_span_m"], s["cut_step_m"]), wl, stages)
    return 0, {}


def _cmd_layout(s: dict, wl: Wavelength, stages: _Stages) -> tuple[int, dict]:
    """The aperture's element or patch table."""
    sources = _aperture(s, wl, stages)
    mesh, axial_dipoles = s["aperture"] == "mesh", sources.polarization == "axial"
    tangents = [st.tangents for st in sources.strips]
    sizes = [np.full((1, len(st)), st.size) for st in sources.strips]

    def rows(a, b):
        """Positions, then perimeter tangents and the axial unit (mesh) or
        current directions, then element sizes, of rows [a, b)."""
        axial = np.broadcast_to(AXIAL[:, None], (3, b - a))
        if mesh:
            directions = [*sources.rows(a, b, tangents), *axial]
        else:
            directions = [*(axial if axial_dipoles else sources.rows(a, b, tangents))]
        return [*sources.positions(a, b), *directions, sources.rows(a, b, sizes)[0]]

    names = [prefix + axis for prefix in (("", "tphi_", "tz_") if mesh else ("", "p"))
             for axis in "xyz"]
    names.append("area_m2" if mesh else "length_m")
    _write("layout.csv", Table(tuple(names), len(sources), rows), stages)
    return 0, {}


# subcommand -> (help, command)
_COMMANDS = {
    "run": ("compute weights and fields, write CSV/JSON artifacts", _cmd_run),
    "validate": ("compare the numeric path against a closed-form reference", _cmd_validate),
    "analytic": ("emit a closed-form curve only", _cmd_analytic),
    "layout": ("emit the aperture geometry only", _cmd_layout),
}


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first main call and kept for
    the process: parsing changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="nearfocus",
        description="Near-field focusing scenarios: weights, fields, metrics, "
                    "closed-form references.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (blurb, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--scenario", help="scenario JSON file "
                                          "(env NEARFOCUS_SCENARIO)")
        p.add_argument("--out", help="artifact directory (env NEARFOCUS_OUT, "
                                     "default nearfocus-out)")
        p.add_argument("--threads", help="parallelism over grid points "
                                         "(env NEARFOCUS_THREADS, default 1)")
    return parser


def _setting(cli_value, env_name: str, default):
    if cli_value is not None:
        return cli_value
    env_value = os.environ.get(env_name)
    if env_value is not None and env_value != "":
        return env_value
    return default


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        scenario_path = _setting(args.scenario, "NEARFOCUS_SCENARIO", None)
        if scenario_path is None:
            raise ScenarioError("usage", "a scenario is required: pass --scenario "
                                         "or set NEARFOCUS_SCENARIO")
        outdir = Path(_setting(args.out, "NEARFOCUS_OUT", "nearfocus-out"))
        raw = _setting(args.threads, "NEARFOCUS_THREADS", 1)
        try:
            threads = int(raw)
        except ValueError:
            raise ScenarioError("usage", f"--threads must be an integer, got {raw!r}")
        if threads < 1:
            raise ScenarioError("usage", "--threads must be at least 1")

        scenario, filled = load_scenario(scenario_path)
        wl = Wavelength.from_frequency(scenario["frequency_hz"])
        outdir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest would describe files this run rewrites
        (outdir / "manifest.json").unlink(missing_ok=True)

        stages = _Stages(outdir, threads)
        code, entries = _COMMANDS[args.subcommand][1](scenario, wl, stages)
        report = entries.pop("report", None)

        manifest = {
            "tool": "nearfocus",
            "version": __version__,
            "subcommand": args.subcommand,
            "scenario_file": str(scenario_path),
            "scenario": scenario,
            "defaults_filled": filled,
            "derived": {"wavelength_m": wl.lam, "wavenumber_rad_per_m": wl.k},
            "threads": threads,
            "resolved_conventions": RESOLVED_CONVENTIONS,
            "wall_time_s": time.perf_counter() - started,
            "peak_rss_mb": _peak_rss_mb(),
            **stages.manifest_entries(),
            **entries,
        }
        _write_json(outdir / "manifest.json", manifest)

        summary = {"status": "ok" if code == 0 else "failed",
                   "subcommand": args.subcommand,
                   "out": str(outdir),
                   "artifacts": manifest["artifacts"]}
        if report is not None:
            summary["report"] = report
        print(json.dumps(summary, sort_keys=True))
        return code
    except (ScenarioError, MemoryError, OSError, ValueError, TypeError, OverflowError) as e:
        # geometry.build_* (from the element counts) or numpy refuse a problem
        # too large before touching memory; load_scenario has already made
        # its own read errors scenario-unreadable, so an OSError here is the
        # output directory or an artifact in it
        code = (e.code if isinstance(e, ScenarioError)
                else "out-of-memory" if isinstance(e, MemoryError)
                else "output-unwritable" if isinstance(e, OSError) else "run-failed")
        print(json.dumps({"error": {"code": code, "message": str(e)}}, sort_keys=True))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
