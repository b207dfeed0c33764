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

Every artifact lands in the output directory: CSV files are written
with 17 significant digits and '\\n' line endings so reruns of the same
scenario are byte-identical, and manifest.json records the fully
resolved scenario (defaults included), the conventions the numbers rest
on, tool version, the requested threads and the field workers that ran,
wall-clock time, the process's peak resident memory so far (null where
the resource module does not exist) and, for run, the solver's
diagnostics (regime, level, power, clipped and idle ports, power
residual) and the relative gap between the focal field the solver
predicts and the one evaluated at the focus.

Exit codes: 0 success (for validate: comparison passed), 1 validate
comparison failed, 2 usage or scenario errors, or a problem too large
to allocate.  Errors print one machine-readable JSON object to stdout.
"""

from __future__ import annotations

import argparse
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

from . import __version__, analytic
from .csvio import angle, write_csv
from .fields import (
    ChannelVector,
    FieldMap,
    assemble_channel,
    evaluate_field,
    green_electric,
    green_magnetic,
    project,
)
from .focusing import (
    PowerConstraints,
    cp_weights,
    hybrid_weights,
    solver_diagnostics,
    tr_weights,
    weights_sidecar,
)
from .geometry import (
    AXIAL,
    Aperture,
    CylinderSpec,
    RectCorridorSpec,
    Strip,
    Wavelength,
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
    value = float(value)
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
    except json.JSONDecodeError as e:
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
            s[key] = value(s, wl)

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
    for key in ("cut_step_m", "plane_step_m"):
        if s[key] > step_cap * (1.0 + 1e-9):
            raise _invalid(f"{key} exceeds wavelength/16 = {step_cap}")

    return s, sorted(set(_SCHEMA) - set(raw))


# ---------------------------------------------------------------------------
# builders shared by the subcommands

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


def _aperture(s: dict, wl: Wavelength) -> Aperture:
    spec, polarization = _geometry_spec(s), s["element_polarization"]
    if s["aperture"] == "single":
        return _single_layout(s)
    if s["aperture"] == "discrete":
        return build_ring_array(spec, wl, polarization=polarization,
                                dipole_length=s["dipole_length_m"])
    if s["geometry"] == "cylinder":
        return build_cylinder_mesh(spec, s["mesh_axial_n"], s["mesh_azimuthal_n"], wl,
                                   polarization)
    return build_rect_corridor_mesh(spec, s["patch_target_m"], wl, polarization)


def _focus(s: dict) -> np.ndarray:
    return np.array([s["focus_x_m"], s["focus_y_m"], s["focus_z_m"]])


def _channel(s: dict, sources: Aperture, e_hat: np.ndarray,
             wl: Wavelength) -> ChannelVector:
    focal = _focus(s)
    if len(sources) == 1:
        # the general assembler requires the focus inside the source hull,
        # which a one-element aperture cannot provide
        position, moment = sources.positions(0, 1)[:, 0], sources.moments(0, 1)[:, 0]
        distance = float(np.linalg.norm(focal - position))
        if distance < 0.25 * wl.lam:
            raise _invalid("focal point is inside the quarter-wavelength standoff "
                           "of the single element")
        if s["source_kind"] == "electric":
            tensor = green_electric(focal, position, wl, s["kernel"])
        else:
            tensor = green_magnetic(focal, position, wl)
        field = (tensor @ moment.astype(complex)).reshape(1, 3)
        return ChannelVector(project(field, e_hat), np.ones(1))
    return assemble_channel(sources, focal, e_hat, wl, kernel=s["kernel"],
                            source_kind=s["source_kind"])


def _constraints(s: dict) -> PowerConstraints:
    return PowerConstraints(w_max=s["amplitude_cap_a"], P0=s["power_budget_w"],
                            R0_per_port=s["port_resistance_ohm"])


def _solve_weights(s: dict, h: ChannelVector):
    pc = _constraints(s)
    if s["method"] == "cp":
        return cp_weights(h, pc)
    if s["method"] == "tr":
        return tr_weights(h, pc)
    return hybrid_weights(h, pc)


def _cut_offsets(s: dict) -> np.ndarray:
    step = s["cut_step_m"]
    n = max(1, int(round(s["cut_half_span_m"] / step)))
    return np.arange(-n, n + 1) * step


def _cut_points(s: dict, axis: str, offsets: np.ndarray) -> np.ndarray:
    return _focus(s)[None, :] + offsets[:, None] * _AXIS_UNIT[axis][None, :]


def _plane_grid(s: dict):
    step = s["plane_step_m"]
    na = max(1, int(round(s["plane_half_span_a_m"] / step)))
    nb = max(1, int(round(s["plane_half_span_b_m"] / step)))
    ua = np.arange(-na, na + 1) * step
    vb = np.arange(-nb, nb + 1) * step
    ax_a, ax_b = s["plane_axes"]
    U, V = np.meshgrid(ua, vb, indexing="ij")
    points = (_focus(s)[None, :]
              + U.reshape(-1, 1) * _AXIS_UNIT[ax_a][None, :]
              + V.reshape(-1, 1) * _AXIS_UNIT[ax_b][None, :])
    return points, (ua.size, vb.size)


def _evaluate(s: dict, sources, weights, points: np.ndarray, wl: Wavelength,
              threads: int) -> FieldMap:
    return evaluate_field(sources, weights, points, wl, kernel=s["kernel"],
                          source_kind=s["source_kind"], threads=threads)


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


def _xyz(prefix: str, vectors: np.ndarray) -> dict:
    """The x, y and z columns of (N, 3) vectors, named prefix + axis, as views."""
    return {prefix + axis: vectors[:, i] for i, axis in enumerate("xyz")}


def _field_columns(fm: FieldMap) -> dict:
    """Point coordinates, then the real and imaginary part of each E component."""
    columns = _xyz("", fm.points)
    for i, axis in enumerate("xyz"):
        columns["re_e" + axis] = fm.E[:, i].real
        columns["im_e" + axis] = fm.E[:, i].imag
    return columns


def _write_cut(path: Path, offsets: np.ndarray, fm: FieldMap) -> None:
    write_csv(path, {"offset_m": offsets, **_field_columns(fm)})


def _curve(s: dict, outdir: Path, offsets: np.ndarray, wl: Wavelength) -> np.ndarray:
    """The reference's closed-form profile over the cut offsets, also
    written to curve.csv."""
    values = analytic.resolution_profiles(s["analytic_reference"],
                                          np.abs(offsets) / wl.lam, _geometry_spec(s))
    write_csv(outdir / "curve.csv", {"offset_wl": offsets / wl.lam, "value": values})
    return values


# ---------------------------------------------------------------------------
# subcommands

# Each subcommand takes the resolved scenario, the output directory, the
# wavelength and --threads, and returns its artifacts, its exit code and
# its entries for the manifest, of which "report" goes to stdout instead.

def _cmd_run(s: dict, outdir: Path, wl: Wavelength, threads: int) -> tuple[list, int, dict]:
    """Weights, the field on the scenario's grid, and its metrics."""
    sources = _aperture(s, wl)
    # the channel is freed as soon as the weights are solved
    weights, report = _solve_weights(
        s, _channel(s, sources, _AXIS_UNIT[s["target_polarization"]], wl))

    w = weights.w
    write_csv(outdir / "weights.csv", {"index": np.arange(w.size),
                                       "amplitude_a": np.hypot(w.real, w.imag),
                                       "phase_rad": angle(w)})
    sidecar = weights_sidecar(weights, report)
    sidecar["n_sources"] = len(weights.w)
    sidecar["method"] = s["method"]
    _write_json(outdir / "weights.json", sidecar)
    artifacts = ["weights.csv", "weights.json"]

    metrics_payload: dict = {"component": s["target_polarization"],
                             "wavelength_m": wl.lam}
    if s["grid"] == "cut":
        offsets = _cut_offsets(s)
        fm = _evaluate(s, sources, weights, _cut_points(s, s["cut_axis"], offsets),
                       wl, threads)
        _write_cut(outdir / "cut.csv", offsets, fm)
        artifacts.append("cut.csv")
        metrics_payload["kind"] = "cut"
        metrics_payload["axis"] = s["cut_axis"]
        values = np.abs(fm.component(s["target_polarization"]))
        try:
            m = cut_metrics((offsets, values), wl.lam)
            metrics_payload["metrics"] = metrics_flat_dict(m, wl.lam)
        except ValueError as e:
            metrics_payload["skipped_reason"] = str(e)
    else:
        points, shape = _plane_grid(s)
        fm = _evaluate(s, sources, weights, points, wl, threads)
        write_csv(outdir / "fieldmap.csv", _field_columns(fm))
        artifacts.append("fieldmap.csv")
        metrics_payload["kind"] = "plane"
        metrics_payload["plane_axes"] = s["plane_axes"]
        metrics_payload["peak"] = float(np.abs(fm.component(s["target_polarization"])).max())
        try:
            poly = contour_3db(fm, s["target_polarization"], shape)
            metrics_payload["contour_3db"] = {
                "n_points": int(len(poly)),
                "extent_a_m": float(poly[:, 0].max() - poly[:, 0].min()),
                "extent_b_m": float(poly[:, 1].max() - poly[:, 1].min()),
            }
        except ValueError as e:
            metrics_payload["contour_skipped"] = str(e)

    _write_json(outdir / "metrics.json", metrics_payload)
    artifacts.append("metrics.json")
    diagnostics = solver_diagnostics(weights, report, _constraints(s))
    # the middle sample of either grid, the cut's offset 0 or the plane's
    # centre, is the focal point itself
    gap = abs(fm.component(s["target_polarization"])[len(fm) // 2] - report.E_focus)
    diagnostics["focus_gap_rel"] = gap / abs(report.E_focus) if report.E_focus else None
    return artifacts, 0, {"solver": diagnostics, "workers": fm.workers}


def _normalized(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(values))
    if peak <= 0.0:
        raise ScenarioError("run-failed", "field cut is identically zero")
    return values / peak


def _metrics_or_none(offsets: np.ndarray, values: np.ndarray, lam: float):
    try:
        return metrics_flat_dict(cut_metrics((offsets, values), lam), lam)
    except ValueError:
        return None


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


def _cmd_validate(s: dict, outdir: Path, wl: Wavelength,
                  threads: int) -> tuple[list, int, dict]:
    """A comparison of the numeric path with the scenario's closed-form
    reference; exit code 1 when it fails."""
    method, axis, component = _reference(s, "validate")
    sources = _aperture(s, wl)
    if axis is None:
        # CP compares field amplitudes at equal caps, TR focal intensities at
        # equal budgets; x ** 1 is exact
        p = {"cp": 1, "tr": 2}[method]
        spec, zf = _geometry_spec(s), s["focus_z_m"]
        _, co = _solve_weights(s, _channel(s, sources, _AXIS_UNIT["z"], wl))
        _, cross = _solve_weights(s, _channel(s, sources, _AXIS_UNIT["x"], wl))
        numeric = abs(co.E_focus) ** p / abs(cross.E_focus) ** p
        reference = (getattr(analytic, f"ez_{method}_axis")(zf, spec)
                     / getattr(analytic, f"ex_{method}_axis")(zf, spec))
        constant = getattr(analytic, f"{method.upper()}_FIELD_RATIO_LIMIT")
        deviation = float(abs(numeric / reference - 1.0))
        artifacts, entries = [], {}
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
        weights, _ = _solve_weights(s, _channel(s, sources, _AXIS_UNIT[component], wl))
        offsets = _cut_offsets(s)
        fm = _evaluate(s, sources, weights, _cut_points(s, axis, offsets), wl, threads)
        _write_cut(outdir / "cut.csv", offsets, fm)
        numeric = np.abs(fm.component(component))
        ana = _curve(s, outdir, offsets, wl)
        num_n, ana_n = _normalized(numeric), _normalized(ana)
        lo, hi = main_lobe(num_n)
        deviation = float(np.max(np.abs(num_n[lo:hi + 1] - ana_n[lo:hi + 1])))
        num_metrics = _metrics_or_none(offsets, numeric, wl.lam)
        ana_metrics = _metrics_or_none(offsets, ana, wl.lam)
        artifacts, entries = ["cut.csv", "curve.csv"], {"workers": fm.workers}
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
    _write_json(outdir / "report.json", report)
    return artifacts + ["report.json"], (0 if passed else 1), dict(entries, report=report)


def _cmd_analytic(s: dict, outdir: Path, wl: Wavelength,
                  threads: int) -> tuple[list, int, dict]:
    """The closed-form curve of the scenario's profile reference."""
    _reference(s, "analytic")
    _curve(s, outdir, _cut_offsets(s), wl)
    return ["curve.csv"], 0, {}


def _cmd_layout(s: dict, outdir: Path, wl: Wavelength,
                threads: int) -> tuple[list, int, dict]:
    """The aperture's element or patch table."""
    sources = _aperture(s, wl)
    strips, n = sources.strips, len(sources)
    # the only full-length copy of the rows, as (3, N) columns: positions,
    # perimeter tangents, current directions and element sizes
    tangents = sources.rows(0, n, [st.tangents for st in strips])
    axial = np.broadcast_to(AXIAL[:, None], (3, n))
    sizes = sources.rows(0, n, [np.array([[st.size]]) for st in strips])[0]
    columns = _xyz("", sources.positions(0, n).T)
    if s["aperture"] == "mesh":
        columns.update({**_xyz("tphi_", tangents.T), **_xyz("tz_", axial.T),
                        "area_m2": sizes})
    else:
        direction = axial if sources.polarization == "axial" else tangents
        columns.update({**_xyz("p", direction.T), "length_m": sizes})
    write_csv(outdir / "layout.csv", columns)
    return ["layout.csv"], 0, {}


# subcommand -> (help, command)
_COMMANDS = {
    "run": ("compute weights and fields, write CSV/JSON artifacts", _cmd_run),
    "validate": ("compare the numeric path against a closed-form reference", _cmd_validate),
    "analytic": ("emit a closed-form curve only", _cmd_analytic),
    "layout": ("emit the aperture geometry only", _cmd_layout),
}


# ---------------------------------------------------------------------------
# entry point

def _parse_args(argv):
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
    return parser.parse_args(argv)


def _setting(cli_value, env_name: str, default):
    if cli_value is not None:
        return cli_value
    env_value = os.environ.get(env_name)
    if env_value is not None and env_value != "":
        return env_value
    return default


def _int_setting(cli_value, env_name: str, default, minimum: int, label: str):
    raw = _setting(cli_value, env_name, default)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ScenarioError("usage", f"{label} must be an integer, got {raw!r}")
    if value < minimum:
        raise ScenarioError("usage", f"{label} must be at least {minimum}")
    return value


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    try:
        scenario_path = _setting(args.scenario, "NEARFOCUS_SCENARIO", None)
        if scenario_path is None:
            raise ScenarioError("usage", "a scenario is required: pass --scenario "
                                         "or set NEARFOCUS_SCENARIO")
        outdir = Path(_setting(args.out, "NEARFOCUS_OUT", "nearfocus-out"))
        threads = _int_setting(args.threads, "NEARFOCUS_THREADS", 1, 1, "--threads")

        scenario, filled = load_scenario(scenario_path)
        wl = Wavelength.from_frequency(scenario["frequency_hz"])
        outdir.mkdir(parents=True, exist_ok=True)

        command = _COMMANDS[args.subcommand][1]
        artifacts, code, entries = command(scenario, outdir, wl, threads)
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
            # the field workers that ran: at most the usable CPUs, and 0
            # when no field was evaluated
            "workers": 0,
            "resolved_conventions": RESOLVED_CONVENTIONS,
            "artifacts": sorted(artifacts + ["manifest.json"]),
            "wall_time_s": time.perf_counter() - started,
            "peak_rss_mb": _peak_rss_mb(),
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
    except ScenarioError as e:
        print(json.dumps({"error": {"code": e.code, "message": str(e)}},
                         sort_keys=True))
        return 2
    except (ValueError, TypeError) as e:
        print(json.dumps({"error": {"code": "run-failed", "message": str(e)}},
                         sort_keys=True))
        return 2
    except MemoryError as e:
        # geometry.build_* (from the element counts), or numpy, refuse a
        # problem larger than the machine before touching memory
        print(json.dumps({"error": {"code": "out-of-memory", "message": str(e)}},
                         sort_keys=True))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
