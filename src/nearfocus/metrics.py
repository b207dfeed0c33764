"""Focal-spot quality metrics extracted from sampled field cuts and planar maps.

Cut metrics work on magnitudes: the peak is refined by parabolic
interpolation, the 3-dB width by linear interpolation of the
1/sqrt(2)-amplitude crossings, nulls are local minima below 1% of the
peak, and the sidelobe ratio compares the largest local maximum outside
the main lobe against the peak.  The main lobe is the region between the
first local minima flanking the peak, which keeps sidelobe ratios defined
for cuts whose lows never reach zero.  Missing features (no crossing, no
null, no sidelobe) are reported as ``None``, not as failures.

The 3-dB contour of a planar map is the marching-squares loop that bounds
the peak's own region, followed cell by cell from a crossed edge on the
peak's row; loops around holes in that region are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldMap

__all__ = [
    "CutMetrics",
    "cut_metrics",
    "main_lobe",
    "metrics_flat_dict",
    "contour_3db",
]

MIN_SAMPLES = 32
MAX_SPACING_WL = 1.0 / 64.0
NULL_FLOOR = 0.01  # local minima below this fraction of the peak count as nulls


@dataclass(frozen=True)
class CutMetrics:
    """Metrics of one 1D field cut.  Lengths are in meters."""

    peak_value: float
    peak_offset: float
    width_3db: float | None
    first_null: float | None
    max_sidelobe_ratio: float | None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak_value) and self.peak_value >= 0.0):
            raise ValueError("peak_value must be finite and non-negative")
        if self.width_3db is not None and not self.width_3db > 0.0:
            raise ValueError("width_3db must be positive when present")
        if self.max_sidelobe_ratio is not None and not 0.0 <= self.max_sidelobe_ratio < 1.0:
            raise ValueError("max_sidelobe_ratio must lie in [0, 1)")


def metrics_flat_dict(metrics: CutMetrics, wavelength_m: float) -> dict:
    """Flat JSON-ready dictionary; lengths reported in meters and wavelengths."""
    if not wavelength_m > 0.0:
        raise ValueError("wavelength must be positive")

    def in_wl(value):
        return None if value is None else value / wavelength_m

    return {
        "peak": metrics.peak_value,
        "peak_offset_m": metrics.peak_offset,
        "width_3db_m": metrics.width_3db,
        "width_3db_lambda": in_wl(metrics.width_3db),
        "first_null_m": metrics.first_null,
        "first_null_lambda": in_wl(metrics.first_null),
        "sidelobe_ratio": metrics.max_sidelobe_ratio,
    }


def _unpack_cut(profile) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(profile, (tuple, list)) and len(profile) == 2):
        raise TypeError("profile must be an (offsets, values) pair")
    offsets, values = profile
    offsets = np.asarray(offsets, dtype=float)
    values = np.abs(np.asarray(values))
    if offsets.ndim != 1 or offsets.shape != values.shape:
        raise ValueError("offsets and values must be 1D arrays of equal length")
    if not (np.isfinite(offsets).all() and np.isfinite(values).all()):
        raise ValueError("cut samples must be finite")
    if not (np.diff(offsets) > 0.0).all():
        raise ValueError("offsets must be strictly increasing")
    return offsets, values


def _parabolic_peak(x: np.ndarray, v: np.ndarray, i: int) -> tuple[float, float]:
    # Exact quadratic through the peak sample and its neighbors; falls back to
    # the sample when the triple is not strictly concave.
    c2, c1, c0 = np.polyfit(x[i - 1:i + 2] - x[i], v[i - 1:i + 2], 2)
    if not c2 < 0.0:
        return float(v[i]), float(x[i])
    du = -c1 / (2.0 * c2)
    half = max(x[i] - x[i - 1], x[i + 1] - x[i])
    if abs(du) > half:
        return float(v[i]), float(x[i])
    return float(c0 - c1 * c1 / (4.0 * c2)), float(x[i] + du)


def _crossing(x, v, target, start, step):
    # First linear-interpolated crossing of `target` walking from `start`.
    j = start
    while 0 <= j + step < len(v):
        a, b = v[j], v[j + step]
        if (a - target) * (b - target) <= 0.0 and a != b:
            t = (target - a) / (b - a)
            return float(x[j] + t * (x[j + step] - x[j]))
        j += step
    return None


def _local_minima(v: np.ndarray) -> list[int]:
    return [
        j for j in range(1, len(v) - 1)
        if v[j] <= v[j - 1] and v[j] <= v[j + 1] and (v[j] < v[j - 1] or v[j] < v[j + 1])
    ]


def main_lobe(values: np.ndarray) -> tuple[int, int]:
    """Sample indices of the local minima that flank the largest sample, or
    the ends of the cut on a side where no minimum flanks it."""
    i = int(np.argmax(values))
    minima = _local_minima(values)
    return (max((j for j in minima if j < i), default=0),
            min((j for j in minima if j > i), default=len(values) - 1))


def cut_metrics(profile, wavelength_m: float) -> CutMetrics:
    """Extract peak, 3-dB width, first null, and sidelobe ratio from one cut."""
    if not wavelength_m > 0.0:
        raise ValueError("wavelength must be positive")
    x, v = _unpack_cut(profile)
    if len(v) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(v)}")
    spacing = float(np.diff(x).max())
    if spacing > wavelength_m * MAX_SPACING_WL * (1.0 + 1e-9):
        raise ValueError(
            f"sample spacing {spacing} exceeds wavelength/64 = {wavelength_m * MAX_SPACING_WL}"
        )

    if v.max() == v.min():
        return CutMetrics(
            peak_value=float(v[0]),
            peak_offset=float(x[len(x) // 2]),
            width_3db=None,
            first_null=None,
            max_sidelobe_ratio=None,
        )

    i = int(np.argmax(v))
    if i in (0, len(v) - 1):
        raise ValueError("peak lies on the cut boundary; the main lobe is not spanned")
    peak_value, peak_offset = _parabolic_peak(x, v, i)

    target = peak_value / math.sqrt(2.0)
    left = _crossing(x, v, target, i, -1)
    right = _crossing(x, v, target, i, +1)
    width = (right - left) if (left is not None and right is not None) else None

    null_candidates = [abs(x[j] - peak_offset) for j in _local_minima(v)
                       if v[j] < NULL_FLOOR * peak_value]
    first_null = float(min(null_candidates)) if null_candidates else None

    # no local maximum lies at either end, so the ends bound nothing
    lo, hi = main_lobe(v)
    lobes = [v[j] for j in _local_minima(-v) if j < lo or j > hi]
    sidelobe = float(max(lobes) / peak_value) if lobes else None

    return CutMetrics(
        peak_value=peak_value,
        peak_offset=peak_offset,
        width_3db=width,
        first_null=first_null,
        max_sidelobe_ratio=sidelobe,
    )


# ---------------------------------------------------------------------------
# 3-dB contour of a planar map

# Cell corners c0=(i,j), c1=(i,j+1), c2=(i+1,j+1), c3=(i+1,j); edges
# T=c0c1, R=c1c2, B=c3c2, L=c0c3.  Entries map the inside-corner bitmask to
# pairs of crossed edges; saddle cases 5 and 10 are resolved at runtime.
_MS_CASES = {
    1: (("T", "L"),), 2: (("T", "R"),), 3: (("L", "R"),), 4: (("R", "B"),),
    6: (("T", "B"),), 7: (("L", "B"),), 8: (("B", "L"),), 9: (("T", "B"),),
    11: (("R", "B"),), 12: (("L", "R"),), 13: (("T", "R"),), 14: (("T", "L"),),
}
# each edge's end corners relative to c0, lower index first
_CORNERS = {"T": ((0, 0), (0, 1)), "R": ((0, 1), (1, 1)),
            "B": ((1, 0), (1, 1)), "L": ((0, 0), (1, 0))}
# leaving a cell through an edge enters the neighbour across it through the
# opposite edge: (row step, column step, entry edge)
_NEXT_CELL = {"T": (-1, 0, "B"), "B": (1, 0, "T"), "L": (0, -1, "R"), "R": (0, 1, "L")}


def _planar_axes(points: np.ndarray) -> tuple[int, int]:
    spans = points.max(axis=0) - points.min(axis=0)
    flat = int(np.argmin(spans))
    if spans[flat] > 1e-9 * max(spans.max(), 1e-30):
        raise ValueError("field map is not a planar cut")
    return tuple(ax for ax in range(3) if ax != flat)


def _point_in_polygon(pt, poly) -> bool:
    u0, v0 = pt
    inside = False
    for k in range(len(poly) - 1):
        u1, v1 = poly[k]
        u2, v2 = poly[k + 1]
        if (v1 > v0) != (v2 > v0):
            ucross = u1 + (v0 - v1) * (u2 - u1) / (v2 - v1)
            if ucross > u0:
                inside = not inside
    return inside


def contour_3db(field_map: FieldMap, component: str, grid_shape: tuple[int, int]) -> np.ndarray:
    """Closed marching-squares polyline of |E_component| = peak / sqrt(2)
    that bounds the peak's own region.

    The map must be a planar, row-major grid of shape ``grid_shape`` with a
    single dominant peak strictly inside it.  The contour is followed cell
    by cell from the first crossed edge on the peak's row towards +j; a
    closed loop that does not contain the peak bounds a hole in the peak's
    region, and the search goes on along the row.  Returns an (M, 2) array
    in the two in-plane coordinates (ascending xyz order), first point
    repeated at the end.
    """
    n1, n2 = grid_shape
    if n1 * n2 != len(field_map):
        raise ValueError("grid_shape does not match the number of map points")
    ax_u, ax_v = _planar_axes(field_map.points)
    mags = np.abs(field_map.component(component)).reshape(n1, n2)
    u = field_map.points[:, ax_u].reshape(n1, n2)
    v = field_map.points[:, ax_v].reshape(n1, n2)

    peak = float(mags.max())
    if peak == 0.0:
        raise ValueError("all-zero field map has no contour")
    pi, pj = np.unravel_index(int(np.argmax(mags)), mags.shape)
    if pi in (0, n1 - 1) or pj in (0, n2 - 1):
        raise ValueError("peak lies on the cut boundary")
    level = peak / math.sqrt(2.0)

    inside = mags > level
    if inside.all():
        raise ValueError("no 3-dB crossing found within the map")

    def edge_point(i, j, edge):
        (a, b), (c, d) = _CORNERS[edge]
        p, q = (i + a, j + b), (i + c, j + d)
        t = (level - mags[p]) / (mags[q] - mags[p])
        return u[p] + t * (u[q] - u[p]), v[p] + t * (v[q] - v[p])

    def cell_pairs(i, j):
        code = (int(inside[i, j]) | (int(inside[i, j + 1]) << 1)
                | (int(inside[i + 1, j + 1]) << 2) | (int(inside[i + 1, j]) << 3))
        if code not in (5, 10):
            return _MS_CASES[code]
        center_inside = 0.25 * (mags[i, j] + mags[i, j + 1]
                                + mags[i + 1, j + 1] + mags[i + 1, j]) > level
        if (code == 5) == center_inside:
            return ("T", "R"), ("B", "L")
        return ("T", "L"), ("R", "B")

    def follow(i0, j0):
        # the loop through the T edge of cell (i0, j0), or None if it leaves the map
        i, j, entry = i0, j0, "T"
        loop = [edge_point(i, j, entry)]
        while True:
            exit_ = next(b if a == entry else a for a, b in cell_pairs(i, j) if entry in (a, b))
            loop.append(edge_point(i, j, exit_))
            di, dj, entry = _NEXT_CELL[exit_]
            i, j = i + di, j + dj
            if (i, j, entry) == (i0, j0, "T"):
                return loop
            if not (0 <= i < n1 - 1 and 0 <= j < n2 - 1):
                return None

    peak_uv = (u[pi, pj], v[pi, pj])
    for j in range(pj, n2 - 1):
        if inside[pi, j] and not inside[pi, j + 1]:
            loop = follow(pi, j)
            if loop is None:
                break
            poly = np.asarray(loop)
            if _point_in_polygon(peak_uv, poly):
                return poly
    raise ValueError("3-dB contour around the peak is not closed within the map")
