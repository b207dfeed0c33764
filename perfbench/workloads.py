"""The benchmark's workloads: nearfocus CLI invocations made from a seed.

A workload is a list of invocations that together make one pass.  The
seed moves only focal points, each inside a stated safe region; problem
sizes (sources, grid points, samples) are the same for every seed.  Seed 0
keeps every focal point at its canonical place, and the values frozen in
``frozen.json`` are taken there.

Profile references stay at the origin, because their closed forms assume
an origin focus.  Ratio references move along the axis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FREQUENCY_HZ = 1.0e9

BASELINE = {"geometry": "cylinder", "radius_m": 1.0, "length_m": 10.0,
            "frequency_hz": FREQUENCY_HZ}

CORRIDOR = {"geometry": "rectangle", "width_m": 12.0, "height_m": 10.5,
            "length_m": 126.0, "frequency_hz": FREQUENCY_HZ, "aperture": "mesh"}

PROFILE_REFERENCES = ("ez_long", "ez_trans", "ex_long", "ex_trans_x", "ex_trans_y")

# Validation outcome of each profile reference at the origin focus, frozen
# at the commit that defined the benchmark.  Four of the five miss the 2 %
# main-lobe tolerance on the 10 m x 1 m cylinder, for the same physical
# reasons the acceptance suite documents, so their expected exit code is 1.
PROFILE_EXIT_CODES = {"ez_long": 1, "ez_trans": 0, "ex_long": 1,
                      "ex_trans_x": 1, "ex_trans_y": 1}

RUN_CUT = ("weights.csv", "weights.json", "cut.csv", "metrics.json", "manifest.json")
RUN_PLANE = ("weights.csv", "weights.json", "fieldmap.csv", "metrics.json",
             "manifest.json")


@dataclass(frozen=True)
class Invocation:
    name: str
    subcommand: str
    scenario: dict
    artifacts: tuple[str, ...]
    expected_code: int = 0


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    threads: int
    invocations: list[Invocation]


class _Placer:
    """Draws focal offsets uniformly inside each scenario's safe box."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed) if seed != 0 else None

    def focus(self, scenario: dict, **half_widths: float) -> dict:
        """Offset focus_<axis>_m by up to +-half_widths[axis] metres."""
        out = dict(scenario)
        for axis in ("x", "y", "z"):
            key = f"focus_{axis}_m"
            base = scenario.get(key, 0.0)
            half = half_widths.get(axis, 0.0)
            out[key] = base if self._rng is None else base + self._rng.uniform(-half, half)
        return out


def ring_plane(seed: int) -> Workload:
    # The 59 x 59 plane spans +-0.135 m around the focus, so a focus within
    # 0.25 m of the axis keeps every point 0.6 m from the ring wall.
    place = _Placer(seed)
    scenario = place.focus(dict(BASELINE, grid="plane"), x=0.25, y=0.25, z=2.0)
    return Workload("ring_plane", 2, [Invocation("run-plane", "run", scenario, RUN_PLANE)])


def corridor_weights(seed: int) -> Workload:
    # The corridor walls are >= 5.25 m from the axis; a focus within 1.5 m
    # of it keeps the 1 cm cut far outside the quarter-wavelength standoff.
    place = _Placer(seed)
    scenario = place.focus(dict(CORRIDOR, method="hybrid", amplitude_cap_a=0.02,
                                power_budget_w=1000.0, cut_half_span_m=0.01),
                           x=1.5, y=1.5, z=20.0)
    return Workload("corridor_weights", 2, [Invocation("run-corridor", "run", scenario, RUN_CUT)])


def scenario_mix(seed: int) -> Workload:
    place = _Placer(seed)
    invs = []
    for ref in PROFILE_REFERENCES:
        invs.append(Invocation(f"validate-{ref}", "validate",
                               dict(BASELINE, analytic_reference=ref),
                               ("cut.csv", "curve.csv", "report.json", "manifest.json"),
                               PROFILE_EXIT_CODES[ref]))
    for ref in ("ratio_cp", "ratio_tr"):
        scenario = place.focus(dict(BASELINE, analytic_reference=ref,
                                    method=ref.split("_")[1]), z=2.0)
        invs.append(Invocation(f"validate-{ref}", "validate", scenario,
                               ("report.json", "manifest.json")))
    for ref in PROFILE_REFERENCES:
        invs.append(Invocation(f"analytic-{ref}", "analytic",
                               dict(BASELINE, analytic_reference=ref,
                                    cut_half_span_m=30.0),
                               ("curve.csv", "manifest.json")))
    # Cuts span +-0.33 m around the focus; the boxes below keep every sample
    # outside the quarter-wavelength standoff of the nearest source.
    invs.append(Invocation("run-magnetic-mesh", "run", place.focus(
        dict(BASELINE, aperture="mesh", source_kind="magnetic",
             element_polarization="azimuthal", method="tr", cut_axis="z"),
        x=0.25, y=0.25, z=2.0), RUN_CUT))
    invs.append(Invocation("run-dipole-approx", "run", place.focus(
        dict(BASELINE, kernel="dipole-approx", method="hybrid", power_budget_w=10.0,
             cut_axis="y"),
        x=0.25, y=0.25, z=2.0), RUN_CUT))
    invs.append(Invocation("run-single", "run", place.focus(
        dict(BASELINE, aperture="single", focus_x_m=0.5),
        x=0.05, y=0.2, z=1.0), RUN_CUT))
    invs.append(Invocation("run-rect-mesh", "run", place.focus(
        {"geometry": "rectangle", "width_m": 2.4, "height_m": 2.1, "length_m": 6.0,
         "frequency_hz": FREQUENCY_HZ, "aperture": "mesh", "method": "hybrid",
         "power_budget_w": 10.0},
        x=0.3, y=0.3, z=1.0), RUN_CUT))
    invs.append(Invocation("layout", "layout", dict(BASELINE),
                           ("layout.csv", "manifest.json")))
    return Workload("scenario_mix", 1, invs)


WORKLOADS = {f.__name__: f for f in (ring_plane, corridor_weights, scenario_mix)}
