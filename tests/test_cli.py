"""Scenario-driven CLI: artifacts, regimes, validation, determinism.

Each test invokes cli.main in-process and reads the JSON summary the
tool prints.  Numeric oracles: the three constraint regimes of the
hybrid solver on the reduced wall mesh, the single-element closed form
min(w_max, sqrt(2*P0/R0)), and the finite-geometry co/cross ratios from
the closed-form axis curves.
"""

import contextlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nearfocus
from nearfocus import analytic, cli
from nearfocus.cli import main as cli_main
from nearfocus.geometry import SPEED_OF_LIGHT
from nearfocus.metrics import contour_3db

LAM = SPEED_OF_LIGHT / 1.0e9

BASE = {
    "geometry": "cylinder",
    "radius_m": 1.0,
    "length_m": 10.0,
    "frequency_hz": 1.0e9,
}

MESH = dict(BASE, aperture="mesh", mesh_axial_n=60, mesh_azimuthal_n=18,
            method="hybrid", power_budget_w=1.0, port_resistance_ohm=50.0)

CORRIDOR = {"geometry": "rectangle", "width_m": 12.0, "height_m": 10.5,
            "length_m": 126.0, "frequency_hz": 1.0e9, "aperture": "mesh"}


# every analytic reference -> the (cut axis, field component) of its report;
# ratio references have no cut
REFERENCE_CUTS = {"ez_long": ("z", "z"), "ez_trans": ("x", "z"), "ex_long": ("z", "x"),
                  "ex_trans_x": ("x", "x"), "ex_trans_y": ("y", "x"),
                  "ratio_cp": None, "ratio_tr": None}
PROFILES = [kind for kind, cut in REFERENCE_CUTS.items() if cut]


def scenario(tmp_path, name="scenario.json", **entries):
    """A scenario file of BASE with entries; entries set to None are left out."""
    path = tmp_path / name
    path.write_text(json.dumps({k: v for k, v in dict(BASE, **entries).items()
                                if v is not None}))
    return str(path)


def run_cli(capsys, *args):
    code = cli_main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


ROOT = Path(__file__).resolve().parents[1]


def load_script(directory, name):
    """<directory>/<name>.py of this checkout, loaded by path: neither
    perfbench nor tools is a package."""
    path = ROOT / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_benchmark(name="tracing"):
    return load_script("perfbench", name)


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    fresh interpreters, which do not see the test process's sys.path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def read_amplitudes(outdir):
    data = np.loadtxt(outdir / "weights.csv", delimiter=",", skiprows=1)
    return data[:, 1]


# any scenario value: numbers at and beyond the float range, -0.0, the
# other JSON types, every enumerated value and other strings
SCENARIO_VALUES = st.one_of(
    st.sampled_from([10 ** 400, -10 ** 400, 1e308, -1e308, -0.0, 5e-324]),
    st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.sampled_from(sorted({value for kind, _, _ in cli._SCHEMA.values()
                            if isinstance(kind, tuple) for value in kind})),
    st.text(max_size=6))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([{}, BASE, dict(BASE, aperture="mesh"), CORRIDOR]),
       st.dictionaries(st.sampled_from(list(cli._SCHEMA)), SCENARIO_VALUES, max_size=4))
# a value, and a default computed from a value, beyond the float range
@example(BASE, {"radius_m": 10 ** 400})
@example(dict(BASE, aperture="mesh"), {"length_m": 1e308})
def test_load_scenario_resolves_or_refuses(tmp_path, base, entries):
    # every scenario file resolves or raises ScenarioError, which main
    # reports as JSON; any other exception escapes as a traceback
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(base, **entries)))
    try:
        cli.load_scenario(path)
    except cli.ScenarioError:
        pass


class TestRun:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        scn = scenario(tmp_path, **MESH, amplitude_cap_a=0.008)
        out = tmp_path / "out"
        code, summary = run_cli(capsys, "run", "--scenario", scn,
                                "--out", str(out))
        assert code == 0 and summary["status"] == "ok"
        for name in ("weights.csv", "weights.json", "cut.csv",
                     "metrics.json", "manifest.json"):
            assert (out / name).exists()
            assert name in summary["artifacts"]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "nearfocus"
        assert manifest["version"] == nearfocus.__version__
        assert manifest["threads"] == 1
        assert manifest["wall_time_s"] > 0.0
        # every filled default is explicit in the resolved scenario
        assert manifest["defaults_filled"]
        for key in manifest["defaults_filled"]:
            assert key in manifest["scenario"]
        assert manifest["scenario"]["cut_step_m"] == pytest.approx(LAM / 64)
        conv = manifest["resolved_conventions"]
        assert conv["transverse_tr_x_asymptote"] == "41*pi^2/128"
        assert conv["transverse_tr_x_asymptote_value"] == pytest.approx(
            41 * math.pi**2 / 128, rel=1e-15)
        assert "108" in conv["transverse_tr_x_rejected_alternate"]

        sidecar = json.loads((out / "weights.json").read_text())
        assert sidecar["regime"] == "hybrid"
        assert sidecar["n_sources"] == 60 * 18
        assert sidecar["total_power_w"] == pytest.approx(1.0, rel=1e-6)

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["kind"] == "cut" and metrics["component"] == "z"
        assert metrics["metrics"]["peak"] > 0.0
        assert 0.3 < metrics["metrics"]["width_3db_lambda"] < 0.5

    def test_weights_columns_are_formed_in_their_stage(self, tmp_path, capsys, monkeypatch):
        # |w| and the phases are formed block by block inside write_csv, so
        # their time and memory count in the "write weights.csv" stage
        writing, phases = [], []
        write_csv, angle = cli.write_csv, cli.angle

        def traced_write(path, columns):
            writing.append(path.name)
            try:
                write_csv(path, columns)
            finally:
                writing.pop()

        def traced_angle(z):
            phases.append((list(writing), z.size))
            return angle(z)

        monkeypatch.setattr(cli, "write_csv", traced_write)
        monkeypatch.setattr(cli, "angle", traced_angle)
        code, _ = run_cli(capsys, "run", "--scenario", scenario(tmp_path),
                          "--out", str(tmp_path / "out"))
        assert code == 0
        # the ring's 2,814 ports are three blocks of the writer
        assert [size for _, size in phases] == [1365, 1365, 84]
        assert all(open_files == ["weights.csv"] for open_files, _ in phases)

    def test_non_finite_weights_write_no_file(self, tmp_path, capsys, monkeypatch):
        hybrid_weights = cli.hybrid_weights

        def nan_at_the_end(h, pc):
            weights, report = hybrid_weights(h, pc)
            weights.w[-1] = math.nan
            return weights, report

        monkeypatch.setattr(cli, "hybrid_weights", nan_at_the_end)
        out = tmp_path / "out"
        code, payload = run_cli(capsys, "run", "--scenario", scenario(tmp_path, **MESH),
                                "--out", str(out))
        assert code == 2
        assert payload["error"] == {"code": "run-failed",
                                    "message": "non-finite value in CSV output"}
        assert not (out / "weights.csv").exists()

    def test_manifest_peak_rss(self, tmp_path, capsys):
        # the process's peak resident memory so far, recorded in the
        # manifest only
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scenario(tmp_path, **MESH),
                          "--out", str(out))
        assert code == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        # at least the interpreter and numpy, at most the machine
        assert 10.0 < peak < os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
        for name in ("weights.json", "metrics.json"):
            assert "peak_rss_mb" not in (out / name).read_text()

    def test_manifest_stages_and_counters(self, tmp_path, capsys):
        # a cut from the axis to 5 cm off a patch centre, (0, 1, 1/12), whose
        # outer points lie inside the quarter-wavelength standoff: each
        # stage's time and the peak after it, and the counts of the work, in
        # the manifest only
        scn = scenario(tmp_path, **MESH, focus_y_m=0.475, focus_z_m=1 / 12, cut_axis="y",
                       cut_half_span_m=0.475)
        out = tmp_path / "out"
        code, summary = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        assert set(summary) == {"status", "subcommand", "out", "artifacts"}
        manifest = json.loads((out / "manifest.json").read_text())
        # in the order they run; ru_maxrss never falls
        stages = ["aperture", "channel", "solve", "write weights.csv", "write weights.json",
                  "field", "write cut.csv", "metrics", "write metrics.json"]
        timings, peaks = manifest["timings_s"], manifest["stage_peak_rss_mb"]
        assert sorted(timings) == sorted(peaks) == sorted(stages)
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"]
        assert [peaks[k] for k in stages] == sorted(peaks.values())
        assert 10.0 < peaks["aperture"] and peaks["write metrics.json"] <= manifest["peak_rss_mb"]

        points = np.loadtxt(out / "cut.csv", delimiter=",", skiprows=1, usecols=(1, 2, 3))
        code, _ = run_cli(capsys, "layout", "--scenario", scn, "--out", str(tmp_path / "lay"))
        patches = np.loadtxt(tmp_path / "lay" / "layout.csv", delimiter=",", skiprows=1,
                             usecols=(0, 1, 2))
        nearest = np.min(np.linalg.norm(points[:, None] - patches[None], axis=2), axis=1)
        near = int(np.count_nonzero(nearest < 0.25 * LAM))
        assert code == 0 and 0 < near < len(points)
        # the cut comes within the standoff, so the kernel evaluates every sample
        assert manifest["counters"] == {"sources": 60 * 18, "points": len(points),
                                        "field_nodes": len(points),
                                        "kernel_pairs": len(points) * 60 * 18,
                                        "near_singular_points": near}
        assert manifest["field_grids"] == [[{"axis": "y", "samples": len(points),
                                             "nodes": len(points), "tail": None,
                                             "spot_check": None, "exact": "standoff"}]]
        for name in ("weights.json", "metrics.json"):
            text = (out / name).read_text()
            assert all(key not in text for key in ("timings_s", "stage_peak", "counters"))

    def test_manifest_stages_of_every_subcommand(self, tmp_path, capsys):
        # validate and analytic also time their closed-form reference, and
        # layout builds only the aperture
        scn = scenario(tmp_path, **dict(MESH, method="cp", analytic_reference="ez_trans"))
        expected = {
            "validate": {"aperture", "channel", "solve", "field", "write cut.csv",
                         "reference", "write curve.csv", "metrics", "write report.json"},
            "analytic": {"reference", "write curve.csv"},
            "layout": {"aperture", "write layout.csv"},
        }
        for subcommand, stages in expected.items():
            out = tmp_path / subcommand
            code, _ = run_cli(capsys, subcommand, "--scenario", scn, "--out", str(out))
            assert code in (0, 1)
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest["timings_s"]) == set(manifest["stage_peak_rss_mb"]) == stages
            counters = manifest["counters"]
            assert counters["sources"] == (0 if subcommand == "analytic" else 60 * 18)
            assert counters["kernel_pairs"] == counters["field_nodes"] * counters["sources"]
            assert (counters["points"] > 0) == (subcommand == "validate")
            assert (counters["field_nodes"] > 0) == (subcommand == "validate")

    def test_manifest_solver_diagnostics(self, tmp_path, capsys):
        # the cap that clips part of the mesh (hybrid) and one below the
        # all-clipped drive that meets the budget (CP, budget slack)
        solver = {}
        for cap in (0.008, 0.002):
            scn = scenario(tmp_path, f"s{cap}.json", **MESH, amplitude_cap_a=cap)
            out = tmp_path / f"out{cap}"
            code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
            assert code == 0
            solver[cap] = json.loads((out / "manifest.json").read_text())["solver"]
            sidecar = json.loads((out / "weights.json").read_text())
            for key in ("regime", "beta", "total_power_w"):
                assert solver[cap][key] == sidecar[key]
            amplitude = read_amplitudes(out)
            assert solver[cap]["clipped_ports"] == np.count_nonzero(
                amplitude >= cap * (1 - 1e-12))
            assert solver[cap]["idle_ports"] == np.count_nonzero(amplitude == 0.0)

        hybrid, cp = solver[0.008], solver[0.002]
        assert hybrid["regime"] == "hybrid" and hybrid["beta"] > 0.0
        assert 0 < hybrid["clipped_ports"] < 60 * 18
        assert hybrid["idle_ports"] == 0
        assert hybrid["power_residual_rel"] < 1e-9
        assert cp["regime"] == "CP" and cp["beta"] == 0.0
        assert cp["clipped_ports"] == 60 * 18
        # the budget does not bind, so there is no residual to report
        assert cp["power_residual_rel"] is None
        assert cp["total_power_w"] < 1.0

    @pytest.mark.parametrize("entries", [
        dict(element_polarization="azimuthal", target_polarization="x", method="hybrid"),
        dict(kernel="dipole-approx", method="hybrid", cut_axis="y"),
        dict(MESH, source_kind="magnetic", element_polarization="azimuthal", grid="plane",
             plane_half_span_a_m=0.02, plane_half_span_b_m=0.02),
        dict(CORRIDOR, radius_m=None, method="hybrid", power_budget_w=1000.0,
             cut_half_span_m=0.01),
        dict(aperture="single", focus_x_m=0.5, kernel="dipole-approx"),
    ], ids=["azimuthal-ring", "dipole-approx-ring", "magnetic-mesh-plane",
            "full-corridor", "single-dipole-approx"])
    def test_manifest_focus_gap(self, tmp_path, capsys, entries):
        # the solver's predicted focal field and the evaluated one come from
        # the same kernel, so they differ by rounding only
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scenario(tmp_path, **entries),
                          "--out", str(out))
        assert code == 0
        gap = json.loads((out / "manifest.json").read_text())["solver"]["focus_gap_rel"]
        assert 0.0 <= gap <= 1e-12
        for name in ("weights.json", "metrics.json"):
            assert "focus_gap_rel" not in (out / name).read_text()

    def test_regimes_flat_plateau_taper(self, tmp_path, capsys):
        amplitudes = {}
        regimes = {}
        for wm in (0.002, 0.008, 0.02):
            scn = scenario(tmp_path, f"s{wm}.json", **MESH, amplitude_cap_a=wm)
            out = tmp_path / f"out{wm}"
            code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
            assert code == 0
            amplitudes[wm] = read_amplitudes(out)
            regimes[wm] = json.loads((out / "weights.json").read_text())["regime"]

        scn = scenario(tmp_path, "tr.json", **dict(MESH, method="tr"),
                       amplitude_cap_a=0.02)
        out = tmp_path / "out_tr"
        run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        tr_amp = read_amplitudes(out)

        # small cap: flat conjugate-phase profile at the cap
        flat = amplitudes[0.002]
        assert regimes[0.002] == "CP"
        assert flat.max() - flat.min() < 1e-12 * 0.002
        assert flat.max() == pytest.approx(0.002, rel=1e-12)

        # large cap: power-limited taper matching the tr solution
        taper = amplitudes[0.02]
        assert regimes[0.02] == "TR"
        assert taper.max() < 0.02
        assert taper.max() / taper.min() > 1.5
        cos = taper @ tr_amp / (np.linalg.norm(taper) * np.linalg.norm(tr_amp))
        assert cos > 0.999

        # middle cap: clipped plateau, unclipped tail follows the taper shape
        plateau = amplitudes[0.008]
        assert regimes[0.008] == "hybrid"
        clipped = plateau >= 0.008 * (1 - 1e-9)
        assert 0 < clipped.sum() < plateau.size
        tail, tr_tail = plateau[~clipped], tr_amp[~clipped]
        cos_tail = tail @ tr_tail / (np.linalg.norm(tail) * np.linalg.norm(tr_tail))
        assert cos_tail > 0.999

    def test_cross_polarized_weights_bimodal(self, tmp_path, capsys):
        scn = scenario(tmp_path, method="tr", target_polarization="x",
                       port_resistance_ohm=1.0)
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        amp = read_amplitudes(out)
        per_ring = 42
        rings = amp.size // per_ring
        assert rings == 67
        ring_amp = amp.reshape(rings, per_ring).mean(axis=1)
        middle = (rings - 1) // 2  # the ring in the focal plane z=0
        assert ring_amp[middle] < 1e-9 * ring_amp.max()
        below = ring_amp[:middle]
        above = ring_amp[middle + 1:]
        assert below.max() > 1e6 * ring_amp[middle] or ring_amp[middle] == 0.0
        # two symmetric humps away from the focal plane
        assert np.argmax(below) < middle - 1
        assert np.argmax(above) > 0
        assert below.max() == pytest.approx(above.max(), rel=1e-9)

    def test_single_element_amplitude(self, tmp_path, capsys):
        cases = [
            ("cp", 0.5, 0.2), ("hybrid", 0.5, 0.2), ("tr", 0.5, 0.2),
            ("cp", 0.01, 0.01), ("hybrid", 0.01, 0.01),
        ]
        for method, cap, expect in cases:
            scn = scenario(tmp_path, f"{method}{cap}.json", aperture="single",
                           method=method, amplitude_cap_a=cap,
                           power_budget_w=1.0, port_resistance_ohm=50.0)
            out = tmp_path / f"out_{method}_{cap}"
            code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
            assert code == 0
            amp = np.atleast_2d(np.loadtxt(out / "weights.csv", delimiter=",",
                                           skiprows=1))[:, 1]
            assert amp.shape == (1,)
            assert amp[0] == pytest.approx(expect, rel=1e-12), (method, cap)
            assert expect == pytest.approx(
                min(cap, math.sqrt(2 * 1.0 / 50.0)), rel=1e-12)

    def test_plane_grid_contour(self, tmp_path, capsys):
        scn = scenario(tmp_path, aperture="discrete", method="cp",
                       amplitude_cap_a=0.002, port_resistance_ohm=1.0,
                       grid="plane", plane_axes="yz")
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        assert (out / "fieldmap.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["kind"] == "plane"
        # the focal spot of axial rings is centred on the focus
        assert metrics["peak_offset_a_m"] == metrics["peak_offset_b_m"] == 0.0
        contour = metrics["contour_3db"]
        assert contour["n_points"] > 8
        # transverse extent tracks the isotropic-kernel width, the
        # longitudinal extent carries the finite-length stretch
        assert contour["extent_a_m"] / LAM == pytest.approx(0.443, abs=0.02)
        assert contour["extent_b_m"] / LAM == pytest.approx(0.452, abs=0.02)
        assert contour["extent_b_m"] > contour["extent_a_m"]

    def test_plane_records_an_off_focus_peak(self, tmp_path, capsys):
        # E_z of azimuthal rings: the spot sits off the focus, and its 3-dB
        # region reaches the edge of the default plane, so the contour is
        # skipped and the peak's offsets are what locate it
        scn = scenario(tmp_path, aperture="discrete", method="cp",
                       amplitude_cap_a=0.002, port_resistance_ohm=1.0,
                       element_polarization="azimuthal", target_polarization="z",
                       focus_x_m=0.1, focus_y_m=0.05, focus_z_m=0.5,
                       grid="plane", plane_axes="yz")
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "not closed" in metrics["contour_skipped"]
        a, b = metrics["peak_offset_a_m"], metrics["peak_offset_b_m"]
        # measured 9 samples of wavelength/64 along y and 0 along z
        assert a / LAM == pytest.approx(0.15, abs=0.02)
        assert abs(b) <= LAM / 64
        # the offsets name the fieldmap row that holds the peak
        rows = np.loadtxt(out / "fieldmap.csv", delimiter=",", skiprows=1)
        at = np.flatnonzero((rows[:, 1] == 0.05 + a) & (rows[:, 2] == 0.5 + b))
        assert at.size == 1
        assert math.hypot(*rows[at[0], 7:9]) == pytest.approx(metrics["peak"], rel=1e-12)

    @pytest.mark.parametrize("plane_axes", ["xy", "xz"])
    def test_plane_metrics_read_the_fieldmap(self, tmp_path, capsys, plane_axes):
        # a focus with a different coordinate on every axis, so that a
        # plane read along the wrong axis shows in the numbers
        focus = {"x": 0.1, "y": -0.2, "z": 0.3}
        scn = scenario(tmp_path, aperture="discrete", method="cp",
                       amplitude_cap_a=0.002, port_resistance_ohm=1.0,
                       **{f"focus_{axis}_m": value for axis, value in focus.items()},
                       grid="plane", plane_axes=plane_axes)
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["plane_axes"] == plane_axes
        # the grid again from fieldmap.csv: its rows run along b within a
        rows = np.loadtxt(out / "fieldmap.csv", delimiter=",", skiprows=1)
        a, b = ("xyz".index(axis) for axis in plane_axes)
        u, v = np.unique(rows[:, a]), np.unique(rows[:, b])
        assert np.array_equal(rows[:, a], np.repeat(u, v.size))
        assert np.array_equal(rows[:, b], np.tile(v, u.size))
        mags = np.abs(rows[:, 7] + 1j * rows[:, 8]).reshape(u.size, v.size)
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        assert metrics["peak"] == mags[i, j]
        assert focus[plane_axes[0]] + metrics["peak_offset_a_m"] == u[i]
        assert focus[plane_axes[1]] + metrics["peak_offset_b_m"] == v[j]
        poly = contour_3db(mags, u, v)
        assert metrics["contour_3db"] == {
            "n_points": len(poly),
            "extent_a_m": poly[:, 0].max() - poly[:, 0].min(),
            "extent_b_m": poly[:, 1].max() - poly[:, 1].min(),
        }

    def test_coarse_cut_skips_metrics(self, tmp_path, capsys):
        scn = scenario(tmp_path, aperture="single", cut_step_m=LAM / 32)
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        assert (out / "cut.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert "metrics" not in metrics
        assert "wavelength/64" in metrics["skipped_reason"]

    def test_determinism_across_threads(self, tmp_path, capsys):
        scn = scenario(tmp_path, **MESH, amplitude_cap_a=0.008)
        outs = []
        for name, threads in (("a", "1"), ("b", "3")):
            out = tmp_path / name
            code, _ = run_cli(capsys, "run", "--scenario", scn,
                              "--out", str(out), "--threads", threads)
            assert code == 0
            outs.append(out)
        for name in ("weights.csv", "cut.csv", "metrics.json", "weights.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_csv_headers(self, tmp_path, capsys):
        field = "x,y,z,re_ex,im_ex,re_ey,im_ey,re_ez,im_ez"
        for subcommand, name, entries in (
                ("run", "cut", {}),
                ("run", "plane", dict(grid="plane", plane_half_span_a_m=0.02,
                                      plane_half_span_b_m=0.02)),
                ("layout", "layout", {})):
            scn = scenario(tmp_path, f"{name}.json", **MESH, **entries)
            code, _ = run_cli(capsys, subcommand, "--scenario", scn,
                              "--out", str(tmp_path / name))
            assert code == 0

        def header(path):
            with open(path) as f:
                return f.readline()

        assert header(tmp_path / "cut" / "weights.csv") == "index,amplitude_a,phase_rad\n"
        assert header(tmp_path / "cut" / "cut.csv") == f"offset_m,{field}\n"
        assert header(tmp_path / "plane" / "fieldmap.csv") == f"{field}\n"
        assert header(tmp_path / "layout" / "layout.csv") == \
            "x,y,z,tphi_x,tphi_y,tphi_z,tz_x,tz_y,tz_z,area_m2\n"

    @pytest.mark.parametrize("subcommand, entries", [
        ("run", {}),
        ("run", dict(grid="plane", plane_half_span_a_m=0.02, plane_half_span_b_m=0.02)),
        ("validate", dict(analytic_reference="ez_trans")),
        ("validate", dict(analytic_reference="ratio_cp")),
        ("analytic", dict(analytic_reference="ez_trans")),
        ("layout", {}),
    ], ids=["run-cut", "run-plane", "validate-profile", "validate-ratio", "analytic",
            "layout"])
    def test_artifacts_are_the_files_written(self, tmp_path, capsys, subcommand, entries):
        # the manifest's and the summary's artifacts list every file in
        # --out, and nothing else
        out = tmp_path / "out"
        code, summary = run_cli(capsys, subcommand, "--scenario",
                                scenario(tmp_path, **entries), "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = sorted(path.name for path in out.iterdir())
        assert manifest["artifacts"] == summary["artifacts"] == files

    def test_magnetic_azimuthal_run(self, tmp_path, capsys):
        scn = scenario(tmp_path, **dict(MESH, source_kind="magnetic",
                                        element_polarization="azimuthal"),
                       amplitude_cap_a=0.008)
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "run", "--scenario", scn, "--out", str(out))
        assert code == 0
        assert json.loads((out / "weights.json").read_text())["n_sources"] == 1080


class TestScaling:
    # Doubling every length and halving the frequency scales lambda, every
    # coordinate and every kR exactly (by powers of two), so the run must
    # reproduce itself bit for bit: the same weights, coordinates doubled,
    # and the fields of dipoles halved (k^2 / 4, length x 2) while those of
    # patches stay (k^2 / 4, area x 4).  The defaults derived from the
    # wavelength (spans, steps, dipole length, patch size, mesh counts)
    # scale with it.
    @pytest.mark.parametrize("entries, field_scale", [
        (dict(method="hybrid", power_budget_w=10.0, cut_axis="z", focus_x_m=0.25,
              focus_z_m=1.5), 0.5),
        (dict(method="tr", element_polarization="azimuthal", target_polarization="x",
              grid="plane", plane_axes="yz", plane_half_span_a_m=0.05,
              plane_half_span_b_m=0.04, focus_y_m=-0.2), 0.5),
        (dict(geometry="rectangle", radius_m=None, width_m=2.4, height_m=2.1, length_m=6.0,
              aperture="mesh", method="cp", focus_x_m=0.3, focus_z_m=-1.0), 1.0),
        (dict(aperture="mesh", source_kind="magnetic", element_polarization="azimuthal",
              method="tr", cut_axis="y", focus_y_m=0.1), 1.0),
    ], ids=["hybrid-ring-z-cut", "tr-azimuthal-ring-yz-plane", "cp-rectangle-mesh",
            "tr-magnetic-azimuthal-cylinder-mesh"])
    def test_power_of_two_scaling(self, tmp_path, capsys, entries, field_scale):
        base = {k: v for k, v in dict(BASE, **entries).items() if v is not None}
        scaled = {k: (2.0 * v if k.endswith("_m") else v) for k, v in base.items()}
        scaled["frequency_hz"] = 0.5 * base["frequency_hz"]
        outs = []
        for name, content in (("base", base), ("scaled", scaled)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(content))
            out = tmp_path / name
            code, _ = run_cli(capsys, "run", "--scenario", str(path), "--out", str(out))
            assert code == 0
            outs.append(out)
        assert (outs[0] / "weights.csv").read_bytes() == (outs[1] / "weights.csv").read_bytes()
        grid = "fieldmap.csv" if base.get("grid") == "plane" else "cut.csv"
        one, two = (np.loadtxt(out / grid, delimiter=",", skiprows=1) for out in outs)
        # the field columns are the last six
        np.testing.assert_array_equal(two[:, :-6], 2.0 * one[:, :-6])
        np.testing.assert_array_equal(two[:, -6:], field_scale * one[:, -6:])


class TestValidate:
    def test_ez_trans_baseline(self, tmp_path, capsys):
        scn = scenario(tmp_path, aperture="discrete", method="cp",
                       amplitude_cap_a=0.002, port_resistance_ohm=1.0,
                       analytic_reference="ez_trans", tolerance_rel=0.02)
        out = tmp_path / "out"
        code, summary = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(out))
        assert code == 0
        report = summary["report"]
        assert report["passed"] is True
        assert report["kind"] == "profile"
        assert report["main_lobe_linf_rel"] <= 0.02
        assert report["numeric_metrics"]["width_3db_lambda"] == pytest.approx(
            0.44, abs=0.01)
        assert abs(report["metric_deltas"]["width_3db_lambda"]) < 0.01
        assert (out / "report.json").exists()
        assert (out / "cut.csv").exists()
        assert (out / "curve.csv").exists()
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report

    def test_ratio_cp_long_cylinder(self, tmp_path, capsys):
        scn = scenario(tmp_path, length_m=100.0, aperture="discrete",
                       method="cp", amplitude_cap_a=0.002,
                       port_resistance_ohm=1.0,
                       analytic_reference="ratio_cp", tolerance_rel=0.01)
        code, summary = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 0
        report = summary["report"]
        assert report["passed"] is True
        assert report["deviation_rel"] <= 0.01
        assert report["asymptotic_constant"] == pytest.approx(math.pi / 2, rel=1e-15)
        from nearfocus.geometry import CylinderSpec
        spec = CylinderSpec(1.0, 100.0)
        expected = analytic.ez_cp_axis(0.0, spec) / analytic.ex_cp_axis(0.0, spec)
        assert report["analytic_ratio"] == pytest.approx(expected, rel=1e-12)

    def test_ratio_tr_long_cylinder(self, tmp_path, capsys):
        scn = scenario(tmp_path, length_m=100.0, aperture="discrete",
                       method="tr", analytic_reference="ratio_tr",
                       tolerance_rel=0.02)
        code, summary = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 0
        report = summary["report"]
        assert report["passed"] is True
        assert report["deviation_rel"] <= 0.02
        assert report["asymptotic_constant"] == 6.0
        assert report["deviation_vs_constant_rel"] <= 0.02

    def test_tolerance_zero_fails_with_report(self, tmp_path, capsys):
        scn = scenario(tmp_path, aperture="discrete", method="cp",
                       amplitude_cap_a=0.002, port_resistance_ohm=1.0,
                       analytic_reference="ez_trans", tolerance_rel=0.0)
        out = tmp_path / "out"
        code, summary = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(out))
        assert code == 1
        assert summary["status"] == "failed"
        report = summary["report"]
        assert report["passed"] is False
        assert report["main_lobe_linf_rel"] > 0.0
        assert (out / "report.json").exists()

    def test_reference_required(self, tmp_path, capsys):
        scn = scenario(tmp_path)
        code, payload = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert payload["error"]["code"] == "scenario-invalid"

    def test_unknown_reference_rejected(self, tmp_path, capsys):
        scn = scenario(tmp_path, analytic_reference="sinc_magic")
        code, payload = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert "analytic_reference" in payload["error"]["message"]

    def test_ratio_requires_matching_method(self, tmp_path, capsys):
        scn = scenario(tmp_path, length_m=100.0, method="cp",
                       analytic_reference="ratio_tr")
        code, payload = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert "method" in payload["error"]["message"]

    @pytest.mark.parametrize("subcommand, entries, key", [
        ("validate", dict(geometry="rectangle", radius_m=None, width_m=4.0, height_m=3.0,
                          aperture="mesh", analytic_reference="ez_trans"), "geometry"),
        ("analytic", dict(geometry="rectangle", radius_m=None, width_m=4.0, height_m=3.0,
                          aperture="mesh", analytic_reference="ez_trans"), "geometry"),
        ("validate", dict(element_polarization="azimuthal", analytic_reference="ratio_cp"),
         "element_polarization"),
        ("validate", dict(method="tr", analytic_reference="ez_long"), "method"),
        ("validate", dict(focus_x_m=0.5, analytic_reference="ratio_cp"), "focus_x_m"),
        ("validate", dict(aperture="single", analytic_reference="ez_trans"), "aperture"),
        ("validate", dict(focus_z_m=3.0, analytic_reference="ez_trans"), "focus_z_m"),
        ("validate", dict(source_kind="magnetic", analytic_reference="ratio_cp"),
         "source_kind"),
    ], ids=["rectangle-validate", "rectangle-analytic", "azimuthal", "profile-tr",
            "ratio-off-axis", "single-element", "profile-off-origin", "magnetic"])
    def test_reference_assumptions_rejected(self, tmp_path, capsys, subcommand, entries,
                                            key):
        # each scenario breaks one assumption of the reference's closed form
        code, payload = run_cli(capsys, subcommand, "--scenario",
                                scenario(tmp_path, **entries), "--out", str(tmp_path / "out"))
        assert code == 2
        assert payload["error"]["code"] == "scenario-invalid"
        assert key in payload["error"]["message"]

    @pytest.mark.parametrize("reference", list(REFERENCE_CUTS))
    def test_every_reference_at_benchmark_baseline(self, tmp_path, capsys, reference):
        # a swapped cut axis or field component in the reference table moves
        # the key value that the benchmark froze for this reference
        workloads = load_benchmark("workloads")
        frozen = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                             / "frozen.json").read_text())[f"validate-{reference}"]
        scn = scenario(tmp_path, analytic_reference=reference,
                       method="tr" if reference == "ratio_tr" else "cp")
        code, summary = run_cli(capsys, "validate", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        report = summary["report"]
        assert report["reference"] == reference
        assert code == workloads.PROFILE_EXIT_CODES.get(reference, 0)
        if REFERENCE_CUTS[reference] is None:
            assert "axis" not in report and "component" not in report
            value = report["numeric_ratio"]
        else:
            assert (report["axis"], report["component"]) == REFERENCE_CUTS[reference]
            value = report["main_lobe_linf_rel"]
        assert value == pytest.approx(frozen, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("reference, counts", [
        ("ratio_cp", {"focusing.solve.calls": 2, "analytic.closed_form.calls": 2}),
        ("ratio_tr", {"focusing.solve.calls": 2, "analytic.closed_form.calls": 2}),
        ("ex_trans_y", {"analytic.profile.calls": 1}),
    ])
    def test_benchmark_tracer_sees_validate(self, tmp_path, capsys, reference, counts):
        # the tracer rebinds cli's solver names and analytic's closed forms;
        # a function captured before it rebinds them would drop these spans
        tracing = load_benchmark()
        scn = scenario(tmp_path, analytic_reference=reference,
                       method="tr" if reference == "ratio_tr" else "cp")
        with tracing.installed(tracing.Tracer()) as tracer:
            code, _ = run_cli(capsys, "validate", "--scenario", scn,
                              "--out", str(tmp_path / "out"))
        assert code in (0, 1)
        assert {name: tracer.counts[name] for name in counts} == counts


class TestAnalyticSubcommand:
    def test_curve_matches_closed_form(self, tmp_path, capsys):
        from nearfocus.geometry import CylinderSpec
        spec = CylinderSpec(1.0, 10.0)
        for kind in PROFILES:
            scn = scenario(tmp_path, f"{kind}.json", analytic_reference=kind)
            out = tmp_path / kind
            code, summary = run_cli(capsys, "analytic", "--scenario", scn,
                                    "--out", str(out))
            assert code == 0
            assert summary["artifacts"] == ["curve.csv", "manifest.json"]
            lines = (out / "curve.csv").read_text().splitlines()
            assert lines[0] == "offset_wl,value"
            data = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
            mid = data.shape[0] // 2
            assert data[mid, 0] == 0.0
            assert data[mid, 1] == pytest.approx(
                analytic.resolution_profiles(kind, 0.0, spec), rel=1e-15), kind
            np.testing.assert_allclose(data[:, 1], data[::-1, 1], rtol=1e-12)

    def test_benchmark_tracer_sees_special_functions(self, tmp_path, capsys):
        # the benchmark's tracer rebinds analytic's special-function names;
        # renaming or bypassing them would silently zero its specfun metrics
        tracing = load_benchmark()
        scn = scenario(tmp_path, analytic_reference="ex_long")
        with tracing.installed(tracing.Tracer()) as tracer:
            code, _ = run_cli(capsys, "analytic", "--scenario", scn,
                              "--out", str(tmp_path / "out"))
        assert code == 0
        assert tracer.counts["analytic.profile.calls"] > 0
        assert tracer.counts["specfun.calls"] > 0

    def test_benchmark_tracer_counts_layout_rows(self, tmp_path, capsys):
        # the tracer wraps cli.write_csv and counts the lines of the file its
        # first argument names
        tracing = load_benchmark()
        out = tmp_path / "out"
        with tracing.installed(tracing.Tracer()) as tracer:
            code, _ = run_cli(capsys, "layout", "--scenario", scenario(tmp_path),
                              "--out", str(out))
        assert code == 0
        assert tracer.counts["csvio.write.calls"] == 1
        rows = len((out / "layout.csv").read_text().splitlines()) - 1
        assert tracer.counts["csvio.rows"] == rows == 42 * 67

    def test_benchmark_tracer_counts_solver_ports(self, tmp_path, capsys):
        # the tracer counts clipped and idle ports and the power residual
        # from the solver's (weights, report) result
        tracing = load_benchmark()
        inv = next(i for i in load_benchmark("workloads").scenario_mix(0).invocations
                   if i.name == "run-rect-mesh")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(inv.scenario))
        out = tmp_path / "out"
        with tracing.installed(tracing.Tracer()) as tracer:
            code, _ = run_cli(capsys, "run", "--scenario", str(path), "--out", str(out))
        assert code == 0
        assert json.loads((out / "weights.json").read_text())["regime"] == "hybrid"
        cap = json.loads((out / "manifest.json").read_text())["scenario"]["amplitude_cap_a"]
        amp = read_amplitudes(out)
        at_cap = int(np.count_nonzero(np.isclose(amp, cap, rtol=1e-12, atol=0.0)))
        assert tracer.counts["focusing.solve.calls"] == 1
        assert tracer.counts["focusing.clipped_ports"] == at_cap > 0
        assert tracer.counts["focusing.idle_ports"] == np.count_nonzero(amp == 0.0)
        assert "focusing.power_residual_rel" in tracer.counts
        assert tracer.counts["focusing.power_residual_rel"] < 1e-12

    def test_benchmark_tracer_targets_exist(self):
        # the tracer rebinds these names with a strict getattr, so a removed
        # cli.green_* or cli.write_csv would otherwise fail only when traced
        tracing = load_benchmark()
        missing = [f"{module.__name__}.{attr}"
                   for module, attrs in tracing._TARGETS.values()
                   for attr in attrs if not hasattr(module, attr)]
        assert missing == []

    def test_profile_reference_required(self, tmp_path, capsys):
        scn = scenario(tmp_path, length_m=100.0, method="cp",
                       analytic_reference="ratio_cp")
        code, payload = run_cli(capsys, "analytic", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert payload["error"]["code"] == "scenario-invalid"


class TestLayoutSubcommand:
    def test_discrete_layout(self, tmp_path, capsys):
        scn = scenario(tmp_path)
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "layout", "--scenario", scn, "--out", str(out))
        assert code == 0
        lines = (out / "layout.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,px,py,pz,length_m"
        assert len(lines) == 1 + 42 * 67

    @pytest.mark.parametrize("aperture", ["discrete", "single"])
    def test_azimuthal_layout_directions(self, tmp_path, capsys, aperture):
        # each dipole's direction is its ring tangent: a unit vector across
        # the axis and normal to the radius
        scn = scenario(tmp_path, aperture=aperture, element_polarization="azimuthal")
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "layout", "--scenario", scn, "--out", str(out))
        assert code == 0
        data = np.atleast_2d(np.loadtxt(out / "layout.csv", delimiter=",", skiprows=1))
        xyz, p, length = data[:, :3], data[:, 3:6], data[:, 6]
        assert len(data) == (42 * 67 if aperture == "discrete" else 1)
        assert np.allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-15)
        assert np.all(p[:, 2] == 0.0)
        assert np.max(np.abs(np.einsum("ij,ij->i", p[:, :2], xyz[:, :2]))) < 1e-15
        assert np.allclose(length, LAM / 100.0, rtol=1e-15, atol=0.0)

    def test_mesh_layout_tiles_the_wall(self, tmp_path, capsys):
        scn = scenario(tmp_path, **{k: v for k, v in MESH.items() if k != "method"})
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "layout", "--scenario", scn, "--out", str(out))
        assert code == 0
        data = np.loadtxt(out / "layout.csv", delimiter=",", skiprows=1)
        assert data.shape == (60 * 18, 10)
        assert data[:, 9].sum() == pytest.approx(2 * math.pi * 1.0 * 10.0, rel=1e-12)


class TestErrors:
    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE, radiu_m=2.0)))
        code, payload = run_cli(capsys, "run", "--scenario", str(path),
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert payload["error"]["code"] == "scenario-invalid"
        assert "radiu_m" in payload["error"]["message"]

    def test_focus_outside_geometry(self, tmp_path, capsys):
        scn = scenario(tmp_path, focus_x_m=1.5)
        code, payload = run_cli(capsys, "run", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert "focal point" in payload["error"]["message"]

    @staticmethod
    def json_error(capsys, code):
        """The error of a refused call: exit 2, one JSON line on stdout and
        no traceback on stderr."""
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 2 and len(lines) == 1
        assert "Traceback" not in captured.err
        return json.loads(lines[0])["error"]

    def test_unreadable_scenario(self, tmp_path, capsys):
        # not JSON, and not UTF-8
        for content in (b"nope{", b"\xff\xfe{}"):
            path = tmp_path / "broken.json"
            path.write_bytes(content)
            code = cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
            assert self.json_error(capsys, code)["code"] == "scenario-unreadable"

    @pytest.mark.parametrize("subcommand, entries, error", [
        ("run", dict(radius_m=10 ** 400), "scenario-invalid"),
        # the default mesh_axial_n, length over half a wavelength, is inf
        ("layout", dict(aperture="mesh", length_m=1e308), "scenario-invalid"),
        # 1e600 cut steps, counted when the scenario loads
        ("run", dict(cut_half_span_m=1e300, cut_step_m=1e-300), "scenario-invalid"),
        ("analytic", dict(cut_half_span_m=1e300, cut_step_m=1e-300,
                          analytic_reference="ez_long"), "scenario-invalid"),
    ], ids=["integer-beyond-float", "default-beyond-float", "run-cut-uncountable",
            "analytic-cut-uncountable"])
    def test_number_beyond_float_range(self, tmp_path, capsys, subcommand, entries, error):
        code = cli_main([subcommand, "--scenario", scenario(tmp_path, **entries),
                         "--out", str(tmp_path / "out")])
        assert self.json_error(capsys, code)["code"] == error

    @pytest.mark.parametrize("entries", [
        dict(cut_half_span_m=1e300, cut_step_m=1e-300),
        # 1e305 steps: a finite count, but no index reaches it
        dict(cut_half_span_m=1e300, cut_step_m=1e-5),
        dict(grid="plane", plane_half_span_a_m=1e300, plane_step_m=1e-300),
        dict(grid="plane", plane_half_span_b_m=1e300, plane_step_m=1e-300),
        # 2e10 + 1 points along each axis, 4e20 in all
        dict(grid="plane", plane_half_span_a_m=1e3, plane_half_span_b_m=1e3,
             plane_step_m=1e-7),
    ], ids=["cut-overflow", "cut-beyond-index", "plane-a-overflow", "plane-b-overflow",
            "plane-beyond-index"])
    def test_uncountable_grid_refused_before_any_work(self, tmp_path, capsys, entries):
        # the grids are counted when the scenario loads: no aperture, solve
        # or weights file comes before the refusal
        out = tmp_path / "out"
        code = cli_main(["run", "--scenario", scenario(tmp_path, **entries),
                         "--out", str(out)])
        error = self.json_error(capsys, code)
        assert error["code"] == "scenario-invalid"
        assert "too many points" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("blocker", ["out", "parent", "artifact"],
                             ids=["out-is-a-file", "out-under-a-file",
                                  "artifact-is-a-directory"])
    def test_unwritable_output(self, tmp_path, capsys, blocker):
        # a file where --out, or a directory above it, should be, and a
        # directory where the artifact should be
        out = tmp_path / "out"
        if blocker == "out":
            out.write_text("")
        elif blocker == "parent":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out"
        else:
            (out / "layout.csv").mkdir(parents=True)
        code = cli_main(["layout", "--scenario", str(ROOT / "tools" / "ring_default_cut.json"),
                         "--out", str(out)])
        assert self.json_error(capsys, code)["code"] == "output-unwritable"

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # a TR rerun over a CP run's output that cannot write its cut: the CP
        # manifest would describe the TR weights.csv written beside it
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", scenario(tmp_path), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "cut.csv").unlink()
        (out / "cut.csv").mkdir()
        code = cli_main(["run", "--scenario", scenario(tmp_path, method="tr"),
                         "--out", str(out)])
        assert self.json_error(capsys, code)["code"] == "output-unwritable"
        assert (out / "weights.csv").exists() and not (out / "manifest.json").exists()

    def test_scenario_required(self, capsys, monkeypatch):
        monkeypatch.delenv("NEARFOCUS_SCENARIO", raising=False)
        code, payload = run_cli(capsys, "run")
        assert code == 2
        assert payload["error"]["code"] == "usage"

    def test_grid_step_floor(self, tmp_path, capsys):
        scn = scenario(tmp_path, cut_step_m=LAM / 8)
        code, payload = run_cli(capsys, "run", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert "wavelength/16" in payload["error"]["message"]

    def test_dipole_approx_needs_electric(self, tmp_path, capsys):
        scn = scenario(tmp_path, source_kind="magnetic", kernel="dipole-approx")
        code, payload = run_cli(capsys, "run", "--scenario", scn,
                                "--out", str(tmp_path / "out"))
        assert code == 2

    @pytest.mark.parametrize("aperture", ["single", "discrete"])
    def test_focus_inside_standoff(self, tmp_path, capsys, aperture):
        # 0.05 m from the element at (1, 0, 0), inside the quarter-wavelength
        # standoff: the one element's channel is refused like the ring's
        out = tmp_path / "out"
        code = cli_main(["run", "--scenario", scenario(tmp_path, aperture=aperture,
                                                       focus_x_m=0.95),
                         "--out", str(out)])
        error = self.json_error(capsys, code)
        assert error["code"] == "run-failed"
        assert "quarter-wavelength standoff" in error["message"]
        assert not (out / "weights.csv").exists()

    RECTANGLE = dict(geometry="rectangle", radius_m=None, width_m=4.0, height_m=3.0,
                     aperture="mesh")

    @pytest.mark.parametrize("entries, key", [
        # a key given where it has no meaning
        (dict(RECTANGLE, radius_m=1.0), "radius_m"),
        (dict(width_m=4.0), "width_m"),
        (dict(height_m=3.0), "height_m"),
        (dict(aperture="mesh", dipole_length_m=0.01), "dipole_length_m"),
        (dict(mesh_axial_n=60), "mesh_axial_n"),
        (dict(mesh_azimuthal_n=18), "mesh_azimuthal_n"),
        (dict(RECTANGLE, mesh_axial_n=60), "mesh_axial_n"),
        (dict(RECTANGLE, mesh_azimuthal_n=18), "mesh_azimuthal_n"),
        (dict(aperture="mesh", patch_target_m=0.05), "patch_target_m"),
        # a key missing where it is required
        (dict(geometry=None), "geometry"),
        (dict(length_m=None), "length_m"),
        (dict(frequency_hz=None), "frequency_hz"),
        (dict(radius_m=None), "radius_m"),
        (dict(RECTANGLE, width_m=None), "width_m"),
        (dict(RECTANGLE, height_m=None), "height_m"),
        # a setting that another one rules out
        (dict(RECTANGLE, aperture="discrete"), "aperture"),
        (dict(RECTANGLE, aperture="single"), "aperture"),
        (dict(kernel="dipole-approx", source_kind="magnetic"), "source_kind"),
        # the corridor is at least as wide as it is high
        (dict(RECTANGLE, width_m=3.0, height_m=4.0), "width_m"),
    ], ids=["radius-on-rectangle", "width-on-cylinder", "height-on-cylinder",
            "dipole-length-on-mesh", "axial-n-on-rings", "azimuthal-n-on-rings",
            "axial-n-on-rectangle", "azimuthal-n-on-rectangle", "patch-on-cylinder",
            "no-geometry", "no-length", "no-frequency", "cylinder-no-radius",
            "rectangle-no-width", "rectangle-no-height", "rectangle-rings",
            "rectangle-single", "dipole-approx-magnetic", "width-below-height"])
    def test_scenario_rule_rejected(self, tmp_path, capsys, entries, key):
        # every scenario rule: exit 2 before any work, naming the key
        out = tmp_path / "out"
        code, payload = run_cli(capsys, "run", "--scenario",
                                scenario(tmp_path, **entries), "--out", str(out))
        assert code == 2
        assert payload["error"]["code"] == "scenario-invalid"
        assert key in payload["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("content, options, error, message", [
        (dict(BASE, radius_m=math.inf), (), "scenario-invalid", "radius_m must be finite"),
        (dict(BASE, tolerance_rel=-0.1), (), "scenario-invalid",
         "tolerance_rel must be non-negative"),
        (None, (), "scenario-unreadable", "cannot read scenario file"),
        ([1, 2], (), "scenario-invalid", "must be a JSON object"),
        (dict(BASE, focus_z_m=6.0), (), "scenario-invalid", "outside the geometry along z"),
        (dict(CORRIDOR, width_m=4.0, height_m=3.0, length_m=10.0, focus_x_m=2.5), (),
         "scenario-invalid", "outside the rectangle cross-section"),
        (BASE, ("--threads", "0"), "usage", "--threads must be at least 1"),
        # axial magnetic dipoles have no E_z anywhere: the channel's
        # projection reads no component (fields._dot's all-zero branch)
        (dict(BASE, source_kind="magnetic", element_polarization="axial",
              target_polarization="z"), (), "run-failed", "channel is zero"),
    ], ids=["infinite-radius", "negative-tolerance", "missing-file", "not-an-object",
            "focus-beyond-length", "focus-outside-rectangle", "no-threads",
            "zero-channel"])
    def test_refused_input(self, tmp_path, capsys, content, options, error, message):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(json.dumps(content))
        code = cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                         *options])
        refused = self.json_error(capsys, code)
        assert refused["code"] == error
        assert message in refused["message"]

    def test_rectangle_requires_mesh(self, tmp_path, capsys):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({
            "geometry": "rectangle", "width_m": 4.0, "height_m": 3.0,
            "length_m": 10.0, "frequency_hz": 1.0e9, "aperture": "discrete"}))
        code, payload = run_cli(capsys, "run", "--scenario", str(path),
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert "mesh" in payload["error"]["message"]

    def test_bad_threads_value(self, tmp_path, capsys):
        scn = scenario(tmp_path)
        code, payload = run_cli(capsys, "layout", "--scenario", scn,
                                "--out", str(tmp_path / "out"),
                                "--threads", "many")
        assert code == 2
        assert payload["error"]["code"] == "usage"

    @pytest.mark.parametrize("subcommand", ["layout", "run"])
    def test_mesh_too_large_to_allocate(self, tmp_path, capsys, subcommand):
        # 5.7e13 patches: build_rect_corridor_mesh refuses the petabyte mesh
        # from its counts before making any array
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(CORRIDOR, patch_target_m=1e-5)))
        code, payload = run_cli(capsys, subcommand, "--scenario", str(path),
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert payload["error"]["code"] == "out-of-memory"

    @pytest.mark.parametrize("subcommand, entries", [
        ("analytic", {"analytic_reference": "ez_trans", "cut_half_span_m": 1000.0}),
        ("layout", {"plane_half_span_a_m": 1000.0}),
    ], ids=["cut", "plane"])
    def test_grid_too_large_to_allocate(self, tmp_path, capsys, monkeypatch, subcommand,
                                        entries):
        # 16 MB of physical memory against a 1 km span, 426,963 samples of
        # 48 B: the scenario is refused from its counts, before --out is made
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096,
                                                        "SC_PHYS_PAGES": 4096}[name])
        out = tmp_path / "out"
        code = cli_main([subcommand, "--scenario", scenario(tmp_path, **entries),
                         "--out", str(out)])
        error = self.json_error(capsys, code)
        assert error["code"] == "out-of-memory" and "physical memory" in error["message"]
        assert not out.exists()


class TestMemory:
    # Traced bytes per source at the peak of a run.  The arrays a run must
    # hold at full length take 16 B for the scalar channel and 16 for the
    # weights; the channel keeps one port-resistance scale per strip, and
    # the mesh holds only its strips and makes its rows per block.
    # Measured 66.2 B/source here, with the peak in the channel stage (the
    # channel and the kernel's 5.2 MB scratch); the solve reaches 34.4 and
    # the weights.csv write 35.8 (STAGE_BYTES_PER_SOURCE) (35.4 in the
    # solve while it held a 1 B-per-port live mask; 50.3 and 59.3
    # while the water level sorted, the solve allocated the weights apart
    # from its workspace and weights.csv's columns were made at full
    # length; 58.2 in the solve while the channel held 8 B per port of
    # resistance scales; 66.8, in the solve, while the water level
    # gathered R into its own array and E_focus summed a fresh w*g; 74
    # when the solve formed the phases before the water level and sorted
    # -v, 130 when the mesh held 56 B per patch of flat arrays, 156 when
    # weights.csv was formatted by one template call per block, 172 when
    # the field kernel held fifteen scratch arrays per block, 289 when
    # full-length (N, 3) temporaries were built at each stage).
    PEAK_BYTES_PER_SOURCE = 72
    # The same for a layout of the same mesh: its rows made per block of
    # the CSV writer, and 4.8 MB for the writer's blocks of 32,768 cells,
    # the largest it makes; measured 33.1 B/source here (89 while the rows
    # were made once at full length, 56 B per patch, before writing; 64
    # with blocks of 4,096 cells, 111 when one template call formatted
    # each block of 3 x 65,536 cells, 235 when a block was 65,536 rows of
    # all 10 columns, and 315 when the whole (N, 10) table was built
    # before writing).
    LAYOUT_PEAK_BYTES_PER_SOURCE = 36
    # Each stage's own traced peak (tools/stage_peaks.py resets it as the
    # stage opens), on top of what the stages before it hold: the solve
    # holds the channel (16 B), the weights' array as its workspace (16)
    # and one block's temporaries, measured 34.4 (35.4 with the live mask,
    # 1 B per port); the weights.csv write holds the weights and the CSV
    # writer's blocks, measured 35.8.
    STAGE_BYTES_PER_SOURCE = {"solve": 35, "write weights.csv": 38}

    @staticmethod
    def corridor(tmp_path):
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(dict(CORRIDOR, length_m=25.2, method="hybrid",
                                        amplitude_cap_a=0.02, power_budget_w=1000.0,
                                        cut_half_span_m=0.01)))
        return path

    @classmethod
    def traced_peak(cls, tmp_path, capsys, subcommand):
        path = cls.corridor(tmp_path)
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, subcommand, "--scenario", str(path),
                              "--out", str(tmp_path / "out"), "--threads", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_run_peak_bytes_per_source(self, tmp_path, capsys):
        peak = self.traced_peak(tmp_path, capsys, "run")
        n = json.loads((tmp_path / "out" / "weights.json").read_text())["n_sources"]
        assert n == 203548
        assert peak / n < self.PEAK_BYTES_PER_SOURCE

    def test_layout_peak_bytes_per_source(self, tmp_path, capsys):
        peak = self.traced_peak(tmp_path, capsys, "layout")
        with open(tmp_path / "out" / "layout.csv", "rb") as f:
            n = sum(1 for _ in f) - 1
        assert n == 203548
        assert peak / n < self.LAYOUT_PEAK_BYTES_PER_SOURCE

    def test_stage_peak_bytes_per_source(self, tmp_path):
        result = load_script("tools", "stage_peaks").stage_peaks("run", self.corridor(tmp_path),
                                                      tmp_path / "out")
        assert (result["exit"], result["sources"]) == (0, 203548)
        peaks = result["peak_bytes"]
        for stage, bound in self.STAGE_BYTES_PER_SOURCE.items():
            assert peaks[stage] / result["sources"] < bound, stage

    def test_run_allocates_nothing_after_its_last_stage(self, tmp_path, capsys, monkeypatch):
        # what _cmd_run does once its last stage closes, the manifest's
        # solver entry, reads the solve's records: under 1 B per source
        # beyond what that stage left (9.0 while the clipped and idle ports
        # were recounted from a full-length |w|)
        stage, run = cli._Stages.__call__, cli._COMMANDS["run"]
        held = {}

        @contextlib.contextmanager
        def traced(self, name):
            with stage(self, name):
                yield
            held["stages"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

        def command(*args):
            result = run[1](*args)
            held["after"] = tracemalloc.get_traced_memory()[1]
            return result

        monkeypatch.setattr(cli._Stages, "__call__", traced)
        monkeypatch.setitem(cli._COMMANDS, "run", (run[0], command))
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, "run", "--scenario", str(self.corridor(tmp_path)),
                              "--out", str(tmp_path / "out"), "--threads", "1")
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (held["after"] - held["stages"]) / 203548 < 1.0


class TestEnvironment:
    def test_env_provides_scenario_and_out(self, tmp_path, capsys, monkeypatch):
        scn = scenario(tmp_path)
        out = tmp_path / "envout"
        monkeypatch.setenv("NEARFOCUS_SCENARIO", scn)
        monkeypatch.setenv("NEARFOCUS_OUT", str(out))
        code, _ = run_cli(capsys, "layout")
        assert code == 0
        assert (out / "layout.csv").exists()

    def test_cli_overrides_env(self, tmp_path, capsys, monkeypatch):
        scn = scenario(tmp_path)
        monkeypatch.setenv("NEARFOCUS_OUT", str(tmp_path / "fromenv"))
        cliout = tmp_path / "fromcli"
        code, _ = run_cli(capsys, "layout", "--scenario", scn,
                          "--out", str(cliout))
        assert code == 0
        assert (cliout / "layout.csv").exists()
        assert not (tmp_path / "fromenv").exists()

    def test_env_threads_recorded(self, tmp_path, capsys, monkeypatch):
        scn = scenario(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setenv("NEARFOCUS_THREADS", "2")
        code, _ = run_cli(capsys, "layout", "--scenario", scn, "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 2

    def test_workers_recorded_within_usable_cpus(self, tmp_path, capsys):
        # threads records the request; workers the field workers that ran,
        # which evaluate_field caps at the CPUs this process may use
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        for subcommand, reference, low, high in (
                ("run", "none", 1, cpus), ("layout", "none", 0, 0),
                ("validate", "ez_trans", 1, cpus),
                # no field runs for a ratio or a closed-form curve
                ("validate", "ratio_cp", 0, 0), ("analytic", "ez_trans", 0, 0)):
            scn = scenario(tmp_path, analytic_reference=reference)
            out = tmp_path / f"{subcommand}-{reference}"
            code, _ = run_cli(capsys, subcommand, "--scenario", scn, "--out", str(out),
                              "--threads", "4000")
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["threads"] == 4000
            assert low <= manifest["workers"] <= high

    def test_run_and_layout_load_no_scipy(self, tmp_path):
        # a fresh interpreter: this process has scipy loaded by other tests
        scn = scenario(tmp_path, length_m=1.0)
        script = f"""if True:
            import json, sys
            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            from nearfocus import analytic, cli
            seen = {{"import": scipy_modules()}}
            for sub in ("run", "layout"):
                code = cli.main([sub, "--scenario", {scn!r},
                                 "--out", {str(tmp_path / "out")!r} + sub])
                seen[sub] = [code, scipy_modules()]
            analytic.sine_integral(1.0)
            seen["analytic"] = scipy_modules()
            print(json.dumps(seen))
        """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen["import"] == []
        assert seen["run"] == [0, []]
        assert seen["layout"] == [0, []]
        assert "scipy.special" in seen["analytic"]
        assert not any(m.startswith("scipy.integrate") for m in seen["analytic"])

    def test_module_entry_point(self, tmp_path):
        scn = scenario(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "nearfocus.cli", "layout",
             "--scenario", scn, "--out", str(out)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert (out / "manifest.json").exists()


class TestTools:
    def test_readme_lists_every_scenario_key(self):
        # the first column of README's scenario-key table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | kind | default | applies when |\n|---|---|---|---|\n")[1]
        keys = []
        for line in table.splitlines():
            if not line.startswith("|"):
                break
            keys.append(line.split("|")[1].strip().strip("`"))
        assert keys == list(cli._SCHEMA)

    def test_stage_peaks_tool(self, tmp_path):
        # one JSON line with each stage's traced peak; the corridor scenario
        # that CI bounds is the benchmark's at seed 0
        corridor = json.loads((ROOT / "tools" / "corridor_weights.json").read_text())
        assert corridor == load_benchmark("workloads").corridor_weights(0).invocations[0].scenario
        tool = ROOT / "tools" / "stage_peaks.py"
        proc = subprocess.run([sys.executable, str(tool), "layout", scenario(tmp_path)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert (result["exit"], result["sources"]) == (0, 42 * 67)
        assert set(result["stages"]) == {"aperture", "write layout.csv"}
        for peak in result["stages"].values():
            assert peak["bytes_per_source"] * 42 * 67 == pytest.approx(peak["peak_mb"] * 2 ** 20)

    def test_bench_tool(self, tmp_path):
        # its ring plane is the benchmark's at seed 0, and its corridor cut
        # the benchmark's corridor with the default cut
        bench, workloads = load_script("tools", "bench"), load_benchmark("workloads")
        rows = {row: json.loads((ROOT / "tools" / f"{row}.json").read_text())
                for row in bench.ROWS}
        assert rows["ring_plane"] == workloads.ring_plane(0).invocations[0].scenario
        assert rows["corridor_cut"] == {key: value for key, value in
                                        rows["corridor_weights"].items()
                                        if key != "cut_half_span_m"}
        # a fresh run reads its bytecode from the tool's own cache
        env = bench._env(ROOT, tmp_path / "pycache")
        assert "PYTHONDONTWRITEBYTECODE" not in env
        manifest, elapsed = bench._run(ROOT, ROOT / "tools" / "ring_default_cut.json", 1, env,
                                       tmp_path / "out")
        assert any((tmp_path / "pycache").rglob("cli*.pyc"))
        assert manifest["counters"]["field_nodes"] == 35 and elapsed > manifest["wall_time_s"]
        summary = bench._summary("abc", [manifest, None], [elapsed, 0.1])
        assert (summary["commit"], summary["runs"], summary["failed"]) == ("abc", 2, 1)
        assert summary["field_nodes"] == [35] and summary["sources"] == [2814]
        assert summary["wall_s"]["median"] == manifest["wall_time_s"]
        assert set(summary["timings_s"]) == set(manifest["timings_s"])

    def test_node_sweep_tool(self):
        # three cuts of the sweep: one line each, then their total; an
        # interpolated axis ends below its samples, an exact one at them
        tool = ROOT / "tools" / "node_sweep.py"
        proc = subprocess.run([sys.executable, str(tool), "--axis", "y", "--focus-x", "0.9",
                               "--half-span", "0.05", "0.1", "0.2"],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        *cuts, total = map(json.loads, proc.stdout.splitlines())
        assert [c["half_span_m"] for c in cuts] == [0.05, 0.1, 0.2]
        for cut in cuts:
            assert cut["samples"] == 2 * round(cut["half_span_m"] / (LAM / 64)) + 1
            assert cut["field_nodes"] >= cut["nodes"]
            if cut["exact"] is None:
                assert cut["nodes"] < cut["samples"]
            else:
                assert cut["nodes"] == cut["samples"]
        assert total["cuts"] == 3
        assert total["field_nodes"] == sum(c["field_nodes"] for c in cuts)
        assert sum(total["exact"].values()) == 3
        assert {c["exact"] for c in cuts} >= {None, "small"}

    def test_artifact_digest_same_across_threads(self, tmp_path):
        # the same-bytes checker, run on the baseline layout and a
        # single-element run at one and two threads
        tool = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
        layout, single = scenario(tmp_path), scenario(tmp_path, "single.json",
                                                      aperture="single", focus_x_m=0.5)
        proc = subprocess.run(
            [sys.executable, str(tool), "--call", "layout", layout, "--call", "run", single,
             "--threads", "1", "2"], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        for subcommand, path, artifacts in (
                ("layout", layout, {"layout.csv"}),
                ("run", single, {"weights.csv", "weights.json", "cut.csv", "metrics.json"})):
            one, two = (runs[f"call/{subcommand}/{path}/threads{t}"] for t in (1, 2))
            assert one["exit"] == two["exit"] == 0
            assert set(one["sha256"]) == artifacts
            assert one["sha256"] == two["sha256"]
