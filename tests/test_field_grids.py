"""Field grids from nested Chebyshev-Lobatto nodes, against direct maps.

cli._evaluate interpolates each cut and plane from a few dozen nodes per
axis.  The oracle is evaluate_field on every sample of the same grid: the
two must agree within 1e-13 of the grid's largest |E| component on every
kind of aperture, kernel and grid that run and validate build.  Grids
near the sources take the direct path, with its flags, counters and
errors, and the channel's resistance runs fill their ports in blocks.
"""

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
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus import cli, fields
from nearfocus.cli import main as cli_main
from nearfocus.fields import ChannelVector, evaluate_field
from nearfocus.geometry import Aperture, Wavelength

from oracles import port_scales

ROOT = Path(__file__).resolve().parents[1]

BASE = {"geometry": "cylinder", "radius_m": 1.0, "length_m": 10.0, "frequency_hz": 1.0e9}

# the contract: every map within this fraction of its largest |E| component
PARITY = 1e-13


def benchmark_scenario(workload, invocation, seed):
    """One invocation's scenario from perfbench/workloads.py, loaded by path."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("field_grids_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return next(inv.scenario for inv in module.WORKLOADS[workload](seed).invocations
                if inv.name == invocation)


def field_map(tmp_path, scenario, threads=2):
    """The resolved scenario, its grid as run evaluates it, the grid's
    direct map, the weights, the sources and the stage recorder."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    s, _ = cli.load_scenario(path)
    wl = Wavelength.from_frequency(s["frequency_hz"])
    stages = cli._Stages(tmp_path, threads)
    sources = cli._aperture(s, wl, stages)
    e_hat = cli._AXIS_UNIT[s["target_polarization"]]
    weights, _ = cli._solve_weights(s, cli._channel(s, sources, e_hat, wl, stages), stages)
    axes = (cli._plane(s) if s["grid"] == "plane"
            else [(s["cut_axis"], cli._offsets(s["cut_half_span_m"], s["cut_step_m"]))])
    fm = cli._evaluate(s, sources, weights, axes, wl, stages)
    direct = evaluate_field(sources, weights.w, fm.points, wl, kernel=s["kernel"],
                            source_kind=s["source_kind"], threads=threads)
    return s, fm, direct, weights, sources, stages


RING_PLANE = [pytest.param(benchmark_scenario("ring_plane", "run-plane", seed),
                           id=f"ring-plane-seed{seed}") for seed in (0, 41, 97)]
MIX = {name: benchmark_scenario("scenario_mix", name, 0)
       for name in ("run-magnetic-mesh", "run-dipole-approx", "run-single", "run-rect-mesh")}
# the single element's yz plane through its cut's focus: 257 x 257 samples
# of one source are more than one work unit of the kernel, so it takes nodes
SINGLE_PLANE = dict(MIX["run-single"], grid="plane", plane_axes="yz", plane_step_m=0.3 / 256,
                    plane_half_span_a_m=0.15, plane_half_span_b_m=0.15)


@pytest.mark.parametrize("scenario", RING_PLANE + [
    pytest.param(dict(BASE, cut_axis="x"), id="ring-x-cut"),
    pytest.param(dict(BASE, cut_axis="y", focus_z_m=1.0), id="ring-y-cut"),
    pytest.param(dict(BASE, cut_axis="z", method="tr"), id="ring-z-cut"),
    pytest.param(dict(BASE, grid="plane", plane_axes="xy", plane_half_span_a_m=0.2,
                      plane_half_span_b_m=0.1, focus_x_m=0.1), id="ring-xy-plane"),
    pytest.param(dict(BASE, grid="plane", plane_axes="xz", plane_half_span_a_m=0.08,
                      plane_half_span_b_m=0.25, target_polarization="x"), id="ring-xz-plane"),
    pytest.param(MIX["run-magnetic-mesh"], id="magnetic-azimuthal-mesh"),
    pytest.param(MIX["run-dipole-approx"], id="dipole-approx-ring"),
    pytest.param(MIX["run-rect-mesh"], id="rectangle-mesh"),
    pytest.param(SINGLE_PLANE, id="single-element"),
])
def test_spectral_map_matches_direct_map(tmp_path, scenario):
    _, fm, direct, _, sources, stages = field_map(tmp_path, scenario)
    # every axis went through the nodes, and none of them fell back
    (outcome,) = stages.grids
    assert all(axis["exact"] is None and axis["nodes"] < axis["samples"] for axis in outcome)
    assert stages.counters["field_nodes"] < len(fm)
    assert stages.counters["kernel_pairs"] == stages.counters["field_nodes"] * len(sources)
    peak = np.abs(direct.E).max()
    assert np.abs(fm.E - direct.E).max() <= PARITY * peak
    assert not fm.near_singular.any() and not direct.near_singular.any()


@pytest.mark.parametrize("scenario", [
    pytest.param(RING_PLANE[0].values[0], id="ring-plane"),
    pytest.param(dict(BASE, cut_axis="z", focus_x_m=0.2), id="ring-z-cut"),
    pytest.param(MIX["run-rect-mesh"], id="rectangle-mesh"),
])
def test_focus_sample_is_the_kernels_own_value(tmp_path, scenario):
    # the focus is a node of the predicted intervals per axis, at which
    # these grids resolve: its sample is evaluate_field's
    # value there, bytes and all, not an interpolated one, and a one-point
    # evaluation differs by rounding only
    s, fm, _, weights, sources, stages = field_map(tmp_path, scenario)
    axes = (cli._plane(s) if s["grid"] == "plane"
            else [(s["cut_axis"], cli._offsets(s["cut_half_span_m"], s["cut_step_m"]))])
    wl = Wavelength.from_frequency(s["frequency_hz"])
    _, sums = sources.scan_box(fm.points.min(axis=0), fm.points.max(axis=0),
                               ["xyz".index(a) for a, _ in axes])
    m = [cli._intervals(wl.k * o[-1], r / (2.0 * o[-1]), o.size) for (_, o), r in zip(axes, sums)]
    assert [axis["nodes"] for axis in stages.grids[0]] == [k + 1 for k in m]
    focus = cli._focus(s)
    first = cli._points(focus, [a for a, _ in axes],
                        [o[-1] * cli._lobatto(k) for (_, o), k in zip(axes, m)])
    assert np.array_equal(first[len(first) // 2], focus)
    assert np.array_equal(fm.points[len(fm) // 2], focus)
    kwargs = dict(kernel=s["kernel"], source_kind=s["source_kind"])
    direct = evaluate_field(sources, weights.w, first, wl, **kwargs)
    assert fm.E[len(fm) // 2].tobytes() == direct.E[len(first) // 2].tobytes()
    one = evaluate_field(sources, weights.w, focus[None, :], wl, **kwargs)
    assert np.abs(fm.E[len(fm) // 2] - one.E[0]).max() <= 1e-14 * np.abs(one.E).max()


def test_lobatto_nodes_hold_the_focus_and_the_ends():
    # every node count the predictor gives, from the shortest cut to the
    # widest plane and from a far source to one beside the axis
    counts = {cli._intervals(kh, a, 10 ** 6) for kh in np.geomspace(0.05, 40.0, 40)
              for a in (math.inf, 4.0, 2.0, 1.3, 1.01, 1.0)}
    assert all(m % 2 == 0 for m in counts) and len(counts) > 10
    for m in sorted(counts):
        nodes = cli._lobatto(m)
        assert nodes.size == m + 1
        assert np.all(np.diff(nodes) > 0.0)
        assert (nodes[0], nodes[nodes.size // 2], nodes[-1]) == (-1.0, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(kh=st.floats(0.05, 40.0),
       waves=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 1.0)),
                      min_size=1, max_size=6))
def test_predicted_nodes_resolve_plane_waves(kh, waves):
    # a field of propagating waves along an axis of half span h: amplitudes
    # a at direction cosines c, exp(j kh c t) on t in [-1, 1].  The
    # predicted first nodes leave its Chebyshev tail within the tolerance.
    t = cli._lobatto(cli._intervals(kh, math.inf, 10 ** 6))
    f = sum(a * np.exp(1j * kh * c * t) for c, a in waves)
    values = f[:, None] * np.array([1.0, -0.5j, 0.25])
    assert cli._tail(values, 0) <= cli._SPECTRAL_TOL


# the xy plane through x = 0.85 reaches x = 0.985 on a ring of radius 1, so
# its box lies within the quarter-wavelength standoff (0.075 m) of the wall
NEAR_WALL = dict(BASE, grid="plane", plane_axes="xy", focus_x_m=0.85)


def test_near_wall_plane_is_the_direct_map(tmp_path, capsys):
    assert json.loads((ROOT / "tools" / "ring_plane_near_wall.json").read_text()) == NEAR_WALL
    _, fm, direct, _, sources, stages = field_map(tmp_path, NEAR_WALL)
    assert [axis["exact"] for axis in stages.grids[0]] == ["standoff", "standoff"]
    # one evaluate_field call on the whole grid: its bytes and its flags
    assert fm.E.tobytes() == direct.E.tobytes()
    assert np.array_equal(fm.near_singular, direct.near_singular)
    near = int(np.count_nonzero(direct.near_singular))
    assert 0 < near < len(fm)
    out = tmp_path / "out"
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_WALL))
    assert cli_main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == {"sources": len(sources), "points": len(fm),
                                    "field_nodes": len(fm),
                                    "kernel_pairs": len(fm) * len(sources),
                                    "near_singular_points": near}


def count_calls(monkeypatch):
    """The points of each evaluate_field call that cli makes, in order."""
    calls = []

    def counted(sources, w, points, *args, **kwargs):
        calls.append(len(points))
        return evaluate_field(sources, w, points, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_field", counted)
    return calls


@pytest.mark.parametrize("scenario, outcome, calls", [
    # 23 x 23 nodes, then 4 spot checks
    *[pytest.param(p.values[0], [(59, 23, None)] * 2, [529, 4], id=p.id) for p in RING_PLANE],
    # the default 141-point cut: 33 nodes, then 2 spot checks
    pytest.param(BASE, [(141, 33, None)], [33, 2], id="ring-default-cut"),
])
def test_grid_resolves_at_its_first_nodes(tmp_path, monkeypatch, scenario, outcome, calls):
    made = count_calls(monkeypatch)
    *_, sources, stages = field_map(tmp_path, scenario)
    assert [(a["samples"], a["nodes"], a["exact"]) for a in stages.grids[0]] == outcome
    assert made == calls
    assert stages.counters["field_nodes"] == sum(calls)
    assert stages.counters["kernel_pairs"] == sum(calls) * len(sources)


@pytest.mark.parametrize("scenario", [
    # the y-cut through x = 0.92 keeps 0.079 m from the ring wall: the
    # source's distance asks for 25 nodes, at least its 23 samples, and its
    # 23 samples of 2,814 sources also fit one work unit
    pytest.param(json.loads((ROOT / "tools" / "ring_cut_near_wall.json").read_text()),
                 id="near-wall-y-cut"),
    # 25 samples of 2,814 sources are more than one work unit: the source's
    # distance alone asks for 25 nodes
    pytest.param(dict(BASE, cut_axis="y", focus_x_m=0.92, cut_half_span_m=0.056),
                 id="near-wall-25-sample-y-cut"),
    # 141 samples of one source fit one work unit of the kernel
    pytest.param(MIX["run-single"], id="single-element-cut"),
])
def test_grid_predicted_small_is_one_call(tmp_path, monkeypatch, scenario):
    calls = count_calls(monkeypatch)
    _, fm, direct, *_, stages = field_map(tmp_path, scenario)
    assert [axis["exact"] for axis in stages.grids[0]] == ["small"]
    assert calls == [len(fm)] and stages.counters["field_nodes"] == len(fm)
    assert fm.E.tobytes() == direct.E.tobytes()
    assert not fm.near_singular.any()


def test_small_grid_takes_no_box_scan(tmp_path, monkeypatch):
    # a cut of 9 samples is its own nodes: no standoff scan, one call
    def refuse(*args):
        raise AssertionError("box scan on a small grid")

    monkeypatch.setattr(Aperture, "scan_box", refuse)
    _, fm, direct, *_, stages = field_map(tmp_path, dict(BASE, cut_half_span_m=4 * 0.3 / 64))
    assert len(fm) == 9
    assert [axis["exact"] for axis in stages.grids[0]] == ["small"]
    assert stages.counters["field_nodes"] == 9
    assert fm.E.tobytes() == direct.E.tobytes()


def test_unresolved_axis_is_evaluated_at_its_samples(tmp_path, monkeypatch):
    # a tail that never reads resolved: the 41-sample cut's 21 nodes are
    # its only level, and then it is evaluated at its samples
    monkeypatch.setattr(cli, "_tail", lambda values, axis: 1.0)
    _, fm, direct, _, sources, stages = field_map(
        tmp_path, dict(BASE, cut_axis="y", cut_half_span_m=20 * 0.3 / 64))
    (axis,) = stages.grids[0]
    assert axis["exact"] == "unresolved" and axis["nodes"] == axis["samples"] == 41
    assert axis["tail"] > 1e-13 and axis["spot_check"] is None
    # the 21 nodes, then every sample, the focus and the ends included
    assert stages.counters["field_nodes"] == 21 + 41
    assert np.abs(fm.E - direct.E).max() <= PARITY * np.abs(direct.E).max()
    assert not fm.near_singular.any()


def test_near_wall_cuts_resolve_at_their_nodes():
    # cuts through x = 0.9 on the ring of radius 1, whose sources lie beside
    # the axis, not beyond its ends: a box-distance ellipse left these six
    # unresolved; each source's own ellipse resolves them at their nodes
    path = ROOT / "tools" / "node_sweep.py"
    spec = importlib.util.spec_from_file_location("field_grids_node_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    cuts = [*sweep.sweep(("y", "z"), (0.9,), (0.1, 0.15)), *sweep.sweep(("z",), (0.9,), (0.3, 0.33))]
    assert len(cuts) == 6
    for cut in cuts:
        # the nodes and two spot checks
        assert cut["exact"] is None, cut
        assert cut["field_nodes"] == cut["nodes"] + 2 < cut["samples"], cut


def test_spot_check_miss_makes_axis_exact(tmp_path, monkeypatch):
    # a first level of 9 nodes per axis, below the predicted 19 and 21, and a
    # tail that always reads resolved: the spot checks then refuse them
    monkeypatch.setattr(cli, "_intervals", lambda kh, a, samples: 8)
    monkeypatch.setattr(cli, "_tail", lambda values, axis: 0.0)
    _, fm, direct, *_, stages = field_map(
        tmp_path, dict(BASE, grid="plane", plane_half_span_a_m=0.05, plane_half_span_b_m=0.08))
    assert [(a["exact"], a["nodes"]) for a in stages.grids[0]] == [("spot-check", 23),
                                                                  ("spot-check", 35)]
    assert all(a["spot_check"] > 1e-13 for a in stages.grids[0])
    assert np.abs(fm.E - direct.E).max() <= PARITY * np.abs(direct.E).max()


def test_dipole_approx_grid_inside_standoff_refused(tmp_path, capsys):
    # the y-cut through x = 0.9 reaches y = +-0.33, 0.056 m from the nearest
    # dipole: the grid is exact, and evaluate_field refuses it
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(BASE, kernel="dipole-approx", cut_axis="y",
                                    focus_x_m=0.9)))
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", str(path), "--out", str(out)])
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert code == 2
    assert error == {"code": "run-failed",
                     "message": "a point lies 0.055573927075620484 m from a source, inside "
                                "the quarter-wavelength standoff 0.0749481145 m"}
    assert not (out / "cut.csv").exists()


def test_dipole_approx_near_wall_refusal_names_least_distance(tmp_path, capsys):
    # the near-wall plane is exact (standoff), and the approximate kernel
    # refuses it naming the least point-source distance over the whole grid,
    # the same at every thread count
    scenario = dict(NEAR_WALL, kernel="dipole-approx")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    s, _ = cli.load_scenario(path)
    wl = Wavelength.from_frequency(s["frequency_hz"])
    sources = cli._aperture(s, wl, cli._Stages(tmp_path, 1))
    axes = cli._plane(s)
    grid = cli._points(cli._focus(s), [a for a, _ in axes], [o for _, o in axes])
    src = sources.positions(0, len(sources))
    least = min(float(np.sqrt(((block[:, :, None] - src) ** 2).sum(axis=1)).min())
                for block in np.array_split(grid, -(-len(grid) // 256)))
    assert least < 0.25 * wl.lam
    lines = set()
    for threads in ["1", "3"] + ["2"] * 10:
        out = tmp_path / f"out{threads}"
        code = cli_main(["run", "--scenario", str(path), "--out", str(out),
                         "--threads", threads])
        assert code == 2
        lines.add(capsys.readouterr().out)
    line, = lines
    error = json.loads(line)["error"]
    assert error["code"] == "run-failed"
    assert error["message"] == (f"a point lies {least!r} m from a source, inside the "
                                f"quarter-wavelength standoff {0.25 * wl.lam!r} m")


@pytest.mark.parametrize("scenario", [
    pytest.param(RING_PLANE[1].values[0], id="ring-plane-seed41"),
    pytest.param(MIX["run-magnetic-mesh"], id="magnetic-mesh-cut"),
    pytest.param(NEAR_WALL, id="near-wall-plane"),
])
def test_artifacts_same_bytes_across_threads(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    outs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}"
        assert cli_main(["run", "--scenario", str(path), "--out", str(out),
                         "--threads", threads]) == 0
        outs.append(out)
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert "metrics.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() \
            == (outs[2] / name).read_bytes()
    grids = [json.loads((out / "manifest.json").read_text())["field_grids"] for out in outs]
    assert grids[0] == grids[1] == grids[2]


def test_spectral_run_loads_no_numpy_submodule(tmp_path):
    # a fresh interpreter: np.isin, for one, loads numpy.ma on first use
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(BASE, grid="plane", plane_half_span_a_m=0.05,
                                    plane_half_span_b_m=0.05)))
    script = f"""if True:
        import json, sys
        from nearfocus import cli
        before = set(sys.modules)
        code = cli.main(["run", "--scenario", {str(path)!r}, "--out", {str(tmp_path / "out")!r}])
        print(json.dumps([code, sorted(set(sys.modules) - before)]))
    """
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert not [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")]
    grids = json.loads((tmp_path / "out" / "manifest.json").read_text())["field_grids"]
    assert [axis["exact"] for axis in grids[0]] == [None, None]


# ------------------------------------------------------------ resistance runs

@pytest.mark.parametrize("seed", range(4))
def test_resistances_fill_runs_as_repeat(seed):
    # runs of 0 to 3 ports, and a few long ones across block edges
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=30_000)
    counts[rng.integers(0, counts.size, 3)] = rng.integers(1, 3 * fields._PORT_BLOCK, 3)
    scale = rng.uniform(0.5, 2.0, counts.size)
    n = int(counts.sum())
    h = ChannelVector(np.ones(n, dtype=complex), scale, counts)
    out = np.full(n, np.nan)
    assert h.resistances(50.0, out=out) is out
    assert out.tobytes() == (np.repeat(scale, counts) * 50.0).tobytes()
    assert port_scales(h).tobytes() == np.repeat(scale, counts).tobytes()
    # any span of ports from its start, as the solve fills one block's
    for start, size in zip(rng.integers(0, n, 5), rng.integers(0, 3 * fields._PORT_BLOCK, 5)):
        part = np.full(min(size, n - start), np.nan)
        assert h.resistances(50.0, out=part, start=start) is part
        assert part.tobytes() == out[start:start + part.size].tobytes()


def test_resistances_peak_is_one_block():
    n = 1_000_000
    scale = np.random.default_rng(1).uniform(0.5, 2.0, n)
    h = ChannelVector(np.ones(n, dtype=complex), scale, np.ones(n, dtype=np.intp))
    out = np.empty(n)
    tracemalloc.start()
    try:
        h.resistances(50.0, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block's run counts and repeated scales, 8 B each per port
    assert peak <= 2 * 8 * fields._PORT_BLOCK + 4096
    assert out.tobytes() == (scale * 50.0).tobytes()
