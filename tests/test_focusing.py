"""Weight solvers: closed-form examples, regime behavior, optimality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus import csvio, focusing
from nearfocus.fields import ChannelVector, assemble_channel
from nearfocus.focusing import (
    ZERO_CHANNEL_CUTOFF,
    ExcitationWeights,
    PowerConstraints,
    cp_weights,
    hybrid_weights,
    tr_weights,
    weights_sidecar,
)
from nearfocus.geometry import CylinderSpec, Wavelength, build_ring_array

from oracles import optimality_oracle, stable_water_level


def channel_from_g(g, resistance_scale=None):
    g = np.asarray(g, dtype=complex)
    rs = np.ones(g.size) if resistance_scale is None else np.asarray(resistance_scale, float)
    return ChannelVector(g, rs)


def power_of(w, R):
    return float(np.sum(0.5 * R * np.abs(w) ** 2))


# ---------------------------------------------------------------------- CP

def test_cp_phase_conjugation_example():
    h = channel_from_g([1.0, 1.0j, -1.0])
    pc = PowerConstraints(w_max=2.0, P0=1e9, R0_per_port=50.0)
    weights, report = cp_weights(h, pc)
    assert np.allclose(weights.w, [2.0, -2.0j, -2.0], atol=1e-14)
    assert report.E_focus == pytest.approx(6.0, abs=1e-12)
    assert report.active_constraint == "local"
    assert weights.regime == "CP"


def test_cp_single_element():
    h = channel_from_g([3.0])
    pc = PowerConstraints(w_max=0.7, P0=1e9, R0_per_port=50.0)
    weights, report = cp_weights(h, pc)
    assert weights.w[0] == pytest.approx(0.7)
    assert report.E_focus == pytest.approx(0.7 * 3.0)


def test_cp_uniform_rescale_when_budget_binds():
    h = channel_from_g([1.0, 1.0j, -1.0, 1.0])
    # at w_max the power is 4 * (2/2) * 1 = 4 W; halve it
    pc = PowerConstraints(w_max=1.0, P0=2.0, R0_per_port=2.0)
    weights, report = cp_weights(h, pc)
    assert np.allclose(np.abs(weights.w), 1.0 / math.sqrt(2.0), atol=1e-14)
    phases = np.angle(weights.w) + np.angle(np.array([1.0, 1.0j, -1.0, 1.0]))
    assert np.allclose(np.mod(phases + 1e-12, 2 * math.pi), 0.0, atol=1e-9)
    assert report.active_constraint == "both"
    assert weights.total_power == pytest.approx(2.0, rel=1e-12)


def test_cp_zero_channel_entries_get_zero_weight():
    h = channel_from_g([1.0, 0.0, 2.0j])
    pc = PowerConstraints(w_max=1.0, P0=1e9, R0_per_port=50.0)
    weights, _ = cp_weights(h, pc)
    assert weights.w[1] == 0.0
    with pytest.raises(ValueError):
        cp_weights(channel_from_g([0.0, 0.0]), pc)


# ---------------------------------------------------------------------- TR

def test_tr_worked_current_level():
    # 2000 equal-strength ports, 1 W into 50 ohm: ~4.5 mA peak drive
    h = channel_from_g(np.exp(1j * np.linspace(0.0, 5.0, 2000)))
    pc = PowerConstraints(w_max=1e9, P0=1.0, R0_per_port=50.0)
    weights, report = tr_weights(h, pc)
    assert np.max(np.abs(weights.w)) == pytest.approx(math.sqrt(2.0 / (50.0 * 2000.0)),
                                                      rel=1e-12)
    assert np.max(np.abs(weights.w)) == pytest.approx(0.0045, abs=5e-5)
    assert weights.total_power == pytest.approx(1.0, rel=1e-12)
    assert report.active_constraint == "global"


def test_tr_single_element_degeneracy():
    g = [2.0 - 1.0j]
    pc = PowerConstraints(w_max=math.sqrt(2.0 * 1.0 / 50.0), P0=1.0, R0_per_port=50.0)
    _, rep_tr = tr_weights(channel_from_g(g), pc)
    _, rep_cp = cp_weights(channel_from_g(g), pc)
    assert abs(rep_tr.E_focus) == pytest.approx(abs(rep_cp.E_focus), rel=1e-12)


def test_tr_amplitude_proportionality():
    g = np.array([1.0, 2.0j, -3.0, 0.5 + 0.5j])
    pc = PowerConstraints(w_max=1e9, P0=2.0, R0_per_port=10.0)
    weights, _ = tr_weights(channel_from_g(g), pc)
    ratios = np.abs(weights.w) / np.abs(g)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12 * ratios[0]


def test_tr_nonuniform_port_resistance():
    g = np.array([1.0, 1.0])
    scale = np.array([1.0, 4.0])
    pc = PowerConstraints(w_max=1e9, P0=1.0, R0_per_port=2.0)
    weights, report = tr_weights(channel_from_g(g, scale), pc)
    # w ~ conj(g)/R: the high-resistance port is driven 4x softer
    assert abs(weights.w[0]) == pytest.approx(4.0 * abs(weights.w[1]), rel=1e-12)
    assert power_of(weights.w, pc.R0_per_port * scale) == pytest.approx(1.0, rel=1e-12)
    assert abs(report.E_focus) == pytest.approx(
        math.sqrt(2.0 * 1.0 * (1.0 / 2.0 + 1.0 / 8.0)), rel=1e-12)


# ------------------------------------------------------------------ hybrid

def test_hybrid_no_clip_matches_tr():
    g = np.exp(1j * np.linspace(0.2, 4.0, 64)) * np.linspace(1.0, 3.0, 64)
    pc = PowerConstraints(w_max=1e6, P0=1.0, R0_per_port=50.0)
    w_h, rep_h = hybrid_weights(channel_from_g(g), pc)
    w_t, rep_t = tr_weights(channel_from_g(g), pc)
    assert w_h.regime == "TR"
    assert rep_h.active_constraint == "global"
    # one solver path: the same drive, level and focal field, bit for bit
    assert np.array_equal(w_h.w, w_t.w)
    assert rep_h.beta == rep_t.beta
    assert rep_h.E_focus == rep_t.E_focus


def test_hybrid_all_clip_matches_cp():
    # unequal |g|, so the cap times the unit phasor is not a trivial product
    g = np.exp(1j * np.linspace(0.2, 4.0, 16)) * np.linspace(0.5, 2.0, 16)
    pc = PowerConstraints(w_max=1e-3, P0=1e9, R0_per_port=50.0)
    w_h, rep_h = hybrid_weights(channel_from_g(g), pc)
    w_c, _ = cp_weights(channel_from_g(g), pc)
    assert w_h.regime == "CP"
    assert rep_h.active_constraint == "local"
    assert np.array_equal(w_h.w, w_c.w)


def test_hybrid_two_element_water_level():
    # one element clips at 0.8 A, the rest of the 1 W budget is 0.6 A
    g = np.array([2.0 * np.exp(0.3j), 1.0 * np.exp(-1.1j)])
    pc = PowerConstraints(w_max=0.8, P0=1.0, R0_per_port=2.0)
    weights, report = hybrid_weights(channel_from_g(g), pc)
    assert weights.regime == "hybrid"
    assert report.active_constraint == "both"
    assert abs(weights.w[0]) == pytest.approx(0.8, abs=1e-9)
    assert abs(weights.w[1]) == pytest.approx(0.6, abs=1e-9)
    # the level in |w| = min(beta*|g|/R, cap): 0.6 A over |g_2|/R = 0.5
    assert report.beta == pytest.approx(0.6 / 0.5, rel=1e-8)
    assert weights.total_power == pytest.approx(1.0, rel=1e-9)


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_hybrid_properties(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    g[np.abs(g) < 1e-3] = 1e-3  # keep away from the idle-element cutoff
    pc = PowerConstraints(w_max=float(rng.uniform(0.05, 2.0)),
                          P0=float(rng.uniform(0.1, 4.0)),
                          R0_per_port=float(rng.uniform(0.5, 80.0)))
    weights, report = hybrid_weights(channel_from_g(g), pc)
    absw = np.abs(weights.w)
    absg = np.abs(g)
    # monotone water level: stronger channels never get softer drive
    order = np.argsort(absg)
    assert np.all(np.diff(absw[order]) >= -1e-12 * pc.w_max)
    # phase law: weights conjugate the channel phase
    live = absw > 0
    resid = np.angle(weights.w[live] * g[live] / np.abs(g[live]))
    assert np.max(np.abs(resid)) < 1e-9
    # feasibility and saturation of at least one constraint
    assert np.max(absw) <= pc.w_max * (1.0 + 1e-12)
    power = power_of(weights.w, pc.R0_per_port * np.ones(n))
    assert power <= pc.P0 * (1.0 + 1e-9)
    saturated_local = np.max(absw) >= pc.w_max * (1.0 - 1e-9)
    saturated_global = power >= pc.P0 * (1.0 - 1e-6)
    assert saturated_local or saturated_global
    # scale invariance of the weight shape
    w2, _ = hybrid_weights(channel_from_g(3.7 * g), pc)
    prof1 = absw / np.linalg.norm(absw)
    prof2 = np.abs(w2.w) / np.linalg.norm(w2.w)
    assert np.max(np.abs(prof1 - prof2)) < 1e-10


@pytest.mark.parametrize("frequency", [1.0e9, 3.0e9, 6.0e9])
@pytest.mark.parametrize("polarization, target", [("axial", 2), ("azimuthal", 0)])
def test_hybrid_stronger_channel_gets_larger_drive(frequency, polarization, target):
    """When both constraints bind, the ports with the larger |g|/R clip and
    the rest follow the TR taper, on the 10 m x 1 m ring at any frequency
    and for either element polarization."""
    wl = Wavelength.from_frequency(frequency)
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=10.0), wl,
                              polarization=polarization)
    h = assemble_channel(layout, np.zeros(3), np.eye(3)[target], wl)
    R = 50.0 * h.resistance_scale
    v = np.abs(h.g) / R
    live = np.abs(h.g) >= ZERO_CHANNEL_CUTOFF * np.max(np.abs(h.g))
    # a cap between the all-clipped drive that meets the 1 W budget and
    # the largest TR amplitude, so both constraints bind
    all_clipped = math.sqrt(2.0 / np.sum(R[live]))
    tr_peak = math.sqrt(2.0 / np.sum(R[live] * v[live] ** 2)) * np.max(v)
    cap = math.sqrt(all_clipped * tr_peak)
    weights, report = hybrid_weights(h, PowerConstraints(w_max=cap, P0=1.0,
                                                         R0_per_port=50.0))
    assert weights.regime == "hybrid"
    amp = np.abs(weights.w)
    assert np.all(amp[~live] == 0.0)
    assert np.max(amp) <= cap * (1.0 + 1e-12)
    clipped = amp >= cap * (1.0 - 1e-12)
    unclipped = live & ~clipped
    assert clipped.any() and unclipped.any()
    # the clipped set is the top of the |g|/R order (safe with ties) ...
    assert np.min(v[clipped]) >= np.max(v[unclipped])
    # ... and below it the drive is the TR taper at the reported level
    np.testing.assert_allclose(amp[unclipped], report.beta * v[unclipped], rtol=1e-12)
    assert weights.total_power == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("polarization", ["axial", "azimuthal"])
@pytest.mark.parametrize("drive", [cp_weights, tr_weights, hybrid_weights])
def test_ring_weights_follow_a_rotation_of_the_focus(drive, polarization):
    """Rotating the focus by 2*pi/M about the axis moves every ring's
    weights one slot on (row i is ring i // M, slot i % M), to roundoff."""
    wl = Wavelength.from_frequency(1.0e9)
    layout = build_ring_array(CylinderSpec(radius_a=1.0, length_L=10.0), wl,
                              polarization=polarization)
    m, nz = len(layout.strips[0]), layout.z.size
    x, y, z = 0.3, 0.1, 1.234
    c, s = math.cos(2.0 * math.pi / m), math.sin(2.0 * math.pi / m)
    e_z = np.array([0.0, 0.0, 1.0])
    h = assemble_channel(layout, np.array([x, y, z]), e_z, wl)
    h_rot = assemble_channel(layout, np.array([c * x - s * y, s * x + c * y, z]), e_z, wl)
    # a cap between the all-clipped drive that meets the 1 W budget and
    # the largest TR amplitude, so the hybrid drive clips
    R = 50.0 * h.resistance_scale
    v = np.abs(h.g) / R
    all_clipped = math.sqrt(2.0 / np.sum(R))
    tr_peak = math.sqrt(2.0 / np.sum(R * v ** 2)) * np.max(v)
    pc = PowerConstraints(w_max=math.sqrt(all_clipped * tr_peak), P0=1.0, R0_per_port=50.0)
    weights, _ = drive(h, pc)
    rotated, _ = drive(h_rot, pc)
    assert rotated.regime == weights.regime
    if drive is hybrid_weights:
        assert weights.regime == "hybrid"
    w = weights.w
    moved = np.roll(w.reshape(nz, m), 1, axis=1).ravel()
    assert np.max(np.abs(rotated.w - moved)) <= 1e-12 * np.max(np.abs(w))


def assert_level_matches_stable_order(h, monkeypatch):
    """The hybrid drive at 1 W and R0 = 1 ohm has the bits it has when the
    water level always sorts the ports stably."""
    # a cap between the all-clipped drive that meets the budget and the
    # largest TR amplitude, so both constraints bind
    R = h.resistance_scale
    v = np.abs(h.g) / R
    all_clipped = math.sqrt(2.0 / np.sum(R))
    tr_peak = math.sqrt(2.0 / np.sum(R * v ** 2)) * np.max(v)
    pc = PowerConstraints(w_max=math.sqrt(all_clipped * tr_peak), P0=1.0, R0_per_port=1.0)
    weights, report = hybrid_weights(h, pc)
    assert weights.regime == "hybrid"
    monkeypatch.setattr(focusing, "_water_level", stable_water_level)
    want_weights, want_report = hybrid_weights(h, pc)
    assert report.beta == want_report.beta
    assert weights.w.tobytes() == want_weights.w.tobytes()


def test_water_level_ties_keep_the_stable_order(monkeypatch):
    # |g| = level * R with R = scale and a power-of-two level, so |g|/R is
    # exactly the level: eight values, each shared by ports of unequal R,
    # whose order in the level's sums moves its last bits
    rng = np.random.default_rng(3)
    n = 4000
    scale = rng.uniform(0.5, 2.0, n)
    level = 2.0 ** -rng.integers(0, 8, n).astype(float)
    g = level * scale * rng.choice([1.0, -1.0, 1j, -1j], n)
    h = channel_from_g(g, scale)
    v = np.abs(h.g) / h.resistance_scale
    assert np.array_equal(v, level)
    assert np.unique(scale[level == 1.0]).size > 100
    assert_level_matches_stable_order(h, monkeypatch)


def test_water_level_without_ties_matches_the_stable_order(monkeypatch):
    rng = np.random.default_rng(4)
    n = 4000
    h = channel_from_g(rng.normal(size=n) + 1j * rng.normal(size=n),
                       rng.uniform(0.5, 2.0, n))
    v = np.abs(h.g) / h.resistance_scale
    assert np.unique(v).size == n
    assert_level_matches_stable_order(h, monkeypatch)


# ------------------------------------------------------------------ oracle

def test_oracle_rejects_large_instances():
    g = np.ones(300, dtype=complex)
    pc = PowerConstraints(w_max=1.0, P0=1.0, R0_per_port=1.0)
    w = ExcitationWeights(w=g, regime="CP", total_power=1.0)
    with pytest.raises(ValueError):
        optimality_oracle(channel_from_g(g), pc, w)


def test_oracle_matches_cp_closed_form():
    g = np.exp(1j * np.linspace(0.0, 3.0, 12)) * np.linspace(0.5, 2.0, 12)
    pc = PowerConstraints(w_max=0.3, P0=1e9, R0_per_port=50.0)
    h = channel_from_g(g)
    weights, report = cp_weights(h, pc)
    rep = optimality_oracle(h, pc, weights, seed=1)
    assert rep.oracle_objective == pytest.approx(abs(report.E_focus), rel=1e-9)
    assert abs(rep.relative_gap) < 1e-9


def test_oracle_matches_tr_closed_form():
    g = np.exp(1j * np.linspace(0.0, 3.0, 12)) * np.linspace(0.5, 2.0, 12)
    pc = PowerConstraints(w_max=1e9, P0=2.0, R0_per_port=50.0)
    h = channel_from_g(g)
    weights, report = tr_weights(h, pc)
    rep = optimality_oracle(h, pc, weights, seed=1)
    assert rep.oracle_objective == pytest.approx(abs(report.E_focus), rel=1e-9)
    assert abs(rep.relative_gap) < 1e-9


def test_oracle_certifies_hybrid_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.choice([4, 16, 64]))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        pc = PowerConstraints(w_max=float(rng.uniform(0.02, 1.5)),
                              P0=float(rng.uniform(0.1, 4.0)),
                              R0_per_port=float(rng.uniform(1.0, 80.0)))
        h = channel_from_g(g)
        weights, _ = hybrid_weights(h, pc)
        rep = optimality_oracle(h, pc, weights, seed=trial)
        assert abs(rep.relative_gap) <= 1e-7


# ------------------------------------------------------------------ export

def test_weights_rows_and_sidecar(tmp_path):
    g = np.array([2.0 * np.exp(0.3j), 1.0 * np.exp(-1.1j)])
    pc = PowerConstraints(w_max=0.8, P0=1.0, R0_per_port=2.0)
    weights, report = hybrid_weights(channel_from_g(g), pc)
    path = tmp_path / "weights.csv"
    csvio.write_csv(path, {"index": np.arange(2), "amplitude_a": np.abs(weights.w),
                           "phase_rad": csvio.angle(weights.w)})
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows[0][0] == 0 and rows[1][0] == 1
    assert rows[0][1] == pytest.approx(0.8, abs=1e-9)
    assert rows[0][2] == pytest.approx(-0.3, abs=1e-9)
    side = weights_sidecar(weights, report)
    assert side["regime"] == "hybrid"
    assert side["total_power_w"] == pytest.approx(1.0, rel=1e-9)
    assert side["beta"] > 0
