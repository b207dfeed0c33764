"""Weight solvers: closed-form examples, regime behavior, optimality."""

import math
import tracemalloc

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
)
from nearfocus.geometry import (
    CylinderSpec,
    RectCorridorSpec,
    Wavelength,
    build_rect_corridor_mesh,
    build_ring_array,
)

from oracles import optimality_oracle, port_scales, stable_water_level


def channel_from_g(g, resistance_scale=None):
    g = np.asarray(g, dtype=complex)
    rs = np.ones(g.size) if resistance_scale is None else np.asarray(resistance_scale, float)
    # per-port scales: runs of one port each
    return ChannelVector(g, rs, np.ones(g.size, dtype=np.intp))


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


def test_cp_budget_level_sums_only_live_ports():
    # three live ports at the cap would draw 3 W; the idle one draws nothing,
    # so the level is sqrt(2 * 2 / (3 * 2)), not sqrt(2 * 2 / (4 * 2))
    h = channel_from_g([1.0, 0.0, 1.0j, -1.0])
    pc = PowerConstraints(w_max=1.0, P0=2.0, R0_per_port=2.0)
    weights, report = cp_weights(h, pc)
    assert (weights.regime, report.active_constraint, report.beta) == ("CP", "both", 0.0)
    assert np.allclose(np.abs(weights.w[[0, 2, 3]]), math.sqrt(2.0 / 3.0), rtol=1e-14, atol=0.0)
    assert weights.w[1] == 0.0
    assert weights.total_power == pytest.approx(pc.P0, rel=1e-12)


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
    R = 50.0 * port_scales(h)
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
    R = 50.0 * port_scales(h)
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


def both_bind(h):
    """Constraints at 1 W and R0 = 1 ohm with a cap between the all-clipped
    drive that meets the budget and the largest TR amplitude, so that both
    constraints bind."""
    R = port_scales(h)
    v = np.abs(h.g) / R
    all_clipped = math.sqrt(2.0 / np.sum(R))
    tr_peak = math.sqrt(2.0 / np.sum(R * v ** 2)) * np.max(v)
    return PowerConstraints(w_max=math.sqrt(all_clipped * tr_peak), P0=1.0, R0_per_port=1.0)


def fsum_level(v, R, cap, P0, beta):
    """The water level's closed form over the ports that clip at beta,
    with exactly rounded sums."""
    c = v >= cap / beta
    return math.sqrt((P0 - 0.5 * cap ** 2 * math.fsum(R[c]))
                     / (0.5 * math.fsum(R[~c] * v[~c] ** 2)))


def assert_level_is_exact(h):
    """The hybrid drive's level is within 4 ulp of its closed form with
    exact sums over its own clipped set, within 1e-11 of the level of the
    stable-sort oracle, and within 4 ulp of the level of the same ports
    in another order; idle ports get exact zeros."""
    pc = both_bind(h)
    weights, report = hybrid_weights(h, pc)
    assert weights.regime == "hybrid"
    beta, ulp = report.beta, math.ulp(report.beta)
    R = pc.R0_per_port * port_scales(h)
    absg = np.abs(h.g)
    live = absg >= ZERO_CHANNEL_CUTOFF * np.max(absg)
    v = absg[live] / R[live]
    assert abs(beta - fsum_level(v, R[live], pc.w_max, pc.P0, beta)) <= 4 * ulp
    assert beta == pytest.approx(stable_water_level(v, R[live], pc.w_max, pc.P0),
                                 rel=1e-11, abs=0.0)
    order = np.random.default_rng(0).permutation(len(h))
    _, permuted = hybrid_weights(channel_from_g(h.g[order], port_scales(h)[order]), pc)
    assert abs(permuted.beta - beta) <= 4 * ulp
    assert weights.w[~live].tobytes() == bytes(16 * np.count_nonzero(~live))
    assert np.all(weights.w[live] != 0.0)


def test_water_level_with_ties_is_exact():
    # |g| = level * R with R = scale and a power-of-two level, so |g|/R is
    # exactly the level: eight values, each shared by ports of unequal R,
    # which clip together
    rng = np.random.default_rng(3)
    n = 4000
    scale = rng.uniform(0.5, 2.0, n)
    level = 2.0 ** -rng.integers(0, 8, n).astype(float)
    g = level * scale * rng.choice([1.0, -1.0, 1j, -1j], n)
    h = channel_from_g(g, scale)
    v = np.abs(h.g) / port_scales(h)
    assert np.array_equal(v, level)
    assert np.unique(scale[level == 1.0]).size > 100
    assert_level_is_exact(h)


def test_water_level_with_idle_ports_is_exact():
    # exact zeros and entries below the idle cutoff: they weigh nothing
    # in the level, and w is written over v's buffer, which must keep
    # idle ports at +0
    rng = np.random.default_rng(5)
    n = 4000
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    idle = rng.random(n) < 0.2
    g[idle] *= np.where(rng.random(idle.sum()) < 0.5, 0.0, 1e-17)
    h = channel_from_g(g, rng.uniform(0.5, 2.0, n))
    assert np.count_nonzero(h.g[idle]) > 300
    assert_level_is_exact(h)


def test_water_level_without_ties_is_exact():
    rng = np.random.default_rng(4)
    n = 4000
    h = channel_from_g(rng.normal(size=n) + 1j * rng.normal(size=n),
                       rng.uniform(0.5, 2.0, n))
    v = np.abs(h.g) / port_scales(h)
    assert np.unique(v).size == n
    assert_level_is_exact(h)


def test_water_level_at_a_million_ports():
    # lognormal |g| over 10^6 ports, where a sorted sequential cumsum was
    # up to 1.1e-13 off exactly rounded sums; here it left the power
    # 2.2e-15 off the budget
    rng = np.random.default_rng(20)
    n = 1_000_000
    g = rng.lognormal(0.0, 1.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    h = channel_from_g(g, rng.uniform(0.5, 2.0, n))
    pc = both_bind(h)
    weights, report = hybrid_weights(h, pc)
    assert weights.regime == "hybrid"
    v = np.abs(h.g) / port_scales(h)
    want = fsum_level(v, port_scales(h), pc.w_max, pc.P0, report.beta)
    assert abs(report.beta - want) <= 2e-15 * want
    assert abs(weights.total_power - pc.P0) <= 1e-15 * pc.P0


@given(st.sampled_from(["ties", "heavy tails", "all but one clipped"]),
       st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**31),
       st.one_of(st.just(1.0), st.floats(min_value=1e-15, max_value=1.0)))
@settings(max_examples=100, deadline=None)
def test_water_level_ends_at_the_optimum(kind, n, seed, share):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 2.0, n)
    R = 50.0 * scale
    if kind == "ties":
        absg = scale * rng.choice([0.25, 0.5, 1.0], n)
    elif kind == "heavy tails":
        absg = rng.pareto(rng.uniform(0.3, 3.0), n) + 1e-3
    else:
        absg = rng.uniform(0.1, 1.0, n)
        absg[rng.integers(n)] *= 10.0 ** -rng.uniform(0.0, 12.0)
    h = channel_from_g(absg * np.exp(1j * rng.uniform(-math.pi, math.pi, n)), scale)
    v = absg / R
    if kind == "all but one clipped":
        # every port but the weakest at the cap, and the weakest between
        # its amplitude at the level where the next one reaches the cap
        # (share 1: a tie at the cap, and the rest's power can be below
        # the budget's last bits) and the cap itself (share 0, where the
        # budget nears the all-clipped power)
        cap = 0.1
        weak, nxt = np.argsort(v)[:2]
        ratio = v[weak] / v[nxt]
        amplitude = cap * (ratio + (1.0 - ratio) * (1.0 - share))
        P0 = 0.5 * cap ** 2 * (np.sum(R) - R[weak]) + 0.5 * R[weak] * amplitude ** 2
    else:
        # a cap between the all-clipped drive that meets the budget
        # (share 1) and the largest TR amplitude (share 0)
        P0 = 1.0
        all_clipped = math.sqrt(2.0 * P0 / np.sum(R))
        tr_peak = math.sqrt(2.0 * P0 / np.sum(R * v ** 2)) * np.max(v)
        cap = all_clipped ** share * tr_peak ** (1.0 - share)
    pc = PowerConstraints(w_max=float(cap), P0=float(P0), R0_per_port=50.0)
    weights, _ = hybrid_weights(h, pc)
    amp = np.abs(weights.w)
    assert np.max(amp) <= pc.w_max * (1.0 + 1e-12)
    assert weights.total_power <= pc.P0 * (1.0 + 1e-12)
    if weights.regime == "hybrid":
        assert weights.total_power == pytest.approx(pc.P0, rel=1e-12)
    if kind == "all but one clipped":
        assert np.count_nonzero(amp >= pc.w_max * (1.0 - 1e-9)) >= n - 1
    assert abs(optimality_oracle(h, pc, weights, seed=seed % 1000).relative_gap) <= 1e-7


@pytest.mark.parametrize("drive, regime", [(cp_weights, "CP"), (tr_weights, "TR"),
                                           (hybrid_weights, "hybrid")])
def test_one_idle_port_gets_an_exact_zero(drive, regime):
    # every port live but one, whose |g| is nonzero but below the cutoff:
    # its weight is +0+0j to the bit, and no live weight is 0
    rng = np.random.default_rng(8)
    n = 64
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    g[17] = -1e-17 - 1e-17j
    h = channel_from_g(g, rng.uniform(0.5, 2.0, n))
    pc = both_bind(h) if drive is hybrid_weights else PowerConstraints(
        w_max=1.0, P0=1.0e3, R0_per_port=1.0)
    weights, _ = drive(h, pc)
    assert weights.regime == regime
    assert weights.w[17].tobytes() == bytes(16)
    assert np.all(np.delete(weights.w, 17) != 0.0)


@pytest.mark.parametrize("drive, budget, regime, clipped", [
    (hybrid_weights, 1.0, "hybrid", lambda c, live: 0 < c < live),
    # TR has no cap: its strongest ports run above w_max, and none clips
    (tr_weights, 1.0, "TR", lambda c, live: c == 0),
    (cp_weights, 1e9, "CP", lambda c, live: c == live),
    # the budget binds: every live port at the one level below the cap
    (cp_weights, 1.0, "CP", lambda c, live: c == 0),
], ids=["hybrid", "TR", "CP-local", "CP-both"])
def test_report_counts_clipped_and_idle_ports(drive, budget, regime, clipped):
    # over three blocks of ports: eight values of |g|/R, each shared by
    # ports that reach the cap together, exact zeros and entries below the
    # idle cutoff; the report counts the ports of the weights it returns
    rng = np.random.default_rng(9)
    n = 2 * focusing._PORT_BLOCK + 1000
    scale = rng.uniform(0.5, 2.0, n)
    g = 2.0 ** -rng.integers(0, 8, n) * scale * rng.choice([1.0, -1.0, 1j, -1j], n)
    idle = rng.random(n) < 0.1
    g[idle] *= np.where(rng.random(idle.sum()) < 0.5, 0.0, 1e-17)
    h = channel_from_g(g, scale)
    assert np.count_nonzero(h.g[idle]) > 500
    pc = both_bind(h)
    pc = PowerConstraints(pc.w_max, budget * pc.P0, pc.R0_per_port)
    weights, report = drive(h, pc)
    assert weights.regime == regime
    amplitude = np.abs(weights.w)
    cap = math.inf if drive is tr_weights else pc.w_max
    assert report.clipped_ports == np.count_nonzero(amplitude >= cap * (1 - 1e-12))
    if drive is tr_weights:
        assert np.count_nonzero(amplitude >= pc.w_max) > 0
    assert report.idle_ports == np.count_nonzero(weights.w == 0) == np.count_nonzero(idle)
    assert clipped(report.clipped_ports, n - report.idle_ports)


@pytest.mark.parametrize("drive, regime", [(cp_weights, "CP"), (tr_weights, "TR"),
                                           (hybrid_weights, "hybrid")])
def test_resistance_runs_solve_as_their_ports(drive, regime):
    # a corridor whose x walls and y walls have patches of different area:
    # the channel's one scale per wall gives the bytes of its per-port form
    wl = Wavelength.from_frequency(1.0e9)
    mesh = build_rect_corridor_mesh(RectCorridorSpec(width_La=1.0, height_Lb=0.5,
                                                     length_L=1.3), 0.07, wl)
    h = assemble_channel(mesh, np.array([0.1, -0.05, 0.2]), np.array([0.0, 0.0, 1.0]), wl)
    per_port = ChannelVector(h.g, port_scales(h), np.ones(len(h), dtype=np.intp))
    assert np.unique(port_scales(per_port)).size == 2
    pc = both_bind(h)
    weights, report = drive(h, pc)
    want_weights, want_report = drive(per_port, pc)
    assert weights.regime == want_weights.regime == regime
    assert weights.w.tobytes() == want_weights.w.tobytes()
    assert weights.total_power == want_weights.total_power
    assert report.E_focus == want_report.E_focus
    assert report.beta == want_report.beta


@pytest.mark.parametrize("drive, regime", [
    (hybrid_weights, "hybrid"), (tr_weights, "TR"), (cp_weights, "CP")])
def test_solve_peak_and_channel_kept(drive, regime):
    # beyond the channel (32 B per port here, where the scales are runs of
    # one port each; an aperture's channel keeps one per strip and holds
    # 16), a solve holds the weights' array, which is its workspace for
    # |g|/R and R (16 B), and one block's temporaries: measured 18.0-18.1
    # B per port for all three (19.0 with a 1 B-per-port live mask; 34.0
    # while the water level sorted and the weights were a fresh conj(g);
    # 42.0 for hybrid and 41.7 for TR and CP while the level gathered R
    # into its own array and the phases took a fresh |g|; 65.0, 49.0 and
    # 49.0 while the phases were formed before the level)
    rng = np.random.default_rng(12)
    n = 200_000
    h = channel_from_g(rng.normal(size=n) + 1j * rng.normal(size=n), rng.uniform(0.5, 2.0, n))
    pc = both_bind(h)
    g, scale = h.g.copy(), port_scales(h)
    tracemalloc.start()
    try:
        weights, _ = drive(h, pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.regime == regime
    assert peak / n <= 19.0
    # tests reuse one channel across solvers, so a solve must not write into it
    assert h.g.tobytes() == g.tobytes()
    assert port_scales(h).tobytes() == scale.tobytes()


# ------------------------------------------------------------------ oracle

@pytest.mark.parametrize("w_max, P0, R0", [(0.0, 1.0, 50.0), (1.0, -1.0, 50.0),
                                           (1.0, 1.0, 0.0), (1.0, math.nan, 50.0)])
def test_power_constraints_must_be_positive(w_max, P0, R0):
    with pytest.raises(ValueError, match="strictly positive"):
        PowerConstraints(w_max=w_max, P0=P0, R0_per_port=R0)


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
    assert weights.regime == "hybrid"
    assert weights.total_power == pytest.approx(1.0, rel=1e-9)
    assert report.beta > 0
    assert (report.clipped_ports, report.idle_ports) == (1, 0)
