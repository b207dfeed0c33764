"""Power-constrained excitation synthesis at a single focal point.

Three solvers for max |E(focus)| over complex drive weights:

  * cp_weights: per-element amplitude cap only; every element runs at
    the cap with the channel phase conjugated.
  * tr_weights: total-power cap only; amplitudes taper with channel
    strength (conjugate channel over port resistance).
  * hybrid_weights: both caps; a water-level amplitude clip(beta*v, cap)
    with beta solved exactly so the power budget is met.

The scalar channel is each source's focal field projected on the target
polarization.  Port resistances are R0 times the channel's
per-port scale (patch area over the reference area for meshes).
An independent projected-ascent oracle certifies optimality on small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ChannelVector

ZERO_CHANNEL_CUTOFF = 1e-15  # relative to max |g|; below this an element is idle


@dataclass(frozen=True)
class PowerConstraints:
    w_max: float        # A, per-element amplitude cap
    P0: float           # W, total power budget
    R0_per_port: float  # ohm, diagonal port resistance

    def __post_init__(self):
        if not (self.w_max > 0.0 and self.P0 > 0.0 and self.R0_per_port > 0.0):
            raise ValueError("constraint parameters must be strictly positive")


@dataclass(frozen=True)
class ExcitationWeights:
    w: np.ndarray       # complex amplitudes, A
    regime: str         # CP | TR | hybrid
    total_power: float  # W, sum of (R_n/2)|w_n|^2


@dataclass(frozen=True)
class FocalReport:
    E_focus: complex
    active_constraint: str  # local | global | both
    beta: float             # water level scale; 0 when no level was solved


class OracleReport:
    def __init__(self, oracle_objective: float, weight_objective: float):
        self.oracle_objective = oracle_objective
        self.weight_objective = weight_objective
        denom = max(oracle_objective, weight_objective)
        self.relative_gap = (oracle_objective - weight_objective) / denom


def _channel_arrays(h: ChannelVector, pc: PowerConstraints):
    g = h.g
    absg = np.abs(g)
    gmax = float(np.max(absg)) if absg.size else 0.0
    if gmax == 0.0:
        raise ValueError("channel is zero for the requested polarization")
    live = absg >= ZERO_CHANNEL_CUTOFF * gmax
    R = pc.R0_per_port * h.resistance_scale
    return g, absg, live, R


def _live(x: np.ndarray, live: np.ndarray) -> np.ndarray:
    """x on the live ports: x itself, not a masked copy, when every port is live."""
    return x if live.all() else x[live]


def _total_power(R: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(0.5 * R * np.abs(w) ** 2))


def cp_weights(h: ChannelVector, pc: PowerConstraints):
    """Amplitude-capped optimum: full drive, conjugated phases.

    If the resulting total power also exceeds the budget, all weights
    get one common downscale, which preserves the optimal phases.
    """
    g, absg, live, R = _channel_arrays(h, pc)
    w = np.conj(g)
    w *= pc.w_max
    np.divide(w, absg, out=w, where=live)
    w[~live] = 0.0
    power = _total_power(R, w)
    active = "local"
    if power > pc.P0:
        w *= math.sqrt(pc.P0 / power)
        power = pc.P0
        active = "both"
    e_focus = complex(np.sum(w * g))
    return (ExcitationWeights(w=w, regime="CP", total_power=power),
            FocalReport(E_focus=e_focus, active_constraint=active, beta=0.0))


def tr_weights(h: ChannelVector, pc: PowerConstraints):
    """Power-capped optimum: conjugate channel over port resistance."""
    g, absg, live, R = _channel_arrays(h, pc)
    s = float(np.sum(_live(absg, live) ** 2 / _live(R, live)))
    d_r = math.sqrt(2.0 * pc.P0 / s)
    w = np.conj(g)
    w *= d_r
    np.divide(w, R, out=w, where=live)
    w[~live] = 0.0
    # pin the budget exactly against accumulated roundoff
    w *= math.sqrt(pc.P0 / _total_power(R, w))
    e_focus = complex(np.sum(w * g))
    return (ExcitationWeights(w=w, regime="TR", total_power=pc.P0),
            FocalReport(E_focus=e_focus, active_constraint="global", beta=d_r))


def _water_level(v: np.ndarray, R: np.ndarray, pc: PowerConstraints) -> float:
    """Level beta at which sum(R/2 * min(beta*v, w_max)^2) equals P0.

    Needs a budget below the all-clipped power, so at least the weakest
    element stays unclipped.
    """
    order = np.argsort(-v, kind="stable")
    v_desc, half_r = v[order], R[order]
    del order
    half_r *= 0.5
    # spent[j]: power of the j+1 strongest elements at the cap;
    # rest[j]: power of elements j.. per unit level squared.
    spent = np.cumsum(half_r * pc.w_max ** 2)
    rest = v_desc ** 2
    rest *= half_r
    del half_r
    np.cumsum(rest[::-1], out=rest[::-1])
    # power at the level where element j reaches the cap, for all but the
    # weakest
    breakpoint_power = np.divide(pc.w_max, v_desc[:-1])
    del v_desc
    np.square(breakpoint_power, out=breakpoint_power)
    breakpoint_power *= rest[1:]
    breakpoint_power += spent[:-1]
    k = int(np.count_nonzero(breakpoint_power <= pc.P0))
    return math.sqrt((pc.P0 - (spent[k - 1] if k else 0.0)) / rest[k])


def hybrid_weights(h: ChannelVector, pc: PowerConstraints):
    """Exact water-level solution under both caps.

    Amplitudes are min(beta*v_n, w_max) with v the power-weighted
    channel direction (conjugate channel over resistance, normalized).
    The KKT conditions fix beta in closed form (Palomar & Fonollosa,
    IEEE TSP 2005): with v sorted in descending order, the k strongest
    elements clip, where k is the number of breakpoints beta = w_max/v_j
    whose power stays within the budget, and beta spends the remaining
    budget on the unclipped rest.  If every element clips before the
    budget binds, the solution is the CP one.
    """
    g, absg, live, R = _channel_arrays(h, pc)
    phase = np.conj(g)
    np.divide(phase, absg, out=phase, where=live)
    phase[~live] = 1.0

    cap_power = float(np.sum(0.5 * _live(R, live) * pc.w_max ** 2))
    if cap_power <= pc.P0 * (1.0 + 1e-12):
        # every element clips before the budget binds: CP regime
        w = pc.w_max * phase
        w[~live] = 0.0
        return (ExcitationWeights(w=w, regime="CP", total_power=cap_power),
                FocalReport(E_focus=complex(np.sum(w * g)),
                            active_constraint="local", beta=0.0))

    # |g| is not needed again, so v takes its place
    v = np.divide(absg, R, out=absg, where=live)
    v[~live] = 0.0
    v /= float(np.linalg.norm(v))

    beta = _water_level(_live(v, live), _live(R, live), pc)
    amp = np.multiply(v, beta, out=v)
    np.minimum(amp, pc.w_max, out=amp)
    # idle ports have v = 0, so they never clip
    clipped = amp >= pc.w_max
    w = np.multiply(amp, phase, out=phase)
    power = _total_power(R, w)
    if np.all(_live(clipped, live)):
        regime, active = "CP", "both"
    elif not np.any(clipped):
        regime, active = "TR", "global"
    else:
        regime, active = "hybrid", "both"
    return (ExcitationWeights(w=w, regime=regime, total_power=power),
            FocalReport(E_focus=complex(np.sum(w * g)),
                        active_constraint=active, beta=beta))


# --------------------------------------------------------- optimality oracle

def _project_box_ball(x: np.ndarray, cap: np.ndarray, p0: float) -> np.ndarray:
    """Exact projection of rows of x onto {0 <= u <= cap, sum u^2 <= p0}.

    The projection alternates the two constraint actions, a uniform ball
    scaling 1/(1+nu) and a box clip, with the scaling multiplier nu
    bisected until both hold simultaneously.
    """
    y = np.clip(x, 0.0, cap)
    need = np.sum(y * y, axis=1) > p0
    if not np.any(need):
        return y
    xs = x[need]
    lo = np.zeros(xs.shape[0])
    hi = np.ones(xs.shape[0])
    for _ in range(100):
        yt = np.clip(xs / (1.0 + hi)[:, None], 0.0, cap)
        bad = np.sum(yt * yt, axis=1) > p0
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        yt = np.clip(xs / (1.0 + mid)[:, None], 0.0, cap)
        over = np.sum(yt * yt, axis=1) > p0
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    y[need] = np.clip(xs / (1.0 + hi)[:, None], 0.0, cap)
    return y


def optimality_oracle(h: ChannelVector, pc: PowerConstraints,
                      weights: ExcitationWeights, seed: int = 0,
                      starts: int = 20) -> OracleReport:
    """Certify weights by independent projected gradient ascent.

    Works on the real reduced problem max sum(|g_n| a_n) over amplitude
    vectors a in the box/power-ball intersection, in coordinates where
    the power constraint is a Euclidean ball.  The step length grows
    geometrically; with an exact projection the optimum is the fixed
    point of the iteration at any step, so the iterates converge to it
    from every start.
    """
    if len(h) > 256:
        raise ValueError("oracle is limited to 256 ports")
    g = h.g
    absg = np.abs(g)
    if float(np.max(absg)) == 0.0:
        raise ValueError("channel is zero for the requested polarization")
    R = pc.R0_per_port * h.resistance_scale

    s = np.sqrt(0.5 * R)      # u = s * |w| turns the power cap into a ball
    cap = s * pc.w_max
    q = absg / s
    p0 = pc.P0
    rng = np.random.default_rng(seed)
    u = _project_box_ball(rng.uniform(0.0, 1.0, size=(starts, absg.size)) * cap,
                          cap, p0)
    alpha = 0.25 * math.sqrt(p0) / float(np.linalg.norm(q))
    for _ in range(48):
        u = _project_box_ball(u + alpha * q, cap, p0)
        alpha *= 2.0
    oracle_best = float(np.max(np.sum(u * q, axis=1)))
    achieved = abs(complex(np.sum(np.asarray(weights.w) * g)))
    return OracleReport(oracle_objective=oracle_best, weight_objective=achieved)


# ----------------------------------------------------------------- exports

def weights_sidecar(weights: ExcitationWeights, report: FocalReport) -> dict:
    return {
        "regime": weights.regime,
        "beta": report.beta,
        "total_power_w": weights.total_power,
        "active_constraint": report.active_constraint,
        "e_focus_re": report.E_focus.real,
        "e_focus_im": report.E_focus.imag,
    }
