"""Power-constrained excitation synthesis at a single focal point.

The drive that maximizes |E(focus)| under a per-element amplitude cap
w_max and a total power budget P0 = sum(R_n/2 |w_n|^2) is, by the KKT
conditions (Palomar & Fonollosa, IEEE TSP 2005),

    w_n = min(beta * |g_n|/R_n, w_max) * conj(g_n)/|g_n|,

the conjugate channel phase with the time-reversal (TR) taper clipped
at the cap, beta being the level that meets the budget.  tr_weights
(budget only, nothing clips) and hybrid_weights (both) are the cases of
that one formula.  cp_weights (cap only) drives every live element at the
cap, or at the one level sqrt(2*P0 / sum(R)) where the cap overruns the
budget; it reports beta = 0, as every drive does when all run at the cap.

g is each source's focal field projected on the target polarization;
port resistances are R0 times the channel's resistance scales (patch
area over the reference area for meshes), which the channel writes
into the solve's workspace run by run.  The tests certify optimality on
small instances with an independent projected-ascent oracle
(tests/oracles.py).
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
    beta: float             # level in |w| = min(beta*|g|/R, cap); 0 for CP drives


def _live(x: np.ndarray, live: np.ndarray) -> np.ndarray:
    """x on the live ports: x itself, not a masked copy, when every port is live."""
    return x if live.all() else x[live]


def _water_level(v: np.ndarray, R: np.ndarray, cap: float, P0: float) -> float:
    """Level beta at which sum(R/2 * min(beta*v, cap)^2) equals P0.

    Needs a budget below the all-clipped power, so at least the weakest
    element stays unclipped.  With v sorted in descending order, the k
    strongest elements clip, where k is the number of breakpoints
    beta = cap/v_j whose power stays within the budget, and beta spends
    the remaining budget on the unclipped rest.  It allocates two
    full-length arrays, the order and v in that order; R/2 in that order
    goes into v's buffer, which the caller gives up, and the order's
    buffer then takes the running sums of the unclipped power.
    """
    # the order among tied values of v orders their R in the sums below,
    # which moves the last bits of beta: ties keep the stable order, and
    # without ties the ascending order read backwards is that same order
    buf = np.argsort(v)
    v_desc = v[buf[::-1]]
    # v is read no more: its buffer takes R/2 in sort order
    free, ascending = v, True
    if (v_desc[1:] == v_desc[:-1]).any():
        # tied values are runs of the fast order: sorting (run * N + index),
        # in v's buffer, puts each run in index order; the run id counts the
        # places where a value differs from the one before it
        key = free.view(np.int64)
        key[0] = 0
        np.not_equal(v_desc[1:], v_desc[:-1], out=key[1:])
        np.cumsum(key, out=key)
        key *= key.size
        key += buf[::-1]
        key.sort()
        np.remainder(key, key.size, out=key)
        # the descending order is in v's buffer, and the fast order's is free
        buf, free, ascending = key, buf.view(np.float64), False
    # mode "raise" would gather into a copy of out first
    half_r = np.take(R, buf, out=free, mode="clip")
    if ascending:
        half_r = half_r[::-1]
    half_r *= 0.5
    # rest[j]: power of elements j.. per unit level squared, in the order's
    # buffer; spent[j]: power of the j+1 strongest elements at the cap, in
    # half_r's
    rest = np.square(v_desc, out=buf.view(np.float64))
    del buf
    rest *= half_r
    np.cumsum(rest[::-1], out=rest[::-1])
    spent = half_r
    spent *= cap ** 2
    np.cumsum(spent, out=spent)
    # power at the level where element j reaches the cap, for all but the
    # weakest, in v_desc's buffer
    breakpoint_power = np.divide(cap, v_desc[:-1], out=v_desc[:-1])
    np.square(breakpoint_power, out=breakpoint_power)
    breakpoint_power *= rest[1:]
    breakpoint_power += spent[:-1]
    k = int(np.count_nonzero(breakpoint_power <= P0))
    return math.sqrt((P0 - (spent[k - 1] if k else 0.0)) / rest[k])


def _drive(h: ChannelVector, pc: PowerConstraints, cap: float, uniform: bool):
    """|w_n| = min(beta*v_n, cap) with the conjugate channel phase,
    v = |g|/R, or one amplitude on every live port for the uniform drive.

    R is summed over the live ports once, and w is 0 on the idle ones.
    The first of three cases that holds decides the regime:

      1. every live port at the cap fits the budget: CP, beta = 0;
      2. the uniform drive's level sqrt(2*P0 / sum(R)), below the cap
         once case 1 fails: CP, beta = 0;
      3. the budget-only level beta0 = sqrt(2*P0 / sum(R*v^2)) keeps
         beta0*max(v) within the cap: TR; else the exact water level
         clips the strongest ports: hybrid.

    v and R are the halves of one workspace, allocated together with the
    live mask.  The phases conj(g)/|g| are formed only once the amplitudes
    are known, with |g| in R's half, and the products w*g that E_focus
    sums take the whole workspace.
    """
    g = h.g
    n = g.size
    # the workspace and the live mask are one allocation: a mask of its
    # own, alive through the water level, can land between the level's two
    # arrays, and the weights then find no freed hole to reuse
    block = np.empty(17 * n, dtype=np.uint8)
    work, live = block[:16 * n].view(np.float64), block[16 * n:].view(bool)
    v, R = work[:n], work[n:]
    gmax = float(np.max(np.abs(g, out=v))) if n else 0.0
    if gmax == 0.0:
        raise ValueError("channel is zero for the requested polarization")
    np.greater_equal(v, ZERO_CHANNEL_CUTOFF * gmax, out=live)
    h.resistances(pc.R0_per_port, out=R)
    R_live = _live(R, live)
    r_sum = float(np.sum(R_live))
    if 0.5 * cap ** 2 * r_sum <= pc.P0 * (1.0 + 1e-12):
        amplitude, beta, regime, active = cap, 0.0, "CP", "local"
    elif uniform:
        amplitude, beta, regime, active = math.sqrt(2.0 * pc.P0 / r_sum), 0.0, "CP", "both"
    else:
        # v = |g|/R; on an idle port v only scales w, which is 0 there
        np.divide(v, R, out=v)
        v_live = _live(v, live)
        rv2 = np.square(v_live)
        rv2 *= R_live
        beta = math.sqrt(2.0 * pc.P0 / float(np.sum(rv2)))
        del rv2
        if beta * float(np.max(v_live)) <= cap:
            regime, active = "TR", "global"
        else:
            # the level takes v's buffer, so v is formed again after it
            beta = _water_level(v_live, R_live, cap, pc.P0)
            regime, active = "hybrid", "both"
            np.divide(np.abs(g, out=v), R, out=v)
        del v_live
        amplitude = np.minimum(np.multiply(v, beta, out=v), cap, out=v)
    del R_live
    w = np.conj(g)
    np.divide(w, np.abs(g, out=R), out=w, where=live)
    w[~live] = 0.0
    w *= amplitude
    # |w|^2 in v's buffer, then R/2 in R's: (R0/2)*scale is (R0*scale)/2,
    # since halving is exact
    power_density = np.square(np.abs(w, out=v), out=v)
    power_density *= h.resistances(0.5 * pc.R0_per_port, out=R)
    power = float(np.sum(power_density))
    E_focus = complex(np.sum(np.multiply(w, g, out=work.view(complex))))
    return (ExcitationWeights(w=w, regime=regime, total_power=power),
            FocalReport(E_focus=E_focus, active_constraint=active, beta=beta))


def cp_weights(h: ChannelVector, pc: PowerConstraints):
    """Amplitude-capped optimum: every port at the cap, conjugated phases,
    all scaled down together if that overruns the budget."""
    return _drive(h, pc, pc.w_max, uniform=True)


def tr_weights(h: ChannelVector, pc: PowerConstraints):
    """Power-capped optimum: conjugate channel over port resistance."""
    return _drive(h, pc, math.inf, uniform=False)


def hybrid_weights(h: ChannelVector, pc: PowerConstraints):
    """Exact optimum under both caps: the TR taper clipped at the cap."""
    return _drive(h, pc, pc.w_max, uniform=False)


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


def solver_diagnostics(weights: ExcitationWeights, report: FocalReport,
                       pc: PowerConstraints) -> dict:
    """Regime, level, power and port counts of a solved drive.

    A clipped port runs at or above the cap w_max, an idle port not at
    all; power_residual_rel is |P - P0|/P0 where the budget binds
    (active constraint global or both), else None.
    """
    amplitude = np.abs(weights.w)
    residual = None
    if report.active_constraint in ("global", "both"):
        residual = abs(weights.total_power - pc.P0) / pc.P0
    return {
        "regime": weights.regime,
        "beta": report.beta,
        "total_power_w": weights.total_power,
        "clipped_ports": int(np.count_nonzero(amplitude >= pc.w_max * (1 - 1e-12))),
        "idle_ports": int(np.count_nonzero(amplitude == 0.0)),
        "power_residual_rel": residual,
    }
