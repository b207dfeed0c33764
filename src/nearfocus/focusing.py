"""Power-constrained excitation synthesis at a single focal point.

The drive that maximizes |E(focus)| under a per-element amplitude cap
w_max and a total power budget P0 = sum(R_n/2 |w_n|^2) is, by the KKT
conditions (Palomar & Fonollosa, IEEE TSP 2005),

    w_n = min(beta * |g_n|/R_n, w_max) * conj(g_n)/|g_n|,

the conjugate channel phase with the time-reversal (TR) taper clipped
at the cap, beta being the level that meets the budget.  tr_weights
(budget only, nothing clips) and hybrid_weights (both) are the cases of
that one formula.  The level is found without sorting: from the TR
level, which is never above it, the budget is solved in closed form over
the ports that clip at the current level until the level stops rising
(_water_level).  cp_weights (cap only) drives every live element at
the cap, or at the one level sqrt(2*P0 / sum(R)) where the cap overruns
the budget; it reports beta = 0, as every drive does when all run at the
cap.

g is each source's focal field projected on the target polarization;
port resistances are R0 times the channel's resistance scales (patch
area over the reference area for meshes), which the channel writes
into the solve's workspace run by run.  Every sum over ports is
pairwise within blocks and exactly rounded over the blocks, and the
weights are written over the solve's own workspace, so beyond the
channel a solve holds the weights and one block's temporaries; the
pass that writes them also counts the clipped and idle ports.  The
tests certify optimality on small instances with an independent
projected-ascent oracle (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _PORT_BLOCK, ChannelVector

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
    clipped_ports: int      # ports with |w| >= cap*(1 - 1e-12), the drive's cap (none for TR)
    idle_ports: int         # ports with w = 0


def _sum(n: int, term) -> float:
    """The sum over n ports of term(a, b), the values of ports [a, b):
    numpy's pairwise sum within each block of _PORT_BLOCK ports, then
    math.fsum, exactly rounded, over the blocks' sums."""
    return math.fsum(float(np.sum(term(a, min(a + _PORT_BLOCK, n))))
                     for a in range(0, n, _PORT_BLOCK))


def _water_level(v: np.ndarray, R: np.ndarray, cap: float, P0: float,
                 beta: float) -> float:
    """Level at which sum(R/2 * min(level*v, cap)^2) equals P0, from the
    TR level beta = sqrt(2*P0 / sum(R*v^2)).

    A fixed point that sorts nothing.  Holding the clipped set
    {v >= cap/beta} fixed, the budget is met in closed form by

        beta^2 = (P0 - cap^2/2 * sum(R, clipped)) / (sum(R*v^2, rest)/2),

    and this repeats until the level stops rising.  The level approaches
    the optimum from below: the closed form counts each unclipped port
    at beta*v, which the true power caps, so its root is never above the
    optimum; and at the current level, which made the set, the two
    agree, so the root is never below the current level either.  The
    TR level is the root for the empty set, and a set that holds still
    gives the same root again, so each step adds ports to the set and
    the iteration ends within as many steps as there are ports; the
    root of the last set is the optimum.  A root below the level (or no
    root) comes from rounding alone, where the rest's power is below the
    budget's last bits, as when ties join the set at the cap: the level
    then already meets the budget, and is kept.  Tied values of v join
    the set together, so no order among them enters the sums.  Each pass
    sums as _sum does, within blocks and exactly over them, in one
    block's temporaries.

    Needs a budget below the all-clipped power, so that some port stays
    unclipped.  Idle ports never clip, and each one's R*v^2 is below
    1e-30 of the strongest port's.
    """
    n = v.size
    clip, t = np.empty(min(n, _PORT_BLOCK), bool), np.empty(min(n, _PORT_BLOCK))
    while True:
        floor = cap / beta
        spent, rest = [], []
        for a in range(0, n, _PORT_BLOCK):
            b = min(a + _PORT_BLOCK, n)
            c, x = clip[:b - a], t[:b - a]
            np.greater_equal(v[a:b], floor, out=c)
            spent.append(float(np.sum(np.multiply(R[a:b], c, out=x))))
            np.square(v[a:b], out=x)
            x *= R[a:b]
            np.copyto(x, 0.0, where=c)
            rest.append(float(np.sum(x)))
        spare = P0 - 0.5 * cap ** 2 * math.fsum(spent)
        root = math.sqrt(spare / (0.5 * math.fsum(rest))) if spare > 0.0 else 0.0
        if root <= beta:
            return beta
        beta = root


def _drive(h: ChannelVector, pc: PowerConstraints, cap: float, uniform: bool):
    """|w_n| = min(beta*v_n, cap) with the conjugate channel phase,
    v = |g|/R, or one amplitude on every live port for the uniform drive.

    A port is idle where |g| < ZERO_CHANNEL_CUTOFF*max|g|.  R is summed
    over the live ports once, and w is 0 on the idle ones.  The first of
    three cases that holds decides the regime:

      1. every live port at the cap fits the budget: CP, beta = 0;
      2. the uniform drive's level sqrt(2*P0 / sum(R)), below the cap
         once case 1 fails: CP, beta = 0;
      3. the budget-only level beta0 = sqrt(2*P0 / sum(R*v^2)) keeps
         beta0*max(v) within the cap: TR; else the water level clips the
         strongest ports: hybrid.

    w's own array is the workspace: its 16 B per port hold R and v in
    two halves while the level is found, then the amplitudes in v's
    half, and then w itself, written block by block from the first.
    Block [a, b) of w covers the halves' floats [2a, 2b): R of ports
    from a on, which is read no more, or amplitudes of ports before b,
    whose weights are written already or which the block reads before
    it writes.  Each block's R/2 comes from the channel's runs for its
    power, which that pass sums with E_focus as it counts the clipped
    and idle ports.  Every sum goes by blocks (_sum), and beyond w the
    solve holds one block's temporaries, in which each pass finds its
    block's idle ports.
    """
    g = h.g
    n = g.size
    w = np.empty(n, dtype=complex)
    R, v = w.view(np.float64)[:n], w.view(np.float64)[n:]
    gmax = float(np.max(np.abs(g, out=v))) if n else 0.0
    if gmax == 0.0:
        raise ValueError("channel is zero for the requested polarization")
    cutoff = ZERO_CHANNEL_CUTOFF * gmax
    h.resistances(pc.R0_per_port, out=R)
    t, live = np.empty(min(n, _PORT_BLOCK)), np.empty(min(n, _PORT_BLOCK), bool)
    r_sum = _sum(n, lambda a, b: np.multiply(
        R[a:b], np.greater_equal(v[a:b], cutoff, out=live[:b - a]), out=t[:b - a]))
    if 0.5 * cap ** 2 * r_sum <= pc.P0 * (1.0 + 1e-12):
        v.fill(cap)
        beta, regime, active = 0.0, "CP", "local"
    elif uniform:
        v.fill(math.sqrt(2.0 * pc.P0 / r_sum))
        beta, regime, active = 0.0, "CP", "both"
    else:
        np.divide(v, R, out=v)
        beta = math.sqrt(2.0 * pc.P0 / _sum(n, lambda a, b: np.multiply(
            np.square(v[a:b], out=t[:b - a]), R[a:b], out=t[:b - a])))
        if beta * float(np.max(v)) <= cap:
            regime, active = "TR", "global"
        else:
            beta = _water_level(v, R, cap, pc.P0, beta)
            regime, active = "hybrid", "both"
        np.minimum(np.multiply(v, beta, out=v), cap, out=v)
    phase, half_r = np.empty(t.size, dtype=complex), np.empty(t.size)
    power, e_re, e_im = [], [], []
    clipped = idle = 0
    for a in range(0, n, _PORT_BLOCK):
        b = min(a + _PORT_BLOCK, n)
        wb, gb, lb, x = phase[:b - a], g[a:b], live[:b - a], t[:b - a]
        np.conjugate(gb, out=wb)
        np.greater_equal(np.abs(gb, out=x), cutoff, out=lb)
        np.divide(wb, x, out=wb, where=lb)
        wb[~lb] = 0.0
        wb *= v[a:b]
        w[a:b] = wb
        amplitude = np.abs(wb, out=x)
        clipped += int(np.count_nonzero(np.greater_equal(
            amplitude, cap * (1 - 1e-12), out=lb)))
        idle += int(np.count_nonzero(np.equal(amplitude, 0.0, out=lb)))
        # (R0/2)*scale is (R0*scale)/2, since halving is exact
        density = np.square(amplitude, out=x)
        density *= h.resistances(0.5 * pc.R0_per_port, out=half_r[:b - a], start=a)
        power.append(float(np.sum(density)))
        e = complex(np.sum(np.multiply(wb, gb, out=wb)))
        e_re.append(e.real)
        e_im.append(e.imag)
    return (ExcitationWeights(w=w, regime=regime, total_power=math.fsum(power)),
            FocalReport(E_focus=complex(math.fsum(e_re), math.fsum(e_im)),
                        active_constraint=active, beta=beta,
                        clipped_ports=clipped, idle_ports=idle))


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
