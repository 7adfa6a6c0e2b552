"""Exact minimization of the two variational routes.

Both routes are chain-constrained strictly convex quadratics and reduce to one
canonical problem,

    minimize sum_i w_i (c_i - z_i)^2   subject to   c_1 >= c_2 >= ... >= c_d,

solved exactly (up to rounding) by weighted pool-adjacent-violators. The
reductions absorb each chain margin into a running shift:

route 1: constraints a_k - a_{k+1} >= 1. Put c_k = a_k + k, so the chain
becomes c_k >= c_{k+1}, and

    sum_k (t/2) a_k^2 + u_k a_k = sum_k (t/2) (c_k - (k - u_k/t))^2 + const,

i.e. targets z_k = k - u_k/t with uniform weights t.

route 2: constraints b_i - b_{i+1} >= (m_i + m_{i+1})/2. Put
M_1 = 0, M_{i+1} = M_i + (m_i + m_{i+1})/2 and c_i = b_i + M_i, so again
c_i >= c_{i+1}, and

    sum_i (m_i t/2) (b_i + x_i/t)^2 = sum_i (m_i t/2) (c_i - (M_i - x_i/t))^2,

i.e. targets z_i = M_i - x_i/t with weights m_i t. The additive constants
((m_i^3 - m_i) t/24 - m_i x_i^2/(2t) terms) do not move the minimizer and are
restored when the objective is reported.

An independent exhaustive oracle cross-checks the solver: it enumerates all
2^(d-1) subsets of active constraints, solves each equality-constrained
problem in closed form (each maximal active run is a single free variable),
keeps the feasible minimum, and breaks ties toward the lexicographically
smallest active set. Exponential, capped at d <= 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clusters import ClusterResult
from .errors import DimensionTooLarge, LengthMismatch
from .instance import (
    FlatInstance,
    MomentInstance,
    gamma1_objective,
    gamma2_objective,
)

STRUCTURE_TOL_SCALE = 1e-9
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class VariationalSolution:
    """Minimizer, objective value, and the set of tight chain constraints.

    values is a read-only float64 array. active holds 1-based constraint
    indices i whose gap values_i - values_{i+1} sits within structure
    tolerance of its margin.
    """

    values: np.ndarray
    objective: float
    active: frozenset[int]


def isotonic_nonincreasing(z: Sequence[float], w: Sequence[float]) -> np.ndarray:
    """Weighted PAVA for a non-increasing fit.

    Returns the unique minimizer of sum w_i (c_i - z_i)^2 over non-increasing
    c. Pooled values are recomputed per final block as exact weighted means.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if len(z) != len(w):
        raise LengthMismatch("targets and weights differ in length")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    # blocks as (start, weight sum, weighted target sum)
    starts: list[int] = []
    wsum: list[float] = []
    wzsum: list[float] = []
    for i in range(len(z)):
        starts.append(i)
        wsum.append(w[i])
        wzsum.append(w[i] * z[i])
        while len(starts) > 1 and wzsum[-2] / wsum[-2] < wzsum[-1] / wsum[-1]:
            tz, tw = wzsum.pop(), wsum.pop()
            starts.pop()
            wzsum[-1] += tz
            wsum[-1] += tw
    out = np.empty_like(z)
    bounds = starts + [len(z)]
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = np.sum(w[lo:hi] * z[lo:hi]) / np.sum(w[lo:hi])
    return out


def _solution(
    values: np.ndarray, objective: float, margins: np.ndarray
) -> VariationalSolution:
    values.flags.writeable = False
    return VariationalSolution(values, objective, _active_from_gaps(values, margins))


def _active_from_gaps(values: np.ndarray, margins: np.ndarray) -> frozenset[int]:
    gaps = values[:-1] - values[1:]
    tight = gaps <= margins + STRUCTURE_TOL_SCALE * (1.0 + np.abs(margins))
    return frozenset((np.flatnonzero(tight) + 1).tolist())


def solve_gamma1(flat: FlatInstance, t: float) -> VariationalSolution:
    """Minimize route 1 exactly via the pooled non-increasing fit."""
    shift = np.arange(1, flat.nu + 1, dtype=float)
    w = np.full(flat.nu, float(t))
    c = isotonic_nonincreasing(shift - np.asarray(flat.u) / t, w)
    a = c - shift
    return _solution(a, gamma1_objective(flat, t, a), np.ones(flat.nu - 1))


def solve_gamma2(inst: MomentInstance) -> VariationalSolution:
    """Minimize route 2 exactly via the pooled non-increasing fit."""
    m = np.asarray(inst.m, dtype=float)
    margins = (m[:-1] + m[1:]) / 2.0
    shift = np.concatenate([[0.0], np.cumsum(margins)])
    c = isotonic_nonincreasing(shift - np.asarray(inst.x) / inst.t, m * inst.t)
    b = c - shift
    return _solution(b, gamma2_objective(inst, b), margins)


def bruteforce_chain_qp(
    weights: Sequence[float],
    linear: Sequence[float],
    margins: Sequence[float],
    constant: float = 0.0,
) -> VariationalSolution:
    """Exhaustive oracle for min sum (w_i/2) v_i^2 + q_i v_i, v_i - v_{i+1} >= g_i.

    Enumerates every active subset; within a maximal active run the variables
    differ by fixed margin offsets, so each run solves in closed form. Ties in
    the objective go to the lexicographically smallest active set.
    """
    w = np.asarray(weights, dtype=float)
    q = np.asarray(linear, dtype=float)
    g = np.asarray(margins, dtype=float)
    d = len(w)
    if len(q) != d or len(g) != d - 1:
        raise LengthMismatch("weights, linear terms and margins are inconsistent")
    if d > 20:
        raise DimensionTooLarge(f"oracle capped at 20 variables, got {d}")
    feas_tol = 1e-12 * (1.0 + float(np.abs(g).max(initial=0.0)))

    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    for mask in range(1 << max(d - 1, 0)):
        active = tuple(i for i in range(d - 1) if mask >> i & 1)
        v = np.empty(d)
        lo = 0
        while lo < d:
            hi = lo
            while hi < d - 1 and (mask >> hi & 1):
                hi += 1
            # run lo..hi with v_i = beta + delta_i, delta from chained margins
            delta = np.concatenate([[0.0], -np.cumsum(g[lo:hi])])
            wr, qr = w[lo : hi + 1], q[lo : hi + 1]
            beta = -(np.sum(wr * delta) + np.sum(qr)) / np.sum(wr)
            v[lo : hi + 1] = beta + delta
            lo = hi + 1
        slack = v[:-1] - v[1:] - g
        if np.any(slack < -feas_tol):
            continue
        obj = float(np.sum(0.5 * w * v * v + q * v)) + constant
        key = tuple(i + 1 for i in active)
        if best is None or obj < best[0] or (obj == best[0] and key < best[1]):
            best = (obj, key, v)
    assert best is not None  # mask 2^(d-1)-1 is always feasible
    obj, _, v = best
    return _solution(v, obj, g)


def oracle_gamma1(flat: FlatInstance, t: float) -> VariationalSolution:
    w = [t] * flat.nu
    q = list(flat.u)
    g = [1.0] * (flat.nu - 1)
    return bruteforce_chain_qp(w, q, g)


def oracle_gamma2(inst: MomentInstance) -> VariationalSolution:
    m = np.asarray(inst.m, dtype=float)
    x = np.asarray(inst.x)
    w = m * inst.t
    q = m * x
    g = (m[:-1] + m[1:]) / 2.0
    constant = float(np.sum((m**3 - m) * inst.t / 24.0))
    return bruteforce_chain_qp(w, q, g, constant=constant)


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Per-gap classification of the route-1 chain constraints.

    Entry i of each array describes gap a_{i+1} - a_{i+2} (constraint i + 1):
    tight within tolerance of 1, same terminal block on both sides, and too
    close to a merge threshold to classify.
    """

    tight: np.ndarray
    same_block: np.ndarray
    near_threshold: np.ndarray
    near_terminal_merge: bool

    @property
    def boundary(self) -> bool:
        return self.near_terminal_merge or bool(self.near_threshold.any())

    @property
    def ok(self) -> bool:
        agree = self.tight == self.same_block
        return bool(np.all(agree | self.near_threshold))


def check_minimizer_structure(
    sol: VariationalSolution, inst: MomentInstance, res: ClusterResult
) -> StructureReport:
    """Compare route-1 gap structure against the terminal partition.

    Gap a_i - a_{i+1} should be exactly 1 iff flat coordinates i and i+1 end
    in the same block. Constraints too close to the merge transition to
    classify reliably are flagged boundary instead of asserted either way:
    the location-pair margin test |(x_{j+1}-x_j)/t - (m_j+m_{j+1})/2| <= 1e-6,
    a cross-block gap within 1e-6 of 1, or any merge within 1e-6*(1+t) of t.
    """
    a = np.asarray(sol.values)
    dev = np.abs((a[:-1] - a[1:]) - 1.0)
    x, m, t = np.asarray(inst.x), np.asarray(inst.m), inst.t
    # 0-based location of each flat coordinate; terminal block of each location
    loc = np.repeat(np.arange(inst.n), m)
    block_of = np.empty(inst.n, dtype=int)
    for bi, block in enumerate(res.partition):
        block_of[np.asarray(block) - 1] = bi
    blk = block_of[loc]
    same = blk[:-1] == blk[1:]
    # location pairs on the merge threshold; gap i crosses pair loc[i]
    pair_near = np.abs((x[1:] - x[:-1]) / t - (m[:-1] + m[1:]) / 2.0) <= BOUNDARY_TOL
    cross = loc[:-1] != loc[1:]
    near = np.zeros(len(dev), dtype=bool)
    near[cross] = pair_near[loc[:-1][cross]]
    near |= ~same & (dev <= BOUNDARY_TOL)
    near_t = any(abs(e.time - t) <= BOUNDARY_TOL * (1.0 + t) for e in res.events)
    return StructureReport(
        tight=dev <= 2.0 * STRUCTURE_TOL_SCALE,  # scale * (1 + margin 1)
        same_block=same,
        near_threshold=near,
        near_terminal_merge=near_t,
    )
