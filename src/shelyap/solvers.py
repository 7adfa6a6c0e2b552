"""Exact minimization of the two variational routes.

Both routes are chain-constrained strictly convex quadratics and reduce to one
canonical problem,

    minimize sum_i w_i (c_i - z_i)^2   subject to   c_1 >= c_2 >= ... >= c_d,

solved exactly (up to rounding) by weighted pool-adjacent-violators.

PAVA walks runs, not coordinates. In a non-increasing weighted fit, two
adjacent targets with z_i < z_{i+1} always end in the same block (Barlow,
Bartholomew, Bremner & Brunk, Statistical Inference under Order Restrictions,
1972; Best & Chakravarti, Math. Programming 47, 1990). So each maximal
strictly increasing run of targets (an equal pair starts a new run) enters
the fit as one block, its sums taken by np.add.reduceat, and blocks pool
leftward while the left neighbour's mean is smaller. The blocks are the
exact ones unless two block means differ by about the rounding of their
sums; there rounding decides the split, in this order as in any other, and
the fit stays within a few times 2^-52 mean|z| of the exact rational fit
either way. The rule reads only the targets, so route 1 still shares
nothing with route 2 or the cluster route. Route-1 targets rise by 1 within
a location, so no location is split between runs, and the Python work grows
with n, not nu.

Each final block holds np.sum(w z) / np.sum(w) over its entries, computed one
length class at a time: a block alone in its length reduces its own slice,
and the blocks of a length shared by several are gathered as the rows of one
C-contiguous array and reduced along each row by np.add.reduce. NumPy sums
each such row with the same pairwise loop (8-wide unrolled, in 128-element
blocks) that np.sum runs over a contiguous slice, so every mean keeps
np.sum's bits; the oracle's run table below relies on the same property.

The reductions absorb each chain margin into a running shift:

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

An independent exhaustive oracle cross-checks the solver: it searches all
2^(d-1) subsets of active constraints, solves each equality-constrained
problem in closed form (each maximal active run is a single free variable),
keeps the feasible minimum, and breaks ties toward the lexicographically
smallest active set. Exponential, capped at d <= 20. It shares no code with
PAVA. A run's values depend only on its ends, so each run is solved once,
into a table of d^3 values; blocks of 4096 subsets (which bound memory at
the cap) read their values from it and are scored with a per-subset loop's
expressions, so the result is that loop's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionTooLarge, InvalidFitInput, LengthMismatch
from .instance import MomentInstance, flatten, gamma2_objective

if TYPE_CHECKING:
    from .clusters import ClusterResult

STRUCTURE_TOL_SCALE = 1e-9
BOUNDARY_TOL = 1e-6
# the exhaustive oracle solves this many active sets per array pass, which
# bounds its memory at the d = 20 cap (2^19 sets)
_ORACLE_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class VariationalSolution:
    """Minimizer and objective value; values is a read-only float64 array."""

    values: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        self.values.flags.writeable = False


def isotonic_nonincreasing(z: Sequence[float], w: Sequence[float]) -> np.ndarray:
    """Weighted PAVA for a non-increasing fit.

    Returns the unique minimizer of sum w_i (c_i - z_i)^2 over non-increasing
    c. Each final block's value is its weighted mean np.sum(w z) / np.sum(w),
    bit for bit, computed for all blocks of one length at once.
    Targets may be infinite but not NaN, and every weight must be finite and
    > 0; anything else raises InvalidFitInput.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if len(z) != len(w):
        raise LengthMismatch("targets and weights differ in length")
    if np.isnan(z).any():
        raise InvalidFitInput("targets must not be NaN")
    bad = (~((w > 0.0) & (w < np.inf))).nonzero()[0]
    if len(bad):
        raise InvalidFitInput(f"weight {w[bad[0]]} at position {bad[0]} must be finite and > 0")
    wz = w * z
    # each maximal strictly increasing run enters as one block; blocks pool
    # leftward while the left neighbour's mean is smaller
    runs = np.concatenate(([len(z) > 0], z[1:] <= z[:-1])).nonzero()[0]
    starts: list[int] = []
    wsum: list[float] = []
    wzsum: list[float] = []
    for i, ws, wzs in zip(runs.tolist(), np.add.reduceat(w, runs).tolist(),
                          np.add.reduceat(wz, runs).tolist()):
        while starts and wzsum[-1] / wsum[-1] < wzs / ws:
            i = starts.pop()
            ws += wsum.pop()
            wzs += wzsum.pop()
        starts.append(i)
        wsum.append(ws)
        wzsum.append(wzs)
    # the final means, one length class at a time (see the module docstring)
    classes: dict[int, list[int]] = {}
    for lo, hi in zip(starts, starts[1:] + [len(z)]):
        classes.setdefault(hi - lo, []).append(lo)
    out = np.empty_like(z)
    for length, los in classes.items():
        if len(los) == 1:
            rows = slice(los[0], los[0] + length)
            out[rows] = np.add.reduce(wz[rows]) / np.add.reduce(w[rows])
        else:
            rows = np.add.outer(los, np.arange(length))
            out[rows] = (np.add.reduce(wz[rows], axis=1) / np.add.reduce(w[rows], axis=1))[:, None]
    return out


def solve_gamma1(inst: MomentInstance) -> VariationalSolution:
    """Minimize route 1 exactly via the pooled non-increasing fit."""
    u = flatten(inst)
    shift = np.arange(1, len(u) + 1, dtype=float)
    z = u / inst.t
    c = isotonic_nonincreasing(np.subtract(shift, z, out=z), np.full(len(u), inst.t))
    a = c - shift
    return VariationalSolution(a, float((0.5 * inst.t * a * a + u * a).sum()))


def solve_gamma2(inst: MomentInstance) -> VariationalSolution:
    """Minimize route 2 exactly via the pooled non-increasing fit."""
    m = np.asarray(inst.m, dtype=float)
    margins = (m[:-1] + m[1:]) / 2.0
    shift = np.concatenate([[0.0], margins.cumsum()])
    c = isotonic_nonincreasing(shift - np.asarray(inst.x) / inst.t, m * inst.t)
    b = c - shift
    return VariationalSolution(b, gamma2_objective(inst, b))


def bruteforce_chain_qp(
    weights: Sequence[float],
    linear: Sequence[float],
    margins: Sequence[float],
    constant: float = 0.0,
) -> VariationalSolution:
    """Exhaustive oracle for min sum (w_i/2) v_i^2 + q_i v_i, v_i - v_{i+1} >= g_i.

    Searches every active subset; within a maximal active run the variables
    differ by fixed margin offsets, so each run solves in closed form. Ties in
    the objective go to the lexicographically smallest active set. Weights
    must be finite and > 0, and linear terms, margins and the constant
    finite; anything else leaves the problem unbounded or undefined and
    raises InvalidFitInput.
    """
    w = np.asarray(weights, dtype=float)
    q = np.asarray(linear, dtype=float)
    g = np.asarray(margins, dtype=float)
    d = len(w)
    if len(q) != d or len(g) != d - 1:
        raise LengthMismatch("weights, linear terms and margins are inconsistent")
    if d > 20:
        raise DimensionTooLarge(f"oracle capped at 20 variables, got {d}")
    constant = float(constant)
    # row 0 weights, row 1 linear terms, row 2 margins, zero-padded to 2d
    data = np.zeros((3, 2 * d))
    data[0, :d], data[1, :d], data[2, : d - 1] = w, q, g
    if not (np.isfinite(data).all() and np.isfinite(constant) and (w > 0).all()):
        raise InvalidFitInput("oracle data must be finite and weights must be > 0")
    feas_tol = 1e-12 * (1.0 + float(np.abs(g).max(initial=0.0)))
    cols = np.arange(d)
    # a maximal active run lo..hi solves to v_i = beta + delta_i whatever the
    # rest of the active set, so each run is solved once. Row lo of a table
    # starts at coordinate lo (past d - lo is padding): terms holds w, q and
    # g, and delta[lo, j] = -(g_lo + ... + g_{lo+j-1}) chains the margins
    terms = data.take(cols[:, None] + cols, axis=1)
    delta = np.zeros((d, d))
    delta[:, 1:] = -np.cumsum(terms[2, :, :-1], axis=1)
    terms[2] = terms[0] * delta
    # sums[:, lo, k - 1] sums the run of k members from lo. Runs of one
    # length are summed as the rows of a C-contiguous array (take keeps it
    # so), which rounds like np.sum of each run. Padding 1 keeps beta finite
    sums = np.ones((3, d, d))
    for k in range(1, d + 1):
        sums[:, : d - k + 1, k - 1] = np.add.reduce(terms[:, : d - k + 1, :k], axis=2)
    beta = -(sums[2] + sums[1]) / sums[0]
    # run_v[lo, k - 1, j]: coordinate lo + j of the run of k members from lo
    run_v = beta[:, :, None] + delta[:, None, :]
    # bit i of a mask makes constraint i + 1 active; best is (objective,
    # active set, values)
    best: tuple[float, tuple[int, ...], np.ndarray] = (np.inf, (), np.empty(0))
    count = 1 << max(d - 1, 0)
    for start in range(0, count, _ORACLE_BLOCK):
        masks = np.arange(start, min(start + _ORACLE_BLOCK, count))[:, None]
        # each coordinate's run starts after the last inactive constraint
        # before it and ends at the first inactive one at or after it
        first = np.where(masks << 1 >> cols & 1, 0, cols)
        last = np.where(masks >> cols & 1, d - 1, cols)
        run_lo = np.maximum.accumulate(first, axis=1)
        run_hi = np.minimum.accumulate(last[:, ::-1], axis=1)[:, ::-1]
        v = run_v[run_lo, run_hi - run_lo, cols - run_lo]
        infeasible = (v[:, :-1] - v[:, 1:] - g < -feas_tol).any(1)
        obj = (0.5 * w * v * v + q * v).sum(1) + constant
        obj[infeasible] = np.inf
        low = obj.min()
        if low == np.inf or low > best[0]:
            continue
        for row in np.flatnonzero(obj == low).tolist():
            mask = start + row
            key = tuple(i + 1 for i in range(d - 1) if mask >> i & 1)
            if low < best[0] or key < best[1]:
                best = (low, key, v[row])
    assert best[0] < np.inf  # the all-active set is always feasible
    return VariationalSolution(best[2].copy(), float(best[0]))


def oracle_gamma1(inst: MomentInstance) -> VariationalSolution:
    u = flatten(inst)
    return bruteforce_chain_qp([inst.t] * len(u), u, [1.0] * (len(u) - 1))


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
        return bool((agree | self.near_threshold).all())


def check_minimizer_structure(
    sol: VariationalSolution, inst: MomentInstance, res: ClusterResult
) -> StructureReport:
    """Compare route-1 gap structure against the terminal partition.

    Gap a_i - a_{i+1} should be exactly 1 iff flat coordinates i and i+1 end
    in the same block. Constraints too close to the merge transition to
    classify reliably are flagged boundary instead of asserted either way:
    the location-pair margin test |(x_{j+1}-x_j)/t - (m_j+m_{j+1})/2| <= 1e-6,
    a cross-block gap within 1e-6 of 1, or any merge within 1e-6*(1+t) of t.
    Only the partition and the last merge time are read, so the event loop's
    _Run works too: merge times never decrease nor pass t, so the last merge
    is the one nearest t, and a _Run holds it as the birth of its last node
    past the n locations, without a merge log.
    """
    a = np.asarray(sol.values)
    dev = np.abs((a[:-1] - a[1:]) - 1.0)
    x, m, t = np.asarray(inst.x), np.asarray(inst.m), inst.t
    # terminal block of each location; blocks are consecutive runs in order
    sizes = [len(block) for block in res.partition]
    block_of = np.arange(len(sizes)).repeat(sizes)
    # gap cross[j] runs from location j + 1 to j + 2; every other gap lies
    # inside one location, so in one block and clear of any location pair
    cross = m.cumsum()[:-1] - 1
    same = np.ones(len(dev), dtype=bool)
    same[cross] = block_of[:-1] == block_of[1:]
    near = np.zeros(len(dev), dtype=bool)
    # location pairs on the merge threshold
    near[cross] = np.abs((x[1:] - x[:-1]) / t - (m[:-1] + m[1:]) / 2.0) <= BOUNDARY_TOL
    near |= ~same & (dev <= BOUNDARY_TOL)
    birth = getattr(res, "birth", None)
    if birth is not None:
        last = birth[-1] if len(birth) > len(x) else None
    else:
        last = res.events[-1].time if res.events else None
    near_t = last is not None and abs(last - t) <= BOUNDARY_TOL * (1.0 + t)
    return StructureReport(
        tight=dev <= 2.0 * STRUCTURE_TOL_SCALE,  # scale * (1 + margin 1)
        same_block=same,
        near_threshold=near,
        near_terminal_merge=near_t,
    )
