"""Closed-form exponent from the terminal partition, and the cross-checks.

For partition blocks B with total mass M_B = sum_{k in B} m_k the exponent is
a sum of independent block contributions

    (M_B^3 - M_B) t / 24
    - sum_{k<l in B} (m_k m_l / 2) |x_k - x_l|
    - (sum_{k in B} m_k x_k)^2 / (2 t M_B),

which specializes to (m^3 - m) t/24 - m x^2/(2t) for a single location and to
an explicit two-branch formula for two locations (merged branch iff
0 < (x_2 - x_1)/t <= (m_1 + m_2)/2; the branches agree at the threshold).

gamma3 evaluates every block at once in O(n) work, the pair sum through a
prefix identity over the cumulative masses.

verify_recursion_identity checks the whole induction tree of the lower bound at
once, one node per merge: the Feynman-Kac action of the drift-removed sticky
paths, summed over the nodes of one run's merge forest, reproduces the closed
form, which reads only the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/test_harness.py checks that the tracer wraps simulate_inertia here too
from .clusters import ClusterResult, _forest, _simulate, simulate_inertia  # noqa: F401
from .instance import MomentInstance
from .solvers import check_minimizer_structure, solve_gamma1, solve_gamma2


def gamma3(inst: MomentInstance, res: ClusterResult) -> float:
    """Sum the closed-form contribution of every terminal block, in one pass.

    A block B is a run of consecutive locations from first(B). With C_k the
    mass of B left of k, its pair term is

        P_B = 1/2 sum_{k in B} m_k (x_k - x_first(B)) (2 C_k + m_k - M_B),

    which is sum_{k<l in B} m_k m_l (x_l - x_k)/2 because
    sum_{k in B} m_k (2 C_k + m_k - M_B) = 0. Segment sums give M_B, the first
    moments and P_B of all blocks at once. Only res.partition is read, so the
    event loop's _Run works too.
    """
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    t = inst.t
    sizes = np.fromiter(map(len, res.partition), dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    big_m = np.add.reduceat(m, starts)
    com = np.add.reduceat(m * x, starts)
    left = np.cumsum(m) - m  # integer-valued, so every C_k below is exact
    c = left - np.repeat(left[starts], sizes)
    dx = x - np.repeat(x[starts], sizes)
    pair = np.add.reduceat(m * dx * (2.0 * c + m - np.repeat(big_m, sizes)), starts) / 2.0
    kinetic = com * com / (2.0 * t * big_m)
    return float(np.sum((big_m**3 - big_m) * t / 24.0 - pair - kinetic))


@dataclass(frozen=True)
class RecursionCheck:
    lhs: float
    rhs: float

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs - self.rhs)


def verify_recursion_identity(inst: MomentInstance) -> RecursionCheck:
    """Check the whole induction tree: the sticky paths' action is the exponent.

    Each node C of the merge forest, a location or a merge event, lives from
    its birth to its parent's birth (to t for a root) with mass M_C and speed
    v_C. Its members' drift-removed paths move at v_C - d_B, where
    d_B = zeta_B(t)/t is the drift of C's terminal block B, so

        lhs = sum_C [(M_C^3 - M_C)/24 - M_C (v_C - d_B)^2 / 2] (death_C - birth_C)

    and rhs = gamma3; d_B is not B's speed. A node that merges again at its
    birth, as at s = 0, holds no action. lhs reads the forest and rhs only the
    partition, in O(n + events) memory, and neither touches route 1 or 2.
    """
    run = _simulate(inst)
    lo, _, mass, birth, position, speed, parent = _forest(inst, run.events)
    t = inst.t
    root = parent < 0
    death = np.where(root, t, birth[parent])
    # a node's terminal block is the one holding its first index
    block = np.searchsorted([b[0] for b in run.partition], lo, side="right") - 1
    drift = np.empty(len(run.partition))
    drift[block[root]] = (position[root] + speed[root] * (t - birth[root])) / t
    action = (mass**3 - mass) / 24.0 - mass * (speed - drift[block]) ** 2 / 2.0
    lhs = float(np.sum(action * (death - birth)))
    return RecursionCheck(lhs=lhs, rhs=gamma3(inst, run))


@dataclass(frozen=True, eq=False)
class GammaReport:
    """All three routes plus the structural cross-check for one instance.

    The minimizers are the routes' read-only float64 arrays.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    max_pairwise_dev: float
    partition: tuple[tuple[int, ...], ...]
    minimizer_a: np.ndarray
    minimizer_b: np.ndarray
    structure_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "gamma3": self.gamma3,
            "max_dev": self.max_pairwise_dev,
            "partition": [list(b) for b in self.partition],
            "a": self.minimizer_a,
            "b": self.minimizer_b,
            "structure_ok": self.structure_ok,
        }


def gamma_report(inst: MomentInstance) -> GammaReport:
    """Compute the exponent by all three routes and cross-check structure."""
    sol1 = solve_gamma1(inst)
    sol2 = solve_gamma2(inst)
    res = _simulate(inst)
    g3 = gamma3(inst, res)
    vals = (sol1.objective, sol2.objective, g3)
    max_dev = max(abs(p - q) for p in vals for q in vals)
    structure = check_minimizer_structure(sol1, inst, res)
    return GammaReport(
        gamma1=sol1.objective,
        gamma2=sol2.objective,
        gamma3=g3,
        max_pairwise_dev=max_dev,
        partition=res.partition,
        minimizer_a=sol1.values,
        minimizer_b=sol2.values,
        structure_ok=structure.ok,
    )
