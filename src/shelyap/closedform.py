"""Closed-form exponent from the terminal partition, and the cross-checks.

For partition blocks B with total mass M_B = sum_{k in B} m_k the exponent is
a sum of independent block contributions

    (M_B^3 - M_B) t / 24
    - sum_{k<l in B} (m_k m_l / 2) |x_k - x_l|
    - (sum_{k in B} m_k x_k)^2 / (2 t M_B),

which specializes to (m^3 - m) t/24 - m x^2/(2t) for a single location and to
an explicit two-branch formula for two locations (merged branch iff
0 < (x_2 - x_1)/t <= (m_1 + m_2)/2; the branches agree at the threshold).

verify_recursion_identity checks the dynamic-programming identity: paying the
free-energy cost of the sticky paths up to the first merge time s0 and
restarting from the collapsed instance reproduces the full exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterResult, _sticky_partition, first_optimal_merge, simulate_inertia
from .errors import HypothesisNotMet
from .instance import MomentInstance, validate_instance
from .solvers import check_minimizer_structure, solve_gamma1, solve_gamma2


def gamma3(inst: MomentInstance, res: ClusterResult) -> float:
    """Sum the closed-form contribution of every terminal block.

    Only res.partition is read, so a partition-only run's result works too.
    """
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    t = inst.t
    total = 0.0
    for block in res.partition:
        lo, hi = block[0] - 1, block[-1]
        mb, xb = m[lo:hi], x[lo:hi]
        big_m = float(mb.sum())
        # Blocks are contiguous and x increases, so xb[b] - xb[a] is
        # |xb[a] - xb[b]|. Seeding each row with the running total and
        # accumulating adds the terms strictly left to right, in the order of
        # the pair loop this replaces; np.sum would add them pairwise and
        # change the last digits.
        pair = 0.0
        for a in range(len(mb) - 1):
            row = mb[a] * mb[a + 1 :] * (xb[a + 1 :] - xb[a]) / 2.0
            row[0] += pair
            pair = np.add.accumulate(row)[-1]
        com = float(np.sum(mb * xb))
        total += (big_m**3 - big_m) * t / 24.0 - pair - com * com / (2.0 * t * big_m)
    return float(total)


@dataclass(frozen=True)
class RecursionCheck:
    lhs: float
    rhs: float
    s0: float
    x_prime: tuple[float, ...]
    m_prime: tuple[int, ...]

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs - self.rhs)


def verify_recursion_identity(inst: MomentInstance) -> RecursionCheck:
    """Check the first-merge decomposition of the exponent.

    Requires every location to end in one block (q_hat = 1) and n >= 2, else
    HypothesisNotMet. With s0 the first merge time and (x', m') the collapsed
    instance at s0,

        sum_k [ (m_k^3 - m_k) s0/24 - m_k (x_k - xi_k(s0))^2 / (2 s0) ]
        + gamma3(t - s0, x', m')  =  gamma3(t, x, m).

    A first merge exactly at s0 = t leaves no time for the collapsed instance
    and propagates NonPositiveTime; the randomized generator cannot hit it.
    """
    res = simulate_inertia(inst)
    if res.q_hat != 1 or inst.n < 2:
        raise HypothesisNotMet(
            f"need q_hat=1 and n>=2, got q_hat={res.q_hat}, n={inst.n}"
        )
    fm = first_optimal_merge(res, inst)
    s0 = fm.s0
    m = np.asarray(inst.m, dtype=float)
    x = np.asarray(inst.x)
    xi = np.asarray(fm.xi_at_s0)
    first_leg = float(np.sum(
        (m**3 - m) * s0 / 24.0 - m * (x - xi) ** 2 / (2.0 * s0)
    ))
    sub = validate_instance(inst.t - s0, fm.x_prime, fm.m_prime)
    lhs = first_leg + gamma3(sub, _sticky_partition(sub))
    rhs = gamma3(inst, res)
    return RecursionCheck(lhs=lhs, rhs=rhs, s0=s0,
                          x_prime=fm.x_prime, m_prime=fm.m_prime)


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
    res = _sticky_partition(inst)
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
