"""The array structure check against a per-gap loop reference.

The reference below classifies one flat coordinate gap at a time with scalar
tolerances. The package computes the same predicates as whole-array masks;
both must agree flag for flag, including on instances pushed exactly onto a
merge threshold (x_{j+1} - x_j)/t = (m_j + m_{j+1})/2.
"""

import numpy as np

from shelyap import (
    check_minimizer_structure,
    simulate_inertia,
    solve_gamma1,
    validate_instance,
)
from shelyap.solvers import BOUNDARY_TOL, STRUCTURE_TOL_SCALE


def _tol(margin):
    return STRUCTURE_TOL_SCALE * (1.0 + abs(margin))


def reference_active(values, margins):
    """1-based indices of the chain constraints whose gap sits on its margin."""
    gaps = values[:-1] - values[1:]
    return frozenset(
        i + 1 for i in range(len(margins)) if gaps[i] <= margins[i] + _tol(margins[i])
    )


def reference_structure(sol, inst, res):
    """(tight, same_block, boundary) per gap, then ok and boundary."""
    a = np.asarray(sol.values)
    gaps = a[:-1] - a[1:]
    x, m, t = inst.x, inst.m, inst.t
    loc = [j for j, mj in enumerate(m) for _ in range(mj)]
    block_of = {j - 1: bi for bi, block in enumerate(res.partition) for j in block}
    rows = []
    for i in range(len(loc) - 1):
        ji, jn = loc[i], loc[i + 1]
        gap = float(gaps[i])
        tight = abs(gap - 1.0) <= _tol(1.0)
        same = block_of[ji] == block_of[jn]
        boundary = False
        if ji != jn:
            margin = (m[ji] + m[jn]) / 2.0
            boundary = abs((x[jn] - x[ji]) / t - margin) <= BOUNDARY_TOL
        if not same and abs(gap - 1.0) <= BOUNDARY_TOL:
            boundary = True
        rows.append((tight, same, boundary))
    near_t = any(abs(e.time - t) <= BOUNDARY_TOL * (1.0 + t) for e in res.events)
    ok = all(tight == same or bd for tight, same, bd in rows)
    return rows, ok, near_t or any(bd for _, _, bd in rows)


def threshold_instance(rng):
    """n <= 8, m <= 40; a quarter have one pair exactly on its merge threshold."""
    n = int(rng.integers(1, 9))
    m = [int(v) for v in rng.integers(1, 41, size=n)]
    t = float(rng.choice([0.5, 1.0, 2.0])) if rng.random() < 0.5 else float(
        rng.uniform(0.1, 5.0)
    )
    # spacing around the threshold spacing t (m_j + m_{j+1})/2, both sides
    spacing = [t * (m[j] + m[j + 1]) / 2.0 * float(rng.uniform(0.05, 1.5))
               for j in range(n - 1)]
    if n > 1 and rng.random() < 0.25:
        j = int(rng.integers(0, n - 1))
        spacing[j] = t * (m[j] + m[j + 1]) / 2.0
    x = float(rng.uniform(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(spacing)])
    return validate_instance(t, x, m)


def test_array_check_matches_per_gap_reference():
    rng = np.random.default_rng(20261018)
    boundary = 0
    for _ in range(2000):
        inst = threshold_instance(rng)
        sol1 = solve_gamma1(inst)
        res = simulate_inertia(inst)
        rep = check_minimizer_structure(sol1, inst, res)
        rows, ok, bd = reference_structure(sol1, inst, res)
        got = list(zip(rep.tight.tolist(), rep.same_block.tolist(),
                       rep.near_threshold.tolist()))
        assert got == rows, inst
        assert type(rep.ok) is bool and rep.ok == ok, inst
        assert type(rep.boundary) is bool and rep.boundary == bd, inst
        boundary += bd
    # the threshold pushes must reach the boundary branch
    assert boundary > 100
