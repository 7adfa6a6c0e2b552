"""Tests for the isotonic solvers and the brute-force oracle."""

import numpy as np
import pytest

from shelyap import (
    InvalidFitInput,
    LengthMismatch,
    check_minimizer_structure,
    flatten,
    gamma2_objective,
    isotonic_nonincreasing,
    random_instance,
    simulate_inertia,
    solve_gamma1,
    solve_gamma2,
    validate_instance,
)
from shelyap.errors import DimensionTooLarge
from shelyap.solvers import bruteforce_chain_qp, oracle_gamma1, oracle_gamma2
from test_cluster_equivalence import random_shape
from test_instance import gamma1_objective
from test_structure_equivalence import reference_active


# Test-only constructions of one route's minimizer from another's data.

def lift_b_to_a(b, inst):
    """Expand per-location drifts to per-coordinate drifts.

    Coordinate k in the block of location j gets
    a_k = b_j + (m_j + 1)/2 - k + sum_{i<j} m_i; a feasible b maps to a
    feasible a with the same route-1 objective.
    """
    if len(b) != inst.n:
        raise LengthMismatch(f"expected {inst.n} drifts, got {len(b)}")
    a = []
    for bj, mj in zip(b, inst.m):
        # global k = S_{j-1} + r cancels the block offset, leaving local r
        a.extend(bj + (mj + 1) / 2.0 - r for r in range(1, mj + 1))
    return np.asarray(a)


def build_b_from_clusters(res, inst):
    """Assemble the route-2 minimizer from the terminal partition.

    Within block B with members N_{k-1}+1..N_k, location i gets the block's
    centre-of-mass drift plus a mass-staircase offset:

        b_i = -(sum_{j in B} m_j x_j)/(mass(B) t)
              + (sum_{j=i+1}^{N_k} m_j - sum_{j=N_{k-1}+1}^{i-1} m_j)/2.
    """
    x, m, t = inst.x, inst.m, inst.t
    b = np.empty(inst.n)
    for block in res.partition:
        idx = [i - 1 for i in block]
        mass = float(sum(m[i] for i in idx))
        com = sum(m[i] * x[i] for i in idx) / (mass * t)
        for i in idx:
            after = sum(m[j] for j in idx if j > i)
            before = sum(m[j] for j in idx if j < i)
            b[i] = -com + (after - before) / 2.0
    return b


def random_interior_instance(rng, max_n=6, max_m=6):
    while True:
        n = int(rng.integers(1, max_n))
        t = float(rng.uniform(0.2, 4.0))
        x = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if n > 1 and np.min(np.diff(x)) < 1e-3:
            continue
        m = [int(v) for v in rng.integers(1, max_m, size=n)]
        return validate_instance(t, x, m)


def test_isotonic_pools_adjacent_violation():
    fit = isotonic_nonincreasing([1.0, 1.5], [1.0, 1.0])
    assert fit == pytest.approx([1.25, 1.25])


def test_isotonic_weighted_pool():
    # pooling [0, 2] with weights [1, 2] gives 4/3; the trailing 1 then
    # satisfies 4/3 >= 1 and stays un-pooled
    fit = isotonic_nonincreasing([0.0, 2.0, 1.0], [1.0, 2.0, 1.0])
    assert fit == pytest.approx([4.0 / 3.0, 4.0 / 3.0, 1.0])


def test_isotonic_leaves_decreasing_input_alone():
    fit = isotonic_nonincreasing([3.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    assert fit == pytest.approx([3.0, 1.0, 0.5])


def test_isotonic_rejects_bad_shapes():
    with pytest.raises(LengthMismatch):
        isotonic_nonincreasing([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        isotonic_nonincreasing([1.0], [0.0])


def test_solutions_hold_read_only_arrays():
    inst = validate_instance(1.0, [0.0, 0.5, 2.0], [2, 1, 1])
    for sol in (solve_gamma1(inst), solve_gamma2(inst),
                oracle_gamma1(inst), oracle_gamma2(inst)):
        assert isinstance(sol.values, np.ndarray)
        assert sol.values.dtype == np.float64
        assert not sol.values.flags.writeable
        assert sol != solve_gamma1(inst)  # identity, not values


def test_isotonic_kkt_certificate():
    # within each pooled block the weighted residual prefix sums must be
    # nonnegative and the block total must vanish
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 12))
        z = rng.normal(size=d)
        w = rng.uniform(0.1, 5.0, size=d)
        fit = isotonic_nonincreasing(z, w)
        assert np.all(np.diff(fit) <= 1e-12)
        i = 0
        while i < d:
            j = i
            while j + 1 < d and abs(fit[j + 1] - fit[i]) <= 1e-12:
                j += 1
            resid = w[i : j + 1] * (fit[i : j + 1] - z[i : j + 1])
            prefix = np.cumsum(resid)
            assert np.all(prefix >= -1e-9)
            assert abs(prefix[-1]) <= 1e-9
            i = j + 1


# Pooling keeps every block's weighted sum, so the fit keeps sum w c = sum w z.
# Route 1 has uniform weights and targets z_k = k - u_k/t, so its minimizer
# a = c - k sums to -sum(u)/t: the mean the default contour is centred on.
# PAVA_SUM_C bounds the rounding of both identities. The route-1 bound carries
# the chain shift's scale nu (nu + 1)/2 as well as sum |a| + sum |u|/t: the
# reduction adds k to each target and takes it off again, so the error is at
# that scale. Without it the bound fails at nu = 1 with u near 0, where
# sum |a| + sum |u|/t is near 0 and the error is not. Worst measured ratio of
# error to bound / PAVA_SUM_C on these corpora: 1.79 for the fit sums, 1.71 for
# route 1, and 0.91 for the default contour centre (tests/test_quadrature.py).
PAVA_SUM_C = 8.0
EPS = np.finfo(float).eps


def route1_sum_bound(inst, a):
    """PAVA_SUM_C eps (sum |a| + sum |u|/t + nu (nu + 1)/2)."""
    scale = np.sum(np.abs(a)) + np.sum(np.abs(flatten(inst))) / inst.t
    return PAVA_SUM_C * EPS * (scale + inst.nu * (inst.nu + 1) / 2.0)


def high_nu_instance(rng):
    """gamma-high-nu's shape: n in 2..8, m log-uniform in [10^3, 4 10^4]."""
    n = int(rng.integers(2, 9))
    m = np.rint(1000.0 * 40.0 ** rng.random(n)).astype(int).tolist()
    t = float(0.1 * 50.0 ** rng.random())
    return validate_instance(t, np.sort(rng.uniform(-3.0, 3.0, size=n)), m)


def test_pooling_keeps_sums_so_route_one_sums_to_minus_u_over_t():
    rng = np.random.default_rng(18)
    insts = [random_instance(rng) for _ in range(2000)]
    insts += [high_nu_instance(rng) for _ in range(12)]
    insts.append(validate_instance(0.5, [-2.0, -1.0, 0.0, 1.0, 2.0], [20000] * 5))
    insts += [random_shape(rng, 3000) for _ in range(3)]
    assert max(inst.nu for inst in insts) >= 100000
    for inst in insts:
        u, m = flatten(inst), np.asarray(inst.m, dtype=float)
        shift2 = np.concatenate([[0.0], np.cumsum((m[:-1] + m[1:]) / 2.0)])
        for z, w in ((np.arange(1, inst.nu + 1) - u / inst.t, np.full(inst.nu, inst.t)),
                     (shift2 - np.asarray(inst.x) / inst.t, m * inst.t)):
            wc, wz = w * isotonic_nonincreasing(z, w), w * z
            bound = PAVA_SUM_C * EPS * (np.sum(np.abs(wc)) + np.sum(np.abs(wz)))
            assert abs(np.sum(wc) - np.sum(wz)) <= bound, inst
        a = solve_gamma1(inst).values
        assert abs(np.sum(a) + np.sum(u) / inst.t) <= route1_sum_bound(inst, a), inst


def test_solve_gamma1_two_point_example():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    sol = solve_gamma1(inst)
    assert sol.values == pytest.approx((0.25, -0.75))
    assert sol.objective == pytest.approx(-0.0625)
    assert reference_active(sol.values, [1.0]) == frozenset({1})


def test_solve_gamma1_single_coordinate():
    inst = validate_instance(1.0, [0.0], [1])
    sol = solve_gamma1(inst)
    assert sol.values == pytest.approx((0.0,))
    assert sol.objective == pytest.approx(0.0)
    assert reference_active(sol.values, []) == frozenset()


def test_solve_gamma1_wide_pair_inactive():
    inst = validate_instance(1.0, [0.0, 2.0], [1, 1])
    sol = solve_gamma1(inst)
    assert sol.values == pytest.approx((0.0, -2.0))
    assert sol.objective == pytest.approx(-2.0)
    assert reference_active(sol.values, [1.0]) == frozenset()


def test_solve_gamma2_single_location():
    inst = validate_instance(1.0, [0.0], [2])
    sol = solve_gamma2(inst)
    assert sol.values == pytest.approx((0.0,))
    assert sol.objective == pytest.approx(0.25)


def test_solve_gamma2_matches_gamma1_through_lift():
    rng = np.random.default_rng(23)
    for _ in range(100):
        inst = random_interior_instance(rng)
        s1 = solve_gamma1(inst)
        s2 = solve_gamma2(inst)
        tol = 1e-10 * (1 + abs(s1.objective))
        assert s2.objective == pytest.approx(s1.objective, abs=tol)
        lifted = lift_b_to_a(s2.values, inst)
        assert gamma1_objective(inst, lifted) == pytest.approx(
            s1.objective, abs=tol
        )


def test_lift_objective_identity_for_arbitrary_b():
    # the staircase lift preserves the objective for any b, feasible or
    # not: the within-block terms telescope exactly
    rng = np.random.default_rng(31)
    for _ in range(100):
        inst = random_interior_instance(rng)
        b = rng.normal(scale=2.0, size=inst.n)
        a = lift_b_to_a(b, inst)
        lhs = gamma1_objective(inst, a)
        rhs = gamma2_objective(inst, b)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


def test_lift_frozen_example():
    inst = validate_instance(1.0, [0.0], [3])
    a = lift_b_to_a([0.0], inst)
    assert a == pytest.approx([1.0, 0.0, -1.0])


def test_lift_two_blocks():
    inst = validate_instance(1.0, [0.0, 0.5], [2, 1])
    a = lift_b_to_a([1.0, -1.0], inst)
    # block 1 spreads 1.0 into (1.5, 0.5); block 2 keeps -1.0
    assert a == pytest.approx([1.5, 0.5, -1.0])


def test_lift_rejects_wrong_length():
    inst = validate_instance(1.0, [0.0, 0.5], [2, 1])
    with pytest.raises(LengthMismatch):
        lift_b_to_a([0.0], inst)


def test_oracle_matches_solver_gamma1():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 60:
        inst = random_interior_instance(rng, max_m=4)
        if inst.nu > 10:
            continue
        sol = solve_gamma1(inst)
        ora = oracle_gamma1(inst)
        assert sol.objective == pytest.approx(ora.objective, abs=1e-10)
        assert np.allclose(sol.values, ora.values, atol=1e-8)
        checked += 1


def test_oracle_matches_solver_gamma2():
    rng = np.random.default_rng(59)
    for _ in range(60):
        inst = random_interior_instance(rng)
        sol = solve_gamma2(inst)
        ora = oracle_gamma2(inst)
        assert sol.objective == pytest.approx(ora.objective, abs=1e-10)
        assert np.allclose(sol.values, ora.values, atol=1e-8)


def test_oracle_prefers_empty_active_set():
    inst = validate_instance(1.0, [0.0, 2.0], [1, 1])
    ora = oracle_gamma2(inst)
    # unconstrained optimum (0, -2) is feasible with gap 2 > 1 and beats
    # the glued candidate's -1.75
    assert reference_active(ora.values, [1.0]) == frozenset()
    assert ora.objective == pytest.approx(-2.0)


def test_oracle_dimension_cap():
    d = 21
    with pytest.raises(DimensionTooLarge):
        bruteforce_chain_qp(
            weights=(1.0,) * d,
            linear=tuple(float(-k) for k in range(d)),
            margins=(1.0,) * (d - 1),
        )


def test_oracle_rejects_inconsistent_shapes():
    with pytest.raises(LengthMismatch):
        bruteforce_chain_qp(weights=(1.0, 1.0), linear=(0.0, 0.0), margins=())


@pytest.mark.parametrize("weights,linear,margins,constant", [
    ((1.0, 0.0), (0.0, 1.0), (1.0,), 0.0),  # unbounded below
    ((1.0, -1.0), (0.0, 1.0), (1.0,), 0.0),
    ((1.0, np.nan), (0.0, 1.0), (1.0,), 0.0),
    ((1.0, np.inf), (0.0, 1.0), (1.0,), 0.0),
    ((1.0, 1.0), (np.nan, 1.0), (1.0,), 0.0),
    ((1.0, 1.0), (0.0, -np.inf), (1.0,), 0.0),
    ((1.0, 1.0), (0.0, 1.0), (np.nan,), 0.0),
    ((1.0, 1.0), (0.0, 1.0), (np.inf,), 0.0),
    ((1.0, 1.0), (0.0, 1.0), (1.0,), np.nan),
    ((1.0, 1.0), (0.0, 1.0), (1.0,), -np.inf),
])
def test_oracle_rejects_degenerate_data(weights, linear, margins, constant):
    with pytest.raises(InvalidFitInput):
        bruteforce_chain_qp(weights, linear, margins, constant)


def test_minimizer_is_strict_local_minimum():
    # step along a feasible direction: sorting the direction decreasingly
    # within each active run keeps the chain satisfied, and strict
    # convexity forces the objective up by at least (t/2) * step^2
    rng = np.random.default_rng(71)
    for _ in range(50):
        inst = random_interior_instance(rng, max_m=4)
        sol = solve_gamma1(inst)
        base = np.asarray(sol.values)
        active = reference_active(base, np.ones(inst.nu - 1))
        d = rng.normal(size=inst.nu)
        i = 0
        while i < inst.nu:
            j = i
            while j < inst.nu - 1 and (j + 1) in active:
                j += 1
            d[i : j + 1] = np.sort(d[i : j + 1])[::-1]
            i = j + 1
        d /= np.linalg.norm(d)
        stepped = base + 1e-3 * d
        if inst.nu > 1 and not np.all(np.diff(stepped) <= -1.0 + 1e-9):
            continue  # a slack constraint sat too close to its margin
        assert gamma1_objective(inst, stepped) > sol.objective + 1e-10


def test_build_b_singleton():
    inst = validate_instance(2.0, [1.0], [3])
    b = build_b_from_clusters(simulate_inertia(inst), inst)
    assert b == pytest.approx([-0.5])


def test_build_b_pair_matches_solver():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    b = build_b_from_clusters(simulate_inertia(inst), inst)
    assert b == pytest.approx([0.25, -0.75])
    sol = solve_gamma2(inst)
    assert b == pytest.approx(sol.values)


def test_build_b_consistency_random():
    rng = np.random.default_rng(83)
    for _ in range(80):
        inst = random_interior_instance(rng)
        b = build_b_from_clusters(simulate_inertia(inst), inst)
        sol = solve_gamma2(inst)
        assert gamma2_objective(inst, b) == pytest.approx(
            sol.objective, abs=1e-9 * (1 + abs(sol.objective))
        )


def test_build_b_is_feasible():
    rng = np.random.default_rng(97)
    for _ in range(80):
        inst = random_interior_instance(rng)
        if inst.n < 2:
            continue
        b = build_b_from_clusters(simulate_inertia(inst), inst)
        m = np.asarray(inst.m, dtype=float)
        req = 0.5 * (m[:-1] + m[1:])
        assert np.all(-np.diff(b) >= req - 1e-9)


def test_structure_check_on_interior_instance():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    sol = solve_gamma1(inst)
    report = check_minimizer_structure(sol, inst, simulate_inertia(inst))
    assert report.ok
    assert not report.boundary
    assert report.tight.tolist() == [True]
    assert report.same_block.tolist() == [True]


def test_structure_check_two_blocks():
    inst = validate_instance(1.0, [0.0, 0.3, 0.6, 3.0, 3.3], [1] * 5)
    sol = solve_gamma1(inst)
    report = check_minimizer_structure(sol, inst, simulate_inertia(inst))
    assert report.ok
    assert report.tight.tolist() == [True, True, False, True]
    assert report.same_block.tolist() == [True, True, False, True]


def test_structure_check_random_agreement():
    rng = np.random.default_rng(101)
    boundary = 0
    for _ in range(300):
        inst = random_interior_instance(rng)
        sol = solve_gamma1(inst)
        report = check_minimizer_structure(sol, inst, simulate_inertia(inst))
        if report.boundary:
            boundary += 1
        else:
            assert report.ok
    # boundary skips must stay rare for generic draws
    assert boundary < 30
