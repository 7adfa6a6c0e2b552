"""Tests for the closed-form route and the consistency identities."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from shelyap import (
    first_optimal_merge,
    gamma3,
    gamma_report,
    random_instance,
    simulate_inertia,
    solve_gamma2,
    validate_instance,
    verify_recursion_identity,
)
from shelyap.cli import ANCHOR_TOL, RECURSION_TOL, TRIPLE_TOL, _check_physics
from shelyap.clusters import _simulate
from test_cluster_equivalence import near_contact, optimal_paths
from test_golden import CASCADE, ROUTE1_TIES


def one_point_gamma(t, x1, m1):
    """Exponent of a single location: (m^3 - m) t/24 - m x^2 / (2t)."""
    return (m1**3 - m1) * t / 24.0 - m1 * x1 * x1 / (2.0 * t)


def two_point_gamma(t, x, m):
    """Exponent of two locations; branch on whether they merge by time t."""
    x1, x2 = x
    m1, m2 = m
    gap = x2 - x1
    if 0.0 < gap / t <= (m1 + m2) / 2.0:
        big_m = m1 + m2
        return (
            (big_m**3 - big_m) * t / 24.0
            - m1 * m2 * gap / 2.0
            - (m1 * x1 + m2 * x2) ** 2 / (2.0 * big_m * t)
        )
    return one_point_gamma(t, x1, m1) + one_point_gamma(t, x2, m2)


@dataclass(frozen=True)
class OneLevel:
    lhs: float
    rhs: float
    s0: float
    x_prime: tuple[float, ...]
    m_prime: tuple[int, ...]

    @property
    def abs_diff(self):
        return abs(self.lhs - self.rhs)


def one_level_recursion(inst):
    """The first level of the induction tree, for q_hat = 1 and n >= 2.

    With s0 the first merge time and (x', m') the collapsed instance at s0,

        sum_k [ (m_k^3 - m_k) s0/24 - m_k (x_k - xi_k(s0))^2 / (2 s0) ]
        + gamma3(t - s0, x', m')  =  gamma3(t, x, m).
    """
    res = simulate_inertia(inst)
    assert res.q_hat == 1 and inst.n >= 2
    fm = first_optimal_merge(inst)
    s0 = fm.s0
    m = np.asarray(inst.m, dtype=float)
    x = np.asarray(inst.x)
    xi = np.asarray(fm.xi_at_s0)
    first_leg = float(np.sum(
        (m**3 - m) * s0 / 24.0 - m * (x - xi) ** 2 / (2.0 * s0)
    ))
    sub = validate_instance(inst.t - s0, fm.x_prime, fm.m_prime)
    lhs = first_leg + gamma3(sub, _simulate(sub))
    return OneLevel(lhs=lhs, rhs=gamma3(inst, res), s0=s0,
                    x_prime=fm.x_prime, m_prime=fm.m_prime)


def test_gamma3_single_location():
    inst = validate_instance(1.0, [0.0], [2])
    assert gamma3(inst, simulate_inertia(inst)) == pytest.approx(0.25)


def test_gamma3_merged_pair():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    assert gamma3(inst, simulate_inertia(inst)) == pytest.approx(-0.0625)


def test_gamma3_separated_pair():
    inst = validate_instance(1.0, [0.0, 2.0], [1, 1])
    assert gamma3(inst, simulate_inertia(inst)) == pytest.approx(-2.0)


def test_gamma3_two_block_instance():
    inst = validate_instance(1.0, [0.0, 0.3, 0.6, 3.0, 3.3], [1] * 5)
    g3 = gamma3(inst, simulate_inertia(inst))
    assert type(g3) is float
    # block {1,2,3}: 1 - 0.6 - 0.135; block {4,5}: 0.25 - 0.15 - 9.9225
    assert g3 == pytest.approx(0.265 - 9.8225)
    assert g3 == pytest.approx(solve_gamma2(inst).objective, abs=1e-10)


def test_one_point_values():
    assert one_point_gamma(1.0, 0.0, 2) == pytest.approx(0.25)
    assert one_point_gamma(1.0, 0.0, 1) == pytest.approx(0.0)
    assert one_point_gamma(1.0, 1.0, 3) == pytest.approx(-0.5)
    assert one_point_gamma(2.0, -1.0, 2) == pytest.approx(0.5 - 0.5)


def test_two_point_branches():
    assert two_point_gamma(1.0, (0.0, 0.5), (1, 1)) == pytest.approx(-0.0625)
    assert two_point_gamma(1.0, (0.0, 2.0), (1, 1)) == pytest.approx(-2.0)


def test_two_point_matches_general_formula():
    rng = np.random.default_rng(13)
    for _ in range(200):
        t = float(rng.uniform(0.2, 4.0))
        x1 = float(rng.uniform(-2.0, 2.0))
        x2 = x1 + float(rng.uniform(1e-3, 5.0))
        m1, m2 = (int(v) for v in rng.integers(1, 6, size=2))
        inst = validate_instance(t, [x1, x2], [m1, m2])
        expect = gamma3(inst, simulate_inertia(inst))
        got = two_point_gamma(t, (x1, x2), (m1, m2))
        assert got == pytest.approx(expect, abs=1e-10 * (1 + abs(expect)))


def test_two_point_continuous_at_threshold():
    # at gap = t (m1+m2)/2 the merged and separated branches coincide
    for t, (m1, m2) in [(1.0, (1, 1)), (0.7, (3, 2)), (2.5, (1, 4))]:
        x1 = -0.3
        x2 = x1 + t * (m1 + m2) / 2.0
        merged = two_point_gamma(t, (x1, x2), (m1, m2))
        split = one_point_gamma(t, x1, m1) + one_point_gamma(t, x2, m2)
        assert merged == pytest.approx(split, abs=1e-12 * (1 + abs(split)))


def test_two_point_threshold_example():
    got = two_point_gamma(1.0, (0.0, 1.0), (1, 1))
    assert got == pytest.approx(-0.5)
    assert got == pytest.approx(one_point_gamma(1.0, 0.0, 1) + one_point_gamma(1.0, 1.0, 1))


def test_gamma3_additive_over_blocks():
    # separated blocks contribute independently: restricting the instance
    # to one terminal block reproduces that block's share
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        t = float(rng.uniform(0.1, 5.0))
        x = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if np.min(np.diff(x)) < 1e-3:
            continue
        m = [int(v) for v in rng.integers(1, 6, size=n)]
        inst = validate_instance(t, x, m)
        res = simulate_inertia(inst)
        if res.q_hat < 2:
            continue
        whole = gamma3(inst, res)
        parts = 0.0
        for block in res.partition:
            idx = [i - 1 for i in block]
            sub = validate_instance(t, x[idx], [m[i] for i in idx])
            sub_res = simulate_inertia(sub)
            assert sub_res.q_hat == 1
            parts += gamma3(sub, sub_res)
        assert whole == pytest.approx(parts, abs=1e-10 * (1 + abs(whole)))
        checked += 1


def test_recursion_triple_collision():
    inst = validate_instance(2.0, [0.0, 1.0, 2.0], [1, 1, 1])
    chk = one_level_recursion(inst)
    assert chk.s0 == pytest.approx(1.0)
    assert chk.x_prime == pytest.approx((0.5,))
    assert chk.m_prime == (3,)
    assert chk.rhs == pytest.approx(-0.75)
    assert chk.lhs == pytest.approx(-0.75)
    assert chk.abs_diff <= 1e-12


def test_recursion_pair():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    chk = one_level_recursion(inst)
    assert chk.s0 == pytest.approx(0.5)
    assert chk.x_prime == pytest.approx((0.125,))
    assert chk.m_prime == (2,)
    # first leg -0.15625 plus collapsed exponent 0.09375
    assert chk.rhs == pytest.approx(-0.0625)
    assert chk.abs_diff <= 1e-12


def test_recursion_partial_first_merge():
    # first event collapses only the left pair; the identity still closes
    inst = validate_instance(2.0, [0.0, 0.1, 0.5], [1, 1, 1])
    chk = one_level_recursion(inst)
    assert chk.s0 == pytest.approx(0.1)
    assert chk.m_prime == (2, 1)
    assert chk.abs_diff <= 1e-9 * (1 + abs(chk.rhs))


def test_recursion_holds_on_two_blocks():
    # q_hat = 2: the one-level identity needs one block, the whole tree does not
    chk = verify_recursion_identity(validate_instance(1.0, [0.0, 2.0], [1, 1]))
    assert chk.rhs == -2.0
    assert chk.abs_diff <= 1e-12


def test_recursion_holds_on_one_location():
    # n = 1: no merge, one interval, one path
    chk = verify_recursion_identity(validate_instance(1.0, [0.0], [3]))
    assert chk.rhs == 1.0
    assert chk.abs_diff <= 1e-12


@pytest.mark.parametrize("x,m,value", [
    ([0.0, 5e-324], [1, 3], 2.5),
    ([0.0, 5e-324, 1.0], [5, 5, 1], 49.954545454545453),
])
def test_recursion_skips_zero_length_interval(x, m, value):
    # gap / closing speed underflows to 0, so the merge lands at s = 0 and
    # the breakpoint 0 repeats; that interval holds no action
    inst = validate_instance(1.0, x, m)
    assert simulate_inertia(inst).inertia_paths[0].breakpoints[:2] == (0.0, 0.0)
    chk = verify_recursion_identity(inst)
    assert chk.lhs == pytest.approx(value, rel=1e-15)
    assert chk.rhs == pytest.approx(value, rel=1e-15)


def _identity_cases():
    for name, argv in (("cascade", CASCADE), ("route1_ties", ROUTE1_TIES)):
        t, x, m = (argv[argv.index(f) + 1] for f in ("--t", "--x", "--m"))
        yield pytest.param(float(t), [float(v) for v in x.split(",")],
                           [int(v) for v in m.split(",")], id=name)
    # near-contact draws with a pair inside the tie window at s = 0
    rng = np.random.default_rng(20261019)
    k = 0
    while k < 8:
        inst = near_contact(rng, int(rng.integers(2, 25)))
        if (np.diff(inst.x) <= 1e-11).any():
            yield pytest.param(inst.t, list(inst.x), list(inst.m), id=f"near_contact{k}")
            k += 1


@pytest.mark.parametrize("t,x,m", list(_identity_cases()))
def test_recursion_whole_tree_identity(t, x, m):
    chk = verify_recursion_identity(validate_instance(t, x, m))
    assert chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))


def test_recursion_on_every_generator_draw():
    # no rejection: draws with q_hat > 1 and with n = 1 are checked too
    rng = np.random.default_rng(0)
    for _ in range(300):
        chk = verify_recursion_identity(random_instance(rng))
        assert chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))


def test_recursion_random_instances():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        t = float(rng.uniform(0.1, 5.0))
        x = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if np.min(np.diff(x)) < 1e-3:
            continue
        m = [int(v) for v in rng.integers(1, 6, size=n)]
        inst = validate_instance(t, x, m)
        if simulate_inertia(inst).q_hat != 1:
            continue
        chk = one_level_recursion(inst)
        assert chk.abs_diff <= 1e-9 * (1 + abs(chk.rhs))
        checked += 1


def test_gamma_report_merged_pair():
    report = gamma_report(validate_instance(1.0, [0.0, 0.5], [1, 1]))
    assert report.gamma1 == pytest.approx(-0.0625)
    assert report.gamma2 == pytest.approx(-0.0625)
    assert report.gamma3 == pytest.approx(-0.0625)
    assert report.max_pairwise_dev <= 1e-12
    assert report.partition == ((1, 2),)
    assert report.minimizer_a == pytest.approx((0.25, -0.75))
    assert report.minimizer_b == pytest.approx((0.25, -0.75))
    assert report.structure_ok


def test_minimizers_are_read_only_arrays():
    inst = validate_instance(1.5, [-1.0, 0.2, 2.0], [3, 1, 2])
    report = gamma_report(inst)
    for arr, size in ((report.minimizer_a, inst.nu), (report.minimizer_b, inst.n)):
        assert isinstance(arr, np.ndarray)
        assert (arr.dtype, arr.shape) == (np.float64, (size,))
        assert not arr.flags.writeable
        assert all(type(v) is float for v in arr.tolist())
    # arrays have no single truth value, so reports compare by identity
    assert report == report
    assert report != gamma_report(inst)


@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_three_routes_agree_far_beyond_generator(n, t):
    # the benchmark's shape, far past the verify generator's n <= 6
    rng = np.random.default_rng([n, int(10 * t)])
    x = np.sort(rng.uniform(-n, n, size=n))
    inst = validate_instance(t, x, rng.integers(1, 6, size=n).tolist())
    rep = gamma_report(inst)
    assert rep.max_pairwise_dev <= TRIPLE_TOL * (1.0 + abs(rep.gamma3))
    assert rep.structure_ok
    assert _check_physics(inst)
    res = simulate_inertia(inst)
    assert max(abs(p.values[-1]) for p in optimal_paths(res)) <= ANCHOR_TOL
    chk = verify_recursion_identity(inst)
    assert chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))


def _benchmark_shape(n, t, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-n, n, size=n))
    return validate_instance(t, x, rng.integers(1, 6, size=n).tolist())


def test_gamma_report_memory_is_linear_in_n():
    # the ROADMAP shape ends in one block after about n merge events; the
    # (n, K) paths that gamma does not need would take over 100 MB here
    n = 2000
    inst = _benchmark_shape(n, 2.0)
    tracemalloc.start()
    try:
        rep = gamma_report(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.partition == (tuple(range(1, n + 1)),)
    assert peak < 10e6


@pytest.mark.parametrize("t", [0.02, 2.0])
def test_forest_readers_far_beyond_generator(t):
    # about n blocks at t = 0.02, one block after n - 1 merges at t = 2
    inst = _benchmark_shape(3000, t)
    chk = verify_recursion_identity(inst)
    assert chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))
    assert _check_physics(inst)


def test_recursion_check_memory_is_linear_in_n():
    # the node sum reads the merge forest; summing over the dense (n, K)
    # paths, as the check once did, peaked at 162 MB here
    inst = _benchmark_shape(2000, 2.0)
    tracemalloc.start()
    try:
        chk = verify_recursion_identity(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))
    assert peak < 8e6


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_routes_and_forest_checks_at_thirty_thousand(t):
    # ten times the forest readers' size; the sticky run stays O(n log n), and
    # nothing here builds the dense paths
    inst = _benchmark_shape(30_000, t)
    rep = gamma_report(inst)
    assert rep.max_pairwise_dev <= TRIPLE_TOL * (1.0 + abs(rep.gamma3))
    assert rep.structure_ok
    chk = verify_recursion_identity(inst)
    assert chk.abs_diff <= RECURSION_TOL * (1.0 + abs(chk.rhs))
    assert _check_physics(inst)
