"""Acceptance gate: one check per headline guarantee, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. Random draws use the same generator as the CLI and fixed
seeds, so every run sees identical instances.
"""

import time

import numpy as np
import pytest

from shelyap import (
    check_minimizer_structure,
    contour_moment_complex,
    default_contour_config,
    ContourConfig,
    gamma3,
    gamma_report,
    heat_kernel,
    random_instance,
    simulate_inertia,
    solve_gamma1,
    solve_gamma2,
    upper_bound_value,
    validate_instance,
)
from shelyap.clusters import separation_margins
from shelyap.sampling import sample_matching
from shelyap.solvers import oracle_gamma1, oracle_gamma2
from test_closedform import one_level_recursion, one_point_gamma, two_point_gamma
from test_cluster_equivalence import optimal_paths
from test_clusters import block_com_speed, merge_momentum_defects
from test_quadrature import lyapunov_rate_estimate

# brute-force quadrature gap for (t=1, x=[0], m=[2]) at T=40, tabulated with
# an independent dense-trapezoid integrator before this threshold was frozen
RATE_GAP_T40_REFERENCE = 0.0777487918174


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed {detail}".rstrip()


def _close_rel(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


@pytest.fixture(scope="module")
def thousand_instances():
    rng = np.random.default_rng(0)
    return [random_instance(rng) for _ in range(1000)]


def test_criterion_1_triple_equality(thousand_instances):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for inst in thousand_instances:
        rep = gamma_report(inst)
        dev = rep.max_pairwise_dev / (1.0 + abs(rep.gamma3))
        worst = max(worst, dev)
        if dev > 1e-8:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, "three routes agree on 1000 random instances", ok,
            f"(worst relative deviation {worst:.3e}, {elapsed:.2f}s)")


def test_criterion_2_small_n_closed_forms():
    ok = True
    for t in (0.5, 1.0, 2.0):
        for x in (-1.0, 0.0, 1.0):
            for m in range(1, 6):
                rep = gamma_report(validate_instance(t, [x], [m]))
                want = one_point_gamma(t, x, m)
                for got in (rep.gamma1, rep.gamma2, rep.gamma3):
                    ok = ok and _close_rel(got, want, 1e-12)
    pairs = [(1, 1), (1, 2), (2, 1), (3, 2), (5, 4)]
    ratios = (0.25, 0.75, 1.0, 1.5, 3.0)
    for t in (0.5, 1.0, 2.0):
        for m1, m2 in pairs:
            for r in ratios:
                x1 = -0.3
                x2 = x1 + r * t * (m1 + m2) / 2.0
                rep = gamma_report(validate_instance(t, [x1, x2], [m1, m2]))
                want = two_point_gamma(t, (x1, x2), (m1, m2))
                for got in (rep.gamma1, rep.gamma2, rep.gamma3):
                    ok = ok and _close_rel(got, want, 1e-12)
            # the two branch formulas coincide at the threshold gap
            x2 = x1 + t * (m1 + m2) / 2.0
            merged = two_point_gamma(t, (x1, x2), (m1, m2))
            split = one_point_gamma(t, x1, m1) + one_point_gamma(t, x2, m2)
            ok = ok and _close_rel(merged, split, 1e-12)
    anchors = [
        (validate_instance(1.0, [0.0], [2]), 0.25),
        (validate_instance(1.0, [0.0, 0.5], [1, 1]), -0.0625),
        (validate_instance(1.0, [0.0, 2.0], [1, 1]), -2.0),
    ]
    for inst, want in anchors:
        ok = ok and _close_rel(gamma_report(inst).gamma3, want, 1e-12)
    _report(2, "one- and two-location closed forms", ok)


def test_criterion_3_solver_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    insts = sample_matching(rng, lambda i: i.nu <= 10, 200)
    ok = len(insts) == 200
    for inst in insts:
        for fast, slow in (
            (solve_gamma1(inst), oracle_gamma1(inst)),
            (solve_gamma2(inst), oracle_gamma2(inst)),
        ):
            if abs(fast.objective - slow.objective) > 1e-10:
                ok = False
            if max(abs(p - q) for p, q in zip(fast.values, slow.values)) > 1e-8:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(3, "isotonic solvers match the exhaustive oracle", ok,
            f"({elapsed:.2f}s)")


def test_criterion_4_minimizer_structure(thousand_instances):
    ok = True
    excluded = 0
    for inst in thousand_instances:
        sol = solve_gamma1(inst)
        report = check_minimizer_structure(sol, inst, simulate_inertia(inst))
        if report.boundary:
            excluded += 1
            continue
        # not boundary, so no gap is exempt and ok means every gap agrees
        if not report.ok:
            ok = False
    _report(4, "tight gaps mirror the terminal partition", ok,
            f"({excluded} boundary cases excluded)")


def test_criterion_5_first_merge_recursion():
    rng = np.random.default_rng(2)
    insts = sample_matching(
        rng, lambda i: i.n >= 2 and simulate_inertia(i).q_hat == 1, 100
    )
    ok = len(insts) == 100
    for inst in insts:
        chk = one_level_recursion(inst)
        if chk.abs_diff > 1e-9 * (1.0 + abs(chk.rhs)):
            ok = False
    anchor = one_level_recursion(
        validate_instance(2.0, [0.0, 1.0, 2.0], [1, 1, 1])
    )
    sub = validate_instance(2.0 - anchor.s0, anchor.x_prime, anchor.m_prime)
    collapsed = gamma3(sub, simulate_inertia(sub))
    first_leg = anchor.lhs - collapsed
    ok = ok and abs(anchor.lhs + 0.75) <= 1e-12
    ok = ok and abs(anchor.rhs + 0.75) <= 1e-12
    ok = ok and abs(first_leg + 1.375) <= 1e-12
    ok = ok and abs(collapsed - 0.625) <= 1e-12
    _report(5, "first-merge recursion identity", ok)


def test_criterion_6_simulation_physics(thousand_instances):
    ok = True
    for inst in thousand_instances:
        res = simulate_inertia(inst)
        if sum(res.cluster_masses) != float(inst.nu):
            ok = False
        if max(merge_momentum_defects(inst, res.events), default=0.0) > 1e-12:
            ok = False
        if max(abs(p.values[-1]) for p in optimal_paths(res)) > 1e-12:
            ok = False
        m = np.asarray(inst.m, dtype=float)
        t = inst.t
        for block, mass in zip(res.partition, res.cluster_masses):
            psi = block_com_speed(inst.m, block)
            idx = [i - 1 for i in block]
            paths = res.inertia_paths
            com = [
                sum(m[i] * np.interp(s, paths[i].breakpoints, paths[i].values)
                    for i in idx) / mass
                for s in (0.0, t / 2.0, t)
            ]
            if abs(com[1] - com[0] - psi * t / 2.0) > 1e-10:
                ok = False
            if abs(com[2] - com[0] - psi * t) > 1e-10:
                ok = False
        if res.q_hat > 1 and not np.all(
            separation_margins(inst, res.partition) > 0.0
        ):
            ok = False
    _report(6, "sticky dynamics conserve mass and momentum", ok)


def test_criterion_7_quadrature_baseline():
    start = time.perf_counter()
    ok = True
    for T in (1.0, 4.0, 10.0):
        for x in (-1.0, 0.0, 1.0):
            inst = validate_instance(1.0, [x], [1])
            cfg = default_contour_config(T, inst)
            mom = contour_moment_complex(T, inst, cfg).real
            ref = heat_kernel(T, T * x)
            if abs(mom - ref) > 1e-8 * ref:
                ok = False
            if mom > upper_bound_value(T, inst, cfg.offsets) * (
                1.0 + 1e-8
            ):
                ok = False
            for shift in (-0.7, 0.6, 1.3):
                moved = ContourConfig(
                    offsets=(cfg.offsets[0] + shift,),
                    truncation=cfg.truncation,
                    points=cfg.points,
                )
                moved_mom = contour_moment_complex(T, inst, moved).real
                if abs(moved_mom - mom) > 1e-8 * abs(mom):
                    ok = False
                if mom > upper_bound_value(T, inst, moved.offsets) * (1.0 + 1e-8):
                    ok = False
    pair = validate_instance(1.0, [0.0, 0.5], [1, 1])
    for T in (1.0, 4.0):
        cfg = default_contour_config(T, pair)
        mom = contour_moment_complex(T, pair, cfg).real
        if mom > upper_bound_value(T, pair, cfg.offsets) * (
            1.0 + 1e-8
        ):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(7, "contour quadrature reproduces the kernel", ok,
            f"({elapsed:.2f}s)")


def test_criterion_8_rate_convergence():
    start = time.perf_counter()
    inst = validate_instance(1.0, [0.0], [2])
    gaps = [abs(lyapunov_rate_estimate(T, inst) - 0.25) for T in (10.0, 20.0, 40.0)]
    ok = gaps[0] > gaps[1] > gaps[2]
    ok = ok and gaps[2] <= RATE_GAP_T40_REFERENCE + 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(8, "log-moment rate approaches the exponent", ok,
            f"(gaps {gaps[0]:.6f} > {gaps[1]:.6f} > {gaps[2]:.6f}, {elapsed:.2f}s)")


def test_criterion_9_block_additivity():
    rng = np.random.default_rng(3)
    insts = sample_matching(
        rng, lambda i: simulate_inertia(i).q_hat >= 2, 200
    )
    ok = len(insts) == 200
    for inst in insts:
        res = simulate_inertia(inst)
        whole = gamma3(inst, res)
        x = np.asarray(inst.x)
        parts = 0.0
        for block in res.partition:
            idx = [i - 1 for i in block]
            sub = validate_instance(inst.t, x[idx], [inst.m[i] for i in idx])
            parts += gamma3(sub, simulate_inertia(sub))
        if not _close_rel(whole, parts, 1e-10):
            ok = False
    _report(9, "separated blocks contribute independently", ok)
