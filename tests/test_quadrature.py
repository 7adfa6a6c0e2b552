"""Tests for the contour-integral moment evaluation."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from shelyap import (
    ContourConfig,
    InvalidContour,
    LengthMismatch,
    NonFiniteResult,
    NonPositiveTime,
    NuTooLarge,
    contour_moment_complex,
    default_contour_config,
    flatten,
    heat_kernel,
    sample_matching,
    solve_gamma1,
    upper_bound_value,
    validate_instance,
)
from shelyap.cli import main
from shelyap.quadrature import _grid
from test_solvers import route1_sum_bound


def exact_nu2_moment(T, inst):
    """The nu = 2 moment in closed form, from the standard library alone.

    With s = (z_1 + z_2)/2 and r = z_1 - z_2 the Gaussian splits, and
    r/(r - 1) = 1 + 1/(r - 1) leaves a normal CDF. With c = T t / 2,
    B = T (u_1 + u_2) and D = T (u_1 - u_2) / 2:

        M_2 = exp(-B^2/(8c)) / sqrt(8 pi c)
              * [exp(-D^2/(2c)) / sqrt(2 pi c)
                 + exp(c/2 + D) erfc(-(c + D)/sqrt(2c)) / 2].
    """
    u1, u2 = flatten(inst).tolist()
    c = T * inst.t / 2.0
    big_b, d = T * (u1 + u2), T * (u1 - u2) / 2.0
    pole = math.exp(c / 2.0 + d) * math.erfc(-(c + d) / math.sqrt(2.0 * c)) / 2.0
    gauss = math.exp(-d * d / (2.0 * c)) / math.sqrt(2.0 * math.pi * c)
    return math.exp(-big_b * big_b / (8.0 * c)) / math.sqrt(8.0 * math.pi * c) * (gauss + pole)


def dense_contour_moment(T, inst, cfg):
    """The grid sum with one exponential per point of the whole tensor grid.

    This reference keeps p^nu complex values at once. Returns the value and
    S, the sum of the terms' absolute values, the scale of its rounding.
    """
    y, w = _grid(cfg)
    t, nu = inst.t, inst.nu
    axes = np.ix_(*[a + 1j * y for a in cfg.offsets])
    val = np.exp(sum(0.5 * T * t * z * z + T * uj * z for z, uj in zip(axes, flatten(inst))))
    for a in range(nu):
        for b in range(a + 1, nu):
            diff = axes[a] - axes[b]
            val = val * (diff / (diff - 1.0))
    for wj in np.ix_(*[w] * nu):
        val = val * wj
    scale = (2.0 * math.pi) ** nu
    return complex(val.sum() / scale), float(np.abs(val).sum() / scale)


def contour_draws(rng, count):
    """(T, instance, config) at nu = 1, 2, 3 in turn, with either rule.

    16 to 200 points (to 96 at nu = 3, the default there, which keeps the
    dense reference small), and half of the draws take given offsets: the
    default ladder shifted by up to 2, with gaps from 1.05 to 2.5.
    """
    for i in range(count):
        nu = 1 + i % 3
        T, t = float(rng.uniform(0.5, 10.0)), float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(1, nu + 1))
        m = np.ones(n, dtype=int)
        np.add.at(m, rng.integers(0, n, size=nu - n), 1)
        inst = validate_instance(t, np.sort(rng.uniform(-1.5, 1.5, size=n)), m.tolist())
        points = int(rng.integers(16, (200 if nu < 3 else 96) + 1))
        rule = ("gauss", "trapezoid")[int(rng.integers(2))]
        offsets = None
        if rng.random() < 0.5:
            top = default_contour_config(T, inst).offsets[0] + float(rng.uniform(-2.0, 2.0))
            offsets = top - np.cumsum([0.0, *rng.uniform(1.05, 2.5, size=nu - 1)])
        yield T, inst, default_contour_config(T, inst, points, rule=rule, offsets=offsets)


def lyapunov_rate_estimate(T, inst):
    """log(moment)/T on the default contour; it nears the exponent as T grows."""
    cfg = default_contour_config(T, inst)
    return math.log(contour_moment_complex(T, inst, cfg).real) / T


def test_axis_contraction_matches_the_dense_grid():
    # over 9000 draws (seeds 0-59) the worst |contracted - dense| was 26.2
    # eps S, 2.7 at seed 0, and most of it is the dense sum's error: on that
    # draw (nu = 3, exponents up to 116) they lay 4.3 and 21.9 eps S from the
    # exact value of the discrete sum (mpmath, 40 digits). nu = 1 keeps its
    # bits
    eps = np.finfo(float).eps
    for T, inst, cfg in contour_draws(np.random.default_rng(0), 150):
        got = contour_moment_complex(T, inst, cfg)
        ref, scale = dense_contour_moment(T, inst, cfg)
        if inst.nu == 1:
            assert got == ref, (T, inst, cfg)
        else:
            assert abs(got - ref) <= 32.0 * eps * scale, (T, inst, cfg)


def test_three_coordinate_sum_holds_one_slice_at_a_time():
    # the dense grid peaked at 126 MiB here; per-slice contraction keeps no
    # array larger than points^2 (0.4 MiB) and peaked at 2.6 MiB, 2.0 once
    # the Gauss nodes are cached
    inst = validate_instance(1.0, [0.0, 0.5], [2, 1])
    cfg = default_contour_config(2.0, inst, points=160)
    tracemalloc.start()
    try:
        z = contour_moment_complex(2.0, inst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert z.real > 0.0


def square_nu2_moment(T, inst, cfg):
    """The nu = 2 grid sum with the pole factor as one p x p matrix, each
    first-axis node's row summed along the second axis."""
    y, w = _grid(cfg)
    z = [a + 1j * y for a in cfg.offsets]
    f = [w * np.exp(0.5 * T * inst.t * zj * zj + T * uj * zj) for zj, uj in zip(z, flatten(inst))]
    diff = z[0][:, None] - z[1]
    rows = (diff / (diff - 1.0) * f[1]).sum(axis=1)
    return complex((f[0] * rows).sum() / (2.0 * math.pi) ** 2)


@pytest.mark.parametrize("points", [8, 15, 16, 17, 31, 32, 33, 96, 200, 201])
@pytest.mark.parametrize("rule", ["gauss", "trapezoid"])
@pytest.mark.parametrize("shift", [None, 0.3], ids=["default", "given"])
def test_blocked_nu2_sum_keeps_the_square_sums_bits(points, rule, shift):
    # blocks of first-axis nodes, the last one short at 201 points
    for inst in (validate_instance(0.7, [-0.4, 1.1], [1, 1]), validate_instance(2.0, [0.3], [2])):
        cfg = default_contour_config(3.0, inst, points, rule=rule)
        if shift is not None:
            cfg = default_contour_config(3.0, inst, points, rule=rule,
                                         offsets=[cfg.offsets[0] + shift, cfg.offsets[1] - shift])
        assert contour_moment_complex(3.0, inst, cfg) == square_nu2_moment(3.0, inst, cfg)


def test_nu2_sum_needs_no_square_matrix():
    # the p x p pole matrix and its products peaked at 1.85 MiB at 200 points;
    # blocks of about 4096 values keep the peak near 0.2 MiB
    inst = validate_instance(1.0, [0.0], [2])
    cfg = default_contour_config(4.0, inst)
    assert cfg.points == 200
    contour_moment_complex(4.0, inst, cfg)  # caches the Gauss nodes
    tracemalloc.start()
    try:
        contour_moment_complex(4.0, inst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**10


def test_heat_kernel_values():
    assert heat_kernel(1.0, 0.0) == pytest.approx(0.3989422804014327, rel=1e-15)
    assert heat_kernel(2.0, 0.0) == pytest.approx(0.28209479177387814, rel=1e-15)
    assert heat_kernel(1.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-15)


def test_heat_kernel_rejects_bad_time():
    with pytest.raises(NonPositiveTime):
        heat_kernel(0.0, 1.0)
    with pytest.raises(NonPositiveTime):
        heat_kernel(-1.0, 0.0)


def test_single_coordinate_moment_is_exact():
    # nu=1 has no pole prefactor, so the contour integral collapses to a
    # Gaussian and must match the kernel to quadrature precision
    for T in (1.0, 4.0, 10.0):
        for t in (0.5, 1.0, 2.0):
            for x in (-1.0, 0.0, 1.0):
                inst = validate_instance(t, [x], [1])
                cfg = default_contour_config(T, inst)
                got = contour_moment_complex(T, inst, cfg).real
                expect = heat_kernel(T * t, T * x)
                assert got == pytest.approx(expect, rel=1e-8)


def test_moment_independent_of_contour_shift():
    inst = validate_instance(1.0, [0.0], [2])
    T = 3.0
    cfg = default_contour_config(T, inst)
    base = contour_moment_complex(T, inst, cfg).real
    for shift in (-0.8, 0.5, 1.7):
        moved = ContourConfig(
            offsets=tuple(a + shift for a in cfg.offsets),
            truncation=cfg.truncation,
            points=cfg.points,
            rule=cfg.rule,
        )
        got = contour_moment_complex(T, inst, moved).real
        assert got == pytest.approx(base, rel=1e-10)


def test_default_grid_matches_exact_nu2_moment():
    # a finer grid meets the reference where the default one does not (below)
    T = 4.011
    inst = validate_instance(0.21, [-1.0366167568156803, 0.9901431894052366], [1, 1])
    fine = contour_moment_complex(T, inst, default_contour_config(T, inst, points=400)).real
    assert abs(fine - exact_nu2_moment(T, inst)) <= 1e-8 * fine
    # merged (m = (2)) and split (m = (1, 1)) draws in the verify quadrature
    # ranges with T t >= 2; the worst seen is 2.0e-10 relative (1.7e-10 on the
    # dense grid), mostly rounding: there the terms' absolute sum is 2.2e6
    # times the moment
    rng = np.random.default_rng(20261021)
    checked = 0
    while checked < 160:
        T, t = float(rng.uniform(0.5, 10.0)), float(rng.uniform(0.2, 3.0))
        if checked % 2:
            inst = validate_instance(t, [float(rng.uniform(-1.5, 1.5))], [2])
        else:
            inst = validate_instance(t, np.sort(rng.uniform(-1.5, 1.5, size=2)), [1, 1])
        if T * t < 2.0:
            continue
        got = contour_moment_complex(T, inst, default_contour_config(T, inst)).real
        ref = exact_nu2_moment(T, inst)
        assert abs(got - ref) <= 1e-8 * ref, (T, inst)
        checked += 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the default grid's point count "
                   "is not chosen by an error estimate, and at small T t it is off by 9.7e-4")
def test_default_grid_at_small_kernel_time_matches_exact_nu2_moment():
    T = 4.011
    inst = validate_instance(0.21, [-1.0366167568156803, 0.9901431894052366], [1, 1])
    ref = exact_nu2_moment(T, inst)
    got = contour_moment_complex(T, inst, default_contour_config(T, inst)).real
    assert abs(got - ref) <= 1e-8 * ref


def test_gauss_and_trapezoid_agree():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    T = 2.0
    g = contour_moment_complex(T, inst, default_contour_config(T, inst)).real
    tr = contour_moment_complex(
        T, inst, default_contour_config(T, inst, points=400, rule="trapezoid")
    ).real
    assert tr == pytest.approx(g, rel=1e-8)


def test_imaginary_residual_is_small():
    for T in (1.0, 5.0):
        for x, m in ([[0.0], [2]], [[0.0, 0.5], [1, 1]], [[-0.4, 1.0], [2, 1]]):
            inst = validate_instance(1.0, x, m)
            z = contour_moment_complex(T, inst, default_contour_config(T, inst))
            assert abs(z.imag) <= 1e-8 * abs(z)


def test_default_config_shape():
    inst = validate_instance(1.0, [0.0], [2])
    cfg = default_contour_config(4.0, inst)
    # -sum(u)/(nu t) = 0, the route-1 minimizer (0.5, -0.5)'s mean, centres
    # the ladder with gap 1.5
    assert cfg.offsets == pytest.approx((0.75, -0.75))
    assert cfg.truncation == pytest.approx(4.0)
    assert cfg.points == 200
    assert cfg.rule == "gauss"
    cfg3 = default_contour_config(1.0, validate_instance(1.0, [0.0], [3]))
    assert cfg3.points == 96
    assert len(cfg3.offsets) == 3


def test_default_centre_is_route_one_mean():
    # pooling keeps sums, so the route-1 minimizer's mean is -sum(u)/(nu t)
    rng = np.random.default_rng(5)
    for inst in sample_matching(rng, lambda i: i.nu <= 3, 500):
        cfg = default_contour_config(1.0, inst)
        a = solve_gamma1(inst).values
        bound = route1_sum_bound(inst, a) / inst.nu
        assert abs(sum(cfg.offsets) / inst.nu - np.mean(a)) <= bound, inst


@pytest.mark.parametrize("t, x, m", [
    (1.0, [1e308, 1.7e308], [1, 1]),  # the sum of u overflows
    (1e-300, [1e10], [3]),  # the sum is finite, its ratio to t is not
])
def test_nonfinite_default_centre_is_named(t, x, m):
    inst = validate_instance(t, x, m)
    with pytest.raises(NonFiniteResult, match="centre"), np.errstate(over="ignore"):
        default_contour_config(1.0, inst)


def test_upper_bound_dominates_moment():
    for T in (1.0, 3.0):
        for x, m in ([[0.0], [2]], [[0.0, 0.5], [1, 1]], [[-1.0, 1.2], [1, 2]]):
            inst = validate_instance(1.0, x, m)
            cfg = default_contour_config(T, inst)
            moment = abs(contour_moment_complex(T, inst, cfg).real)
            bound = upper_bound_value(T, inst, cfg.offsets)
            assert moment <= bound * (1.0 + 1e-8)
            # widening the ladder keeps domination and loosens the pole factor
            wide = tuple(2.0 * a for a in cfg.offsets)
            assert moment <= upper_bound_value(T, inst, wide) * (1.0 + 1e-8)


def test_kernel_product_floor():
    # positive association pushes the moment above the independent product
    for T in (1.0, 2.0, 5.0):
        inst = validate_instance(1.0, [0.0], [2])
        moment = contour_moment_complex(T, inst, default_contour_config(T, inst)).real
        floor = heat_kernel(T, 0.0) ** 2
        assert moment >= floor * (1.0 - 1e-10)
        pair = validate_instance(1.0, [0.0, 0.5], [1, 1])
        pm = contour_moment_complex(T, pair, default_contour_config(T, pair)).real
        pf = heat_kernel(T, 0.0) * heat_kernel(T, 0.5 * T)
        assert pm >= pf * (1.0 - 1e-10)


def test_rate_estimate_approaches_exponent():
    inst = validate_instance(1.0, [0.0], [2])
    gaps = [
        abs(lyapunov_rate_estimate(T, inst) - 0.25) for T in (5.0, 10.0, 20.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_three_coordinate_moment_runs():
    inst = validate_instance(1.0, [0.0, 0.5], [2, 1])
    z = contour_moment_complex(2.0, inst, default_contour_config(2.0, inst))
    assert z.real > 0.0
    assert abs(z.imag) <= 1e-8 * abs(z)


def test_nu_cap():
    with pytest.raises(NuTooLarge):
        default_contour_config(1.0, validate_instance(1.0, [0.0], [4]))
    cfg = ContourConfig(offsets=(2.0, 0.5, -0.9, -2.5), truncation=4.0, points=16)
    with pytest.raises(NuTooLarge):
        contour_moment_complex(1.0, validate_instance(1.0, [0.0], [4]), cfg)


def test_offset_gap_must_clear_pole():
    with pytest.raises(InvalidContour):
        ContourConfig(offsets=(0.5, 0.0), truncation=4.0, points=16)
    with pytest.raises(InvalidContour):
        upper_bound_value(
            1.0, validate_instance(1.0, [0.0], [2]), (0.5, 0.0)
        )


def test_offset_count_must_match():
    inst = validate_instance(1.0, [0.0], [2])
    cfg = ContourConfig(offsets=(0.0,), truncation=4.0, points=16)
    with pytest.raises(LengthMismatch):
        contour_moment_complex(1.0, inst, cfg)
    with pytest.raises(LengthMismatch):
        upper_bound_value(1.0, inst, (0.0,))


def test_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(offsets=(0.0,), truncation=4.0, points=4)
    with pytest.raises(ValueError):
        ContourConfig(offsets=(0.0,), truncation=0.0, points=16)
    with pytest.raises(ValueError):
        ContourConfig(offsets=(0.0,), truncation=4.0, points=16, rule="simpson")


def test_moment_requires_positive_scale():
    inst = validate_instance(1.0, [0.0], [1])
    cfg = ContourConfig(offsets=(0.0,), truncation=4.0, points=16)
    with pytest.raises(NonPositiveTime):
        contour_moment_complex(0.0, inst, cfg)
    for T in (0.0, -1.0):
        with pytest.raises(NonPositiveTime):
            upper_bound_value(T, inst, cfg.offsets)


SCALE_CASES = [
    (1.0, math.inf, "T=inf must be finite"), (1.0, math.nan, "T=nan must be > 0"),
    (1.0, -math.inf, "T=-inf must be > 0"),
    # the kernel time T*t underflows to 0 or overflows to inf
    (1e-300, 1e-300, r"kernel time T\*t=0.0 must be > 0"),
    (1e300, 1e300, r"kernel time T\*t=inf must be > 0 and finite"),
]


@pytest.mark.parametrize("t,T,message", SCALE_CASES, ids=[
    f"{T}-{message}" if t == 1.0 else f"t={t}-T={T}" for t, T, message in SCALE_CASES
])
def test_scale_must_be_finite_and_positive(t, T, message):
    inst = validate_instance(t, [0.0], [1])
    cfg = ContourConfig(offsets=(0.0,), truncation=4.0, points=16)
    for call in (lambda: default_contour_config(T, inst),
                 lambda: contour_moment_complex(T, inst, cfg),
                 lambda: upper_bound_value(T, inst, cfg.offsets)):
        with pytest.raises(NonPositiveTime, match=message):
            call()


def test_rate_estimate_rejects_nonpositive_moment(capsys):
    # a deliberately under-resolved trapezoid grid goes negative here
    code = main(["moments", "--t", "1", "--x", "3", "--m", "1", "--T", "1",
                 "--offsets", "0", "--rule", "trapezoid", "--points", "8"])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert json.loads(out.err)["error"] == "NonPositiveMoment"


def test_upper_bound_past_float_range_is_typed():
    inst = validate_instance(1.0, [0.0], [2])
    with pytest.raises(NonFiniteResult):
        upper_bound_value(1e6, inst, default_contour_config(1e6, inst).offsets)
