"""Tests for the contour-integral moment evaluation."""

import json
import math

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
    upper_bound_value,
    validate_instance,
)
from shelyap.cli import main


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


def lyapunov_rate_estimate(T, inst):
    """log(moment)/T on the default contour; it nears the exponent as T grows."""
    cfg = default_contour_config(T, inst)
    return math.log(contour_moment_complex(T, inst, cfg).real) / T


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
    # ranges with T t >= 2; the worst seen is 7.8e-13 relative
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
    # route-1 minimizer (0.5, -0.5) centres the ladder at 0 with gap 1.5
    assert cfg.offsets == pytest.approx((0.75, -0.75))
    assert cfg.truncation == pytest.approx(4.0)
    assert cfg.points == 200
    assert cfg.rule == "gauss"
    cfg3 = default_contour_config(1.0, validate_instance(1.0, [0.0], [3]))
    assert cfg3.points == 96
    assert len(cfg3.offsets) == 3


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
