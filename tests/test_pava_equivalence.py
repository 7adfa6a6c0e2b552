"""PAVA over increasing runs against the per-target loop it replaced and
against an exact rational PAVA.

The reference loop below is the earlier isotonic_nonincreasing: one block
per target, pooled with its left neighbour while the neighbour's mean is
smaller, every sum taken left to right. The package lets each maximal
strictly increasing run enter as one block summed by np.add.reduceat, then
pools the same way; each final block mean is computed the same way, so the
fits are compared as bytes. Two classes of input may differ, because there
the two summation orders can pick different blocks:

- route-1 draws with a location pair within 1e-12 relative of its merge
  threshold (x_{j+1} - x_j)/t = (m_j + m_{j+1})/2, where two block means
  agree to rounding. On the seeded corpus 8 of 82 such draws differ. By
  where the fit changes value, the exact fit matches the loop in 4 of them,
  the runs in 4 (one matches both) and neither in 1.
- inputs where a product w z overflows at a finite target and finite
  weight. Both fits then hold a NaN or an inf, which the command line
  reports as NonFiniteResult; the runs must be non-finite wherever the loop
  is. Of the 64 finite-weight draws at extreme horizons 18 differ, all in
  this class.

The other 16 extreme-horizon draws have a route-2 weight m t that overflows
to inf; the package rejects them with InvalidFitInput, as it does a NaN
target.

The exact reference runs the per-target loop in Fractions on the float
inputs. Every case with finite w z (route 1 up to nu = 3000) must lie within
C_EXACT * EPS * mean|z| of it, EPS = 2^-52. The worst measured, in units of
EPS * mean|z|, are 2.13 (random), 0.59 (lattice), 0.83 (route-2 threshold),
0.84 (finite draws of the infinite-target group) and 3.13 (route 1), the same
for the loop and for the runs.

The corpus covers empty and one-target fits, equal-mean ties on integer
lattices, route-1 targets k - u_k/t with nu up to 10^5 at short horizons
(blocks pool across locations), a quarter of them with one location pair
exactly on its merge threshold in floating point, route-2 targets on a
lattice with spacing exactly t (m_i + m_{i+1})/2, infinite targets, and
horizons t = 5e-324, 1e-310, 1e307 and 1e308, where x/t, m t or w z
overflows.
"""

from fractions import Fraction

import numpy as np
import pytest

from shelyap import InvalidFitInput, flatten, validate_instance
from shelyap.solvers import isotonic_nonincreasing
from test_cluster_equivalence import random_shape

EPS = 2.0**-52
# fits lie within C_EXACT * EPS * mean|z| of the exact fit; worst seen 3.13
C_EXACT = 6
# route-1 draws up to this nu are checked against the exact fit
EXACT_NU_MAX = 3000


def reference_isotonic(z, w):
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    starts, wsum, wzsum = [], [], []
    for i in range(len(z)):
        starts.append(i)
        wsum.append(w[i])
        wzsum.append(w[i] * z[i])
        while len(starts) > 1 and wzsum[-2] / wsum[-2] < wzsum[-1] / wsum[-1]:
            tz, tw = wzsum.pop(), wsum.pop()
            starts.pop()
            wzsum[-1] += tz
            wsum[-1] += tw
    out = np.empty_like(z)
    bounds = starts + [len(z)]
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = np.sum(w[lo:hi] * z[lo:hi]) / np.sum(w[lo:hi])
    return out


def random_targets(rng):
    d = int(rng.integers(0, 40))
    return rng.normal(size=d) * 3.0, rng.uniform(0.1, 5.0, size=d)


def lattice_ties(rng):
    """Small integers with integer weights: many blocks with equal means."""
    d = int(rng.integers(1, 30))
    z = rng.integers(-3, 4, size=d).astype(float)
    return z, rng.integers(1, 4, size=d).astype(float)


def route1_shape(rng, max_m):
    """Locations around their merge spacing t (m_j + m_{j+1})/2, short t.

    A quarter of the draws put one pair exactly on that spacing.
    """
    n = int(rng.integers(1, 9))
    m = np.exp(rng.uniform(0.0, np.log(max_m), size=n)).astype(int) + 1
    t = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
    spacing = t * (m[:-1] + m[1:]) / 2.0 * rng.uniform(0.3, 1.5, size=n - 1)
    if n > 1 and rng.random() < 0.25:
        j = int(rng.integers(0, n - 1))
        spacing[j] = t * (m[j] + m[j + 1]) / 2.0
    x = float(rng.uniform(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(spacing)])
    return validate_instance(t, x, m.tolist())


def route1_targets(inst):
    return np.arange(1, inst.nu + 1) - flatten(inst) / inst.t, np.full(inst.nu, inst.t)


def route2_threshold(rng):
    """Route-2 targets M_i - x_i/t, spacing exactly on the merge threshold."""
    n = int(rng.integers(1, 12))
    m = rng.integers(1, 6, size=n).astype(float)
    t = float(rng.choice([0.5, 1.0, 2.0]))
    margins = (m[:-1] + m[1:]) / 2.0
    spacing = t * margins
    off = rng.random(n - 1) < 0.3
    spacing[off] *= rng.choice([0.5, 2.0], size=int(off.sum()))
    x = float(rng.integers(-4, 5)) + np.concatenate([[0.0], np.cumsum(spacing)])
    shift = np.concatenate([[0.0], np.cumsum(margins)])
    return shift - x / t, m * t


def with_infinities(rng):
    z, w = random_targets(rng)
    if len(z):
        hit = rng.random(len(z)) < 0.3
        z[hit] = rng.choice([np.inf, -np.inf], size=int(hit.sum()))
    return z, w


def extreme_horizon(rng):
    """Route-1 and route-2 targets where x/t or the products w z overflow."""
    t = float(rng.choice([5e-324, 1e-310, 1e307, 1e308]))
    n = int(rng.integers(1, 6))
    x = np.sort(rng.choice(np.arange(-5.0, 6.0), size=n, replace=False))
    m = np.exp(rng.uniform(0.0, np.log(300), size=n)).astype(int) + 1
    with np.errstate(over="ignore"):
        if rng.random() < 0.5:
            return route1_targets(validate_instance(t, x.tolist(), m.tolist()))
        shift = np.concatenate([[0.0], np.cumsum((m[:-1] + m[1:]) / 2.0)])
        return shift - x / t, m * t


def corpus():
    """Target/weight pairs and route-1 instances from one seeded stream."""
    rng = np.random.default_rng(20261018)
    cases = [(np.empty(0), np.empty(0)), (np.array([2.5]), np.array([0.7]))]
    cases += [random_targets(rng) for _ in range(500)]
    cases += [lattice_ties(rng) for _ in range(500)]
    cases += [route2_threshold(rng) for _ in range(400)]
    cases += [with_infinities(rng) for _ in range(150)]
    cases += [extreme_horizon(rng) for _ in range(80)]
    route1 = [route1_shape(rng, 300) for _ in range(400)]
    route1 += [route1_shape(rng, 12000) for _ in range(6)]
    route1.append(validate_instance(0.01, [0.0, 60.0, 130.0, 400.0],
                                    [30000, 25000, 20000, 25000]))
    return cases, route1


def near_threshold(inst):
    """Some location pair lies within 1e-12 relative of its merge threshold."""
    x, m = np.asarray(inst.x), np.asarray(inst.m, dtype=float)
    margin = (m[:-1] + m[1:]) / 2.0
    return bool((np.abs((x[1:] - x[:-1]) / inst.t - margin) <= 1e-12 * margin).any())


def exact_isotonic(z, w):
    """The per-target loop in Fractions: the exact fit of the float inputs."""
    starts, wsum, wzsum = [], [], []
    for i, (zi, wi) in enumerate(zip(z.tolist(), w.tolist())):
        starts.append(i)
        wsum.append(Fraction(wi))
        wzsum.append(Fraction(wi) * Fraction(zi))
        while len(starts) > 1 and wzsum[-2] * wsum[-1] < wzsum[-1] * wsum[-2]:
            tz, tw = wzsum.pop(), wsum.pop()
            starts.pop()
            wzsum[-1] += tz
            wsum[-1] += tw
    out = []
    bounds = starts + [len(z)]
    for lo, hi, num, den in zip(bounds, bounds[1:], wzsum, wsum):
        out += [num / den] * (hi - lo)
    return out


def test_runs_match_coordinate_loop_bytewise():
    cases, route1 = corpus()
    assert len(cases) + len(route1) >= 2000
    assert max(inst.nu for inst in route1) == 100000
    overflowed = infinite = 0
    for z, w in cases:
        if not np.isfinite(w).all():
            with pytest.raises(InvalidFitInput, match="must be finite"):
                isotonic_nonincreasing(z, w)
            infinite += 1
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
            got, want = isotonic_nonincreasing(z, w), reference_isotonic(z, w)
            over = (np.isfinite(z) & ~np.isfinite(w * z)).any()
        if over:
            lost = ~np.isfinite(want)
            assert lost.any() and not np.isfinite(got[lost]).any(), (z, w)
            overflowed += 1
        else:
            assert got.tobytes() == want.tobytes(), (z, w)
    assert overflowed >= 15
    assert infinite >= 12
    pooled = near = 0
    for inst in route1:
        z, w = route1_targets(inst)
        got, want = isotonic_nonincreasing(z, w), reference_isotonic(z, w)
        if near_threshold(inst):
            # each fit is within C_EXACT * EPS * mean|z| of the exact one
            bound = 2 * C_EXACT * EPS * np.mean(np.abs(z))
            assert np.abs(got - want).max() <= bound, inst
            near += 1
        else:
            assert got.tobytes() == want.tobytes(), inst
        # a location's targets rise by 1, so it never splits; fewer blocks
        # than locations means some block spans several of them
        pooled += len(np.unique(got)) < inst.n
    assert pooled >= 100
    assert near >= 50


def test_runs_within_exact_rational_fit():
    cases, route1 = corpus()
    with np.errstate(over="ignore", invalid="ignore"):
        finite = [(z, w) for z, w in cases if len(z) and np.isfinite(w * z).all()]
    finite += [route1_targets(inst) for inst in route1 if inst.nu <= EXACT_NU_MAX]
    assert len(finite) >= 1750
    for z, w in finite:
        got = isotonic_nonincreasing(z, w).tolist()
        err = max(abs(Fraction(g) - e) for g, e in zip(got, exact_isotonic(z, w)))
        assert err <= C_EXACT * EPS * Fraction(np.mean(np.abs(z))), (z, w)


def test_rejects_nan_targets_and_weights_not_positive():
    nan = float("nan")
    for z, w in (([1.0, nan], [1.0, 1.0]), ([1.0, 2.0], [1.0, nan]),
                 ([1.0], [0.0]), ([1.0, 2.0], [1.0, -2.0]), ([1.0, 2.0], [1.0, np.inf])):
        with pytest.raises(InvalidFitInput):
            isotonic_nonincreasing(z, w)
    assert issubclass(InvalidFitInput, ValueError)
    fit = isotonic_nonincreasing([np.inf, 0.0, -np.inf], [1.0] * 3)
    assert fit.tolist() == [np.inf, 0.0, -np.inf]


def designed_blocks(rng, lengths, uniform):
    """Targets whose fit has exactly these blocks, in this order, and their weights.

    Each block is one strictly increasing run whose level sits far below the
    block before it, so no two blocks pool. Uniform weights are route 1's t,
    the others route 2's m t.
    """
    t = float(rng.uniform(0.2, 2.0))
    z, w = [], []
    for j, length in enumerate(lengths):
        z.append(-10.0 * j + np.sort(rng.uniform(0.0, 1.0, size=length)))
        w.append(np.full(length, t) if uniform else t * rng.integers(1, 6, size=length))
    return np.concatenate(z), np.concatenate(w)


def assert_block_means(z, w, blocks):
    """The fit holds np.sum(wz[lo:hi]) / np.sum(w[lo:hi]) on each block, bit for bit."""
    got = isotonic_nonincreasing(z, w)
    wz = w * z
    for lo, hi in blocks:
        want = np.sum(wz[lo:hi]) / np.sum(w[lo:hi])
        assert got[lo:hi].tobytes() == np.full(hi - lo, want).tobytes(), (lo, hi)


def test_length_class_means_match_per_block_sums():
    # lengths 1..300 cross numpy's 8-wide unrolled sum and its 128-element
    # pairwise block; a class holds one block or several, and lengths 1e4
    # and 1e5 come alone and in classes of several
    rng = np.random.default_rng(20261019)
    for uniform in (True, False):
        for lengths in ([*range(1, 301), *range(1, 301, 2), *range(1, 301, 3)],
                        [10**4, 10**5, 10**4, 10**4], [10**5, 10**5, 7]):
            lengths = rng.permutation(lengths).tolist()
            z, w = designed_blocks(rng, lengths, uniform)
            ends = np.cumsum(lengths).tolist()
            assert_block_means(z, w, zip([0, *ends[:-1]], ends))
    # both routes' targets on the benchmark shape, the blocks read off the fit
    for k in range(40):
        inst = random_shape(rng, int(rng.integers(100, 1001)))
        m = np.asarray(inst.m, dtype=float)
        shift = np.concatenate([[0.0], np.cumsum((m[:-1] + m[1:]) / 2.0)])
        for z, w in (route1_targets(inst), (shift - np.asarray(inst.x) / inst.t, m * inst.t)):
            fit = isotonic_nonincreasing(z, w)
            ends = [*np.flatnonzero(fit[1:] != fit[:-1]) + 1, len(z)]
            assert_block_means(z, w, zip([0, *ends[:-1]], ends))
