"""gamma3 against an exact rational reference, within a stated rounding bound.

For rational input the closed form is rational: every x_k and t is a float,
so a dyadic rational, and the exponent is a polynomial in x, m, t and 1/t.
The reference below evaluates it exactly. Within a block B with mass M_B and
prefix masses C_k = sum of m_j over the members j of B left of k, the pair sum
is

    P_B = sum_{k<l in B} m_k m_l (x_l - x_k) / 2
        = 1/2 sum_{k in B} m_k (x_k - x_first(B)) (2 C_k + m_k - M_B),

because sum_k m_k (2 C_k + m_k - M_B) = 0. In exact arithmetic the two sides
are equal, so the reference reads the identity in O(|B|) Python integers
(x scaled by the common power of two), and `test_exact_reference_is_the_pair_sum`
checks it against the pair sum on small blocks.

Every term of

    S = sum_B [ (M_B^3 - M_B) t / 24 + P_B + (sum_{k in B} m_k x_k)^2 / (2 t M_B) ]

is >= 0, so S is the scale of the rounding error of any summation order
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 4). The
tests assert |gamma3 - gamma| <= C_BOUND * eps * S with eps = 2^-52. gamma3's
whole-array pass reaches 1.63 eps S on the 2000-instance corpus below and
0.55 eps S on one block of 10^4. An earlier form that added the pairs one row
at a time, in a pair loop's order, reached 13.3 and 89.9 eps S on the same
inputs, so the bound separates the two.
"""

from fractions import Fraction

import numpy as np
import pytest

from shelyap import gamma3, simulate_inertia, validate_instance
from shelyap.clusters import _Run, _simulate
from test_golden import BIG, CASCADE, FIVE, ROUTE1_POOLED, ROUTE1_TIE, ROUTE1_TIES

EPS = Fraction(1, 2**52)
C_BOUND = 4


def exact_gamma3(inst, partition):
    """The exact exponent and its error scale S, as Fractions."""
    xs = [Fraction(v) for v in inst.x]
    den = max(f.denominator for f in xs)  # a power of two, so every x is X / den
    big_x = [f.numerator * (den // f.denominator) for f in xs]
    cubes, pair, squares = 0, 0, Fraction(0)
    for block in partition:
        idx = [i - 1 for i in block]
        big_m = sum(inst.m[i] for i in idx)
        first = big_x[idx[0]]
        before = 0
        for i in idx:
            mi = inst.m[i]
            pair += mi * (big_x[i] - first) * (2 * before + mi - big_m)
            before += mi
        com = sum(inst.m[i] * big_x[i] for i in idx)
        cubes += big_m**3 - big_m
        squares += Fraction(com * com, big_m)
    t = Fraction(inst.t)
    potential = t * cubes / 24
    pair = Fraction(pair, 2 * den)
    kinetic = squares / (den * den * 2 * t)
    return potential - pair - kinetic, potential + pair + kinetic


def error_in_eps_s(inst, partition, got):
    """|got - gamma| in units of eps * S."""
    exact, scale = exact_gamma3(inst, partition)
    err = abs(Fraction(got) - exact)
    return float(err / (EPS * scale)) if err else 0.0  # S = 0 only at gamma = 0


def pair_sum(inst, partition):
    """sum_B sum_{k<l in B} m_k m_l |x_k - x_l| / 2, pair by pair, exactly."""
    total = Fraction(0)
    for block in partition:
        for a, k in enumerate(block):
            for l in block[a + 1:]:
                total += inst.m[k - 1] * inst.m[l - 1] * abs(
                    Fraction(inst.x[k - 1]) - Fraction(inst.x[l - 1])) / 2
    return total


def random_shape(rng, n):
    """The benchmark's shape: x sorted in [-n, n], m in 1..5, t in [0.2, 2]."""
    m = rng.integers(1, 6, size=n).tolist()
    x = np.sort(rng.uniform(-n, n, size=n))
    t = float(np.exp(rng.uniform(np.log(0.2), np.log(2.0))))
    return validate_instance(t, x, m)


def equal_line(rng, n):
    """Equal spacing and equal masses: many equal terms in each row."""
    h = float(rng.choice([0.25, 0.5, 1.0, 1.5]))
    return validate_instance(float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                             [h * i for i in range(n)], [int(rng.integers(1, 4))] * n)


def heavy_lattice(rng, n):
    """Integer gaps and masses up to 2000: large terms, exact differences."""
    x = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
    return validate_instance(float(rng.integers(1, 4)), x,
                             rng.integers(1, 2001, size=n).tolist())


def short_horizon(rng, n):
    """The benchmark's positions at t in [0.01, 0.2]: many small blocks."""
    m = rng.integers(1, 6, size=n).tolist()
    x = np.sort(rng.uniform(-n, n, size=n))
    t = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
    return validate_instance(t, x, m)


def corpus():
    """2000 seeded instances of four shapes, 750 of them with n in 100..110."""
    rng = np.random.default_rng(20261018)
    shapes = (random_shape, equal_line, heavy_lattice, short_horizon)
    for k in range(2000):
        make = shapes[k % 4]
        n = int(rng.integers(100, 111)) if k % 8 < 3 else int(rng.integers(1, 30))
        yield make(rng, n)


def instance_of(argv):
    """The instance of a golden command's --t, --x and --m flags."""
    flags = {}
    for k, arg in enumerate(argv):
        if arg.startswith("--"):
            name, eq, value = arg.partition("=")
            flags[name] = value if eq else argv[k + 1]
    floats = [float(v) for v in flags["--x"].split(",")]
    return validate_instance(float(flags["--t"]), floats,
                             [int(v) for v in flags["--m"].split(",")])


def test_exact_reference_is_the_pair_sum():
    # the prefix identity the reference reads, against the pair sum itself
    rng = np.random.default_rng(11)
    shapes = (random_shape, equal_line, heavy_lattice, short_horizon)
    for k in range(100):
        inst = shapes[k % 4](rng, int(rng.integers(1, 30)))
        part = _simulate(inst).partition
        t = Fraction(inst.t)
        potential = kinetic = Fraction(0)
        for b in part:
            big_m = sum(inst.m[i - 1] for i in b)
            com = sum(inst.m[i - 1] * Fraction(inst.x[i - 1]) for i in b)
            potential += t * (big_m**3 - big_m) / 24
            kinetic += com * com / (2 * t * big_m)
        pairs = pair_sum(inst, part)
        assert exact_gamma3(inst, part) == (potential - pairs - kinetic,
                                            potential + pairs + kinetic)


def test_corpus_within_exact_bound():
    worst = 0.0
    large_blocks = 0
    for inst in corpus():
        res = _simulate(inst)
        got = gamma3(inst, res)
        assert type(got) is float
        err = error_in_eps_s(inst, res.partition, got)
        assert err <= C_BOUND, (err, inst)
        worst = max(worst, err)
        large_blocks += max(len(b) for b in res.partition) >= 100
    assert large_blocks >= 500
    print(f"worst |gamma3 - gamma| = {worst:.3f} eps S")


def test_single_block_of_thousand_within_exact_bound():
    rng = np.random.default_rng(7)
    inst = validate_instance(2.0, np.sort(rng.uniform(-1000, 1000, size=1000)),
                             rng.integers(1, 6, size=1000).tolist())
    res = simulate_inertia(inst)
    assert res.q_hat == 1
    got = gamma3(inst, res)
    assert type(got) is float
    assert error_in_eps_s(inst, res.partition, got) <= C_BOUND


@pytest.mark.parametrize("t", [2.0, 0.02])
def test_ten_thousand_within_exact_bound(t):
    # the benchmark shape far beyond the generator
    n = 10_000
    rng = np.random.default_rng(0)
    inst = validate_instance(t, np.sort(rng.uniform(-n, n, size=n)),
                             rng.integers(1, 6, size=n).tolist())
    if t == 2.0:
        # the sticky run ends in one block here; gamma3 reads only the
        # partition, so it is given directly rather than simulated
        part = _Run(partition=(tuple(range(1, n + 1)),), events=(), steps=(t,))
    else:
        part = _simulate(inst)
        assert len(part.partition) > 0.9 * n
    assert error_in_eps_s(inst, part.partition, gamma3(inst, part)) <= C_BOUND


@pytest.mark.parametrize("argv", [FIVE, CASCADE, BIG, ROUTE1_POOLED, ROUTE1_TIES,
                                  ROUTE1_TIE],
                         ids=["FIVE", "CASCADE", "BIG", "ROUTE1_POOLED",
                              "ROUTE1_TIES", "ROUTE1_TIE"])
def test_golden_instances_within_exact_bound(argv):
    inst = instance_of(argv)
    part = _simulate(inst)
    assert error_in_eps_s(inst, part.partition, gamma3(inst, part)) <= C_BOUND
