"""gamma3's NumPy pair sum against the pair loop it replaced.

The reference below is the earlier gamma3: a Python double loop over the
pairs of each block, adding m_k m_l |x_k - x_l| / 2 to a running total one
pair at a time. It loops over Python floats, which round exactly like NumPy
float64 scalars and cost less per operation. The package computes each row of
pairs as one array and accumulates it left to right from the running total,
so the additions happen in the same order and the result must agree bit for
bit. A pairwise sum (np.sum) or a prefix-sum rewrite changes the last digits
on large blocks.
"""

import numpy as np

from shelyap import gamma3, simulate_inertia, validate_instance


def reference_gamma3(inst, res):
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    t = inst.t
    total = 0.0
    for block in res.partition:
        idx = [i - 1 for i in block]
        mb, xb = m[idx], x[idx]
        big_m = float(mb.sum())
        ml, xl = mb.tolist(), xb.tolist()
        pair = 0.0
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                pair += ml[a] * ml[b] * abs(xl[a] - xl[b]) / 2.0
        com = float(np.sum(mb * xb))
        total += (big_m**3 - big_m) * t / 24.0 - pair - com * com / (2.0 * t * big_m)
    return float(total)


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


def test_array_pair_sum_matches_pair_loop():
    rng = np.random.default_rng(20261018)
    shapes = (random_shape, equal_line, heavy_lattice, short_horizon)
    large_blocks = 0
    for k in range(2000):
        make = shapes[k % 4]
        n = int(rng.integers(100, 111)) if k % 8 < 3 else int(rng.integers(1, 30))
        inst = make(rng, n)
        res = simulate_inertia(inst)
        got = gamma3(inst, res)
        assert type(got) is float
        assert got == reference_gamma3(inst, res), inst
        large_blocks += max(len(b) for b in res.partition) >= 100
    assert large_blocks >= 500


def test_single_block_of_thousand_matches_pair_loop():
    rng = np.random.default_rng(7)
    inst = validate_instance(2.0, np.sort(rng.uniform(-1000, 1000, size=1000)),
                             rng.integers(1, 6, size=1000).tolist())
    res = simulate_inertia(inst)
    assert res.q_hat == 1
    got = gamma3(inst, res)
    assert type(got) is float
    assert got == reference_gamma3(inst, res)
