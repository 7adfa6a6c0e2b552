"""The exhaustive oracle's run table against the mask loop it replaced.

The reference below is the earlier bruteforce_chain_qp: one Python pass per
mask of active constraints, each maximal active run solved in closed form
with np.sum, and the feasible minimum kept, ties going to the
lexicographically smallest active set. The package solves each run once, the
runs of one length as the rows of one array, and assembles every mask from
that table in array passes with the reference's own expressions. So the
results must agree bit for bit: values as bytes and the objective with ==.

Row sums round like np.sum only when taken along a contiguous axis, and
np.sum switches to its unrolled pairwise order once a run has 8 or more
members; the corpus holds more than 100 calls whose winning run is that
long. It also covers random verify instances with nu <= 10, integer lattices
with location gaps exactly on the merge threshold (x_{j+1} - x_j)/t =
(m_j + m_{j+1})/2, where constraints are degenerate and several masks tie up
to rounding, direct calls at d = 11..14, and a d = 15 call whose exact ties
span blocks of masks. One call at the d = 20 cap is checked against PAVA
instead, with its memory bounded.
"""

import tracemalloc

import numpy as np

from shelyap import (
    bruteforce_chain_qp,
    flatten,
    oracle_gamma1,
    oracle_gamma2,
    validate_instance,
)
from shelyap.cli import ORACLE_COORD_TOL, ORACLE_OBJ_TOL
from shelyap.sampling import random_instance
from shelyap.solvers import VariationalSolution, isotonic_nonincreasing


def reference_chain_qp(weights, linear, margins, constant=0.0):
    w = np.asarray(weights, dtype=float)
    q = np.asarray(linear, dtype=float)
    g = np.asarray(margins, dtype=float)
    d = len(w)
    feas_tol = 1e-12 * (1.0 + float(np.abs(g).max(initial=0.0)))
    # a run's values depend only on its ends, so each run is solved once per
    # call; every float is still the mask loop's
    runs = {}
    best = None
    for mask in range(1 << max(d - 1, 0)):
        active = tuple(i for i in range(d - 1) if mask >> i & 1)
        pieces = []
        lo = 0
        while lo < d:
            hi = lo
            while hi < d - 1 and (mask >> hi & 1):
                hi += 1
            if (lo, hi) not in runs:
                delta = np.concatenate([[0.0], -np.cumsum(g[lo:hi])])
                wr, qr = w[lo : hi + 1], q[lo : hi + 1]
                beta = -(np.sum(wr * delta) + np.sum(qr)) / np.sum(wr)
                runs[lo, hi] = beta + delta
            pieces.append(runs[lo, hi])
            lo = hi + 1
        v = np.concatenate(pieces)
        slack = v[:-1] - v[1:] - g
        if np.any(slack < -feas_tol):
            continue
        obj = float(np.sum(0.5 * w * v * v + q * v)) + constant
        key = tuple(i + 1 for i in active)
        if best is None or obj < best[0] or (obj == best[0] and key < best[1]):
            best = (obj, key, v)
    obj, key, v = best
    return VariationalSolution(v, obj), key


def reference_gamma1(inst):
    nu = inst.nu
    return reference_chain_qp([inst.t] * nu, flatten(inst), [1.0] * (nu - 1))


def reference_gamma2(inst):
    m = np.asarray(inst.m, dtype=float)
    x = np.asarray(inst.x)
    constant = float(np.sum((m**3 - m) * inst.t / 24.0))
    return reference_chain_qp(m * inst.t, m * x, (m[:-1] + m[1:]) / 2.0, constant)


def longest_run(key):
    """Members of the longest run of the active set key (1-based indices)."""
    best = run = 1
    for a, b in zip((0, *key), key):
        run = run + 1 if b == a + 1 else 2
        best = max(best, run)
    return best


def assert_same(got, want):
    ref, _ = want
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.objective == ref.objective


def check_instances(insts):
    """Compare both oracles on each instance; return the winners' longest runs."""
    runs = []
    for inst in insts:
        for got, want in (
            (oracle_gamma1(inst), reference_gamma1(inst)),
            (oracle_gamma2(inst), reference_gamma2(inst)),
        ):
            assert_same(got, want)
            runs.append(longest_run(want[1]))
    return runs


def verify_instances(rng, count):
    out = []
    while len(out) < count:
        inst = random_instance(rng)
        if inst.nu <= 10:
            out.append(inst)
    return out


def threshold_lattice(rng):
    """Integer data with some location gaps exactly on the merge threshold."""
    while True:
        n = int(rng.integers(2, 7))
        m = rng.integers(1, 4, size=n)
        if m.sum() <= 10:
            break
    t = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
    on = t * (m[:-1] + m[1:]) / 2.0
    gaps = np.where(rng.random(n - 1) < 0.5, on, rng.integers(1, 4, size=n - 1))
    x = np.concatenate([[0.0], np.cumsum(gaps)]) - float(rng.integers(0, 5))
    return validate_instance(t, x.tolist(), m.tolist())


def long_run(rng):
    """Locations close enough that both routes end in one run of >= 8.

    Either up to three locations with nu in 8..10 (route 1's run is long) or
    8..10 locations of multiplicity 1 (both routes' runs are long).
    """
    if rng.random() < 0.5:
        m = np.ones(int(rng.integers(8, 11)), dtype=int)
    else:
        m = np.zeros(1, dtype=int)
        while not 8 <= m.sum() <= 10:
            m = rng.integers(1, 11, size=int(rng.integers(1, 4)))
    t = float(rng.uniform(0.5, 5.0))
    x = np.sort(rng.uniform(-0.2, 0.2, size=len(m))) + 0.05 * np.arange(len(m))
    return validate_instance(t, x.tolist(), m.tolist())


def test_verify_instances_match_reference():
    runs = check_instances(verify_instances(np.random.default_rng(101), 1200))
    assert len(runs) == 2400


def test_threshold_lattices_match_reference():
    rng = np.random.default_rng(103)
    runs = check_instances([threshold_lattice(rng) for _ in range(700)])
    assert len(runs) == 1400


def test_long_winning_runs_match_reference():
    rng = np.random.default_rng(107)
    runs = check_instances([long_run(rng) for _ in range(120)])
    assert sum(r >= 8 for r in runs) >= 100


def test_direct_calls_match_reference():
    rng = np.random.default_rng(109)
    for d in range(11, 15):
        for _ in range(2):
            w = rng.uniform(0.5, 3.0, size=d)
            q = rng.normal(0.0, 3.0, size=d)
            g = rng.uniform(0.0, 2.0, size=d - 1)
            constant = float(rng.normal())
            got = bruteforce_chain_qp(w, q, g, constant)
            assert_same(got, reference_chain_qp(w, q, g, constant))
    # every active set joining coordinates 12 and 13 (0-based) ties at 0; the
    # winner (1..13) is mask 8191 in the second block of 4096, and tied masks
    # sit in the fourth block too
    w, q, g = np.ones(15), np.zeros(15), np.zeros(14)
    q[12], q[13] = 1.0, -1.0
    got = bruteforce_chain_qp(w, q, g)
    want = reference_chain_qp(w, q, g)
    assert want[1] == tuple(range(1, 14))
    assert_same(got, want)


def test_dimension_cap_matches_pava_in_bounded_memory():
    rng = np.random.default_rng(113)
    d = 20
    w = rng.uniform(0.5, 3.0, size=d)
    q = rng.normal(0.0, 3.0, size=d)
    g = rng.uniform(0.0, 1.0, size=d - 1)
    tracemalloc.start()
    try:
        got = bruteforce_chain_qp(w, q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    # v_i + M_i is the non-increasing fit of M_i - q_i/w_i with weights w_i
    shift = np.concatenate([[0.0], np.cumsum(g)])
    v = isotonic_nonincreasing(shift - q / w, w) - shift
    assert abs(got.objective - float(np.sum(0.5 * w * v * v + q * v))) <= ORACLE_OBJ_TOL
    assert np.max(np.abs(got.values - v)) <= ORACLE_COORD_TOL
