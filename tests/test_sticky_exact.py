"""The sticky run against an exact rational reference.

Every float input is a dyadic rational, and so is everything the dynamics
compute from it. A cluster C with mass M_C, first moment X_C = sum m_k x_k and
momentum P_C = sum m_k phi_k sits at (X_C + P_C s) / M_C at every time s of
its life, because momentum is conserved: its centre of mass moves at its
speed P_C / M_C. Two neighbours a < b therefore meet at

    s_ab = (X_b / M_b - X_a / M_a) / (P_a / M_a - P_b / M_b)

when they close in, and a merge's birth position and speed need no rounded
past. The reference below runs the dynamics on these Fractions with exact
ties: the pairs that meet at exactly the earliest time s merge at s, the
pairs that this makes meet at s merge at s as the next pass, and a merge at
s = t counts.

The float run decides ties by `event_tolerance(t)`. On the corpora below it
must give the exact partition, and each of its forest nodes must be an exact
node (the same index range merges), born within TIME_BOUND * (1 + t) of the
exact time. The window may fuse exact passes at one time: on BIG, three exact
cascade passes at one time are one float merge group.
Anchored positions reach 8e-15 * (1 + t) on the benchmark shape at n = 400,
t = 0.3; a loop that moved every position by speed * step at every event
reached 1.9e-13 there.
"""

from fractions import Fraction

import numpy as np
import pytest

from shelyap import random_instance, simulate_inertia, validate_instance
from test_closedform import _benchmark_shape
from test_cluster_equivalence import equal_line, integer_lattice
from test_gamma3_equivalence import instance_of
from test_golden import BIG, CASCADE, FIVE

TIME_BOUND = 5e-14


def exact_sticky(inst):
    """The partition and the nodes {(lo, hi): (birth, position, speed)}, exact."""
    t = Fraction(inst.t)
    nu = sum(inst.m)
    clusters, left = [], 0
    for i, (xi, mi) in enumerate(zip(inst.x, inst.m), 1):
        # phi_i = (mass right of i - mass left of i) / 2
        clusters.append((i, i, mi, mi * Fraction(xi), mi * Fraction(nu - 2 * left - mi, 2)))
        left += mi

    def meet(a, b):
        closing = Fraction(a[4], a[2]) - Fraction(b[4], b[2])
        return (b[3] / b[2] - a[3] / a[2]) / closing if closing > 0 else None

    cand = [meet(a, b) for a, b in zip(clusters, clusters[1:])]
    nodes = {}
    while True:
        due = [c for c in cand if c is not None]
        if not due or min(due) > t:
            break
        s = min(due)
        while True:
            touching = [j for j, c in enumerate(cand) if c == s]
            if not touching:
                break
            runs = [[touching[0]]]
            for j in touching[1:]:
                if j == runs[-1][-1] + 1:
                    runs[-1].append(j)
                else:
                    runs.append([j])
            for run in reversed(runs):  # right to left keeps the indices valid
                j0, j1 = run[0], run[-1] + 1
                group = clusters[j0 : j1 + 1]
                lo, hi = group[0][0], group[-1][1]
                mass = sum(c[2] for c in group)
                first = sum(c[3] for c in group)
                momentum = sum(c[4] for c in group)
                nodes[lo, hi] = (s, (first + momentum * s) / mass, Fraction(momentum, mass))
                clusters[j0 : j1 + 1] = [(lo, hi, mass, first, momentum)]
                del cand[j0:j1]
                if j0 > 0:
                    cand[j0 - 1] = meet(clusters[j0 - 1], clusters[j0])
                if j0 < len(cand):
                    cand[j0] = meet(clusters[j0], clusters[j0 + 1])
    partition = tuple(tuple(range(c[0], c[1] + 1)) for c in clusters)
    return partition, nodes


def sticky_errors(inst):
    """Worst error of the float run's nodes: time / (1 + t), position and speed
    relative to 1 + |exact value|. The partitions must agree."""
    partition, nodes = exact_sticky(inst)
    res = simulate_inertia(inst)
    assert res.partition == partition, inst
    got = {(e.merged[0][0], e.merged[-1][1]): (e.time, e.position, e.speed)
           for e in res.events}
    # the tie window may fuse exact cascade passes at one time into one
    # group, so the float forest keeps a subset of the exact nodes
    assert got.keys() <= nodes.keys(), inst
    worst = [0.0, 0.0, 0.0]
    for key, values in got.items():
        for f, (value, ref) in enumerate(zip(values, nodes[key])):
            scale = 1 + inst.t if f == 0 else 1 + abs(ref)
            worst[f] = max(worst[f], float(abs(Fraction(value) - ref) / Fraction(scale)))
    return worst


def test_generator_draws_match_exact_run():
    rng = np.random.default_rng(7)
    merged = 0
    for _ in range(600):
        inst = random_instance(rng)
        assert sticky_errors(inst)[0] <= TIME_BOUND
        merged += len(simulate_inertia(inst).events) > 0
    assert merged > 300


@pytest.mark.parametrize("n", [6, 50, 200, 400])
@pytest.mark.parametrize("t", [0.02, 0.3, 2.0])
def test_benchmark_shape_matches_exact_run(n, t):
    assert sticky_errors(_benchmark_shape(n, t, seed=n))[0] <= TIME_BOUND


@pytest.mark.parametrize("argv", [FIVE, CASCADE, BIG], ids=["FIVE", "CASCADE", "BIG"])
def test_golden_instances_match_exact_run(argv):
    assert sticky_errors(instance_of(argv))[0] <= TIME_BOUND


@pytest.mark.parametrize("t,x,m", [
    # (x_2 - x_1) / t = (m_1 + m_2) / 2: the pair meets exactly at s = t
    (0.5, [-0.25, 0.75], [1, 3]),
    (3.0, [0.0, 4.5], [2, 1]),
    (0.125, [1.0, 1.25, 10.0], [3, 1, 2]),
    # contact at s = t after an earlier merge: 1, 2 meet at 1/2, then 3 at t
    (1.0, [0.0, 0.5, 1.75], [1, 1, 1]),
])
def test_contact_at_t_counts(t, x, m):
    inst = validate_instance(t, x, m)
    partition, nodes = exact_sticky(inst)
    assert max(s for s, _, _ in nodes.values()) == Fraction(t)
    assert sticky_errors(inst)[0] <= TIME_BOUND
    assert simulate_inertia(inst).events[-1].time == t


def test_triple_collisions_on_lattices_match_exact_run():
    rng = np.random.default_rng(11)
    triples = 0
    for k in range(300):
        inst = (equal_line, integer_lattice)[k % 2](rng, int(rng.integers(3, 30)))
        assert sticky_errors(inst)[0] <= TIME_BOUND
        triples += sum(len(e.merged) > 2 for e in simulate_inertia(inst).events)
    assert triples > 100
