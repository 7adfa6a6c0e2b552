"""The paper's lower bound, tried from below: no trajectory tree beats gamma.

The lower bound follows Brownian trajectories along a tree in the
Feynman-Kac formula (Tsai 2023). A tree's nodes are clusters C of mass M_C,
each moving linearly from its birth (time and position) to its parent's
birth, or to 0 at s = t for a root, in the drift-removed frame where every
path runs from its location at s = 0 to 0 at s = t. Its action is

    A = sum_C life_C [(M_C^3 - M_C)/24 - M_C v_C^2 / 2],

and the sticky tree attains gamma (verify_recursion_identity checks that).
Here every other admissible tree must not exceed it:

    A <= gamma3 + 4 EPS (S + |gamma3|),
    S = sum_C life_C |M_C^3 - M_C|/24 + sum_C life_C M_C v_C^2 / 2.

A node that lives no time holds no action, and must not jump: it sits at its
parent's birth position. The inequality is inferred from the action that the
code sums, and checked here; it is not quoted from the paper.

Two families of trees: random adjacent merges at non-decreasing random times
and positions, over location leaves (mass m_i at x_i) and over unit flat
leaves (m_i of mass 1 at x_i); and the sticky forest itself with its merge
positions moved by delta N(0, 1), delta = 1e-6, 1e-3 and 1e-1. Measured on
the corpus below, in units of EPS (S + |gamma3|): the worst excess is 0.97
over 40 512 random trees and 0.87 over 3180 perturbed sticky trees, and the
unperturbed sticky tree is within 1.51 of gamma3.
"""

import numpy as np

from shelyap import flatten, gamma3, random_instance, validate_instance
from shelyap.clusters import _Paths, _simulate

EPS = np.finfo(float).eps
EXCESS = 4.0  # the bound on A - gamma3, in units of EPS (S + |gamma3|)
ATTAIN = 2.0  # the unperturbed sticky tree's |A - gamma3|, in the same units


def tree_action(t, mass, birth, position, parent):
    """The tree's action A and its scale S; A = -inf, S = 0 if a node jumps."""
    root = parent < 0
    death = np.where(root, t, birth[parent])
    end = np.where(root, 0.0, position[parent])
    life = death - birth
    dx = end - position
    if np.any((life == 0.0) & (dx != 0.0)):
        return -np.inf, 0.0
    v = np.divide(dx, life, out=np.zeros_like(dx), where=life > 0.0)
    gain = life * (mass**3 - mass) / 24.0
    kinetic = life * mass * v**2 / 2.0
    return float(np.sum(gain - kinetic)), float(np.sum(np.abs(gain) + kinetic))


def random_tree(rng, t, x, m):
    """Random adjacent merges at sorted uniform times in [0, t). A merge
    position is its children's mass-weighted straight-line aim at 0, moved by
    a random amount from none to the scale of the locations."""
    leaves = len(x)
    merges = int(rng.integers(0, leaves))
    times = np.sort(rng.uniform(0.0, t, size=merges))
    noise = rng.choice([0.0, 1e-6, 1e-3, 1e-1, 1.0]) * (1.0 + np.max(np.abs(x)))
    mass, birth, position = [*m], [0.0] * leaves, [*x]
    parent = [-1] * (leaves + merges)
    live = list(range(leaves))
    for k, s in enumerate(times, leaves):
        i = int(rng.integers(0, len(live) - 1))
        a, b = live[i], live[i + 1]
        aim = [position[c] * (t - s) / (t - birth[c]) for c in (a, b)]
        total = mass[a] + mass[b]
        com = (mass[a] * aim[0] + mass[b] * aim[1]) / total
        parent[a] = parent[b] = k
        mass.append(total)
        birth.append(float(s))
        position.append(com + noise * rng.standard_normal())
        live[i : i + 2] = [k]
    return (np.array(mass, dtype=float), np.array(birth), np.array(position),
            np.array(parent))


def sticky_tree(inst):
    """The sticky forest in the drift-removed frame: position - d_B birth."""
    paths = _Paths(_simulate(inst), inst.t)
    position = paths.position - paths.node_drift * paths.birth
    return paths.mass, paths.birth, position, paths.parent


def settle(birth, position, parent, n):
    """Put each merge node that lives no time at its parent's birth position,
    parents first; False if a location leaf would have to jump."""
    for j in range(len(parent) - 1, -1, -1):
        p = parent[j]
        if p >= 0 and birth[j] == birth[p] and position[j] != position[p]:
            if j < n:
                return False
            position[j] = position[p]
    return True


def corpus(rng):
    """Generator draws and benchmark-shape instances with n < 300."""
    out = [random_instance(rng) for _ in range(1000)]
    for k in range(60):
        n = int(rng.integers(2, 300))
        out.append(validate_instance((0.05, 0.3, 2.0)[k % 3],
                                     np.sort(rng.uniform(-n, n, size=n)),
                                     rng.integers(1, 6, size=n).tolist()))
    return out


def excess(action, scale, gamma):
    return (action - gamma) / (EPS * (scale + abs(gamma)))


def test_random_trees_stay_below_gamma():
    rng = np.random.default_rng(20261020)
    trees = worst = close = 0
    for inst in corpus(rng):
        gamma = gamma3(inst, _simulate(inst))
        x, m = np.asarray(inst.x), np.asarray(inst.m, dtype=float)
        flat = np.asarray(flatten(inst))
        count = 20 if inst.n <= 6 else 4
        for leaves in ((x, m), (flat, np.ones_like(flat))):
            for _ in range(count):
                action, scale = tree_action(inst.t, *random_tree(rng, inst.t, *leaves))
                ratio = excess(action, scale, gamma)
                assert ratio <= EXCESS, (inst, ratio)
                worst = max(worst, ratio)
                close += ratio > -1e6
                trees += 1
    print(f"{trees} random trees, worst excess {worst:.3g} EPS (S + |gamma|), "
          f"{close} within 1e6")
    assert trees > 40000
    # some trees come within rounding of gamma, so the bound is not idle
    assert close > 1000


def test_perturbed_sticky_trees_stay_below_gamma():
    rng = np.random.default_rng(20261021)
    trees = multi = 0
    worst_attained = worst = 0.0
    for inst in corpus(rng):
        run = _simulate(inst)
        gamma = gamma3(inst, run)
        multi += len(run.partition) > 1
        mass, birth, position, parent = sticky_tree(inst)
        assert settle(birth, position, parent, inst.n), inst
        ratio = abs(excess(*tree_action(inst.t, mass, birth, position, parent), gamma))
        assert ratio <= ATTAIN, (inst, ratio)
        worst_attained = max(worst_attained, ratio)
        for delta in (1e-6, 1e-3, 1e-1):
            moved = position.copy()
            moved[inst.n:] += delta * rng.standard_normal(len(moved) - inst.n)
            assert settle(birth, moved, parent, inst.n)
            ratio = excess(*tree_action(inst.t, mass, birth, moved, parent), gamma)
            assert ratio <= EXCESS, (inst, delta, ratio)
            worst = max(worst, ratio)
            trees += 1
    print(f"{trees} perturbed sticky trees, worst excess {worst:.3g}, "
          f"unperturbed within {worst_attained:.3g} EPS (S + |gamma|); {multi} multi-block")
    assert trees > 3000
    assert multi > 50
