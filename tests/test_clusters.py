import numpy as np
import pytest

from shelyap import (
    NoMerge,
    first_optimal_merge,
    initial_speeds,
    random_instance,
    separation_margins,
    simulate_inertia,
    validate_instance,
)
from shelyap.clusters import _simulate
from test_cluster_equivalence import integer_lattice

MOMENTUM_TOL = 1e-12
ANCHOR_TOL = 1e-12
COM_TOL = 1e-10


def block_com_speed(m, block):
    """Centre-of-mass speed of a contiguous block of 1-based indices."""
    lo, hi = min(block), max(block)
    after = sum(m[hi:])
    before = sum(m[: lo - 1])
    return 0.5 * (after - before)


def merge_momentum_defects(inst, events):
    """|M v - sum of its members' M v| at each merge event.

    A member's speed is its own event's, or a location's initial speed.
    """
    speed = {(i, i): v for i, v in enumerate(initial_speeds(inst.m).tolist(), 1)}
    out = []
    for e in events:
        members = sum(sum(inst.m[lo - 1 : hi]) * speed[lo, hi] for lo, hi in e.merged)
        lo, hi = e.merged[0][0], e.merged[-1][1]
        out.append(abs(sum(inst.m[lo - 1 : hi]) * e.speed - members))
        speed[lo, hi] = e.speed
    return out


def test_initial_speeds_examples():
    assert list(initial_speeds([1, 1])) == [0.5, -0.5]
    assert list(initial_speeds([1, 1, 1])) == [1.0, 0.0, -1.0]
    assert list(initial_speeds([5])) == [0.0]
    assert list(initial_speeds([2, 1])) == [0.5, -1.0]


def test_initial_speeds_momentum_is_exactly_zero():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = rng.integers(1, 9, size=rng.integers(1, 8))
        phi = initial_speeds(m)
        assert float(np.sum(m * phi)) == 0.0


def test_pair_merges_at_known_time():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    res = simulate_inertia(inst)
    assert res.partition == ((1, 2),)
    assert res.q_hat == 1
    assert len(res.events) == 1
    ev = res.events[0]
    assert ev.time == 0.5
    assert ev.position == 0.25
    assert ev.merged == ((1, 1), (2, 2))
    assert ev.speed == 0.0
    # merged cluster has zero net speed, so it parks at 0.25
    assert res.terminal_positions == (0.25,)
    assert res.drifts == (0.25,)
    assert res.inertia_paths[0].breakpoints == (0.0, 0.5, 1.0)
    assert res.inertia_paths[0].values.tolist() == [0.0, 0.25, 0.25]
    assert res.inertia_paths[1].values.tolist() == [0.5, 0.25, 0.25]


def test_pair_never_merges():
    inst = validate_instance(1.0, [0.0, 2.0], [1, 1])
    res = simulate_inertia(inst)
    assert res.partition == ((1,), (2,))
    assert res.events == ()
    assert res.terminal_positions == (0.5, 1.5)
    assert res.drifts == (0.5, 1.5)
    with pytest.raises(NoMerge):
        first_optimal_merge(res, inst)


def test_triple_simultaneous_collision():
    inst = validate_instance(2.0, [0.0, 1.0, 2.0], [1, 1, 1])
    res = simulate_inertia(inst)
    assert res.partition == ((1, 2, 3),)
    assert len(res.events) == 1
    assert res.events[0].time == 1.0
    assert res.events[0].merged == ((1, 1), (2, 2), (3, 3))
    assert res.events[0].position == 1.0
    assert res.terminal_positions == (1.0,)
    assert res.drifts == (0.5,)


def test_merge_exactly_at_t_is_included():
    inst = validate_instance(1.0, [0.0, 1.0], [1, 1])
    res = simulate_inertia(inst)
    assert res.q_hat == 1
    assert res.events[0].time == 1.0
    # breakpoint grid must not duplicate t
    assert res.inertia_paths[0].breakpoints == (0.0, 1.0)


def test_two_block_showcase():
    # gaps picked so {1,2,3} and {4,5} each merge but stay apart through t=1
    inst = validate_instance(1.0, [0.0, 0.3, 0.6, 3.0, 3.3], [1] * 5)
    res = simulate_inertia(inst)
    assert res.partition == ((1, 2, 3), (4, 5))
    assert res.cluster_masses == (3.0, 2.0)
    assert len(res.events) == 2
    assert res.events[0].time == res.events[1].time
    assert abs(res.events[0].time - 0.3) < 1e-15
    assert abs(res.events[0].position - 0.6) < 1e-15
    assert abs(res.events[1].position - 2.7) < 1e-15
    assert abs(res.terminal_positions[0] - 1.3) < 1e-15
    assert abs(res.terminal_positions[1] - 1.65) < 1e-15
    margins = separation_margins(inst, res.partition)
    assert np.all(margins > 0)


def test_sequential_merges_collapse_everything():
    # heavy leader forms {1,2} at s=0.1, then overtakes 3 at s=0.14
    inst = validate_instance(2.0, [0.0, 0.2, 0.4], [3, 1, 1])
    res = simulate_inertia(inst)
    assert res.q_hat == 1
    assert sum(res.cluster_masses) == 5.0
    assert [e.time for e in res.events] == [pytest.approx(0.1), pytest.approx(0.14)]
    assert res.events[0].merged == ((1, 1), (2, 2))
    assert res.events[1].merged == ((1, 2), (3, 3))


def test_first_optimal_merge_examples():
    inst = validate_instance(2.0, [0.0, 1.0, 2.0], [1, 1, 1])
    fm = first_optimal_merge(simulate_inertia(inst), inst)
    assert fm.s0 == 1.0
    assert fm.x_prime == (0.5,)
    assert fm.m_prime == (3,)
    assert fm.xi_at_s0 == (0.5, 0.5, 0.5)

    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    fm = first_optimal_merge(simulate_inertia(inst), inst)
    assert fm.s0 == 0.5
    assert fm.x_prime == (0.125,)
    assert fm.m_prime == (2,)


def test_first_merge_collapses_only_first_event_clusters():
    # {4,5} merge later than {1,2}: only the earliest batch collapses
    inst = validate_instance(1.0, [0.0, 0.2, 3.0, 3.4], [1, 1, 1, 1])
    res = simulate_inertia(inst)
    fm = first_optimal_merge(res, inst)
    assert fm.s0 == res.events[0].time
    assert len(fm.x_prime) == 3
    assert fm.m_prime == (2, 1, 1)
    assert all(a < b for a, b in zip(fm.x_prime, fm.x_prime[1:]))


def test_block_com_speed_values():
    # mass ahead pulls right, mass behind pulls left
    assert block_com_speed([1, 1, 1, 1, 1], [1, 2, 3]) == 1.0
    assert block_com_speed([1, 1, 1, 1, 1], [4, 5]) == -1.5
    assert block_com_speed([2, 3], [1, 2]) == 0.0


def test_physics_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        inst = random_instance(rng)
        res = simulate_inertia(inst)
        # mass conservation is exact
        assert sum(res.cluster_masses) == float(inst.nu)
        for block, mass in zip(res.partition, res.cluster_masses):
            assert sum(inst.m[i - 1] for i in block) == mass
        # every merge group carries its members' momentum
        assert max(merge_momentum_defects(inst, res.events), default=0.0) <= MOMENTUM_TOL
        # drift-removed paths return to zero
        assert max(abs(p.values[-1]) for p in res.optimal_paths) <= ANCHOR_TOL
        # terminal order is strict
        term = res.terminal_positions
        assert all(a < b for a, b in zip(term, term[1:]))
        if res.q_hat > 1:
            assert np.all(separation_margins(inst, res.partition) > 0)
        # each block's centre of mass moves linearly at its predicted speed
        m = np.asarray(inst.m, dtype=float)
        for block, mass in zip(res.partition, res.cluster_masses):
            psi = block_com_speed(inst.m, block)
            idx = [i - 1 for i in block]

            def com(s):
                # stored values interpolated; exact at the breakpoints
                paths = res.inertia_paths
                return sum(
                    m[i] * np.interp(s, paths[i].breakpoints, paths[i].values)
                    for i in idx
                ) / mass

            c0 = com(0.0)
            for s in (inst.t / 2, inst.t):
                assert abs(com(s) - c0 - psi * s) <= COM_TOL


def test_paths_share_breakpoint_grid():
    rng = np.random.default_rng(23)
    for _ in range(50):
        inst = random_instance(rng)
        res = simulate_inertia(inst)
        grid = res.inertia_paths[0].breakpoints
        assert grid[0] == 0.0
        assert grid[-1] == inst.t
        assert all(a < b for a, b in zip(grid, grid[1:]))
        for p in res.inertia_paths + res.optimal_paths:
            assert p.breakpoints == grid
        for e in res.events:
            assert e.time in grid


def block_loop_margins(inst, partition):
    """The earlier separation_margins: one Python pass per terminal block."""
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    coms, masses = [], []
    for block in partition:
        idx = [i - 1 for i in block]
        mb = m[idx].sum()
        coms.append(float((m[idx] * x[idx]).sum() / mb))
        masses.append(float(mb))
    out = []
    for k in range(len(coms) - 1):
        out.append(coms[k + 1] - coms[k] - (masses[k] + masses[k + 1]) * inst.t / 2.0)
    return np.asarray(out)


def test_separation_margins_match_block_loop():
    # segment sums add each block's moments left to right, numpy's block sum
    # pairwise, so entries may differ by rounding: |d| <= 4 eps S, with S the
    # sum of both blocks' mean |x| and the mass term (worst seen: 1.09 eps S)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261020)
    corpus = [random_instance(rng) for _ in range(1500)]
    for k in range(300):
        n = int(rng.integers(2, 400))
        corpus.append(validate_instance((0.02, 0.3, 2.0)[k % 3],
                                        np.sort(rng.uniform(-n, n, size=n)),
                                        rng.integers(1, 6, size=n).tolist()))
    corpus += [integer_lattice(rng, int(rng.integers(2, 60))) for _ in range(300)]
    entries = 0
    for inst in corpus:
        part = _simulate(inst).partition
        got, ref = separation_margins(inst, part), block_loop_margins(inst, part)
        assert got.shape == ref.shape == (len(part) - 1,)
        if len(part) < 2:
            continue
        m = np.asarray(inst.m, dtype=float)
        x = np.abs(np.asarray(inst.x))
        moment = np.array([m[b[0] - 1 : b[-1]] @ x[b[0] - 1 : b[-1]] for b in part])
        mass = np.array([m[b[0] - 1 : b[-1]].sum() for b in part])
        scale = (moment / mass)[:-1] + (moment / mass)[1:] + (mass[:-1] + mass[1:]) * inst.t / 2
        assert np.all(np.abs(got - ref) <= 4 * eps * scale), inst
        assert np.array_equal(np.sign(got), np.sign(ref)), inst
        entries += len(got)
    assert entries > 20000
