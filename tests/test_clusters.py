import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from shelyap import (
    FirstMerge,
    NoMerge,
    first_optimal_merge,
    initial_speeds,
    random_instance,
    separation_margins,
    simulate_inertia,
    validate_instance,
)
from shelyap.clusters import _Paths, _simulate, event_tolerance
from test_cluster_equivalence import _bits, integer_lattice, optimal_paths
from test_golden import CASCADE

MOMENTUM_TOL = 1e-12
ANCHOR_TOL = 1e-12
COM_TOL = 1e-10


def dense_first_merge(res, inst):
    """first_optimal_merge read off the dense expansion: s0's last grid column
    of every index's two paths, with locations of equal zeta grouped."""
    if not res.events:
        raise NoMerge("no merge event in [0, t]")
    s0 = res.events[0].time
    # the last column at s0, after its merges; a grid opens (0, 0) if s0 = 0
    k = bisect_right(res.inertia_paths[0].breakpoints, s0) - 1
    zeta0 = [float(p.values[k]) for p in res.inertia_paths]
    xi0 = [float(p.values[k]) for p in optimal_paths(res)]
    x_prime: list[float] = []
    m_prime: list[int] = []
    for i in range(inst.n):
        if i > 0 and zeta0[i] == zeta0[i - 1]:
            m_prime[-1] += inst.m[i]
        else:
            x_prime.append(xi0[i])
            m_prime.append(inst.m[i])
    if len(x_prime) >= inst.n:
        raise NoMerge("first event collapsed nothing")
    return FirstMerge(s0=s0, x_prime=tuple(x_prime), m_prime=tuple(m_prime),
                      xi_at_s0=tuple(xi0))


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
        first_optimal_merge(inst)


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


def test_candidate_at_the_window_edge_joins_the_batch():
    # (1, 2) opens a batch at s = 0.5; (3, 4) collides at 0.5 + tol, the
    # closed end of its window, so both merge in column 1. One float later,
    # (3, 4) opens its own batch in column 2.
    edge = 0.5 + event_tolerance(1.0)
    beyond = math.nextafter(edge, 1.0)
    for last, birth, column in ((edge, [0.5, 0.5], [1, 1]), (beyond, [0.5, beyond], [1, 2])):
        run = _simulate(validate_instance(1.0, [-10.0, -9.5, 0.0, last], [1, 1, 1, 1]))
        assert run.partition == ((1, 2), (3, 4))
        assert run.birth[4:] == birth
        assert run.column[4:] == column


def test_candidate_at_t_plus_tol_merges_at_t():
    # a pair colliding at t + tol, the closed end of the last window, merges
    # at s = t; one float later it does not merge
    tol = event_tolerance(1.0)
    run = _simulate(validate_instance(1.0, [0.0, 1.0 + tol], [1, 1]))
    assert run.partition == ((1, 2),)
    assert run.parent == [2, 2, -1]
    assert run.birth[2] == 1.0
    run = _simulate(validate_instance(1.0, [0.0, math.nextafter(1.0 + tol, 2.0)], [1, 1]))
    assert run.partition == ((1,), (2,))
    assert run.parent == [-1, -1]


def test_pair_whose_float_speeds_tie_is_not_queued():
    # at multiplicities of 2^60 both middle leaves' speeds round to 0.0: the
    # pair never closes in, and queuing it would divide by zero
    run = _simulate(validate_instance(1.0, [0.0, 1.0, 2.0, 3.0], [2**60, 1, 1, 2**60]))
    assert run.speed[1] == run.speed[2] == 0.0
    assert run.partition == ((1, 2, 3, 4),)


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
    fm = first_optimal_merge(inst)
    assert fm.s0 == 1.0
    assert fm.x_prime == (0.5,)
    assert fm.m_prime == (3,)
    assert fm.xi_at_s0 == (0.5, 0.5, 0.5)

    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    fm = first_optimal_merge(inst)
    assert fm.s0 == 0.5
    assert fm.x_prime == (0.125,)
    assert fm.m_prime == (2,)


def test_first_merge_at_time_zero_reads_the_state_after_it():
    # a contact at s = 0 merges at once; the grid opens (0, 0, ...), and the
    # first column holds the locations before the merge
    inst = validate_instance(1.0, [0.0, 5e-324, 1.0], [5, 5, 1])
    fm = first_optimal_merge(inst)
    assert fm.s0 == 0.0
    assert fm.m_prime == (10, 1)


def test_first_merge_collapses_only_first_event_clusters():
    # {4,5} merge later than {1,2}: only the earliest batch collapses
    inst = validate_instance(1.0, [0.0, 0.2, 3.0, 3.4], [1, 1, 1, 1])
    res = simulate_inertia(inst)
    fm = first_optimal_merge(inst)
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
        assert max(abs(p.values[-1]) for p in optimal_paths(res)) <= ANCHOR_TOL
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
        for p in res.inertia_paths + optimal_paths(res):
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


def _peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bench_1500():
    rng = np.random.default_rng(0)
    n = 1500
    return validate_instance(2.0, np.sort(rng.uniform(-n, n, n)).tolist(),
                             rng.integers(1, 6, n).tolist())


def test_simulate_inertia_peak_is_its_one_path_family():
    # n = 1500, t = 2 in the benchmark's shape: zeta holds 18 MB. The
    # tracemalloc peak was 52.7 MB while xi = zeta - drift * s made a third
    # (n, K) array, 38.4 MiB with zeta and xi both filled, and 20.7 MiB with
    # zeta alone
    assert _peak(simulate_inertia, _bench_1500()) < 26 * 2**20


def test_first_optimal_merge_peak_is_the_forest():
    # the same instance: reading s0's column from the forest holds no (n, K)
    # array. The peak was 38.3 MiB while it read both dense families, and is
    # 1.0 MiB from the forest
    assert _peak(first_optimal_merge, _bench_1500()) < 4 * 2**20


def first_merge_corpus():
    """3000 generator draws, 300 benchmark-shape instances, 300 chains with
    gaps at, 1e-12 either side of, half of and twice their merge thresholds,
    and the named edge cases."""
    rng = np.random.default_rng(20261020)
    corpus = [random_instance(rng) for _ in range(3000)]
    for k in range(300):
        n = int(rng.integers(2, 300))
        corpus.append(validate_instance((0.05, 0.3, 2.0)[k % 3],
                                        np.sort(rng.uniform(-n, n, size=n)),
                                        rng.integers(1, 6, size=n).tolist()))
    for _ in range(300):
        n = int(rng.integers(2, 9))
        t = float(rng.uniform(0.1, 3.0))
        m = rng.integers(1, 6, size=n)
        threshold = (m[:-1] + m[1:]) * t / 2
        gaps = threshold * rng.choice([0.5, 1.0, 1.0, 1.0, 2.0], size=n - 1)
        gaps += rng.choice([-1e-12, 0.0, 1e-12], size=n - 1)
        corpus.append(validate_instance(t, np.cumsum([0.0, *gaps]), m.tolist()))
    named = [
        (1.0, [0.0, 5e-324, 1.0], [5, 5, 1]),  # a contact at s = 0
        (1.0, [0.0, 1e-14, 2.51e-12], [1, 1, 1]),  # an empty span
        (1.0, [0.0, 1.0, 10.0], [1, 1, 1]),  # a merge at t
        (float(CASCADE[1]), [float(v) for v in CASCADE[3].split(",")],
         [int(v) for v in CASCADE[5].split(",")]),
    ]
    corpus += [validate_instance(*case) for case in named]
    return corpus


def test_first_optimal_merge_matches_dense_reference():
    # the forest's column at s0 against the dense expansion, bit for bit
    outcomes = {"merge": 0, "no merge": 0}
    corpus = first_merge_corpus()
    for inst in corpus:
        try:
            want = dense_first_merge(simulate_inertia(inst), inst)
        except NoMerge:
            with pytest.raises(NoMerge):
                first_optimal_merge(inst)
            outcomes["no merge"] += 1
            continue
        got = first_optimal_merge(inst)
        assert _bits([got.s0]) == _bits([want.s0]), inst
        assert _bits(got.x_prime) == _bits(want.x_prime), inst
        assert _bits(got.xi_at_s0) == _bits(want.xi_at_s0), inst
        assert got.m_prime == want.m_prime, inst
        assert all(type(v) is int for v in got.m_prime)
        assert all(type(v) is float for v in (got.s0, *got.x_prime, *got.xi_at_s0))
        outcomes["merge"] += 1
    print(f"first merge on {len(corpus)} instances: {outcomes}")
    assert len(corpus) > 3600
    assert outcomes["no merge"] > 300 and outcomes["merge"] > 2500


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
