"""The merge forest the event loop writes, against one rebuilt from a merge log
the package never sees.

The loop records each node's index range, mass, birth time and grid column,
birth position, speed and parent as it merges, and the package reads its
merge log off those columns. So the reference here rebuilds the columns from
the merge log of the object-per-cluster reference in
test_cluster_equivalence: an interval -> node dict for the parents,
cumulative masses, the initial speeds for the leaves and a search of the
sorted merge times for the grid columns. On the equivalence corpus (m <= 5)
a leaf's loop speed (m phi)/m is phi exactly, so every column must agree bit
for bit. At multiplicities near 1e8 the two leaf speeds part, and the paths
of simulate_inertia must follow the loop's.
"""

from bisect import bisect_right

import numpy as np

from shelyap import initial_speeds, simulate_inertia, validate_instance
from shelyap.clusters import _simulate
from test_cluster_equivalence import (equal_line, integer_lattice, near_contact, random_shape,
                                      reference_simulate)

FLOAT_COLUMNS = ("mass", "birth", "position", "speed")
INT_COLUMNS = ("lo", "hi", "column", "parent")


def rebuild_forest(inst, events):
    """The forest's columns rebuilt from (time, merged, position, speed) events, leaves first."""
    n = inst.n
    lo = [*range(1, n + 1), *(merged[0][0] for _, merged, _, _ in events)]
    hi = [*range(1, n + 1), *(merged[-1][1] for _, merged, _, _ in events)]
    # a range names one node, as live clusters are disjoint and a merge widens them
    node = {iv: k for k, iv in enumerate(zip(lo, hi))}
    parent = [-1] * len(lo)
    for k, (_, merged, _, _) in enumerate(events, n):
        for iv in merged:
            parent[node[iv]] = k
    lo, hi = np.array(lo), np.array(hi)
    cum = np.cumsum([0.0, *inst.m])
    birth = np.array([0.0] * n + [s for s, _, _, _ in events])
    times = sorted({s for s, _, _, _ in events})
    return {
        "lo": lo,
        "hi": hi,
        "mass": cum[hi] - cum[lo - 1],
        "birth": birth,
        "column": np.concatenate((np.zeros(n, dtype=np.intp),
                                  np.searchsorted(times, birth[n:]) + 1)),
        "position": np.array([*inst.x, *(z for _, _, z, _ in events)], dtype=float),
        "speed": np.concatenate((initial_speeds(inst.m), [v for _, _, _, v in events])),
        "parent": np.array(parent),
    }


def test_loop_forest_matches_rebuild_from_merge_log():
    rng = np.random.default_rng(20261019)
    large = near = 0
    for k in range(360):
        make = (random_shape, equal_line, integer_lattice, near_contact)[k % 4]
        n = int(rng.integers(200, 261)) if k % 40 < 4 else int(rng.integers(1, 25))
        inst = make(rng, n)
        run = _simulate(inst)
        ref = rebuild_forest(inst, reference_simulate(inst)["events"])
        for name in FLOAT_COLUMNS:
            got = getattr(run, name)
            assert all(type(v) is float for v in got), (name, inst)
            assert np.array(got).tobytes() == ref[name].tobytes(), (name, inst)
        for name in INT_COLUMNS:
            assert getattr(run, name) == ref[name].tolist(), (name, inst)
        large += inst.n >= 200
        near += bool(make is near_contact and (np.diff(inst.x) <= 1e-11).any())
    assert large >= 30
    assert near >= 60


def huge_multiplicities(rng):
    n = int(rng.integers(2, 9))
    x = np.sort(rng.uniform(-1e9, 1e9, size=n))
    t = float(rng.uniform(0.5, 3.0))
    return validate_instance(t, x, rng.integers(1, 10**9, size=n).tolist())


def test_leaf_rows_move_at_the_loops_speed():
    # each leaf row, up to the column of its first merge, is x_i + v_i s with
    # v_i = (m_i phi_i)/m_i, the speed the loop moved it at; at these
    # multiplicities that is not always phi_i
    m = [133605071, 693592733, 373328219]
    first = validate_instance(2.4232301156716693,
                              [-773288214.1568471, -180343019.9032514, 901553176.3601775], m)
    rng = np.random.default_rng(20261019)
    apart = 0
    for inst in [first] + [huge_multiplicities(rng) for _ in range(200)]:
        mf = np.array(inst.m, dtype=float)
        phi = initial_speeds(inst.m)
        v = (mf * phi) / mf
        res = simulate_inertia(inst)
        grid = res.inertia_paths[0].breakpoints
        merged_at = {}
        for e in res.events:
            for lo, hi in e.merged:
                if lo == hi:
                    merged_at[lo] = e.time
        for i, path in enumerate(res.inertia_paths):
            # the last column at the merge time holds the merged node
            stop = bisect_right(grid, merged_at[i + 1]) - 1 if i + 1 in merged_at else len(grid)
            want = [inst.x[i] + float(v[i]) * s for s in grid[:stop]]
            assert path.values[:stop].tobytes() == np.array(want).tobytes(), (i, inst)
            apart += any(w != inst.x[i] + float(phi[i]) * s for w, s in zip(want, grid))
    # the first instance prints 308607982.10658169 at s = 1.4336..., row 3,
    # where x_3 + phi_3 s is 308607982.10658181
    assert simulate_inertia(first).inertia_paths[2].values[1] == 308607982.10658169
    assert apart >= 30
