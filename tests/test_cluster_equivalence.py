"""The array sticky-cluster core against an object-per-cluster reference.

The reference below is the earlier core: one object per live cluster, a full
rescan of adjacent pairs per cascade pass and per event, and per-index path
tuples snapshotted during the run. The package keeps the clusters as parallel
arrays, records only the merge forest and its steps, and expands the paths
afterwards. Every field must agree bit for bit, including each merge event's
speed, merges of many clusters at once and several merge groups at one
timestamp. The run record that gamma and the verify checks read must give the
same partition and merge log as simulate_inertia on the same corpus.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from shelyap import initial_speeds, simulate_inertia, validate_instance
from shelyap.clusters import _simulate, event_tolerance


@dataclass
class _Cluster:
    lo: int
    hi: int
    mass: float
    momentum: float
    position: float

    @property
    def speed(self):
        return self.momentum / self.mass


def _collision_times(clusters, s):
    out = []
    for a, b in zip(clusters, clusters[1:]):
        closing = a.speed - b.speed
        if closing > 0.0:
            out.append(s + (b.position - a.position) / closing)
        else:
            out.append(np.inf)
    return out


def _snapshot(clusters, n):
    snap = [0.0] * n
    for c in clusters:
        for i in range(c.lo, c.hi + 1):
            snap[i - 1] = c.position
    return snap


def _merge_contacts(clusters, s, tol, events):
    merged_any = False
    while len(clusters) > 1:
        cand = _collision_times(clusters, s)
        touching = [j for j, c in enumerate(cand) if c <= s + tol]
        if not touching:
            break
        merged_any = True
        runs = [[touching[0]]]
        for j in touching[1:]:
            if j == runs[-1][-1] + 1:
                runs[-1].append(j)
            else:
                runs.append([j])
        pass_events = []
        for run in reversed(runs):
            j0, j1 = run[0], run[-1] + 1
            group = clusters[j0 : j1 + 1]
            mass = sum(c.mass for c in group)
            momentum = sum(c.momentum for c in group)
            com = sum(c.mass * c.position for c in group) / mass
            pass_events.append((s, tuple((c.lo, c.hi) for c in group), com,
                                momentum / mass))
            clusters[j0 : j1 + 1] = [_Cluster(group[0].lo, group[-1].hi,
                                              mass, momentum, com)]
        events.extend(reversed(pass_events))
    return merged_any


def reference_simulate(inst):
    """All result fields as plain tuples, computed cluster by cluster."""
    t, n = inst.t, inst.n
    tol = event_tolerance(t)
    phi = initial_speeds(inst.m)
    clusters = [
        _Cluster(i + 1, i + 1, float(mi), float(mi) * float(v), float(xi))
        for i, (xi, mi, v) in enumerate(zip(inst.x, inst.m, phi))
    ]
    events = []
    times = [0.0]
    snaps = [_snapshot(clusters, n)]
    s = 0.0
    while len(clusters) > 1:
        s_next = min(_collision_times(clusters, s))
        if not s_next <= t + tol:
            break
        s_evt = min(s_next, t)
        dt = s_evt - s
        for c in clusters:
            c.position += c.speed * dt
        s = s_evt
        if _merge_contacts(clusters, s, tol, events):
            times.append(s)
            snaps.append(_snapshot(clusters, n))
    if s < t:
        for c in clusters:
            c.position += c.speed * (t - s)
    if times[-1] < t:
        times.append(t)
        snaps.append(_snapshot(clusters, n))
    drifts = tuple(c.position / t for c in clusters)
    drift_of_index = {}
    for c, v in zip(clusters, drifts):
        for i in range(c.lo, c.hi + 1):
            drift_of_index[i] = v
    zeta = [tuple(snap[i] for snap in snaps) for i in range(n)]
    xi = [
        tuple(snap[i] - drift_of_index[i + 1] * sk for snap, sk in zip(snaps, times))
        for i in range(n)
    ]
    return {
        "partition": tuple(tuple(range(c.lo, c.hi + 1)) for c in clusters),
        "masses": tuple(c.mass for c in clusters),
        "terminal": tuple(c.position for c in clusters),
        "drifts": drifts,
        "events": tuple(events),
        "grid": tuple(times),
        "zeta": zeta,
        "xi": xi,
    }


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def random_shape(rng, n):
    """The benchmark's shape: x sorted in [-n, n], m in 1..5, t in [0.2, 2]."""
    m = rng.integers(1, 6, size=n).tolist()
    x = np.sort(rng.uniform(-n, n, size=n))
    t = float(np.exp(rng.uniform(np.log(0.2), np.log(2.0))))
    return validate_instance(t, x, m)


def equal_line(rng, n):
    """Equal spacing and equal masses: every adjacent pair meets at once."""
    h = float(rng.choice([0.25, 0.5, 1.0, 1.5]))
    return validate_instance(float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                             [h * i for i in range(n)], [int(rng.integers(1, 4))] * n)


def integer_lattice(rng, n):
    """Integer gaps, random masses, integer t: exact ties at many timestamps."""
    x = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
    return validate_instance(float(rng.integers(1, 4)), x,
                             rng.integers(1, 4, size=n).tolist())


def near_contact(rng, n):
    """Some gaps inside the tie window at s = 0; they merge at the first move."""
    gaps = rng.uniform(0.2, 2.0, size=n)
    gaps[rng.random(n) < 0.3] = 1e-12
    return validate_instance(1.0, np.cumsum(gaps), rng.integers(1, 4, size=n).tolist())


def test_array_core_matches_object_reference():
    rng = np.random.default_rng(20261019)
    big_groups = shared_timestamps = large = 0
    for k in range(360):
        make = (random_shape, equal_line, integer_lattice, near_contact)[k % 4]
        n = int(rng.integers(200, 261)) if k % 40 < 4 else int(rng.integers(1, 25))
        inst = make(rng, n)
        res = simulate_inertia(inst)
        ref = reference_simulate(inst)
        assert res.partition == ref["partition"], inst
        assert _bits(res.cluster_masses) == _bits(ref["masses"]), inst
        assert _bits(res.terminal_positions) == _bits(ref["terminal"]), inst
        assert _bits(res.drifts) == _bits(ref["drifts"]), inst
        got_events = [(e.time, e.merged, e.position, e.speed) for e in res.events]
        assert len(got_events) == len(ref["events"]), inst
        for (s, merged, pos, v), (rs, rmerged, rpos, rv) in zip(got_events, ref["events"]):
            assert merged == rmerged, inst
            assert _bits([s, pos, v]) == _bits([rs, rpos, rv]), inst
        for paths, rows in ((res.inertia_paths, ref["zeta"]),
                            (res.optimal_paths, ref["xi"])):
            assert len(paths) == inst.n
            for p, row in zip(paths, rows):
                assert p.breakpoints == ref["grid"], inst
                assert _bits(p.values) == _bits(row), inst
        # every scalar field stays a Python number
        assert all(type(v) is float for v in res.cluster_masses + res.drifts
                   + res.terminal_positions)
        assert all(type(e.time) is float and type(e.position) is float
                   and type(e.speed) is float for e in res.events)
        big_groups += sum(len(e.merged) > 2 for e in res.events)
        shared_timestamps += sum(
            c > 1 for c in Counter(e.time for e in res.events).values()
        )
        large += inst.n >= 200
    assert big_groups > 100
    assert shared_timestamps > 100
    assert large >= 30


def test_partition_only_run_matches_full_run():
    rng = np.random.default_rng(20261019)
    large = near = 0
    for k in range(360):
        make = (random_shape, equal_line, integer_lattice, near_contact)[k % 4]
        n = int(rng.integers(200, 261)) if k % 40 < 4 else int(rng.integers(1, 25))
        inst = make(rng, n)
        full = simulate_inertia(inst)
        part = _simulate(inst)
        assert part.partition == full.partition, inst
        assert len(part.events) == len(full.events), inst
        for e, f in zip(part.events, full.events):
            assert e.merged == f.merged, inst
            assert (_bits([e.time, e.position, e.speed])
                    == _bits([f.time, f.position, f.speed])), inst
        # the steps increase to t and hold every merge time and breakpoint
        steps = part.steps
        assert all(a < b for a, b in zip(steps, steps[1:])) and steps[-1] == inst.t, inst
        assert set(full.inertia_paths[0].breakpoints[1:]) <= set(steps), inst
        large += inst.n >= 200
        # near-contact instances with a pair inside the tie window at s = 0
        near += bool(make is near_contact and (np.diff(inst.x) <= 1e-11).any())
    assert large >= 30
    assert near >= 60
