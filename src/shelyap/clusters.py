"""Deterministic sticky-cluster dynamics on [0, t].

Each location x_i carries mass m_i and starts with speed

    phi_i = (m_{i+1} + ... + m_n)/2 - (m_1 + ... + m_{i-1})/2,

so total momentum sum(m_i phi_i) is exactly zero. Clusters move ballistically;
when adjacent clusters meet they merge, conserving mass and momentum (the
merged speed is the mass-weighted average). A merge happening exactly at s = t
is included. The surviving clusters at time t define the optimal partition
B_1, ..., B_qhat into contiguous index blocks, each with terminal position
zeta_B(t) and drift v_j = zeta_B(t)/t.

All the run keeps is its merge forest: the locations are its leaves, and
each MergeEvent is a node with a birth time, children (the member intervals
it merged), a birth position and a speed, at which it moves until it merges
again. A node's position at time s is its birth position + speed * (s - birth),
so the forest fixes every position.

simulate_inertia alone, for `clusters`, expands it into two read-only (n, K)
path families on the breakpoints {0, merge times, t}; row i is index i's

    inertia path   zeta_i(s): the simulated trajectory;
    optimal path   xi_i(s) = zeta_i(s) - v_j s, the drift-removed trajectory,
                   which returns to zero at s = t.

gamma, sweep and the verify checks read the forest, in O(n + events) memory.

The event loop keeps the live clusters in a doubly linked list, keyed by
their first index, each with its mass, momentum, speed, birth time and birth
position; nothing moves per event. A min-heap holds one collision candidate
per adjacent pair, computed once, when the pair becomes adjacent: at
s0 = max(birth_L, birth_R) the candidate is s0 + gap(s0) / closing speed, and
a pair that does not close in has none. Every merge retires its clusters'
forest nodes, and an entry counts only while both of its nodes are live, so
stale entries are dropped as they reach the top. Each event costs O(log n).

Ties: the earliest live candidate c sets the batch time s = min(c, t), and
the loop ends once c > t + event_tolerance(t), so a merge at s = t counts.
Every candidate <= s + event_tolerance(t) merges in one pass, as runs of
adjacent pairs, left to right, with group sums as Python sums left to right.
The pairs that this forms cascade at the same s as the next pass, with their
own merge groups, while their candidates fall in the window. A contact at
s = 0 thus merges at the first batch, and a multi-way collision resolves into
one or more merge groups at one timestamp.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoMerge
from .instance import MomentInstance

EVENT_TOL_SCALE = 1e-12


def event_tolerance(t: float) -> float:
    return EVENT_TOL_SCALE * (1.0 + t)


def initial_speeds(m: Sequence[int]) -> np.ndarray:
    """Momentum-balancing initial speeds, exact in binary floating point."""
    m = np.asarray(m, dtype=float)
    after = m.sum() - np.cumsum(m)
    before = np.cumsum(m) - m
    return 0.5 * (after - before)


@dataclass(frozen=True)
class MergeEvent:
    """One merge group, a forest node: merged lists its children, the member intervals."""

    time: float
    merged: tuple[tuple[int, int], ...]
    position: float
    speed: float


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """A path's values at the breakpoints; it is linear in between."""

    breakpoints: tuple[float, ...]
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Terminal partition, per-block data, merge log and the expanded paths."""

    partition: tuple[tuple[int, ...], ...]
    cluster_masses: tuple[float, ...]
    terminal_positions: tuple[float, ...]
    drifts: tuple[float, ...]
    events: tuple[MergeEvent, ...]
    inertia_paths: tuple[PiecewiseLinearPath, ...]
    optimal_paths: tuple[PiecewiseLinearPath, ...]

    @property
    def q_hat(self) -> int:
        return len(self.partition)


class _Run(NamedTuple):
    """A run's partition and merge log."""

    partition: tuple[tuple[int, ...], ...]
    events: tuple[MergeEvent, ...]


@dataclass(frozen=True)
class FirstMerge:
    """State extracted at the first merge time s0."""

    s0: float
    x_prime: tuple[float, ...]
    m_prime: tuple[int, ...]
    xi_at_s0: tuple[float, ...]


def simulate_inertia(inst: MomentInstance) -> ClusterResult:
    """Run the sticky dynamics to time t and expand the paths of every index.

    The grid is 0, then each merge time once, then t. Column 0 holds the
    locations, and a merge time's column the state after all its merges. Each
    forest node fills its index rows from its birth column up to its parent's
    with birth position + speed * (s - birth), the loop's own arithmetic; at
    its birth it holds its birth position exactly.
    """
    partition, events = _simulate(inst)
    lo, hi, _, birth, position, speed, parent = _forest(inst, events)
    n, t = inst.n, inst.t
    times = sorted({e.time for e in events})
    grid = (0.0, *times, *([t] if not times or times[-1] < t else []))
    g = np.array(grid)
    first = np.concatenate((np.zeros(n, dtype=np.intp), np.searchsorted(times, birth[n:]) + 1))
    stop = np.where(parent < 0, len(grid), first[parent])
    zeta = np.empty((n, len(grid)))
    for a, b, i, j, z, v, s in zip(first.tolist(), stop.tolist(), lo.tolist(), hi.tolist(),
                                   position.tolist(), speed.tolist(), birth.tolist()):
        if a < b:
            zeta[i - 1 : j, a:b] = z + v * (g[a:b] - s)
            zeta[i - 1 : j, a] = z
    terminal = zeta[[b[0] - 1 for b in partition], -1]
    drift = terminal / t
    xi = np.repeat(drift, [len(b) for b in partition])[:, None] * g
    np.subtract(zeta, xi, out=xi)
    # rows are shared views, so keep them immutable like the frozen result
    zeta.flags.writeable = xi.flags.writeable = False
    return ClusterResult(
        partition=partition,
        cluster_masses=tuple(float(sum(inst.m[b[0] - 1 : b[-1]])) for b in partition),
        terminal_positions=tuple(terminal.tolist()),
        drifts=tuple(drift.tolist()),
        events=events,
        inertia_paths=tuple(PiecewiseLinearPath(grid, row) for row in zeta),
        optimal_paths=tuple(PiecewiseLinearPath(grid, row) for row in xi),
    )


def _simulate(inst: MomentInstance) -> _Run:
    """The event loop, in O(n + events) memory and O((n + events) log n) time."""
    t, n = inst.t, inst.n
    tol = event_tolerance(t)
    # live clusters keyed by their first index j (0-based) in a doubly linked
    # list, n being the sentinel past the last one; cluster j ends at index
    # last[j], sits at anchor + v * (s - birth) and is forest node node[j],
    # -1 once merged into a left neighbour
    prv = list(range(-1, n))
    nxt = list(range(1, n + 1))
    last = list(range(n))
    mass = list(map(float, inst.m))
    mom = (np.array(mass) * initial_speeds(inst.m)).tolist()
    v = (np.array(mom) / np.array(mass)).tolist()
    birth = [0.0] * n
    anchor = list(inst.x)
    node = [*range(n), -1]
    heap: list[tuple[float, int, int, int]] = []

    def push(j: int) -> None:
        """Queue the pair (j, nxt[j]) once, at the time it would collide."""
        k = nxt[j]
        closing = v[j] - v[k]
        if closing > 0.0:
            s0 = max(birth[j], birth[k])
            gap = anchor[k] + v[k] * (s0 - birth[k]) - (anchor[j] + v[j] * (s0 - birth[j]))
            heapq.heappush(heap, (s0 + gap / closing, j, node[j], node[k]))

    def pop_due(limit: float) -> list[int]:
        """Left keys of the live pairs whose candidate is <= limit, in order."""
        due = []
        while heap and heap[0][0] <= limit:
            _, j, a, b = heapq.heappop(heap)
            if node[j] == a and node[nxt[j]] == b:
                due.append(j)
        return sorted(due)

    for j in range(n - 1):
        push(j)
    events: list[MergeEvent] = []
    while heap:
        c, j, a, b = heap[0]
        if node[j] != a or node[nxt[j]] != b:
            heapq.heappop(heap)  # a stale entry: a merge has changed the pair
            continue
        if not c <= t + tol:
            break
        # the earliest live candidate sets the batch time
        s = min(c, t)
        due = pop_due(s + tol)
        while due:
            # one cascade pass: merge every run of adjacent due pairs; group
            # sums stay Python sums, left to right
            runs: list[list[int]] = []
            for j in due:
                if runs and nxt[runs[-1][-1]] == j:
                    runs[-1].append(j)
                else:
                    runs.append([j])
            for run in runs:
                group = [*run, nxt[run[-1]]]
                ms = [mass[k] for k in group]
                xs = [anchor[k] + v[k] * (s - birth[k]) for k in group]
                total = sum(ms)
                com = sum(mk * xk for mk, xk in zip(ms, xs)) / total
                p = sum(mom[k] for k in group)
                events.append(MergeEvent(
                    time=s,
                    merged=tuple((k + 1, last[k] + 1) for k in group),
                    position=com,
                    speed=p / total,
                ))
                j0, k1 = group[0], group[-1]
                mass[j0], mom[j0], v[j0], birth[j0], anchor[j0] = total, p, p / total, s, com
                last[j0], nxt[j0] = last[k1], nxt[k1]
                prv[nxt[k1]] = j0
                node[j0] = n + len(events) - 1
                for k in group[1:]:
                    node[k] = -1
            # each merged cluster forms new pairs with its neighbours
            for j in {k for run in runs for k in (prv[run[0]], run[0])}:
                if j >= 0 and nxt[j] < n:
                    push(j)
            due = pop_due(s + tol)
    partition = tuple(tuple(range(j + 1, last[j] + 2)) for j in range(n) if node[j] >= 0)
    return _Run(partition, tuple(events))


def _forest(inst: MomentInstance, events: Sequence[MergeEvent]) -> tuple[np.ndarray, ...]:
    """The merge forest as columns, the n leaves first, then one node per event:
    index range (lo, hi), mass, birth time, birth position, speed, and the node
    it merged into (-1 for a root). A range names one node, as live clusters
    are disjoint and a merge widens them."""
    n = inst.n
    lo = [*range(1, n + 1), *(e.merged[0][0] for e in events)]
    hi = [*range(1, n + 1), *(e.merged[-1][1] for e in events)]
    node = {iv: k for k, iv in enumerate(zip(lo, hi))}
    parent = [-1] * len(lo)
    for k, e in enumerate(events, n):
        for iv in e.merged:
            parent[node[iv]] = k
    lo, hi = np.array(lo), np.array(hi)
    cum = np.cumsum([0.0, *inst.m])
    birth = np.array([0.0] * n + [e.time for e in events])
    position = np.array([*inst.x, *(e.position for e in events)], dtype=float)
    speed = np.concatenate((initial_speeds(inst.m), [e.speed for e in events]))
    return lo, hi, cum[hi] - cum[lo - 1], birth, position, speed, np.array(parent)


def first_optimal_merge(res: ClusterResult, inst: MomentInstance) -> FirstMerge:
    """Collapse the instance at the first merge time s0.

    Locations sharing a cluster at s0 collapse to one location at their common
    drift-removed position xi(s0); the reduced instance (t - s0, x', m') has
    strictly fewer locations. Raises NoMerge if nothing merges before t.
    """
    if not res.events:
        raise NoMerge("no merge event in [0, t]")
    s0 = res.events[0].time
    # the last column at s0, after its merges; a grid opens (0, 0) if s0 = 0
    k = bisect_right(res.inertia_paths[0].breakpoints, s0) - 1
    zeta0 = [float(p.values[k]) for p in res.inertia_paths]
    xi0 = [float(p.values[k]) for p in res.optimal_paths]
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
    return FirstMerge(
        s0=s0,
        x_prime=tuple(x_prime),
        m_prime=tuple(m_prime),
        xi_at_s0=tuple(xi0),
    )


def separation_margins(inst: MomentInstance, partition: Sequence[Sequence[int]]) -> np.ndarray:
    """Strict slack of consecutive terminal blocks.

    Entry k is com_x(B_{k+1}) - com_x(B_k) - (mass(B_k) + mass(B_{k+1})) t / 2;
    every entry is positive iff consecutive blocks stay apart on [0, t].
    """
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    sizes = np.fromiter(map(len, partition), dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    masses = np.add.reduceat(m, starts)
    coms = np.add.reduceat(m * x, starts) / masses
    return np.diff(coms) - (masses[:-1] + masses[1:]) * inst.t / 2.0
