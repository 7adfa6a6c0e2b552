"""Deterministic sticky-cluster dynamics on [0, t].

Each location x_i carries mass m_i and starts with speed

    phi_i = (m_{i+1} + ... + m_n)/2 - (m_1 + ... + m_{i-1})/2,

so total momentum sum(m_i phi_i) is exactly zero. Clusters move ballistically;
when adjacent clusters meet they merge, conserving mass and momentum (the
merged speed is the mass-weighted average). A merge happening exactly at s = t
is included. The surviving clusters at time t define the optimal partition
B_1, ..., B_qhat into contiguous index blocks, each with terminal position
zeta_B(t) and drift v_j = zeta_B(t)/t.

The run's only record is its merge forest, and the event loop writes only
the forest: the locations are its leaves and each merge group a node (see
_Run), which sits at birth position + speed * (s - birth) until it merges
again. Every value is the loop's own, a leaf's speed (m_i phi_i)/m_i
included. The merge log (one MergeEvent per node after the leaves: its
birth, position and speed, with its children) is read off the forest on
demand; of the commands, only `clusters` asks for it.

Each index has two paths on the breakpoints {0, merge times, t}:

    inertia path   zeta_i(s): the simulated trajectory;
    optimal path   xi_i(s) = zeta_i(s) - v_j s, the drift-removed trajectory,
                   which returns to zero at s = t.

Indices that share a forest node share their paths from its birth on, so
_Paths evaluates them by node, one span per node, a chunk of rows at a time;
`clusters` checks and prints each chunk's spans, and simulate_inertia, the
library's dense expansion, fills two read-only (n, K) path families from them.
gamma, sweep and the verify checks read the forest, in O(n + events) memory.

The event loop keeps the live nodes in a doubly linked list; nothing moves
per event. A min-heap holds one collision candidate per adjacent pair,
computed once, when the pair becomes adjacent: at s0 = max(birth_L, birth_R)
the candidate is s0 + gap(s0) / closing speed, and a pair that does not
close in has none. An entry counts only while its left node is live and
still followed by its right one, so stale entries are dropped as they reach
the top. Each event costs O(log n).

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
from operator import sub
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
    """A run's partition and merge forest: lists by node (the n locations, then one per
    event); column is the grid column of the birth, parent -1 for a root."""

    partition: tuple[tuple[int, ...], ...]
    lo: list[int]
    hi: list[int]
    mass: list[float]
    birth: list[float]
    column: list[int]
    position: list[float]
    speed: list[float]
    parent: list[int]

    @property
    def events(self) -> tuple[MergeEvent, ...]:
        """The merge log, read off the forest: node k >= n gives the event at
        birth[k], position[k] and speed[k] merging its children, in index order."""
        n = self.partition[-1][-1]  # the locations are nodes 0..n-1
        merged: list[list[tuple[int, int]]] = [[] for _ in range(len(self.lo) - n)]
        for j in sorted(range(len(self.lo)), key=self.lo.__getitem__):
            if self.parent[j] >= 0:
                merged[self.parent[j] - n].append((self.lo[j], self.hi[j]))
        return tuple(MergeEvent(self.birth[k], tuple(c), self.position[k], self.speed[k])
                     for k, c in enumerate(merged, n))


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
    locations, and a merge time's column the state after all its merges.
    Each forest node's span (see _Paths) fills its index rows from its birth
    column up to its parent's, a chunk of rows at a time.
    """
    run = _simulate(inst)
    paths = _Paths(run, inst.t)
    zeta = np.empty((inst.n, len(paths.grid)))
    xi = np.empty_like(zeta)
    for r0, r1, nodes, where, z, x in paths.chunks():
        cells = paths.cells(nodes, where)
        zeta[r0:r1] = z[cells].reshape(r1 - r0, -1)
        xi[r0:r1] = x[cells].reshape(r1 - r0, -1)
    grid = tuple(paths.grid.tolist())
    # rows are shared views, so keep them immutable like the frozen result
    zeta.flags.writeable = xi.flags.writeable = False
    return ClusterResult(
        partition=run.partition,
        cluster_masses=tuple(float(sum(inst.m[b[0] - 1 : b[-1]])) for b in run.partition),
        terminal_positions=tuple(paths.terminal.tolist()),
        drifts=tuple(paths.drift.tolist()),
        events=run.events,
        inertia_paths=tuple(PiecewiseLinearPath(grid, row) for row in zeta),
        optimal_paths=tuple(PiecewiseLinearPath(grid, row) for row in xi),
    )


class _Paths:
    """A run's two path families by forest node, evaluated a chunk of rows at a time.

    Node j's span is its stretch of path: its value at the size[j] grid
    columns from start[j], its birth column, up to its parent's (to the
    grid's end for a root), which all its index rows share. Row i's path is
    its leaf's span, then each ancestor's, in column order, up its parent
    links; a node that merges again in its birth column has an empty span,
    which drops out. A span holds

        zeta = position + speed * (s - birth), the loop's own arithmetic,
               and exactly position at its birth column;
        xi   = zeta - d_B s, with d_B = zeta_B(t)/t the drift of the node's
               terminal block B.
    """

    ROWS = 16  # the fewest rows in a chunk
    VALUES = 1 << 16  # the most path values in a chunk of more rows

    def __init__(self, run: _Run, t: float):
        column, parent = np.array(run.column), np.array(run.parent)
        g = np.empty(column[-1] + 1)
        g[column] = run.birth
        self.grid = np.append(g, t) if g[-1] < t else g
        self.start = column
        # one slot past the nodes, -1 with an empty span, ends each climb
        self.parent = np.append(parent, -1)
        self.size = np.append(np.where(parent < 0, len(self.grid), column[parent]) - column, 0)
        self.n, lo, hi = run.partition[-1][-1], np.array(run.lo), np.array(run.hi)
        self.position, self.speed, self.birth = map(
            np.array, (run.position, run.speed, run.birth))
        # a block's terminal position is the last value of its root's span
        root = np.flatnonzero(parent < 0)
        root = root[np.argsort(lo[root])]
        self.terminal = self._zeta(root, np.full(len(root), len(self.grid) - 1))
        self.drift = self.terminal / t
        self.node_drift = np.repeat(self.drift, hi[root] - lo[root] + 1)[lo - 1]

    def _zeta(self, node: np.ndarray, col: np.ndarray) -> np.ndarray:
        z = self.position[node]
        zeta = z + self.speed[node] * (self.grid[col] - self.birth[node])
        born = col == self.start[node]
        zeta[born] = z[born]
        return zeta

    def chunks(self):
        """Rows r0..r1 - 1 a chunk at a time, with the nodes whose spans make
        them up, in node order; where, the positions in nodes of each row's
        spans, row by row in column order; and zeta and xi of the nodes'
        spans laid end to end. A span is evaluated once in each chunk that it meets."""
        rows = max(self.ROWS, self.VALUES // len(self.grid))
        for r0 in range(0, self.n, rows):
            r1 = min(self.n, r0 + rows)
            level = np.arange(r0, r1)
            table = [level]
            while (level := self.parent[level]).max() >= 0:
                table.append(level)
            table = np.stack(table, axis=1)
            nodes, where = np.unique(table[self.size[table] > 0], return_inverse=True)
            size = self.size[nodes]
            node = np.repeat(nodes, size)
            col = np.repeat(self.start[nodes] - (np.cumsum(size) - size), size)
            col += np.arange(len(node))
            zeta = self._zeta(node, col)
            yield r0, r1, nodes, where, zeta, zeta - self.node_drift[node] * self.grid[col]

    def cells(self, nodes: np.ndarray, where: np.ndarray) -> np.ndarray:
        """For each cell of a chunk's rows, row-major, its value's position in
        the nodes' spans laid end to end: a row's spans cover its columns."""
        size = self.size[nodes]
        first, size = (np.cumsum(size) - size)[where], size[where]
        return np.arange(size.sum()) + np.repeat(first - (np.cumsum(size) - size), size)


def _simulate(inst: MomentInstance) -> _Run:
    """The event loop, in O(n + events) memory and O((n + events) log n) time."""
    t, n, tol = inst.t, inst.n, event_tolerance(inst.t)
    # the forest's 2n - 1 node slots, the locations first. The live nodes form
    # a doubly linked list through prv and nxt, whose last slot (-1) is a
    # sentinel before the first node and after the last
    m = np.array(inst.m, dtype=float)
    p = m * initial_speeds(inst.m)
    free = [0] * (n - 1)
    lo, hi, mass, mom, speed, position = ([*c, *free] for c in (
        range(1, n + 1), range(1, n + 1), m.tolist(), p.tolist(), (p / m).tolist(), inst.x))
    birth, column, parent = [0.0] * (2 * n - 1), [0] * (2 * n - 1), [-1] * (2 * n - 1)
    prv = [*range(-1, n - 1), *free, n - 1]
    nxt = [*range(1, n), -1, *free, 0]
    # the locations' candidates in one pass: at s0 = 0, push's gap is
    # x_{a+1} - x_a and its candidate 0.0 + gap / closing is gap / closing
    x = inst.x
    heap = [((x[a + 1] - x[a]) / closing, a, a + 1)
            for a, closing in enumerate(map(sub, speed[: n - 1], speed[1:n])) if closing > 0.0]
    heapq.heapify(heap)

    def push(a: int) -> None:
        """Queue the pair (a, nxt[a]) once, at the time it would collide."""
        b = nxt[a]
        closing = speed[a] - speed[b]
        if closing > 0.0:
            s0 = max(birth[a], birth[b])
            gap = (position[b] + speed[b] * (s0 - birth[b])
                   - (position[a] + speed[a] * (s0 - birth[a])))
            heapq.heappush(heap, (s0 + gap / closing, a, b))

    def pop_due(limit: float) -> list[int]:
        """Left nodes of the live pairs whose candidate is <= limit, in index order."""
        due = []
        while heap and heap[0][0] <= limit:
            _, a, b = heapq.heappop(heap)
            if parent[a] < 0 and nxt[a] == b:
                due.append(a)
        if len(due) > 1:
            due.sort(key=lo.__getitem__)
        return due

    k, col = n, 0  # the next free node slot, the last grid column
    while heap:
        c, a, b = heap[0]
        if parent[a] >= 0 or nxt[a] != b:
            heapq.heappop(heap)  # a stale entry: a merge has changed the pair
            continue
        if not c <= t + tol:
            break
        # the earliest live candidate sets the batch time and its grid column
        s, col = min(c, t), col + 1
        while due := pop_due(s + tol):
            # one cascade pass: merge every run of adjacent due pairs; group
            # sums stay Python sums, left to right
            runs: list[list[int]] = []
            for a in due:
                if runs and nxt[runs[-1][-1]] == a:
                    runs[-1].append(a)
                else:
                    runs.append([a])
            for run in runs:
                group = [*run, nxt[run[-1]]]
                ms = [mass[g] for g in group]
                xs = [position[g] + speed[g] * (s - birth[g]) for g in group]
                total = sum(ms)
                com = sum(mg * xg for mg, xg in zip(ms, xs)) / total
                p = sum(mom[g] for g in group)
                v = p / total
                first, last = group[0], group[-1]
                left, right = prv[first], nxt[last]
                lo[k], hi[k], mass[k], mom[k], speed[k] = lo[first], hi[last], total, p, v
                birth[k], column[k], position[k], prv[k], nxt[k] = s, col, com, left, right
                nxt[left] = prv[right] = k
                for g in group:
                    parent[g] = k
                k += 1
            # each merged cluster forms new pairs with its neighbours; two of
            # them may be neighbours, so a pass of several pushes each pair once
            if len(runs) == 1:
                lefts = (prv[k - 1], k - 1)
            else:
                lefts = {g for j in range(k - len(runs), k) for g in (prv[j], j)}
            for a in lefts:
                if a >= 0 and nxt[a] >= 0:
                    push(a)
    partition, a = [], nxt[-1]
    while a >= 0:
        partition.append(tuple(range(lo[a], hi[a] + 1)))
        a = nxt[a]
    forest = (lo, hi, mass, birth, column, position, speed, parent)
    return _Run(tuple(partition), *(c[:k] for c in forest))


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
