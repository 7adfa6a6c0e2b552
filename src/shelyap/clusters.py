"""Deterministic sticky-cluster dynamics on [0, t].

Each location x_i carries mass m_i and starts with speed

    phi_i = (m_{i+1} + ... + m_n)/2 - (m_1 + ... + m_{i-1})/2,

so total momentum sum(m_i phi_i) is exactly zero. initial_speeds gives these
speeds exactly in floating point while nu = m_1 + ... + m_n <= 2^53, and
rounds them past that. Clusters move ballistically; when adjacent clusters
meet they merge, conserving mass and momentum (the merged speed is the
mass-weighted average). A merge happening exactly at s = t is included. The
surviving clusters at time t define the optimal partition B_1, ..., B_qhat
into contiguous index blocks, each with terminal position zeta_B(t) and drift
v_j = zeta_B(t)/t.

The run's only record is its merge forest, and the event loop writes only
the forest: the locations are its leaves and each merge group a node (see
_Run), which sits at birth position + speed * (s - birth) until it merges
again. Every value is the loop's own, a leaf's speed (m_i phi_i)/m_i
included. The merge log is the nodes after the leaves: each one's birth,
position and speed, with its children (_Paths.merged). simulate_inertia
builds one MergeEvent per node from it; `clusters` prints it straight from
the forest columns and builds none.

Each index has two paths on the breakpoints {0, merge times, t}:

    inertia path   zeta_i(s): the simulated trajectory;
    optimal path   xi_i(s) = zeta_i(s) - v_j s, the drift-removed trajectory,
                   which returns to zero at s = t.

Indices that share a forest node share their paths from its birth on, so
_Paths evaluates them by node, one span per node, a chunk of rows at a time;
`clusters` prints each chunk's spans (having proved them finite from each
span's ends), and simulate_inertia, the library's dense expansion, fills one
read-only (n, K) family, zeta, from them.
The recursion and physics checks and first_optimal_merge read the forest
through _Paths; gamma, sweep and the structure check read it bare, all in
O(n + events) memory.

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
adjacent pairs, left to right. Each group sums its nodes' masses, momenta
and mass-weighted positions left to right from 0.0. That is what sum() did
up to Python 3.11; the compensated float sum() of 3.12 would make the bits
of a group of three or more depend on the Python version. The pairs that a
pass forms cascade at the same s as the next pass, with their own merge
groups, while their candidates fall in the window. A contact at s = 0 thus
merges at the first batch, and a multi-way collision resolves into one or
more merge groups at one timestamp.
"""

from __future__ import annotations

import functools
import heapq
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
    """Momentum-balancing initial speeds, exact in binary floating point while
    nu = sum(m) <= 2^53, where every cumulative mass is an exact integer.

    Past that they round: m = 2^60, 1, 1, 2^60 gives 0.0 for both middle
    leaves, whose exact speeds are 0.5 and -0.5.
    """
    m = np.asarray(m, dtype=float)
    cum = m.cumsum()
    return 0.5 * ((m.sum() - cum) - (cum - m))


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
    """Terminal partition, per-block data, merge log and the expanded inertia paths."""

    partition: tuple[tuple[int, ...], ...]
    cluster_masses: tuple[float, ...]
    terminal_positions: tuple[float, ...]
    drifts: tuple[float, ...]
    events: tuple[MergeEvent, ...]
    inertia_paths: tuple[PiecewiseLinearPath, ...]

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


@dataclass(frozen=True)
class FirstMerge:
    """State extracted at the first merge time s0."""

    s0: float
    x_prime: tuple[float, ...]
    m_prime: tuple[int, ...]
    xi_at_s0: tuple[float, ...]


def simulate_inertia(inst: MomentInstance) -> ClusterResult:
    """Run the sticky dynamics to time t and expand the inertia path of every index.

    The grid is 0, then each merge time once, then t. Column 0 holds the
    locations, and a merge time's column the state after all its merges.
    Each forest node's span (see _Paths) fills its index rows from its birth
    column up to its parent's, a chunk of rows at a time. Row i's optimal
    path is zeta.values - drift * breakpoints, with drift its block's.
    """
    run = _simulate(inst)
    paths = _Paths(run, inst.t)
    zeta = np.empty((inst.n, len(paths.grid)))
    for r0, r1, nodes, where, z, _ in paths.chunks(xi=False):
        zeta[r0:r1] = z[paths.cells(nodes, where)].reshape(r1 - r0, -1)
    grid = tuple(paths.grid.tolist())
    # rows are shared views, so keep them immutable like the frozen result
    zeta.flags.writeable = False
    return ClusterResult(
        partition=run.partition,
        cluster_masses=tuple(float(sum(inst.m[b[0] - 1 : b[-1]])) for b in run.partition),
        terminal_positions=tuple(paths.terminal.tolist()),
        drifts=tuple(paths.drift.tolist()),
        events=tuple(map(MergeEvent, paths.birth[inst.n :].tolist(), paths.merged(),
                         paths.position[inst.n :].tolist(), paths.speed[inst.n :].tolist())),
        inertia_paths=tuple(PiecewiseLinearPath(grid, row) for row in zeta),
    )


class _Paths:
    """A run's forest as arrays (root: the block roots in block order), and its
    two path families by forest node, evaluated a chunk of rows at a time.

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
        self.lo, self.hi, column, parent = np.array((run.lo, run.hi, run.column, run.parent))
        self.position, self.speed, self.birth, self.mass = np.array(
            (run.position, run.speed, run.birth, run.mass))
        g = np.empty(column[-1] + 1)
        g[column] = self.birth
        self.grid = np.append(g, t) if g[-1] < t else g
        self.start, self.parent = column, parent
        self.n = run.partition[-1][-1]
        # a block's terminal position is the last value of its root's span
        root = (parent < 0).nonzero()[0]
        self.root = root = root[self.lo[root].argsort()]
        self.terminal = self._zeta(root, len(self.grid) - 1)
        self.drift = self.terminal / t
        self.node_drift = self.drift.repeat(self.hi[root] - self.lo[root] + 1)[self.lo - 1]

    @functools.cached_property
    def size(self) -> np.ndarray:
        """Each node's span length, in grid columns; only the path readers ask."""
        return np.where(self.parent < 0, len(self.grid), self.start[self.parent]) - self.start

    def merged(self) -> list[tuple[tuple[int, int], ...]]:
        """The merge log's children: for each node after the leaves, in node
        order, its children's (lo, hi) intervals, in index order."""
        child = np.lexsort((self.lo, self.parent))[len(self.root) :]  # roots sort first
        pairs = list(zip(self.lo[child].tolist(), self.hi[child].tolist()))
        ends = np.bincount(self.parent[child])[self.n :].cumsum().tolist()
        return [tuple(pairs[a:b]) for a, b in zip([0, *ends], ends)]

    def _zeta(self, node: np.ndarray, col: np.ndarray | int) -> np.ndarray:
        z = self.position[node]
        zeta = z + self.speed[node] * (self.grid[col] - self.birth[node])
        born = col == self.start[node]
        zeta[born] = z[born]
        return zeta

    def chunks(self, xi: bool = True):
        """Rows r0..r1 - 1 a chunk at a time, with the nodes whose spans make
        them up, in node order; where, the positions in nodes of each row's
        spans, row by row in column order; and zeta and xi (None unless asked
        for) of the nodes' spans laid end to end. A span is evaluated once in
        each chunk that it meets."""
        rows = max(self.ROWS, self.VALUES // len(self.grid))
        # one slot past the nodes, -1 with an empty span, ends each climb
        parent, spans = np.append(self.parent, -1), np.append(self.size > 0, False)
        for r0 in range(0, self.n, rows):
            r1 = min(self.n, r0 + rows)
            level = np.arange(r0, r1)
            table = [level]
            while (level := parent[level]).max() >= 0:
                table.append(level)
            table = np.stack(table, axis=1)
            nodes, where = np.unique(table[spans[table]], return_inverse=True)
            size = self.size[nodes]
            node = np.repeat(nodes, size)
            col = np.repeat(self.start[nodes] - (np.cumsum(size) - size), size)
            col += np.arange(len(node))
            zeta = self._zeta(node, col)
            yield r0, r1, nodes, where, zeta, (
                zeta - self.node_drift[node] * self.grid[col] if xi else None)

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
    # the locations' candidates in one pass: at s = 0 a pair's gap is
    # x_{a+1} - x_a and its candidate 0.0 + gap / closing is gap / closing
    x = inst.x
    heap = [((x[a + 1] - x[a]) / closing, a, a + 1)
            for a, closing in enumerate(map(sub, speed[: n - 1], speed[1:n])) if closing > 0.0]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    k, col = n, 0  # the next free node slot, the last grid column
    while heap:
        c, a, b = heap[0]
        if parent[a] >= 0 or nxt[a] != b:
            heappop(heap)  # a stale entry: a merge has changed the pair
            continue
        if not c <= t + tol:
            break
        # the earliest live candidate sets the batch time and its grid column
        s, col = min(c, t), col + 1
        limit = s + tol
        while True:
            # one cascade pass: the left nodes of the live pairs due by limit,
            # in index order; the batch ends with a pass that finds none
            due = []
            while heap and heap[0][0] <= limit:
                _, a, b = heappop(heap)
                if parent[a] < 0 and nxt[a] == b:
                    due.append(a)
            if not due:
                break
            due.sort(key=lo.__getitem__)
            # each run of adjacent due pairs merges as one group: walk it from
            # its first node to the right node of its last pair, summing left
            # to right from 0.0 as sum() does up to Python 3.11
            k0, j, end = k, 0, len(due) - 1
            while j <= end:
                first = g = due[j]
                while j < end and due[j + 1] == nxt[g]:
                    j += 1
                    g = due[j]
                last, g = nxt[g], first
                total = num = p = 0.0
                while True:
                    total += mass[g]
                    num += mass[g] * (position[g] + speed[g] * (s - birth[g]))
                    p += mom[g]
                    parent[g] = k
                    if g == last:
                        break
                    g = nxt[g]
                left, right = prv[first], nxt[last]
                lo[k], hi[k], mass[k], mom[k], speed[k] = lo[first], hi[last], total, p, p / total
                birth[k], column[k], position[k], prv[k], nxt[k] = s, col, num / total, left, right
                nxt[left] = prv[right] = k
                k += 1
                j += 1
            # each merged cluster forms new pairs with its neighbours; two of
            # them may be neighbours, so a pass of several pushes each pair once
            if k - k0 == 1:
                lefts = (left, k - 1)
            else:
                lefts = sorted({g for j in range(k0, k) for g in (prv[j], j)})
            # queue each pair (a, nxt[a]) that closes in at the time it would
            # collide; one of its nodes is born at s, the later birth, so the
            # gap is measured there
            for a in lefts:
                b = nxt[a]
                if a >= 0 and b >= 0 and (closing := speed[a] - speed[b]) > 0.0:
                    gap = (position[b] + speed[b] * (s - birth[b])
                           - (position[a] + speed[a] * (s - birth[a])))
                    heappush(heap, (s + gap / closing, a, b))
    partition, a = [], nxt[-1]
    while a >= 0:
        partition.append(tuple(range(lo[a], hi[a] + 1)))
        a = nxt[a]
    forest = (lo, hi, mass, birth, column, position, speed, parent)
    return _Run(tuple(partition), *(c[:k] for c in forest))


def first_optimal_merge(inst: MomentInstance) -> FirstMerge:
    """Collapse the instance at the first merge time s0.

    Locations sharing a cluster at s0 collapse to one location at their common
    drift-removed position xi(s0); the reduced instance (t - s0, x', m') has
    strictly fewer locations. Raises NoMerge if nothing merges by t.
    The clusters alive at s0 are the nodes whose span covers c0, the grid
    column where every merge at s0 lands; x' is their xi there, as printed.
    """
    run = _simulate(inst)
    if len(run.lo) == inst.n:
        raise NoMerge("no merge event in [0, t]")
    paths = _Paths(run, inst.t)
    c0 = run.column[inst.n]
    node = np.flatnonzero((paths.start <= c0) & (c0 < paths.start + paths.size))
    node = node[np.argsort(paths.lo[node])]
    lo = paths.lo[node]
    x_prime = paths._zeta(node, c0) - paths.node_drift[node] * paths.grid[c0]
    # exact integer masses: float sums round once nu passes 2^53
    m_prime = np.add.reduceat(np.asarray(inst.m, dtype=np.int64), lo - 1)
    return FirstMerge(
        s0=run.birth[inst.n],
        x_prime=tuple(x_prime.tolist()),
        m_prime=tuple(m_prime.tolist()),
        xi_at_s0=tuple(np.repeat(x_prime, np.diff(lo, append=inst.n + 1)).tolist()),
    )


def separation_margins(inst: MomentInstance, partition: Sequence[Sequence[int]]) -> np.ndarray:
    """Strict slack of consecutive terminal blocks.

    Entry k is com_x(B_{k+1}) - com_x(B_k) - (mass(B_k) + mass(B_{k+1})) t / 2;
    every entry is positive iff consecutive blocks stay apart on [0, t].
    """
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    sizes = np.fromiter(map(len, partition), dtype=np.intp)
    starts = sizes.cumsum() - sizes
    masses = np.add.reduceat(m, starts)
    coms = np.add.reduceat(m * x, starts) / masses
    return (coms[1:] - coms[:-1]) - (masses[:-1] + masses[1:]) * inst.t / 2.0
