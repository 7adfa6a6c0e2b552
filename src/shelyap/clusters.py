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
again. With the times the loop stepped to, the forest fixes every position.

simulate_inertia alone, for `clusters`, expands it into two read-only (n, K)
path families on the breakpoints {0, merge times, t}; row i is index i's

    inertia path   zeta_i(s): the simulated trajectory;
    optimal path   xi_i(s) = zeta_i(s) - v_j s, the drift-removed trajectory,
                   which returns to zero at s = t.

gamma, sweep and the verify checks read the forest, in O(n + events) memory.

The simulation is event-driven and keeps the live clusters as parallel arrays
(first index, mass, momentum, position). Candidate collision times are exact
ratios gap / closing-speed, computed for all adjacent pairs in one array
expression; two candidates within 1e-12 * (1 + t) of each other count as
simultaneous, and merging cascades within one event batch until no adjacent
pair is in contact. Multi-way collisions therefore resolve into one or more
merge groups recorded at the same timestamp, left to right. The scan that
ends a cascade also gives the next event.
"""

from __future__ import annotations

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
    """A run's partition, merge log and every time the loop stepped to, t last."""

    partition: tuple[tuple[int, ...], ...]
    events: tuple[MergeEvent, ...]
    steps: tuple[float, ...]


@dataclass(frozen=True)
class FirstMerge:
    """State extracted at the first merge time s0."""

    s0: float
    x_prime: tuple[float, ...]
    m_prime: tuple[int, ...]
    xi_at_s0: tuple[float, ...]


def simulate_inertia(inst: MomentInstance) -> ClusterResult:
    """Run the sticky dynamics to time t and expand the paths of every index.

    Each forest node writes its birth position and speed into its index rows,
    and every row moves by speed * step over the loop's steps, in the loop's
    arithmetic, so every value has the loop's bits.
    """
    partition, events, steps = _simulate(inst)
    t = inst.t
    batches: dict[float, list[MergeEvent]] = {}
    for e in events:
        batches.setdefault(e.time, []).append(e)
    z = np.array(inst.x, dtype=float)
    v = initial_speeds(inst.m)
    grid, columns = [0.0], [z.copy()]
    s = 0.0
    for step in steps:  # the last step is to t
        z += v * (step - s)
        s = step
        if s in batches or s == t:
            for e in batches.get(s, ()):
                lo, hi = e.merged[0][0] - 1, e.merged[-1][1]
                z[lo:hi], v[lo:hi] = e.position, e.speed
            grid.append(s)
            columns.append(z.copy())
    terminal = z[[b[0] - 1 for b in partition]]
    drift = terminal / t
    grid = tuple(grid)
    zeta = np.stack(columns, axis=1)
    xi = zeta - np.repeat(drift, [len(b) for b in partition])[:, None] * np.array(grid)
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
    """The event loop, in O(n + events) memory."""
    t, n = inst.t, inst.n
    tol = event_tolerance(t)
    # live clusters as parallel arrays; first[j] is the first index of cluster
    # j and first[-1] = n + 1, so first[1:] - first[:-1] gives the sizes
    first = np.arange(1, n + 2)
    mass = np.array(inst.m, dtype=float)
    mom = mass * initial_speeds(inst.m)
    pos = np.array(inst.x, dtype=float)
    speed = mom / mass
    events: list[MergeEvent] = []
    steps: list[float] = []
    s = 0.0
    arrived = False  # contacts count only at a time reached by a move
    while len(pos) > 1:
        closing = speed[:-1] - speed[1:]
        cand = s + np.divide(pos[1:] - pos[:-1], closing,
                             out=np.full(len(closing), np.inf), where=closing > 0.0)
        touching = (cand <= s + tol).nonzero()[0].tolist() if arrived else []
        if touching:
            # one cascade pass: merge every run of adjacent pairs in contact;
            # group sums stay Python sums, left to right
            runs: list[list[int]] = []
            for j in touching:
                if runs and runs[-1][1] == j:
                    runs[-1][1] = j + 1
                else:
                    runs.append([j, j + 1])
            keep = np.ones(len(first), dtype=bool)
            for j0, j1 in runs:
                ms = mass[j0 : j1 + 1].tolist()
                xs = pos[j0 : j1 + 1].tolist()
                bounds = first[j0 : j1 + 2].tolist()
                total = sum(ms)
                com = sum(a * b for a, b in zip(ms, xs)) / total
                p = sum(mom[j0 : j1 + 1].tolist())
                mom[j0], mass[j0], pos[j0] = p, total, com
                keep[j0 + 1 : j1 + 1] = False
                events.append(MergeEvent(
                    time=s,
                    merged=tuple((lo, nxt - 1) for lo, nxt in zip(bounds, bounds[1:])),
                    position=com,
                    speed=p / total,
                ))
            first = first[keep]
            keep = keep[:-1]
            mass, mom, pos = mass[keep], mom[keep], pos[keep]
            speed = mom / mass
            continue
        # no pair in contact: this scan also gives the next event
        s_next = float(cand.min())
        if not s_next <= t + tol:
            break
        s_evt = min(s_next, t)
        pos += speed * (s_evt - s)
        s, arrived = s_evt, True
        steps.append(s)
    if s < t:
        steps.append(t)
    bounds = first.tolist()
    partition = tuple(tuple(range(lo, nxt)) for lo, nxt in zip(bounds, bounds[1:]))
    return _Run(partition, tuple(events), tuple(steps))


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
    k = res.inertia_paths[0].breakpoints.index(s0)
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
