"""Deterministic sticky-cluster dynamics on [0, t].

Each location x_i carries mass m_i and starts with speed

    phi_i = (m_{i+1} + ... + m_n)/2 - (m_1 + ... + m_{i-1})/2,

so total momentum sum(m_i phi_i) is exactly zero. Clusters move ballistically;
when adjacent clusters meet they merge, conserving mass and momentum (the
merged speed is the mass-weighted average). A merge happening exactly at s = t
is included. The surviving clusters at time t define the optimal partition
B_1, ..., B_qhat into contiguous index blocks, each with terminal position
zeta_B(t) and drift v_j = zeta_B(t)/t.

Two path families are recorded per original index i on a shared breakpoint
grid {0, merge times, t} of K points:

    inertia path   zeta_i(s): the simulated trajectory;
    optimal path   xi_i(s) = zeta_i(s) - v_j s, the drift-removed trajectory,
                   which returns to zero at s = t.

Each family is one read-only (n, K) float array; path i's `values` is row i
of it, a NumPy view. Recording them takes O(n K) memory, so the callers that
need only the partition and the merge log (gamma, sweep, the verify checks
that read no path) run the same event loop with recording off, in O(n) memory.

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
from typing import Sequence

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
    """One merge group: the pre-merge member intervals it combined."""

    time: float
    merged: tuple[tuple[int, int], ...]
    position: float


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """A path's values at the breakpoints; it is linear in between."""

    breakpoints: tuple[float, ...]
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Terminal partition, per-block data, merge log and recorded paths.

    momentum_at_breakpoints holds sum(mass * speed) over live clusters right
    after each recorded breakpoint; conservation keeps every entry at zero up
    to rounding.
    """

    partition: tuple[tuple[int, ...], ...]
    cluster_masses: tuple[float, ...]
    terminal_positions: tuple[float, ...]
    drifts: tuple[float, ...]
    events: tuple[MergeEvent, ...]
    inertia_paths: tuple[PiecewiseLinearPath, ...]
    optimal_paths: tuple[PiecewiseLinearPath, ...]
    momentum_at_breakpoints: tuple[float, ...]

    @property
    def q_hat(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class _Partition:
    """Terminal partition and merge log of a run that recorded no paths."""

    partition: tuple[tuple[int, ...], ...]
    events: tuple[MergeEvent, ...]

    @property
    def q_hat(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class FirstMerge:
    """State extracted at the first merge time s0."""

    s0: float
    x_prime: tuple[float, ...]
    m_prime: tuple[int, ...]
    xi_at_s0: tuple[float, ...]


def simulate_inertia(inst: MomentInstance) -> ClusterResult:
    """Run the sticky dynamics to time t and record paths and merge events."""
    return _simulate(inst, paths=True)


def _sticky_partition(inst: MomentInstance) -> _Partition:
    """The same run as simulate_inertia, keeping only the partition and events."""
    return _simulate(inst, paths=False)


def _simulate(inst: MomentInstance, paths: bool) -> ClusterResult | _Partition:
    """The event loop; with paths off it records no snapshot or momentum."""
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
    times: list[float] = []
    snaps: list[np.ndarray] = []
    momenta: list[float] = []

    def record(s: float) -> None:
        if paths:
            times.append(s)
            snaps.append(np.repeat(pos, first[1:] - first[:-1]))
            momenta.append(sum((mass * speed).tolist()))

    record(0.0)
    s = 0.0
    arrived = merged = False  # contacts count only at a time reached by a move
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
                mom[j0] = sum(mom[j0 : j1 + 1].tolist())
                mass[j0], pos[j0] = total, com
                keep[j0 + 1 : j1 + 1] = False
                events.append(MergeEvent(
                    time=s,
                    merged=tuple((lo, nxt - 1) for lo, nxt in zip(bounds, bounds[1:])),
                    position=com,
                ))
            first = first[keep]
            keep = keep[:-1]
            mass, mom, pos = mass[keep], mom[keep], pos[keep]
            speed = mom / mass
            merged = True
            continue
        # no pair in contact: this scan also gives the next event
        if merged:
            record(s)
            merged = False
        s_next = float(cand.min())
        if not s_next <= t + tol:
            break
        s_evt = min(s_next, t)
        pos += speed * (s_evt - s)
        s, arrived = s_evt, True
    if merged:
        record(s)
    if s < t:
        pos += speed * (t - s)
    if paths and times[-1] < t:
        record(t)

    bounds = first.tolist()
    partition = tuple(tuple(range(lo, nxt)) for lo, nxt in zip(bounds, bounds[1:]))
    if not paths:
        return _Partition(partition=partition, events=tuple(events))
    drift = pos / t
    grid = tuple(times)
    zeta = np.stack(snaps, axis=1)
    xi = zeta - np.repeat(drift, first[1:] - first[:-1])[:, None] * np.array(grid)
    # rows are shared views, so keep them immutable like the frozen result
    zeta.flags.writeable = xi.flags.writeable = False
    return ClusterResult(
        partition=partition,
        cluster_masses=tuple(mass.tolist()),
        terminal_positions=tuple(pos.tolist()),
        drifts=tuple(drift.tolist()),
        events=tuple(events),
        inertia_paths=tuple(PiecewiseLinearPath(grid, row) for row in zeta),
        optimal_paths=tuple(PiecewiseLinearPath(grid, row) for row in xi),
        momentum_at_breakpoints=tuple(momenta),
    )


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
