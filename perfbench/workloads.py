"""The four benchmark workloads: seeded inputs, op schedules and output checks.

Each workload keeps one op kind so its latency has one mode. Its schedule is
a pool of 30 to 68 distinct ops that the loop cycles from the start. A run
gets through its pool at least once even on a slow machine, so the metrics
cover the same ops whatever the machine's speed, and the percentiles, taken
over many instances, move little with the draw.

Sizes and horizons sit on fixed geometric ladders, one rung per pool entry,
and the seed draws everything else (positions, multiplicities, verify seeds).
Every seed therefore runs the same size mix and run-to-run spread comes from
the program, not from the draw. Size and horizon rungs are paired by a
rank-1 lattice, and the pool is ordered by a stride chosen so that every
prefix, such as the part of the last pass a run reaches, covers both ranges
to within about two rungs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `n` is the instance's location count, 0 for verify."""

    argv: tuple[str, ...]
    n: int = 0


def _rungs(index: np.ndarray, cells: int, lo: float, hi: float) -> np.ndarray:
    """Centres of `cells` log-uniform strata of [lo, hi], at the given indices."""
    return lo * (hi / lo) ** ((index + 0.5) / cells)


def _lattice(cells: int, generator: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Rung pairs (a, generator * a mod cells), in the order a = stride * k mod cells."""
    a = (stride * np.arange(cells)) % cells
    return a, (generator * a) % cells


def _sorted_distinct(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    while True:
        x = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or np.min(np.diff(x)) > 0.0:
            return x.tolist()


def _write(workdir: Path, j: int, t: float, x: list[float], m: list[int]) -> str:
    path = workdir / f"inst{j:03d}.json"
    path.write_text(json.dumps({"t": t, "x": x, "m": m}))
    return str(path)


def _ladder_instances(rng, workdir, lattice, n_lo, n_hi):
    """n on a ladder over [n_lo, n_hi], t over [0.2, 2]; m_i in 1..5, x sorted in [-n, n]."""
    cells = lattice[0]
    ns, ts = _lattice(*lattice)
    n_vals = np.rint(_rungs(ns, cells, n_lo, n_hi)).astype(int).tolist()
    t_vals = _rungs(ts, cells, 0.2, 2.0).tolist()
    out = []
    for j, (n, t) in enumerate(zip(n_vals, t_vals)):
        m = rng.integers(1, 6, size=n).tolist()
        x = _sorted_distinct(rng, n, -float(n), float(n))
        out.append((_write(workdir, j, t, x, m), n))
    return out


def gamma_large(rng, workdir: Path, tiny: bool) -> list[Op]:
    # why: gamma on n in [100, 1000] and t spanning many-event and single-block
    # cases; simulate_inertia and gamma3 dominate, so this is where the sticky
    # merge-forest and prefix-sum changes show.
    lattice, lo, hi = ((8, 5, 3), 10, 30) if tiny else ((55, 34, 32), 100, 1000)
    return [Op(("gamma", "--input", path), n)
            for path, n in _ladder_instances(rng, workdir, lattice, lo, hi)]


def clusters_large(rng, workdir: Path, tiny: bool) -> list[Op]:
    # why: full sticky paths through the same clusters layer plus CLI
    # formatting of megabytes of output; a lazy-path change that speeds
    # gamma-large must not slow path output here.
    lattice, lo, hi = ((5, 3, 3), 10, 20) if tiny else ((34, 21, 25), 100, 400)
    insts = _ladder_instances(rng, workdir, lattice, lo, hi)
    return [Op(("clusters", "--input", path, "--format", ("json", "csv")[(k + flip) % 2]), n)
            for flip in (0, 1)  # two passes, so each instance runs in both formats
            for k, (path, n) in enumerate(insts)]


def gamma_high_nu(rng, workdir: Path, tiny: bool) -> list[Op]:
    # why: few locations with multiplicities up to 4e4 (nu ~ 1e4..1e5);
    # route-1 per-coordinate work and the structure check dominate, clustering
    # is trivial, so a sticky-core change should move nothing here.
    m_lo, m_hi = (10, 100) if tiny else (1_000, 40_000)
    ns, ts = _lattice(42, 13, 19)
    n_vals = (2 + ns // 6).tolist()  # n = 2..8, six instances each
    t_vals = _rungs(ts, 42, 0.1, 5.0).tolist()
    # every location gets one multiplicity stratum of a log-uniform law, dealt
    # by a fixed stride so each instance's nu is the same for every seed; the
    # seed draws where in its stratum each multiplicity falls
    total = sum(n_vals)
    strata = (13 * np.arange(total)) % total
    u = (strata + rng.random(total)) / total
    m_all = np.rint(m_lo * (m_hi / m_lo) ** u).astype(int).tolist()
    ops, used = [], 0
    for j, (n, t) in enumerate(zip(n_vals, t_vals)):
        m = m_all[used:used + n]
        used += n
        x = _sorted_distinct(rng, n, -3.0, 3.0)
        ops.append(Op(("gamma", "--input", _write(workdir, j, t, x, m)), n))
    return ops


def verify_small(rng, workdir: Path, tiny: bool) -> list[Op]:
    # why: the cross-check user; the exhaustive oracle and quadrature dominate
    # at n <= 6, which bypasses the sticky core and exposes per-call overhead.
    count, pool = ("2", 4) if tiny else ("30", 30)
    seeds = rng.choice(2**31, size=pool, replace=False).tolist()
    return [Op(("verify", "--seed", str(s), "--count", count)) for s in seeds]


def check_output(op: Op, rc: int, out: str) -> str | None:
    """Return why the op's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    cmd = op.argv[0]
    if cmd == "verify":
        lines = out.rstrip("\n").split("\n")
        return None if lines[-1] == "VERIFY PASS" else f"last line {lines[-1]!r}"
    if cmd == "clusters" and op.argv[-1] == "csv":
        rows = out.rstrip("\n").split("\n")
        if rows[0] != "index,s,zeta,xi":
            return "bad csv header"
        first = sum(1 for r in rows[1:] if r.startswith("1,"))
        if first == 0 or len(rows) - 1 != op.n * first:
            return f"csv has {len(rows) - 1} rows, want n={op.n} x {first} breakpoints"
        return None
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as e:
        return f"output is not JSON: {e}"
    if cmd == "clusters" and len(doc.get("zeta", ())) != op.n:
        return "json paths do not cover every location"
    gamma3 = doc.get("gamma3")
    # %.17g prints an integral float without a point, so JSON reads it as an int
    if cmd == "gamma" and (isinstance(gamma3, bool) or not isinstance(gamma3, (int, float))
                           or not math.isfinite(gamma3)):
        return "gamma report lacks a finite gamma3"
    return None


WORKLOADS: dict[str, tuple[int, Callable[..., list[Op]]]] = {
    "verify-small": (0, verify_small),
    "gamma-large": (1, gamma_large),
    "clusters-large": (2, clusters_large),
    "gamma-high-nu": (3, gamma_high_nu),
}


def make_ops(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """The workload's pool of distinct ops, in the order the loop cycles it."""
    index, make = WORKLOADS[name]
    rng = np.random.default_rng([index, seed])
    return make(rng, workdir, tiny)
