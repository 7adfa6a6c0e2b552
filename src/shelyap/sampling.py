"""Seeded random instances for the verification suites."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .instance import MomentInstance, validate_instance

MIN_GAP = 1e-3
MAX_DRAWS = 200_000


def random_instance(rng: np.random.Generator) -> MomentInstance:
    """Draw t ~ U[0.1, 5], n ~ U{1..6}, m_i ~ U{1..5}, x sorted in [-3, 3].

    Location draws are rejected until every consecutive gap is >= 1e-3.
    """
    t = float(rng.uniform(0.1, 5.0))
    n = int(rng.integers(1, 7))
    m = [int(v) for v in rng.integers(1, 6, size=n)]
    while True:
        x = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if n == 1 or np.min(np.diff(x)) >= MIN_GAP:
            break
    return validate_instance(t, x, m)


def sample_matching(
    rng: np.random.Generator,
    want: Callable[[MomentInstance], bool],
    count: int,
) -> list[MomentInstance]:
    """Rejection-sample `count` instances satisfying `want` in MAX_DRAWS draws."""
    out: list[MomentInstance] = []
    for _ in range(MAX_DRAWS):
        if len(out) == count:
            return out
        inst = random_instance(rng)
        if want(inst):
            out.append(inst)
    raise RuntimeError(f"only {len(out)}/{count} matching instances in {MAX_DRAWS} draws")
