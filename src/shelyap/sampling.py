"""Seeded random instances for the verification suites."""

from __future__ import annotations

from itertools import islice
from typing import Callable

import numpy as np

from .errors import ShelyapError
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
    """Rejection-sample `count` instances satisfying `want` in at most MAX_DRAWS
    draws, the last the one that completes them; ShelyapError if too few match."""
    out = list(islice(filter(want, (random_instance(rng) for _ in range(MAX_DRAWS))), count))
    if len(out) < count:
        raise ShelyapError(f"only {len(out)}/{count} matching instances in {MAX_DRAWS} draws")
    return out
