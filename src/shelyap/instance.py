"""Problem data for multi-point moment exponents.

An instance is a horizon t > 0, strictly increasing locations x_1 < ... < x_n,
and integer multiplicities m_i >= 1. The flattened form repeats each location
by its multiplicity: nu = sum(m_i) coordinates u_1 <= ... <= u_nu. Only this
module builds it; route 1 and the quadrature take the instance.

Two equivalent variational objectives; the solvers module minimizes them, and
gamma2_objective evaluates route 2 here verbatim:

    route 1 (per-coordinate drifts a, constraints a_k - a_{k+1} >= 1):
        sum_k (t/2) a_k^2 + u_k a_k

    route 2 (per-location drifts b, constraints b_i - b_{i+1} >= (m_i+m_{i+1})/2):
        sum_i (m_i t / 2)(b_i + x_i/t)^2 + (m_i^3 - m_i) t / 24 - m_i x_i^2 / (2t)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NonPositiveMultiplicity,
    NonPositiveTime,
    UnsortedLocations,
)

# flatten repeats each location by its multiplicity, so nu must be an int64
# array length
_MAX_NU = int(np.iinfo(np.int64).max)
# and flatten takes at most 2^24 coordinates. Route 1 holds several nu-length
# arrays at once, 48 bytes per coordinate at its tracemalloc peak (nu = 10^6),
# so gamma stays under 1 GiB at the cap; past it, arrays that each fit in
# memory could together exceed it, and the process be killed
_MAX_FLAT_NU = 2**24


@dataclass(frozen=True)
class MomentInstance:
    """Validated (t, x, m) triple. Construct through validate_instance."""

    t: float
    x: tuple[float, ...]
    m: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def nu(self) -> int:
        return sum(self.m)


def _reals(values: Sequence, error: type[Exception], what: str) -> tuple[float, ...]:
    for v in values:
        # float() would also take "1" and True; the type test on float
        # first keeps the common case fast
        if type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
            raise error(f"{what} {v!r} is not a real number")
    try:
        return tuple(map(float, values))
    except OverflowError:  # an int past the float range
        raise error(f"a {what} is beyond the float range") from None


def validate_instance(t: float, x: Sequence[float], m: Sequence[int]) -> MomentInstance:
    """Check (t, x, m) and return the frozen instance.

    Raises NonPositiveTime, UnsortedLocations, NonPositiveMultiplicity or
    LengthMismatch. Locations must be strictly increasing; ties are rejected
    rather than merged. t and the locations must be finite real numbers: a
    string, a bool, an infinity or a NaN is NonPositiveTime or
    UnsortedLocations, although float() would take it. A multiplicity must
    be an int or an integral finite float; anything else (1.5, NaN, inf, a
    string) is NonPositiveMultiplicity, and so is a total nu that no int64
    index reaches.
    """
    x = _reals(x, UnsortedLocations, "location")
    m_out = []
    for v in m:
        # is_integer is False for NaN and inf, which int() would not survive
        integral = isinstance(v, (int, np.integer)) or (
            isinstance(v, (float, np.floating)) and float(v).is_integer()
        )
        if not integral or isinstance(v, (bool, np.bool_)):
            raise NonPositiveMultiplicity(f"multiplicity {v!r} is not an integer")
        m_out.append(int(v))
    m = tuple(m_out)
    if len(x) != len(m):
        raise LengthMismatch(f"len(x)={len(x)} but len(m)={len(m)}")
    if len(x) == 0:
        raise LengthMismatch("instance needs at least one location")
    (t,) = _reals((t,), NonPositiveTime, "t")
    if not t > 0.0:
        raise NonPositiveTime(f"t={t} must be > 0")
    if not math.isfinite(t):
        raise NonPositiveTime(f"t={t} must be finite")
    if not all(map(math.isfinite, x)):
        raise UnsortedLocations("locations must be finite")
    for a, b in zip(x, x[1:]):
        if not a < b:
            raise UnsortedLocations(f"locations must be strictly increasing, got {a} before {b}")
    for v in m:
        if v < 1:
            raise NonPositiveMultiplicity(f"multiplicity {v} must be >= 1")
    if sum(m) > _MAX_NU:
        raise NonPositiveMultiplicity(
            f"total multiplicity {sum(m)} exceeds the int64 index range"
        )
    return MomentInstance(t=t, x=x, m=m)


def flatten(inst: MomentInstance) -> np.ndarray:
    """The nu flat coordinates u, each location repeated by its multiplicity.

    u is a read-only, non-decreasing float64 array. Raises
    NonPositiveMultiplicity, before allocating anything, if nu exceeds 2^24,
    or if u cannot be allocated.
    """
    if inst.nu > _MAX_FLAT_NU:
        raise NonPositiveMultiplicity(
            f"total multiplicity {inst.nu} exceeds the {_MAX_FLAT_NU} coordinates flatten takes"
        )
    try:
        u = np.asarray(inst.x, dtype=float).repeat(inst.m)
    except MemoryError:
        raise NonPositiveMultiplicity(
            f"total multiplicity {inst.nu} is too large to flatten in memory"
        ) from None
    u.flags.writeable = False
    return u


def gamma2_objective(inst: MomentInstance, b: Sequence[float]) -> float:
    b = np.asarray(b, dtype=float)
    if b.shape != (inst.n,):
        raise LengthMismatch(f"expected {inst.n} coordinates, got {b.shape}")
    t = inst.t
    x = np.asarray(inst.x)
    m = np.asarray(inst.m, dtype=float)
    kinetic = 0.5 * m * t * (b + x / t) ** 2
    shift = (m**3 - m) * t / 24.0 - m * x * x / (2.0 * t)
    return float((kinetic + shift).sum())
