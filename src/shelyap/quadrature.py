"""Oscillatory contour quadrature for joint moments at scale T.

The moment of an instance at scale T, with u_1 <= ... <= u_nu its flat
coordinates (each location repeated by its multiplicity), is the nu-fold
integral over vertical lines z_j = a_j + i y_j (offsets strictly decreasing,
consecutive gaps > 1 so no pole of 1/(z_A - z_B - 1) touches the surface):

    (2 pi)^(-nu) * integral  prod_{A<B} (z_A - z_B)/(z_A - z_B - 1)
                            * exp( sum_j T t z_j^2 / 2 + T u_j z_j )  dy

evaluated on a tensor Gauss-Legendre grid truncated at |y_j| <= Y, with a
uniform trapezoid rule available as an independent cross-check. The grid sum
is contracted one axis at a time: the Gaussian factor is a product of one
factor per axis, and each pole factor joins two axes. So with p points per
axis it takes nu * p exponentials, not p^nu. At nu = 2 the pole factor is
formed a block of first-axis nodes at a time, about _BLOCK values (64 KiB),
and each node's row is summed as it would be in the whole p x p matrix, so
the bits are the same. At nu = 3 each pole factor is one p x p matrix and the
first axis is summed one node at a time, so memory is O(p^(nu-1)).

The result is real up to quadrature noise; the imaginary residual is a
diagnostic. The value is invariant under a common shift of all offsets, and
is dominated by the integrand's absolute bound

    (2 pi T t)^(-nu/2) * prod_{A<B} |(a_A - a_B)/(a_A - a_B - 1)|
                       * exp( sum_j T t a_j^2 / 2 + T u_j a_j ).

For nu = 1 the moment is exactly the heat kernel p(T t, T u_1).

The default contour is centred on -sum(u)/(nu t), the route-1 minimizer's mean
(pooling keeps sums), read from the instance: this module shares no code with
the three routes, so it checks them independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidContour,
    LengthMismatch,
    NonFiniteResult,
    NonPositiveTime,
    NuTooLarge,
)
from .instance import MomentInstance, flatten

MAX_NU = 3
DEFAULT_SIGMAS = 8.0
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
_BLOCK = 4096  # complex values per nu = 2 pole block; bounds its scratch memory


def heat_kernel(time: float, space: float) -> float:
    """Gaussian kernel p(time, space) = exp(-space^2/(2 time))/sqrt(2 pi time)."""
    if not time > 0.0:
        raise NonPositiveTime(f"kernel time {time} must be > 0")
    return math.exp(-space * space / (2.0 * time)) / math.sqrt(2.0 * math.pi * time)


def _check_scale(T: float, t: float) -> None:
    if not T > 0.0:
        raise NonPositiveTime(f"T={T} must be > 0")
    if not math.isfinite(T):
        raise NonPositiveTime(f"T={T} must be finite")
    if not 0.0 < T * t < math.inf:
        raise NonPositiveTime(f"kernel time T*t={T * t} must be > 0 and finite")


def _check_offsets(offsets: tuple[float, ...]) -> None:
    for hi, lo in zip(offsets, offsets[1:]):
        if not hi - lo > 1.0:
            raise InvalidContour(
                f"offset gap {hi - lo} must exceed 1 to clear the pole"
            )


@dataclass(frozen=True)
class ContourConfig:
    """Offsets of the vertical contours plus truncation and grid resolution."""

    offsets: tuple[float, ...]
    truncation: float
    points: int
    rule: str = "gauss"

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(float(a) for a in self.offsets))
        _check_offsets(self.offsets)
        if not self.truncation > 0.0:
            raise InvalidContour(f"truncation {self.truncation} must be > 0")
        if self.points < 8:
            raise InvalidContour(f"points {self.points} must be >= 8")
        if self.rule not in ("gauss", "trapezoid"):
            raise InvalidContour(f"unknown rule {self.rule!r}")


def default_contour_config(
    T: float,
    inst: MomentInstance,
    points: int | None = None,
    truncation_sigmas: float = DEFAULT_SIGMAS,
    rule: str = "gauss",
    offsets: Sequence[float] | None = None,
) -> ContourConfig:
    """The given offsets, else uniform gap 1 + 1/nu centred on -sum(u)/(nu t).

    That centre, the route-1 minimizer's mean (pooling keeps sums), comes from
    the instance, not a solver; NonFiniteResult if it is not finite, and
    InvalidContour if it is so large that float64 loses the gap.
    """
    _check_scale(T, inst.t)
    nu = inst.nu
    if nu > MAX_NU:
        raise NuTooLarge(f"nu={nu} exceeds tensor-grid cap {MAX_NU}")
    if offsets is None:
        center = -float(np.sum(flatten(inst))) / inst.t / nu
        if not math.isfinite(center):
            raise NonFiniteResult(f"contour centre -sum(u)/(nu t) = {center} is not finite")
        gap = 1.0 + 1.0 / nu
        offsets = tuple(center + gap * ((nu + 1) / 2.0 - k) for k in range(1, nu + 1))
        if any(not hi - lo > 1.0 for hi, lo in zip(offsets, offsets[1:])):
            raise InvalidContour(
                f"contour centre -sum(u)/(nu t) = {center} is too large for float64"
                f" to keep the offset gap 1 + 1/nu = {gap}"
            )
    if points is None:
        points = 200 if nu <= 2 else 96
    return ContourConfig(
        offsets=offsets,
        truncation=truncation_sigmas / math.sqrt(T * inst.t),
        points=points,
        rule=rule,
    )


@functools.lru_cache(maxsize=8)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    nodes, wts = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def _grid(cfg: ContourConfig) -> tuple[np.ndarray, np.ndarray]:
    if cfg.rule == "gauss":
        nodes, wts = _leggauss(cfg.points)
        return cfg.truncation * nodes, cfg.truncation * wts
    y = np.linspace(-cfg.truncation, cfg.truncation, cfg.points)
    h = y[1] - y[0]
    w = np.full(cfg.points, h)
    w[0] = w[-1] = h / 2.0
    return y, w


def _pole(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """The pole factor (z_a - z_b)/(z_a - z_b - 1) on two axes, as a matrix."""
    diff = za[:, None] - zb
    return diff / (diff - 1.0)


def contour_moment_complex(T: float, inst: MomentInstance, cfg: ContourConfig) -> complex:
    """Tensor-grid value of the contour integral, imaginary residual included."""
    _check_scale(T, inst.t)
    nu = inst.nu
    if nu > MAX_NU:
        raise NuTooLarge(f"nu={nu} exceeds tensor-grid cap {MAX_NU}")
    u = flatten(inst)
    if len(cfg.offsets) != nu:
        raise LengthMismatch(f"{len(cfg.offsets)} offsets for nu={nu}")
    y, w = _grid(cfg)
    t = inst.t
    z = [a + 1j * y for a in cfg.offsets]
    f = [w * np.exp(0.5 * T * t * zj * zj + T * uj * zj) for zj, uj in zip(z, u)]
    if nu == 1:
        total = f[0].sum()
    else:
        # rows[j] sums the axes after the first at the first axis's node j
        if nu == 2:
            # a block of first-axis nodes at a time; each row is summed
            # alone, as in the whole p x p matrix
            rows = np.empty(len(y), complex)
            step = max(1, _BLOCK // len(y))
            for j in range(0, len(y), step):
                rows[j : j + step] = (_pole(z[0][j : j + step], z[1]) * f[1]).sum(axis=1)
        else:
            # one node of the first axis at a time: no array exceeds points^2
            near = _pole(z[0], z[1]) * f[1]
            far = _pole(z[0], z[2]) * f[2]
            pair = _pole(z[1], z[2])
            rows = np.array([(near[j] * (pair * far[j]).sum(axis=1)).sum()
                             for j in range(len(y))])
        total = (f[0] * rows).sum()
    return complex(total / (2.0 * math.pi) ** nu)


def upper_bound_value(
    T: float, inst: MomentInstance, offsets: tuple[float, ...]
) -> float:
    """Absolute-integrand bound on the moment; NonFiniteResult if it overflows."""
    _check_scale(T, inst.t)
    nu, t = inst.nu, inst.t
    if len(offsets) != nu:
        raise LengthMismatch(f"{len(offsets)} offsets for nu={nu}")
    _check_offsets(tuple(float(a) for a in offsets))
    log_val = -0.5 * nu * math.log(2.0 * math.pi * T * t)
    for a in range(nu):
        for b in range(a + 1, nu):
            g = offsets[a] - offsets[b]
            log_val += math.log(abs(g / (g - 1.0)))
    # left to right from 0.0, as the package adds everywhere; from Python 3.12
    # on, sum() of floats compensates
    exponent = 0.0
    for a, u in zip(offsets, flatten(inst)):
        exponent += 0.5 * T * t * a * a + T * u * a
    log_val += exponent
    if not log_val <= _LOG_FLOAT_MAX:
        raise NonFiniteResult(f"bound exp({log_val}) is beyond the float range")
    return math.exp(log_val)
