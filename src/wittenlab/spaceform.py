"""Geometry kernel for the two ambient space forms: flat space and hyperbolic space.

Curvature is restricted to 0 and -1.  The metric coefficient ``S(t)`` (``t``
for flat space, ``sinh t`` for hyperbolic space) and its derivative ``C(t)``
drive everything downstream: radial ODEs, weighted volumes, and the conformal
mass factor of the Poincare disk model.  The spherical-cap case ``+1`` is
rejected up front rather than half-supported.  Weighted volumes and the
Rayleigh integrals of :mod:`wittenlab.radial` share one Chebyshev quadrature
rule, which raises :class:`QuadratureError` when it cannot converge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightFunction

EUCLIDEAN = 0
HYPERBOLIC = -1

# Chebyshev degrees per piece, tried in turn by the radial eigensolver and the
# quadrature rule (round-off grows with the degree), and the number of
# trailing coefficients that must be negligible.
CHEBYSHEV_DEGREES = (24, 32, 48, 64, 96, 128)
TAIL_TERMS = 3
QUADRATURE_RTOL = 1e-13  # integrand tail against its largest coefficient


class QuadratureError(RuntimeError):
    """The Chebyshev quadrature rule did not converge within its degree cap."""


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected space form of curvature ``0`` (flat) or ``-1``."""

    curvature: int

    def __post_init__(self):
        if self.curvature not in (EUCLIDEAN, HYPERBOLIC):
            raise ValueError(
                f"curvature must be 0 or -1, got {self.curvature!r}; "
                "the positively curved case is out of scope"
            )

    @property
    def is_hyperbolic(self) -> bool:
        return self.curvature == HYPERBOLIC


@dataclass(frozen=True)
class BallSpec:
    """Geodesic ball centred at the origin of the ambient space form."""

    radius: float
    dimension: int
    space: SpaceForm

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be positive and finite")
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 2:
            raise ValueError("dimension must be an integer >= 2")


def _check_nonnegative(t: np.ndarray) -> None:
    if np.min(t) < -1e-12:
        raise ValueError("geodesic distance t must be >= 0")


def s_kappa(t, space: SpaceForm):
    """Metric coefficient: ``t`` in flat space, ``sinh t`` in hyperbolic space."""
    arr = np.asarray(t, dtype=float)
    _check_nonnegative(arr)
    if space.is_hyperbolic:
        out = np.sinh(arr)
    else:
        out = arr.copy()
    return out if out.ndim else float(out)


def unit_sphere_area(dimension: int) -> float:
    """Surface measure of the unit sphere bounding the unit ball of ``R^n``.

    Equals ``2 pi^{n/2} / Gamma(n/2)``; the standard library Gamma carries
    more than the required 1e-12 relative accuracy here.
    """
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    n = float(dimension)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def dct(values: np.ndarray, kind: int) -> np.ndarray:
    """Unnormalised DCT of type ``kind`` (1 or 2) along the last axis, in
    ``scipy.fft.dct``'s convention, as one product with a cached matrix."""
    x = np.asarray(values, dtype=float)
    return x @ _cosine_matrix(kind, x.shape[-1])


@functools.lru_cache(maxsize=16)  # the package asks for 2 kinds x 6 degrees
def _cosine_matrix(kind: int, length: int) -> np.ndarray:
    """``C`` with ``dct(x, kind) = x @ C``, read-only: ``c_j cos(pi j k / N)``,
    ``c_j`` 1 at the ends and 2 inside, for type 1 on ``N + 1`` values;
    ``2 cos(pi (2j + 1) k / 2M)`` for type 2 on ``M``.  Each angle's multiple
    of ``pi`` is reduced modulo 2 in integers, so no cosine sees a large angle."""
    j = np.arange(length)[:, None]
    half, rows = (length - 1, j) if kind == 1 else (2 * length, 2 * j + 1)
    matrix = 2.0 * np.cos(math.pi * (rows * j.T % (2 * half)) / half)
    if kind == 1:
        matrix[[0, -1]] *= 0.5
    matrix.setflags(write=False)
    return matrix


def _chebyshev_integrals(integrand, breaks) -> np.ndarray:
    """Integrals over ``[breaks[0], breaks[-1]]`` of the rows of ``integrand(t)``
    (last axis along ``t``) by Fejer's first rule on each piece between breaks:
    the interpolant on ``N + 1`` Chebyshev points of the first kind, which never
    touch an end, integrated exactly.  ``N`` walks ``CHEBYSHEV_DEGREES`` until the
    last ``TAIL_TERMS`` coefficients of every row, on every piece, are at most
    ``QUADRATURE_RTOL`` times its largest; :class:`QuadratureError` at the cap."""
    lo = np.asarray(breaks[:-1], dtype=float)[:, None]
    half = 0.5 * (np.asarray(breaks[1:], dtype=float)[:, None] - lo)
    for N in CHEBYSHEV_DEGREES:
        k = np.arange(N + 1)
        x = np.cos(math.pi * (2 * k + 1) / (2 * N + 2))
        t = lo + half * (1.0 + x)  # (pieces, N + 1)
        values = np.asarray(integrand(t.reshape(-1)), dtype=float)
        coeffs = dct(values.reshape(values.shape[:-1] + t.shape), 2) / (N + 1)
        coeffs[..., 0] *= 0.5
        # T_k integrates to 2 / (1 - k^2) over [-1, 1] for even k, to 0 for odd k
        integrals = (coeffs[..., ::2] @ (2.0 / (1.0 - k[::2] ** 2))) @ half[:, 0]
        size = np.abs(coeffs).max(axis=(-2, -1))
        tail = np.abs(coeffs[..., -TAIL_TERMS:]).max(axis=(-2, -1))
        if np.all(tail <= QUADRATURE_RTOL * size):
            return integrals
    raise QuadratureError(
        f"Chebyshev tail {np.max(tail / np.maximum(size, 1e-300)):.3g} of the integrand "
        f"is above {QUADRATURE_RTOL:.3g} at the degree cap {CHEBYSHEV_DEGREES[-1]}"
    )


def weighted_annulus_volume(
    space: SpaceForm,
    dimension: int,
    phi: WeightFunction,
    inner_radius: float,
    outer_radius: float,
) -> float:
    """Weighted volume of the centred annulus ``inner <= t <= outer``.

    Computed as ``sigma_{n-1} * int S(t)^{n-1} exp(-phi(t)) dt`` by the
    Chebyshev rule :func:`_chebyshev_integrals`, piece by piece between the
    weight's knots.  The weight's cap must cover ``outer_radius``; raises
    :class:`QuadratureError` when the rule cannot meet its tolerance.
    """
    if inner_radius < 0 or outer_radius < inner_radius:
        raise ValueError("need 0 <= inner_radius <= outer_radius")
    if outer_radius > phi.domain_cap * (1.0 + 1e-12):
        raise ValueError(
            f"outer radius {outer_radius:.6g} exceeds the weight's "
            f"cap {phi.domain_cap:.6g}"
        )
    if outer_radius == inner_radius:
        return 0.0

    def integrand(t: np.ndarray) -> np.ndarray:
        return s_kappa(t, space) ** (dimension - 1) * np.exp(-phi.value(t))

    breaks = phi.breaks(inner_radius, outer_radius)
    return unit_sphere_area(dimension) * float(_chebyshev_integrals(integrand, breaks))
