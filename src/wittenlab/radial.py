"""Chebyshev collocation solver for the radial Neumann modes of the weighted
Laplacian.

Separation of variables on a centred ball or shell reduces the eigenproblem
to a one-dimensional equation per spherical-harmonic degree ``l``:

    T'' + ((n-1) C(t)/S(t) - phi'(t)) T' + (mu - l(l+n-2)/S(t)^2) T = 0,

with a regular singular point at ``t = 0`` (indicial roots ``l`` and
``-(l+n-2)``) and Neumann data ``T'=0`` at the outer radius, plus ``T'=0`` at
the inner radius for shells.  With ``T = t^s u`` and a factor ``t`` it reads

    t u'' + p u' + q u + mu t u = 0,      p = 2s + (n-1) t C/S - phi' t,
    q = s((n-1)(C/S - 1/t) - phi') - l(l+n-2)(t/S^2 - 1/t) + (s(s+n-2) - l(l+n-2))/t.

A ball takes ``s = l``, which cancels the ``1/t`` terms: the coefficients are
smooth, and collocation on Chebyshev points of ``[0, R]`` picks the regular
branch by itself (Trefethen, *Spectral Methods in MATLAB*, chapters 6-7 and
11).  A shell takes ``s = 0`` on ``[r_in, r_out]``.  The Neumann rows are
``s u + t u' = 0``; eliminating the values they fix leaves one small dense
eigenproblem per degree, which yields every eigenvalue of that degree.  A
tabulated-spline weight is only C^2, so the interval is split at its knots,
with rows for continuity of ``u`` and ``u'``.  The polynomial degree grows
until the trailing Chebyshev coefficients of the wanted eigenvectors are
negligible, and the zero count of each profile is checked against
oscillation theory, so a spurious eigenvalue cannot silently shift ``which``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .spaceform import (
    CHEBYSHEV_DEGREES, TAIL_TERMS, BallSpec, SpaceForm, _chebyshev_integrals, dct,
    s_kappa, unit_sphere_area,
)
from .weights import WeightFunction

_SERIES_BELOW = 0.1  # hyperbolic corrections switch to their series below
PROFILE_SAMPLES = 2048  # check-grid points per piece: zeros, residuals, monotone mode
MONOTONE_GRID_POINTS = 2000  # the grid of check_lemma_monotone


class ShootingError(RuntimeError):
    """The radial solver failed to meet its accuracy contract."""


@dataclass(frozen=True)
class ShootingOptions:
    """Accuracy contract of the radial solver; the defaults meet it.

    A collocation degree is accepted once, for every wanted eigenvector
    scaled to ``max |u| = 1`` on the nodes, the last three Chebyshev
    coefficients on every piece are at most ``rtol * max |c| + atol``.
    The accepted profile must then satisfy its Neumann condition to
    ``residual_tol`` relative to ``max |T'|``.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    residual_tol: float = 1e-10

    def tightened(self, factor: float = 10.0) -> "ShootingOptions":
        """Stricter copy used by the counterexample protocol."""
        return replace(
            self,
            rtol=self.rtol / factor,
            atol=self.atol / factor,
            residual_tol=self.residual_tol / factor,
        )


DEFAULT_OPTIONS = ShootingOptions()


@dataclass(frozen=True)
class ShellSpec:
    """Centred radial domain: a ball when ``inner_radius == 0``, else a shell."""

    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not (0.0 <= self.inner_radius < self.outer_radius):
            raise ValueError("need 0 <= inner_radius < outer_radius")
        if not np.isfinite(self.outer_radius):
            raise ValueError("outer_radius must be finite")

    def describe(self) -> str:
        """Record tag: ``ball(radius=...)`` or ``shell(inner, outer)``."""
        if self.inner_radius == 0.0:
            return f"ball(radius={self.outer_radius:g})"
        return f"shell({self.inner_radius:g}, {self.outer_radius:g})"


@dataclass
class RadialSolution:
    """Converged radial eigenfunction, normalized to ``max |T| = 1``.

    ``samples`` holds ``u = T / t^s`` and ``u'`` (last axis) on the
    Chebyshev-Lobatto ``nodes`` of each piece; :meth:`profile` interpolates
    them barycentrically.  ``degree`` is the polynomial degree per piece,
    ``tail`` the trailing Chebyshev coefficients against the largest,
    ``residual`` the Neumann residual against ``max |T'|``.
    """

    mu: float
    mode_degree: int
    inner_radius: float
    ball: BallSpec
    phi: WeightFunction
    residual: float
    first_mode_monotone: bool
    degree: int
    tail: float
    nodes: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)

    def profile(self, t):
        """``(f(t), f'(t))`` from one interpolation pass: the profile ``T``
        extended past the ball by its boundary value, ``f(t) = T(min(t, R))``,
        the trial field of the comparison argument, and its derivative,
        ``T'(t)`` for ``t <= R``, else 0.  On ``[0, R]`` these are ``T`` and
        ``T'`` themselves."""
        t = np.asarray(t, dtype=float)
        t_in = np.minimum(t, self.ball.radius)
        value, deriv = _times_power(t_in, self._power, _piecewise(self.nodes, self.samples, t_in))
        return value, np.where(t <= self.ball.radius, deriv, 0.0)

    @property
    def _power(self) -> int:
        return self.mode_degree if self.inner_radius == 0.0 else 0


def _times_power(t, s: int, both):
    """``T = t^s u`` and ``T' = t^s u' + s t^(s-1) u`` from ``both = (u, u')``, last axis."""
    u, dT = both[..., 0], t ** s * both[..., 1]
    return t ** s * u, dT if s == 0 else dT + s * t ** (s - 1) * u


# ---------------------------------------------------------------------------
# Chebyshev machinery


def _chebyshev(a: float, b: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes of ``[a, b]``, ascending, and the
    differentiation matrix on them."""
    j = np.arange(N + 1)
    x = np.sin(math.pi * (2 * j - N) / (2 * N))  # cos(pi (N - j) / N), ascending
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return a + 0.5 * (b - a) * (x + 1.0), D * (2.0 / (b - a))


def _barycentric(x: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Interpolate samples on Chebyshev-Lobatto nodes ``x`` at points ``t``;
    ``values`` runs along ``x`` in its first axis."""
    w = np.ones(len(x))
    w[1::2] = -1.0
    w[0], w[-1] = 0.5, 0.5 * w[-1]
    diff = t[:, None] - x
    hit = np.flatnonzero(diff == 0.0)
    diff.flat[hit] = 1.0
    c = w / diff
    flat = values.reshape(len(x), -1)
    out = (c @ flat) / c.sum(axis=1)[:, None]
    out[hit // len(x)] = flat[hit % len(x)]
    return out.reshape(t.shape + values.shape[1:])


def _lobatto_grid(a, b, m: int) -> np.ndarray:
    """``m`` Lobatto points of ``[a, b]``, ascending, ends exact; a row per ``a, b`` pair."""
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    grid = a + 0.5 * (b - a) * (1.0 - np.cos(math.pi * np.arange(m) / (m - 1)))
    grid[..., :1], grid[..., -1:] = a, b
    return grid


@functools.cache
def _check_matrix(N: int) -> np.ndarray:
    """Barycentric interpolation from the ``N + 1`` Lobatto nodes of ``[-1,
    1]`` to its ``PROFILE_SAMPLES`` Lobatto points, read-only, once per degree."""
    x = _chebyshev(-1.0, 1.0, N)[0]
    matrix = _barycentric(x, np.eye(N + 1), _lobatto_grid(-1.0, 1.0, PROFILE_SAMPLES))
    matrix.setflags(write=False)
    return matrix


def _piecewise(nodes: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Barycentric interpolant of per-piece samples ``values[piece, node, ...]`` at array ``t``."""
    flat = t.reshape(-1)
    piece = np.searchsorted(nodes[1:, 0], flat, side="right")
    out = np.empty(flat.shape + values.shape[2:])
    for k in range(len(nodes)):
        mask = piece == k
        if mask.any():
            out[mask] = _barycentric(nodes[k], values[k], flat[mask])
    return out.reshape(t.shape + values.shape[2:])


def _curvature_corrections(t: np.ndarray, space: SpaceForm):
    """``C/S - 1/t`` and ``t/S^2 - 1/t``: zero in flat space, smooth odd
    functions in hyperbolic space, summed as series near the origin."""
    if not space.is_hyperbolic:
        return np.zeros_like(t), np.zeros_like(t)
    small = t < _SERIES_BELOW
    safe = np.where(small, 1.0, t)
    g1 = 1.0 / np.tanh(safe) - 1.0 / safe
    g2 = safe / np.sinh(safe) ** 2 - 1.0 / safe
    t2 = t * t
    g1s = t * (1 / 3 + t2 * (-1 / 45 + t2 * (2 / 945 + t2 * (-1 / 4725 + t2 * 2 / 93555))))
    g2s = t * (-1 / 3 + t2 * (1 / 15 + t2 * (-2 / 189 + t2 * (1 / 675 - t2 * 2 / 10395))))
    return np.where(small, g1s, g1), np.where(small, g2s, g2)


def _collocation_system(nodes, diffs, s, l, n, space, phi):
    """Operator rows of ``A u = mu t u`` over all pieces, and the mask of
    the rows that are conditions (free of ``mu``) instead of equations."""
    pieces, m = nodes.shape
    size = pieces * m
    t = nodes.reshape(-1)
    nu = l * (l + n - 2)
    slope = np.asarray(phi.slope(t), dtype=float)
    g1, g2 = _curvature_corrections(t, space)
    p = 2 * s + (n - 1) * (1.0 + t * g1) - slope * t
    q = s * ((n - 1) * g1 - slope) - nu * g2
    singular = s * (s + n - 2) - nu  # zero on a ball, where s = l
    if singular:
        q = q + singular / t

    A = np.zeros((size, size))
    for k, D in enumerate(diffs):
        block = slice(k * m, (k + 1) * m)
        A[block, block] = -(t[block, None] * (D @ D) + p[block, None] * D + np.diag(q[block]))

    def neumann(k: int, i: int) -> np.ndarray:
        row = np.zeros(size)
        row[k * m:(k + 1) * m] = nodes[k, i] * diffs[k][i]
        row[k * m + i] += s
        return row

    # The origin row of a ball keeps the equation itself: at t = 0 it is free
    # of mu and reads p(0) u'(0) + q(0) u(0) = 0.
    condition = np.zeros(size, dtype=bool)
    condition[[0, -1]] = True
    if t[0] > 0.0:
        A[0] = neumann(0, 0)
    A[-1] = neumann(pieces - 1, m - 1)
    for k in range(pieces - 1):
        left, right = (k + 1) * m - 1, (k + 1) * m  # the same knot, twice
        condition[[left, right]] = True
        A[left] = 0.0
        A[left, left], A[left, right] = 1.0, -1.0
        A[right] = 0.0
        A[right, k * m:(k + 1) * m] = diffs[k][-1]
        A[right, (k + 1) * m:(k + 2) * m] -= diffs[k + 1][0]
    return A, t, condition


def _eigenpairs(A, t, condition):
    """Eigenpairs of ``A u = mu t u`` on the rows that are equations, with
    the values at the condition nodes eliminated, so that every condition
    holds to round-off whatever the scale of its row."""
    free = ~condition
    elim = -np.linalg.solve(A[np.ix_(condition, condition)], A[np.ix_(condition, free)])
    M = (A[np.ix_(free, free)] + A[np.ix_(free, condition)] @ elim) / t[free, None]
    w, Vf = np.linalg.eig(M)
    V = np.empty((len(t), len(w)), dtype=complex)
    V[free], V[condition] = Vf, elim @ Vf
    return w, V


def _solve_degree(
    l: int, inner: float, outer: float, n: int, space: SpaceForm,
    phi: WeightFunction, count: int, options: ShootingOptions,
) -> list[RadialSolution]:
    """The lowest ``count`` positive eigenpairs of the degree-``l`` problem,
    resolved to the options' tail tolerance and checked."""
    s = l if inner == 0.0 else 0
    length = outer - inner
    breaks = phi.breaks(inner, outer)
    zero_tol = 1e-6 / length ** 2  # the constant mode sits at round-off level

    tail = size = np.ones(1)
    for N in CHEBYSHEV_DEGREES:
        grids = [_chebyshev(a, b, N) for a, b in zip(breaks[:-1], breaks[1:])]
        nodes = np.stack([x for x, _ in grids])
        diffs = np.stack([D for _, D in grids])
        w, V = _eigenpairs(*_collocation_system(nodes, diffs, s, l, n, space, phi))
        real = (
            np.isfinite(w)
            & (np.abs(w.imag) <= 1e-8 * np.maximum(np.abs(w.real), 1.0 / length ** 2))
            & (w.real > -zero_tol)
        )
        order = np.flatnonzero(real)[np.argsort(w.real[real], kind="stable")]
        if l == 0:
            if order.size == 0 or abs(w.real[order[0]]) > zero_tol:
                raise ShootingError("the constant mode is missing from the degree-0 spectrum")
            order = order[1:]
        if order.size < count:
            continue
        order = order[:count]
        vecs = V[:, order].T.reshape(count, len(nodes), N + 1)
        biggest = np.abs(vecs).reshape(count, -1).argmax(axis=1)
        vecs = (vecs / vecs.reshape(count, -1)[np.arange(count), biggest][:, None, None]).real
        coeffs = np.abs(dct(vecs, 1)) / N  # Chebyshev coefficients,
        coeffs[..., [0, -1]] *= 0.5  # from the values on Lobatto nodes
        size = coeffs.reshape(count, -1).max(axis=1)
        tail = coeffs[..., -TAIL_TERMS:].reshape(count, -1).max(axis=1)
        if np.all(tail <= options.rtol * size + options.atol):
            break
    else:
        raise ShootingError(
            f"Chebyshev tail {np.max(tail / size):.3g} of the degree-{l} modes is "
            f"above tolerance at the degree cap {CHEBYSHEV_DEGREES[-1]}"
        )

    # every mode on each piece's check grid; sign: positive next to the inner end; max |T| = 1
    samples = np.stack([vecs, np.einsum("pij,cpj->cpi", diffs, vecs)], axis=-1)
    values, derivs = _on_check_grid(breaks, samples, s)
    factor = np.sign(vecs[:, 0, 0]) / np.max(np.abs(values), axis=1)
    samples = samples * factor[:, None, None, None]
    values, derivs = values * factor[:, None], derivs * factor[:, None]
    solutions = []
    for k in range(count):
        zeros = _count_interior_zeros(values[k, :-1])
        expected = k + (1 if l == 0 else 0)
        if zeros != expected:
            raise ShootingError(
                f"profile has {zeros} interior zeros, oscillation theory demands "
                f"{expected} (l={l}, which={k + 1})"
            )
        ends = derivs[k, [0, -1]] if inner > 0.0 else derivs[k, -1:]
        residual = float(np.max(np.abs(ends)) / max(float(np.max(np.abs(derivs[k]))), 1e-300))
        if residual > options.residual_tol:
            raise ShootingError(
                f"Neumann residual {residual:.3g} above {options.residual_tol:.3g} "
                f"(l={l}, which={k + 1})"
            )
        monotone = True
        if l == 1 and k == 0 and inner == 0.0:
            monotone = bool(np.all(derivs[k, :-1] > 0.0))
            if not monotone:
                warnings.warn(
                    "first-mode radial derivative changes sign inside the ball, so the "
                    "profile is not monotone; the lemma23 check reports where",
                    RuntimeWarning,
                    stacklevel=3,
                )
        solutions.append(RadialSolution(
            mu=float(w.real[order[k]]),
            mode_degree=l,
            inner_radius=inner,
            ball=BallSpec(outer, n, space),
            phi=phi,
            residual=residual,
            first_mode_monotone=monotone,
            degree=N,
            tail=float(tail[k] / size[k]),
            nodes=nodes,
            samples=samples[k],
        ))
    return solutions


def _on_check_grid(breaks, samples: np.ndarray, s: int):
    """``T`` and ``T'`` of ``samples[..., piece, node, (u, u')]`` on
    ``PROFILE_SAMPLES`` Lobatto points of each piece between ``breaks``, last
    axis: every mode, row and piece in one product with :func:`_check_matrix`."""
    both = np.tensordot(_check_matrix(samples.shape[-2] - 1), samples, (1, -2))
    both = np.moveaxis(both, 0, -2).reshape(samples.shape[:-3] + (-1, 2))
    grid = _lobatto_grid(breaks[:-1], breaks[1:], PROFILE_SAMPLES).reshape(-1)
    return _times_power(grid, s, both)


def _count_interior_zeros(values: np.ndarray) -> int:
    scale = np.max(np.abs(values))
    live = values[np.abs(values) > 1e-9 * scale]
    return int(np.sum(np.signbit(live[:-1]) != np.signbit(live[1:])))


def _check_problem(l, which, inner_radius, outer_radius, dimension, phi):
    if l < 0 or which < 1:
        raise ValueError("need mode degree l >= 0 and which >= 1")
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    if not (0.0 <= inner_radius < outer_radius):
        raise ValueError("need 0 <= inner_radius < outer_radius")
    if outer_radius > phi.domain_cap * (1.0 + 1e-12):
        raise ValueError(
            f"outer radius {outer_radius:.6g} exceeds the weight cap "
            f"{phi.domain_cap:.6g}"
        )


def shoot_general_mode(
    l: int,
    inner_radius: float,
    outer_radius: float,
    dimension: int,
    space: SpaceForm,
    phi: WeightFunction,
    which: int = 1,
    options: ShootingOptions = DEFAULT_OPTIONS,
) -> RadialSolution:
    """Solve for the ``which``-th positive eigenvalue of the degree-``l`` mode.

    For ``l = 0`` the constant zero mode is excluded.  Raises
    :class:`ShootingError` when the Chebyshev tail cannot be brought below
    tolerance within the degree cap, when a profile's zero count disagrees
    with oscillation theory, or when the Neumann residual exceeds
    ``options.residual_tol``.
    """
    _check_problem(l, which, inner_radius, outer_radius, dimension, phi)
    return _solve_degree(
        l, inner_radius, outer_radius, dimension, space, phi, which, options
    )[which - 1]


def shoot_first_mode(
    ball: BallSpec, phi: WeightFunction, options: ShootingOptions = DEFAULT_OPTIONS
) -> RadialSolution:
    """Lowest nonzero Neumann eigenvalue of the centred ball.

    This is the degree-1 mode with one radial sign structure: ``T(0) = 0``,
    ``T' > 0`` inside and ``T'(R) = 0``.  Its eigenvalue carries multiplicity
    ``n`` in the full spectrum of the ball.
    """
    return shoot_general_mode(
        1, 0.0, ball.radius, ball.dimension, ball.space, phi, which=1, options=options
    )


def check_lemma_monotone(mode: RadialSolution) -> dict:
    """Verify the two structural facts the comparison argument rests on.

    With ``f, f' = mode.profile``, the ratio ``f(t)/S(t)`` must be
    non-increasing on ``(0, R]`` and ``f'`` must be nonnegative on ``[0, R]``,
    both within ``tol = 1e-8 * max |f|`` on a grid of
    ``MONOTONE_GRID_POINTS`` samples.  Past ``R`` the ratio ``T(R)/S(t)``
    decreases by construction.  Returns the record's ``lemma23`` block, which
    reports the worst violating interval and the smallest ``f'``.
    """
    R = mode.ball.radius
    ts = np.linspace(R / MONOTONE_GRID_POINTS, R, MONOTONE_GRID_POINTS)
    fvals = np.asarray(mode.profile(ts)[0], dtype=float)
    tol = 1e-8 * float(np.max(np.abs(fvals)))

    ratio = fvals / np.asarray(s_kappa(ts, mode.ball.space), dtype=float)
    increments = np.diff(ratio)
    worst_idx = int(np.argmax(increments))
    worst = float(increments[worst_idx])

    inside = np.linspace(0.0, R, MONOTONE_GRID_POINTS)
    fp = np.asarray(mode.profile(inside)[1], dtype=float)
    fp_idx = int(np.argmin(fp))

    return {
        "passed": bool(worst <= tol and fp[fp_idx] >= -tol),
        "tol": tol,
        "grid_points": MONOTONE_GRID_POINTS,
        "worst_increase": worst,
        "worst_interval": (float(ts[worst_idx]), float(ts[worst_idx + 1])),
        "min_fprime": float(fp[fp_idx]),
        "min_fprime_t": float(inside[fp_idx]),
    }


def ball_rayleigh_integrals(
    mode: RadialSolution, lower: float, upper: float
) -> tuple[float, float]:
    """Directional energy and mass integrals of the extended profile
    ``f`` of :meth:`RadialSolution.profile`.

    Returns the pair

        A = sigma_{n-1}/n * int_lower^upper (f'^2 + (n-1) f^2/S^2) S^{n-1} e^{-phi} dt
        B = sigma_{n-1}/n * int_lower^upper f^2 S^{n-1} e^{-phi} dt,

    the weighted Dirichlet energy and mass of one Cartesian component
    ``f(t) x_i / t`` summed over a sphere's worth of directions.  On
    ``[0, R]`` the quotient ``A/B`` reproduces the ball eigenvalue.  Both come
    from the Chebyshev rule of :mod:`wittenlab.spaceform`, or it raises
    :class:`~wittenlab.spaceform.QuadratureError`.
    """
    if not (0.0 <= lower <= upper):
        raise ValueError("need 0 <= lower <= upper")
    if upper == lower:
        return 0.0, 0.0
    n, space, phi = mode.ball.dimension, mode.ball.space, mode.phi
    # the pieces end at the weight's knots and at R, where f' jumps to 0
    breaks = sorted({*phi.breaks(lower, upper), min(max(mode.ball.radius, lower), upper)})

    def densities(t: np.ndarray) -> np.ndarray:
        s = s_kappa(t, space)
        fv, fp = mode.profile(t)
        measure = s ** (n - 1) * np.exp(-phi.value(t))
        return np.stack([(fp * fp + (n - 1) * fv * fv / (s * s)) * measure, fv * fv * measure])

    energy, mass = unit_sphere_area(n) / n * _chebyshev_integrals(densities, breaks)
    return float(energy), float(mass)


def spherical_harmonic_multiplicity(l: int, dimension: int) -> int:
    """Number of independent degree-``l`` spherical harmonics on S^{n-1}."""
    if l < 0 or dimension < 2:
        raise ValueError("need l >= 0 and dimension >= 2")
    if l == 0:
        return 1
    n = dimension
    return (2 * l + n - 2) * math.comb(l + n - 2, l) // (l + n - 2)


def symmetric_spectrum(
    shell: ShellSpec,
    dimension: int,
    space: SpaceForm,
    phi: WeightFunction,
    count: int,
    options: ShootingOptions = DEFAULT_OPTIONS,
) -> np.ndarray:
    """First ``count`` nonzero eigenvalues of a centred ball or shell,
    ascending, each repeated by its multiplicity.

    Aggregates the per-degree radial problems with spherical-harmonic
    multiplicities, one solve per degree ``l = 0, 1, ...``.  The degrees stop
    once the lowest eigenvalue of the next degree reaches the ``count``-th
    value collected so far, which is safe because the angular barrier grows
    monotonically with the degree.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    inner, outer = shell.inner_radius, shell.outer_radius
    _check_problem(0, 1, inner, outer, dimension, phi)

    values = np.empty(0)
    l = 0
    while True:
        modes = _solve_degree(l, inner, outer, dimension, space, phi, count, options)
        if len(values) >= count and modes[0].mu >= values[count - 1]:
            return values[:count]
        mult = spherical_harmonic_multiplicity(l, dimension)
        values = np.sort(np.concatenate([values, np.repeat([m.mu for m in modes], mult)]))
        l += 1
