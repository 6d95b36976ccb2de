"""Radial log-density weights and their admissibility certification.

A weight is a radial function ``phi(t)`` entering the measure
``exp(-phi) dv``.  Every result downstream assumes two pointwise conditions
on ``[0, domain_cap]``: the weight is non-increasing (``phi' <= 0``) and
convex (``phi'' >= 0``).  Certification samples both derivatives on a uniform
grid and stamps the weight object; geometry and solver routines refuse
uncertified weights.  The grid check is a finite surrogate for the condition
on the whole half line, which is why every report records the cap it was
certified on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

FAMILIES = ("constant", "linear-decreasing", "exponential-decay", "tabulated-spline")

CERTIFY_TOL = 1e-10
DEFAULT_GRID_POINTS = 10_000
MIN_GRID_POINTS = 100

# Slack for argument range checks: quadrature and interpolation probe the
# closed interval ends with roundoff-level overshoot.
_EVAL_SLACK = 1e-9


class UncertifiedWeightError(RuntimeError):
    """A routine required a certified weight but got an uncertified one."""


@dataclass
class CertificationReport:
    """Outcome of the admissibility check of a weight on ``[0, domain_cap]``."""

    passed: bool
    family: str
    domain_cap: float
    grid_points: int
    tol: float
    worst_slope: float
    worst_slope_t: float
    worst_convexity: float
    worst_convexity_t: float
    first_violation_t: float | None
    first_violation_kind: str | None
    value_at_origin: float
    note: str = (
        "grid certificate on [0, domain_cap] only; the admissibility "
        "condition on the full half line is not decidable from samples"
    )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class WeightFunction:
    """Radial weight ``phi`` with evaluable first and second derivatives.

    ``value``, ``slope`` and ``convexity`` accept scalars or arrays and are
    defined on ``[0, domain_cap]``; evaluation outside raises so that a
    mis-sized cap surfaces instead of silently extrapolating.  ``certified``
    starts ``False`` and is set by :func:`property_I_certify`.
    """

    family: str
    params: tuple[float, ...]
    domain_cap: float
    _value: Callable[[np.ndarray], np.ndarray]
    _slope: Callable[[np.ndarray], np.ndarray]
    _convexity: Callable[[np.ndarray], np.ndarray]
    certified: bool = False
    certification: CertificationReport | None = field(default=None, repr=False)

    def _check_range(self, t: np.ndarray) -> None:
        lo = float(np.min(t))
        hi = float(np.max(t))
        if lo < -_EVAL_SLACK or hi > self.domain_cap * (1.0 + 1e-12) + _EVAL_SLACK:
            raise ValueError(
                f"weight evaluated at t in [{lo:.6g}, {hi:.6g}] outside "
                f"[0, {self.domain_cap:.6g}]; enlarge domain_cap"
            )

    def value(self, t):
        arr = np.asarray(t, dtype=float)
        self._check_range(arr)
        return self._value(arr)

    def slope(self, t):
        arr = np.asarray(t, dtype=float)
        self._check_range(arr)
        return self._slope(arr)

    def convexity(self, t):
        arr = np.asarray(t, dtype=float)
        self._check_range(arr)
        return self._convexity(arr)

    def breaks(self, lo: float, hi: float) -> list[float]:
        """``[lo, ..., hi]`` cut where ``phi`` stops being smooth: at the knots of
        a tabulated spline, none for the closed-form families.  Knots within
        ``1e-9 (hi - lo)`` of an end are dropped, so no piece is degenerate."""
        knots = self.params[0::2] if self.family == "tabulated-spline" else ()
        margin = 1e-9 * (hi - lo)
        return [lo, *(k for k in knots if lo + margin < k < hi - margin), hi]

    def describe(self) -> dict:
        """Report-friendly summary; values are offset-normalized for readability."""
        phi0 = float(self.value(0.0))
        return {
            "family": self.family,
            "params": list(self.params),
            "domain_cap": self.domain_cap,
            "certified": self.certified,
            "value_at_origin": phi0,
        }


def _constant(params: tuple[float, ...]):
    (c,) = params

    def val(t):
        return np.full_like(t, c, dtype=float)

    def zero(t):
        return np.zeros_like(t, dtype=float)

    return val, zero, zero


def _linear_decreasing(params: tuple[float, ...]):
    c, a = params
    if a < 0:
        raise ValueError("linear-decreasing requires params [c, a] with a >= 0")

    def val(t):
        return c - a * t

    def slope(t):
        return np.full_like(t, -a, dtype=float)

    def zero(t):
        return np.zeros_like(t, dtype=float)

    return val, slope, zero


def _exponential_decay(params: tuple[float, ...]):
    c, b, lam = params
    if b < 0 or lam <= 0:
        raise ValueError(
            "exponential-decay requires params [c, b, lam] with b >= 0 and lam > 0"
        )

    def val(t):
        return c + b * np.exp(-lam * t)

    def slope(t):
        return -b * lam * np.exp(-lam * t)

    def convexity(t):
        return b * lam * lam * np.exp(-lam * t)

    return val, slope, convexity


def _tabulated_spline(params: tuple[float, ...], domain_cap: float):
    if len(params) < 8 or len(params) % 2 != 0:
        raise ValueError(
            "tabulated-spline requires an interleaved knot list "
            "[t0, phi0, t1, phi1, ...] with at least 4 knots"
        )
    knots_t = np.asarray(params[0::2], dtype=float)
    knots_phi = np.asarray(params[1::2], dtype=float)
    if np.any(np.diff(knots_t) <= 0):
        raise ValueError("tabulated-spline knot abscissae must be strictly increasing")
    if knots_t[0] > 0.0 or knots_t[-1] < domain_cap:
        raise ValueError(
            f"tabulated-spline knots must cover [0, {domain_cap:.6g}]; "
            f"got [{knots_t[0]:.6g}, {knots_t[-1]:.6g}]"
        )
    # second derivatives at the knots, zero at both ends (natural spline):
    # h_{i-1} m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_i m_{i+1} = 6 (d_i - d_{i-1})
    h = np.diff(knots_t)
    d = np.diff(knots_phi) / h
    bands = np.zeros((3, len(h) - 1))
    bands[0, 1:] = h[1:-1]
    bands[1] = 2.0 * (h[:-1] + h[1:])
    bands[2, :-1] = h[1:-1]
    m = np.zeros(len(knots_t))
    m[1:-1] = solve_banded((1, 1), bands, 6.0 * np.diff(d))
    # piece i in powers of (t - t_i): value, slope, half curvature, jerk / 6;
    # the end pieces extend past the end knots
    a, b = knots_phi[:-1], d - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c, e = 0.5 * m[:-1], np.diff(m) / (6.0 * h)

    def piece(t):
        i = np.searchsorted(knots_t[1:-1], t, side="right")
        return i, t - knots_t[i]

    def val(t):
        i, x = piece(t)
        return a[i] + x * (b[i] + x * (c[i] + x * e[i]))

    def slope(t):
        i, x = piece(t)
        return b[i] + x * (2.0 * c[i] + x * 3.0 * e[i])

    def convexity(t):
        i, x = piece(t)
        return 2.0 * c[i] + x * 6.0 * e[i]

    return val, slope, convexity


def make_weight(family: str, params, domain_cap: float) -> WeightFunction:
    """Build an uncertified weight from a family tag and a flat parameter list.

    Families: ``constant`` with ``[c]``; ``linear-decreasing`` with ``[c, a]``,
    ``a >= 0``; ``exponential-decay`` with ``[c, b, lam]``, ``b >= 0``,
    ``lam > 0``; ``tabulated-spline`` with interleaved knots
    ``[t0, phi0, t1, phi1, ...]`` covering ``[0, domain_cap]``, interpolated
    by a natural cubic spline.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown weight family {family!r}; expected one of {FAMILIES}")
    if not np.isfinite(domain_cap) or domain_cap <= 0:
        raise ValueError("domain_cap must be a positive finite number")
    params = tuple(float(p) for p in params)
    if any(not np.isfinite(p) for p in params):
        raise ValueError("weight params must be finite numbers")

    if family == "constant":
        if len(params) != 1:
            raise ValueError("constant requires params [c]")
        fns = _constant(params)
    elif family == "linear-decreasing":
        if len(params) != 2:
            raise ValueError("linear-decreasing requires params [c, a]")
        fns = _linear_decreasing(params)
    elif family == "exponential-decay":
        if len(params) != 3:
            raise ValueError("exponential-decay requires params [c, b, lam]")
        fns = _exponential_decay(params)
    else:
        fns = _tabulated_spline(params, domain_cap)

    return WeightFunction(family, params, float(domain_cap), *fns)


def property_I_certify(
    phi: WeightFunction, grid_points: int = DEFAULT_GRID_POINTS
) -> CertificationReport:
    """Check monotonicity and convexity of ``phi`` on a uniform grid.

    Passes when ``phi'(t) <= tol`` and ``phi''(t) >= -tol`` at every one of
    ``grid_points`` uniform samples of ``[0, domain_cap]`` with
    ``tol = 1e-10``.  On success the weight is stamped ``certified``; on
    failure the report carries the worst violations and the first violating
    grid point.  Certifying twice is idempotent.
    """
    if grid_points < MIN_GRID_POINTS:
        raise ValueError(f"grid_points must be >= {MIN_GRID_POINTS}")
    grid = np.linspace(0.0, phi.domain_cap, grid_points)
    slopes = np.asarray(phi.slope(grid), dtype=float)
    convex = np.asarray(phi.convexity(grid), dtype=float)

    i_slope = int(np.argmax(slopes))
    i_conv = int(np.argmin(convex))
    slope_bad = slopes > CERTIFY_TOL
    conv_bad = convex < -CERTIFY_TOL

    first_t = None
    first_kind = None
    bad = slope_bad | conv_bad
    if np.any(bad):
        j = int(np.argmax(bad))
        first_t = float(grid[j])
        first_kind = "monotonicity" if slope_bad[j] else "convexity"

    passed = not np.any(bad)
    report = CertificationReport(
        passed=passed,
        family=phi.family,
        domain_cap=phi.domain_cap,
        grid_points=grid_points,
        tol=CERTIFY_TOL,
        worst_slope=float(slopes[i_slope]),
        worst_slope_t=float(grid[i_slope]),
        worst_convexity=float(convex[i_conv]),
        worst_convexity_t=float(grid[i_conv]),
        first_violation_t=first_t,
        first_violation_kind=first_kind,
        value_at_origin=float(phi.value(0.0)),
    )
    phi.certified = passed
    phi.certification = report
    return report
