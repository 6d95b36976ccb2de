"""Radial log-density weights, admissible by construction.

A weight is a radial function ``phi(t)`` entering the measure
``exp(-phi) dv``.  Every result downstream assumes two pointwise conditions
on ``[0, domain_cap]``: the weight is non-increasing (``phi' <= 0``) and
convex (``phi'' >= 0``).  :func:`make_weight` refuses a weight that breaks
either by more than ``CERTIFY_TOL`` anywhere in that range, so every
:class:`WeightFunction` is admissible and nothing downstream checks again.

A weight is plain data: its family, its parameters and its cap, plus, for a
tabulated spline, the piecewise-cubic coefficients :func:`make_weight` solves
for once.  Equal arguments make equal weights, and a ``--jobs`` worker
receives a weight by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("constant", "linear-decreasing", "exponential-decay", "tabulated-spline")

CERTIFY_TOL = 1e-10

# Slack for argument range checks: quadrature and interpolation probe the
# closed interval ends with roundoff-level overshoot.
_EVAL_SLACK = 1e-9


@dataclass(frozen=True)
class WeightFunction:
    """Admissible radial weight ``phi`` with evaluable first and second
    derivatives; build it with :func:`make_weight`.

    ``value``, ``slope`` and ``convexity`` accept scalars or arrays and are
    defined on ``[0, domain_cap]``; evaluation outside raises so that a
    mis-sized cap surfaces instead of silently extrapolating.  ``spline``
    holds a tabulated spline's knots and piece coefficients (see
    :func:`_spline_table`), ``None`` for the closed-form families; it follows
    from ``params``, so equality and hashing leave it out.
    """

    family: str
    params: tuple[float, ...]
    domain_cap: float
    spline: tuple[np.ndarray, ...] | None = field(default=None, compare=False, repr=False)

    def value(self, t):
        return self._derivative(t, 0)

    def slope(self, t):
        return self._derivative(t, 1)

    def convexity(self, t):
        return self._derivative(t, 2)

    def _derivative(self, t, order: int):
        """``phi`` (order 0), ``phi'`` (1) or ``phi''`` (2) at ``t``."""
        t = np.asarray(t, dtype=float)
        lo = float(np.min(t))
        hi = float(np.max(t))
        if lo < -_EVAL_SLACK or hi > self.domain_cap * (1.0 + 1e-12) + _EVAL_SLACK:
            raise ValueError(
                f"weight evaluated at t in [{lo:.6g}, {hi:.6g}] outside "
                f"[0, {self.domain_cap:.6g}]; enlarge domain_cap"
            )
        if self.family == "tabulated-spline":
            knots_t, a, b, c, e = self.spline
            i = np.searchsorted(knots_t[1:-1], t, side="right")
            x = t - knots_t[i]
            if order == 0:
                return a[i] + x * (b[i] + x * (c[i] + x * e[i]))
            if order == 1:
                return b[i] + x * (2.0 * c[i] + x * 3.0 * e[i])
            return 2.0 * c[i] + x * 6.0 * e[i]
        c = self.params[0]
        if self.family == "exponential-decay":
            b, lam = self.params[1:]
            decay = np.exp(-lam * t)
            if order == 0:
                return c + b * decay
            if order == 1:
                return (-b * lam) * decay
            return (b * lam * lam) * decay
        if self.family == "linear-decreasing":
            a = self.params[1]
            if order == 0:
                return c - a * t
            return np.full_like(t, -a) if order == 1 else np.zeros_like(t)
        return np.full_like(t, c) if order == 0 else np.zeros_like(t)

    def breaks(self, lo: float, hi: float) -> list[float]:
        """``[lo, ..., hi]`` cut where ``phi`` stops being smooth: at the knots of
        a tabulated spline, none for the closed-form families.  Knots within
        ``1e-9 (hi - lo)`` of an end are dropped, so no piece is degenerate."""
        knots = self.params[0::2] if self.family == "tabulated-spline" else ()
        margin = 1e-9 * (hi - lo)
        return [lo, *(k for k in knots if lo + margin < k < hi - margin), hi]

    def describe(self) -> dict:
        """Report-friendly summary: the family, parameters and cap, and
        ``phi(0)`` as the parameters give it."""
        phi0 = float(self.value(0.0))
        return {
            "family": self.family,
            "params": list(self.params),
            "domain_cap": self.domain_cap,
            "value_at_origin": phi0,
        }


def _spline_table(knots_t: np.ndarray, knots_phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Natural cubic spline through ``(knots_t, knots_phi)``: ``(knots_t, a, b,
    c, e)``, piece ``i`` being ``a + b x + c x^2 + e x^3`` in ``x = t - t_i``
    (value, slope, half curvature and jerk / 6 at ``t_i``).  The end pieces
    extend past the end knots."""
    # second derivatives at the knots, zero at both ends (natural spline):
    # h_{i-1} m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_i m_{i+1} = 6 (d_i - d_{i-1}),
    # diagonally dominant, so eliminated without pivoting, in the operation
    # order of LAPACK's gtsv
    h = np.diff(knots_t)
    d = np.diff(knots_phi) / h
    diag, rhs = 2.0 * (h[:-1] + h[1:]), 6.0 * np.diff(d)
    for i in range(1, len(diag)):
        w = h[i] / diag[i - 1]
        diag[i] -= w * h[i]
        rhs[i] -= w * rhs[i - 1]
    m = np.zeros(len(knots_t))  # m[-1] = 0 closes the back substitution
    for i in range(len(diag) - 1, -1, -1):
        m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
    b = d - h * (2.0 * m[:-1] + m[1:]) / 6.0
    return knots_t, knots_phi[:-1], b, 0.5 * m[:-1], np.diff(m) / (6.0 * h)


def make_weight(family: str, params, domain_cap: float) -> WeightFunction:
    """Build an admissible weight from a family tag and a flat parameter list.

    Families: ``constant`` with ``[c]``; ``linear-decreasing`` with ``[c, a]``,
    ``a >= 0``; ``exponential-decay`` with ``[c, b, lam]``, ``b >= 0``,
    ``lam > 0``; ``tabulated-spline`` with interleaved knots
    ``[t0, phi0, t1, phi1, ...]`` covering ``[0, domain_cap]``, interpolated
    by a natural cubic spline.  The parameter bounds are the admissibility
    condition; a spline is checked by :func:`_require_admissible`.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown weight family {family!r}; expected one of {FAMILIES}")
    if not np.isfinite(domain_cap) or domain_cap <= 0:
        raise ValueError("domain_cap must be a positive finite number")
    domain_cap = float(domain_cap)
    params = tuple(float(p) for p in params)
    if any(not np.isfinite(p) for p in params):
        raise ValueError("weight params must be finite numbers")

    if family == "constant" and len(params) != 1:
        raise ValueError("constant requires params [c]")
    if family == "linear-decreasing" and (len(params) != 2 or params[1] < 0):
        raise ValueError("linear-decreasing requires params [c, a] with a >= 0")
    if family == "exponential-decay" and (len(params) != 3 or params[1] < 0 or params[2] <= 0):
        raise ValueError(
            "exponential-decay requires params [c, b, lam] with b >= 0 and lam > 0"
        )
    if family != "tabulated-spline":
        return WeightFunction(family, params, domain_cap)

    if len(params) < 8 or len(params) % 2 != 0:
        raise ValueError(
            "tabulated-spline requires an interleaved knot list "
            "[t0, phi0, t1, phi1, ...] with at least 4 knots"
        )
    knots_t = np.asarray(params[0::2], dtype=float)
    if np.any(np.diff(knots_t) <= 0):
        raise ValueError("tabulated-spline knot abscissae must be strictly increasing")
    if knots_t[0] > 0.0 or knots_t[-1] < domain_cap:
        raise ValueError(
            f"tabulated-spline knots must cover [0, {domain_cap:.6g}]; "
            f"got [{knots_t[0]:.6g}, {knots_t[-1]:.6g}]"
        )
    spline = _spline_table(knots_t, np.asarray(params[1::2], dtype=float))
    phi = WeightFunction(family, params, domain_cap, spline)
    _require_admissible(phi)
    return phi


def _require_admissible(phi: WeightFunction) -> None:
    """Raise ``ValueError``, naming the first violation from the origin,
    unless the spline ``phi`` has ``phi' <= tol`` and ``phi'' >= -tol`` on all
    of ``[0, domain_cap]``, ``tol = CERTIFY_TOL``.  ``phi''`` is linear on
    each piece, so its least value lies at 0, the cap or a knot between them;
    ``phi'`` is quadratic, so its largest lies there or at a piece's vertex,
    where ``phi''`` changes sign.  The check is exact up to round-off.
    """
    cap = phi.domain_cap
    t = np.array([0.0, *(k for k in phi.params[0::2] if 0.0 < k < cap), cap])
    curv = phi.convexity(t)
    lo, hi = curv[:-1], curv[1:]
    turn = np.sign(lo) * np.sign(hi) < 0
    vertex = t[:-1][turn] + np.diff(t)[turn] * lo[turn] / (lo[turn] - hi[turn])
    ts = np.concatenate([t, vertex])
    slope = phi.slope(ts)
    bad = [(ts[j], "monotonicity", "phi'", slope[j]) for j in np.flatnonzero(slope > CERTIFY_TOL)]
    bad += [(t[j], "convexity", "phi''", curv[j]) for j in np.flatnonzero(curv < -CERTIFY_TOL)]
    if bad:
        at, kind, name, value = min(bad)
        raise ValueError(
            f"{phi.family} fails the admissibility condition on [0, {cap:.6g}]: "
            f"{kind} at t = {at:.6g} ({name} = {value:.3g})"
        )
