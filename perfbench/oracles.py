"""Reference eigenvalues computed without the package under test.

Flat balls come from Bessel functions: the degree-``l`` Neumann mode of the
flat ``n``-ball of radius ``R`` is ``t^a J_w(k t)`` with ``a = 1 - n/2`` and
``w = n/2 - 1 + l``, so its eigenvalue ``(k/R)^2`` solves
``a J_w(k) + k J_w'(k) = 0``.  The lowest nonzero Neumann eigenvalue of a
ball is the degree-1 mode.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import jv, jvp

MU1_DISK = 3.389957716671889  # (first zero of J_1')^2, unit disk
SQUARE_MU1 = math.pi**2  # unit square, modes cos(pi x) and cos(pi y)


def flat_ball_mu1(dimension: int, radius: float) -> float:
    """Lowest nonzero Neumann eigenvalue of the flat ball, constant weight."""
    a = 1.0 - dimension / 2.0
    w = dimension / 2.0 - 1.0 + 1

    def g(k: float) -> float:
        return a * jv(w, k) + k * jvp(w, k)

    # g > 0 just above 0 (it starts like l * (k/2)^w / Gamma(w+1)); scan to
    # the first sign change and polish.
    lo, step = 1e-3, 1e-2
    while g(lo + step) > 0.0:
        lo += step
    k = brentq(g, lo, lo + step, xtol=1e-15, rtol=1e-15)
    return (k / radius) ** 2
