"""Inequality verification: volume matching, reciprocal-sum bounds, sharper
gap terms, open-question sweeps, and the trial-centre search.

The central object compares a domain against the centred geodesic ball of
equal weighted volume.  With ``mu_1 <= ... <= mu_{n-1}`` the first nonzero
Neumann eigenvalues of the domain and ``mu_1(ball)`` that of the matched
ball, the verified statement is

    sum_{i<n} 1/mu_i(domain)  >=  (n-1) / mu_1(ball),

with equality exactly at the ball.  Two discretisation paths feed this:
plane domains go through the mesh/FEM pipeline (either curvature), and
radially symmetric domains in any dimension go through the Chebyshev
collocation solver with the mode-degree decomposition, which also solves
every matched ball.  On the FEM path the triangulated polygon is taken to
*be* the domain, whose weighted volume is an exact boundary integral
(:func:`weighted_disk_intersection`), so the only error source is the
eigenvalue itself, estimated by two-level Richardson comparison.

Numerical pass/fail needs a convention.  Ours (``PASS_FACTOR = 3``), formed
once in :func:`_comparison` for the ``n - 1``-term theorem and the ``n``-term
open question alike: a comparison passes when

    gap >= -PASS_FACTOR * (relative eigenvalue error estimate) * max(LHS, RHS),

and the same budget governs the equality checks at the ball.  Every check
block carries its verdict as ``passed``, and each is built as the dict that
``reports.jsonl`` writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import QUAD_BARY, QUAD_WEIGHTS, DomainSpec, Mesh, generate, refine
from .radial import (
    DEFAULT_OPTIONS,
    RadialSolution,
    ShellSpec,
    ShootingOptions,
    ball_rayleigh_integrals,
    shoot_first_mode,
    symmetric_spectrum,
)
from .spaceform import BallSpec, SpaceForm, s_kappa, unit_sphere_area, weighted_annulus_volume
from .spaceform import _chebyshev_integrals
from .weights import WeightFunction

# Budget of radial eigenvalues.  The collocation solver resolves them to
# ~1e-11 (its tail and Neumann residual are reported per record), but the
# floor stays well above that so that a budget never rests on the solver's
# own accuracy claim.
RADIAL_ERROR_FLOOR = 1e-8
VOLUME_MATCH_TOL = 1e-8
RADIUS_MAX_STEPS = 100
CENTER_RESIDUAL_TOL = 1e-8
PASS_FACTOR = 3.0  # the pass rule's budget, in estimated relative errors
HULL_SLACK = 1e-10  # a trial centre may lie this far outside a hull row
GAUSS_POINTS = 8  # Gauss-Legendre nodes per piece of a boundary side


class CheckerError(RuntimeError):
    """A verification pipeline could not produce a trustworthy report."""


def match_ball_radius(
    space: SpaceForm,
    dimension: int,
    phi: WeightFunction,
    target_volume: float,
    inner: float = 0.0,
) -> tuple[float, float]:
    """Radius ``r`` whose centred annulus ``inner <= t <= r`` has the target
    weighted volume (with ``inner = 0`` the matched ball), and the signed
    volume mismatch ``volume(inner, r) - target`` left at that radius.

    The weighted volume ``V(r)`` is strictly increasing in the radius, with
    the exact derivative ``dV/dr = |S^{n-1}| S(r)^{n-1} exp(-phi(r))``, so a
    Newton iteration on ``log V(r) - log target``, kept inside a bracket of
    the root, either finds the radius or the volume out to the cap proves the
    weight's range too small.  It starts at ``r0 = (inner^n + n target /
    (|S^{n-1}| exp(-phi(inner))))^(1/n)``, or at the weight's ``domain_cap``
    when ``r0`` is past it.  As ``phi`` is non-increasing and ``S(t) >= t``
    in both curvatures, ``V(r) >= |S^{n-1}| exp(-phi(inner)) (r^n - inner^n)
    / n``, so ``V(r0) >= target`` and ``r0`` bounds the root from above:
    only a start at the cap can fall short of the target, and that raises.
    A float ``r0`` below the cap can still fall short by the rounding of
    ``r0`` (a few ``ulp(r0)`` times ``dV/dr``); the iteration then goes on
    from below.
    Log-space steps cross the exponential growth of hyperbolic volumes in a
    few iterations; where one would leave the bracket the plain Newton step
    on ``V`` is taken, which stays above the root because ``V`` is convex
    for a non-increasing ``phi``, and bisection is the last resort.  The
    iteration stops when the volume is hit exactly, when the Newton step no
    longer moves the radius, or when the bracket is down to round-off.
    The match is checked against the volume of the whole ball ``t <= r``: a
    target far below it is met only to the round-off of the radius.
    """
    if not (target_volume > 0 and math.isfinite(target_volume)):
        raise ValueError("target_volume must be positive and finite")
    cap = phi.domain_cap
    area = unit_sphere_area(dimension)
    density = area * math.exp(-phi.value(inner)) / dimension  # V(r) >= density (r^n - inner^n)
    radius = cap
    if density > 0.0:
        radius = min((inner**dimension + target_volume / density) ** (1 / dimension), cap)
    volume = weighted_annulus_volume(space, dimension, phi, inner, radius)
    if volume < target_volume and radius == cap:
        raise CheckerError(
            f"target volume {target_volume:.6g} exceeds the volume "
            f"{volume:.6g} out to the weight's certified range {cap:g}"
        )
    lo, hi = inner, cap
    for _ in range(RADIUS_MAX_STEPS):
        if volume == target_volume or radius == inner:
            break  # hit exactly, or the root is the inner radius to round-off
        if volume < target_volume:
            lo = radius
        else:
            hi = radius
        slope = area * s_kappa(radius, space) ** (dimension - 1) * math.exp(-phi.value(radius))
        step = volume * math.log(volume / target_volume) / slope
        if radius - step == radius:
            break  # the Newton step is below round-off
        if not lo < radius - step < hi:
            step = (volume - target_volume) / slope
            middle = radius - 0.5 * (lo + hi)
            if not (lo < radius - step < hi and abs(step) > abs(middle)):
                if hi - lo <= 4.0 * np.finfo(float).eps * hi:
                    break  # the bracket is down to round-off
                step = middle
        radius -= step
        volume = weighted_annulus_volume(space, dimension, phi, inner, radius)
    mismatch = volume - target_volume
    if abs(mismatch) > VOLUME_MATCH_TOL * target_volume:  # else rel is below it too
        core = weighted_annulus_volume(space, dimension, phi, 0.0, inner) if inner > 0 else 0.0
        rel = abs(mismatch) / (core + target_volume)
        if rel > VOLUME_MATCH_TOL:
            raise CheckerError(f"volume matching stalled at relative error {rel:.3g}")
    return float(radius), mismatch


def _mesh_for(domain) -> Mesh:
    if isinstance(domain, Mesh):
        return domain
    if isinstance(domain, DomainSpec):
        return generate(domain)
    raise TypeError(f"expected DomainSpec or Mesh, got {type(domain).__name__}")


@dataclass
class CaseSolution:
    """One case solved once: the domain's low spectrum and the matched ball.

    Every check of a case reads this object, so the domain is meshed once,
    its spectrum is solved once, and the matched ball is solved once; the
    record's blocks are built from it.  On the FEM path ``eigenvalues`` come
    from the finest mesh and ``est_rel_error`` is the two-level Richardson
    estimate over all of them; on the radial path the meshes are ``None``
    and the estimate is a fixed floor.
    """

    space: SpaceForm
    phi: WeightFunction
    dimension: int
    options: ShootingOptions
    shell: ShellSpec | None
    base_mesh: Mesh | None
    mesh: Mesh | None
    eigenvalues: np.ndarray
    est_rel_error: float
    volume: float
    matched_radius: float
    volume_match_rel_err: float
    ball_mode: RadialSolution


def solve_case(
    domain,
    space: SpaceForm,
    phi: WeightFunction,
    dimension: int | None = None,
    *,
    conjecture: bool = False,
    refinements: int = 2,
    options: ShootingOptions = DEFAULT_OPTIONS,
) -> CaseSolution:
    """Solve ``domain`` and its volume-matched centred ball.

    ``domain`` is a :class:`DomainSpec`, a :class:`Mesh` (both meshed, plane
    domains), or a :class:`ShellSpec` (radially symmetric, any dimension,
    with ``dimension`` given explicitly).  The lowest ``n - 1`` nonzero
    eigenvalues are solved, or ``n`` with ``conjecture`` for the open
    question's extra term.  A meshed domain is solved after ``refinements
    - 1`` splits (coarse) and after ``refinements >= 1`` (fine).
    """
    shell = base_mesh = mesh = None
    if isinstance(domain, ShellSpec):
        if dimension is None:
            raise ValueError("radially symmetric domains need an explicit dimension")
        n = int(dimension)
        count = n if conjecture else n - 1
        shell = domain
        eigs = symmetric_spectrum(shell, n, space, phi, count, options=options)
        est = RADIAL_ERROR_FLOOR
        volume = weighted_annulus_volume(
            space, n, phi, shell.inner_radius, shell.outer_radius
        )
    else:
        # scipy's sparse linear algebra loads with the first meshed case
        from . import fem

        if dimension not in (None, 2):
            raise ValueError("meshed domains are two-dimensional")
        if refinements < 1:
            raise ValueError("meshed domains need refinements >= 1")
        n = 2
        count = n if conjecture else n - 1
        base_mesh = mesh = _mesh_for(domain)
        for _ in range(refinements - 1):
            mesh = refine(mesh)
        # the fine level is assembled first, so the factor that the base
        # solve keeps for the fine solve is not alive through that peak
        fine = fem.assemble(refine(mesh), space, phi)
        coarse = fem.solve_lowest(fem.assemble(mesh, space, phi), count=count)
        mesh = fine.mesh
        eigs = fem.solve_lowest(fine, count, coarse).eigenvalues
        est = float(np.max(np.abs(coarse.eigenvalues - eigs) / (3.0 * eigs)))
        volume = weighted_disk_intersection(mesh, space, phi, math.inf)

    radius, mismatch = match_ball_radius(space, n, phi, volume)
    return CaseSolution(
        space=space,
        phi=phi,
        dimension=n,
        options=options,
        shell=shell,
        base_mesh=base_mesh,
        mesh=mesh,
        eigenvalues=eigs,
        est_rel_error=est,
        volume=volume,
        matched_radius=radius,
        volume_match_rel_err=abs(mismatch) / volume,
        ball_mode=shoot_first_mode(BallSpec(radius, n, space), phi, options),
    )


def _comparison(sol: CaseSolution, terms: int) -> dict:
    """The one pass rule: ``sum_{i <= terms} 1/mu_i`` against ``terms /
    mu_1(ball)``, with the budget of ``PASS_FACTOR`` estimated relative
    errors of the larger side."""
    lhs = float(np.sum(1.0 / sol.eigenvalues[:terms]))
    rhs = terms / sol.ball_mode.mu
    gap = lhs - rhs
    budget = PASS_FACTOR * sol.est_rel_error * max(abs(lhs), abs(rhs))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "gap": gap,
        "tol_budget": budget,
        "passed": bool(gap >= -budget),
    }


def build_report(sol: CaseSolution, *, sharper: bool = False) -> dict:
    """The record's ``report`` block of a solved case: the reciprocal-sum
    comparison against the volume-matched centred ball, plus the
    ``sharper`` block when asked for and the ``conjecture`` block when the
    case was solved for it (``n`` eigenvalues, not ``n - 1``); each is
    ``None`` otherwise.  ``build_report(solve_case(...), ...)`` is the one
    way to a verdict."""
    n = sol.dimension
    eigs = sol.eigenvalues
    mode = sol.ball_mode
    report = {
        "domain": sol.shell.describe() if sol.shell is not None else sol.mesh.domain_tag,
        "dimension": n,
        "curvature": sol.space.curvature,
        "weight": sol.phi.describe(),
        "method": "radial" if sol.shell is not None else "fem",
        "volume": sol.volume,
        "matched_radius": sol.matched_radius,
        "volume_match_rel_err": sol.volume_match_rel_err,
        "eigenvalues": [float(v) for v in eigs],
        "mu1_ball": mode.mu,
        # the matched-ball solve: Chebyshev degree per piece, trailing
        # coefficient ratio and Neumann endpoint residual
        "mu1_ball_degree": mode.degree,
        "mu1_ball_tail": mode.tail,
        "mu1_ball_residual": mode.residual,
        "est_rel_error": sol.est_rel_error,
        **_comparison(sol, n - 1),
        "mu1_domain_below_ball": bool(eigs[0] <= mode.mu * (1.0 + PASS_FACTOR * sol.est_rel_error)),
        "sharper": None,
        "conjecture": None,
        "notes": [],
    }
    if sharper:
        report["sharper"] = _sharper_block(sol, report)
    if len(eigs) == n:
        conjecture = report["conjecture"] = _conjecture_block(sol)
        if conjecture["escalated"]:
            report["notes"].append(
                "negative open-question margin re-examined at higher resolution; "
                f"final verdict {conjecture['verdict']}"
            )
    return report


# ---------------------------------------------------------------------------
# weighted areas of meshed domains, and the sharper bound (flat space only)


def _area_ratio(space: SpaceForm, phi: WeightFunction, rho: np.ndarray) -> np.ndarray:
    """``G(rho) / rho^2`` at each ``rho > 0``, ``2 pi G(r)`` the weighted area of
    the disk ``|x| <= r``: ``G(rho) = int S(t) exp(-phi(t)) dt`` up to the
    geodesic radius of ``rho``, one :func:`~wittenlab.spaceform._chebyshev_integrals`
    row per distinct ``rho`` and piece between the weight's knots, scaled by
    ``1 / rho^2`` to stay regular at the origin."""
    m, inverse = np.unique(rho, return_inverse=True)
    t_m = (2.0 * np.arctanh(m) if space.is_hyperbolic else m)[:, None]
    knots = np.array(phi.breaks(0.0, float(t_m[-1, 0])))
    lo, hi = np.minimum(knots[:-1], t_m), np.minimum(knots[1:], t_m)
    scale = (hi - lo) / (m * m)[:, None]

    def integrand(s: np.ndarray) -> np.ndarray:
        t = lo[..., None] + (hi - lo)[..., None] * s
        return scale[..., None] * s_kappa(t, space) * np.exp(-phi.value(t))

    ratio = np.sum(_chebyshev_integrals(integrand, [0.0, 1.0]), axis=1)
    return ratio[inverse].reshape(rho.shape)


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``GAUSS_POINTS``-point Gauss-Legendre rule, solved for on first use."""
    return np.polynomial.legendre.leggauss(GAUSS_POINTS)


def weighted_disk_intersection(
    mesh: Mesh, space: SpaceForm, phi: WeightFunction, radius: float
) -> float:
    """Weighted area of the mesh inside the disk ``B_radius``, ``|x| <= radius``
    in the mesh's coordinates; ``radius = math.inf`` gives the whole mesh.

    With ``2 pi G(r)`` the weighted area of ``B_r`` (see :func:`_area_ratio`),
    ``F(x) = x G(min(|x|, radius)) / |x|^2`` is continuous and its divergence
    is the weighted density inside ``B_radius`` and zero outside, since ``x /
    |x|^2`` is divergence-free in the plane.  So the area is the flux of ``F``
    out through the boundary, exact for the meshed polygon.  The boundary
    sides are the triangle sides whose edge has count 1 in the mesh's edge
    table, in triangle order; a side on a line through the origin carries no
    flux.  Each side is cut at ``|x| = radius`` and at the circles through
    the weight's knots (a circle it misses cuts it at its point nearest the
    origin).  Along a piece ``p + s d`` inside the disk the flux is
    ``cross(p, d) int G(rho) / rho^2 ds``, ``rho = |p + s d|``, by the
    ``GAUSS_POINTS``-point Gauss-Legendre rule; outside it, ``G(radius)``
    times the angle the piece subtends at the origin, the flux of ``x /
    |x|^2``.
    """
    _, counts, side = mesh.edge_table
    t, k = np.nonzero(counts[side] == 1)
    p = mesh.nodes[mesh.triangles[t, k]]
    d = mesh.nodes[mesh.triangles[t, (k + 1) % 3]] - p
    cross = p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]
    p, d, cross = p[cross != 0.0], d[cross != 0.0], cross[cross != 0.0]

    knots = np.array(phi.breaks(0.0, phi.domain_cap)[1:-1])
    circles = np.tanh(0.5 * knots) if space.is_hyperbolic else knots
    circles = circles[circles < min(radius, np.max(np.hypot(p[:, 0], p[:, 1])))]
    if math.isfinite(radius):
        circles = np.append(circles, radius)
    # roots of |p + s d|^2 = c^2, clipped to the side
    a = np.sum(d * d, axis=1)[:, None]
    b = np.sum(p * d, axis=1)[:, None]
    c = np.sum(p * p, axis=1)[:, None] - circles**2
    root = np.sqrt(np.maximum(b * b - a * c, 0.0))
    cuts = np.clip(np.concatenate([(-b - root) / a, (-b + root) / a], axis=1), 0.0, 1.0)
    cuts = np.sort(np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0.0, 1.0)), axis=1)

    ends = p[:, None] + cuts[..., None] * d[:, None]
    u, v = ends[:, :-1], ends[:, 1:]
    nodes, weights = _gauss_rule()
    x = u[:, :, None] + (v - u)[:, :, None] * (0.5 * (1.0 + nodes))[:, None]
    rho = np.minimum(np.hypot(x[..., 0], x[..., 1]), radius)
    ratio = _area_ratio(space, phi, rho)
    length = np.diff(cuts, axis=1)
    angle = np.arctan2(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0], np.sum(u * v, axis=2))
    # on a piece outside the disk every node has rho = radius, and G = ratio rho^2
    flux = np.where(
        rho[..., 0] < radius,
        cross[:, None] * length * (ratio @ (0.5 * weights)),
        ratio[..., 0] * rho[..., 0] ** 2 * angle,
    )
    return float(np.sum(flux))


def _sharper_block(sol: CaseSolution, report: dict) -> dict:
    """The annulus correction that strengthens the main comparison.

    Flat space only.  Two more radii are matched: ``r1`` captures the
    weighted volume of the part of the domain inside the matched ball, and
    ``r2`` the part outside, through ``|B_{r2} \\ B_R|``.  The correction

        [A(r1, R) - A(R, r2)] / B(0, R)

    is formed from the Rayleigh integrals of the extended first-mode profile
    of the matched ball; it is nonnegative and bounded above by the slack of
    the main inequality, both of which get verified.
    """
    if sol.space.is_hyperbolic:
        raise CheckerError("the sharper comparison is only formulated in flat space")
    space, phi, n = sol.space, sol.phi, sol.dimension
    radius = sol.matched_radius

    if sol.shell is not None:
        # the part of the shell inside the matched ball, none when the ball
        # sits entirely inside the cavity
        a, b = sol.shell.inner_radius, sol.shell.outer_radius
        inner_vol = weighted_annulus_volume(space, n, phi, a, min(max(radius, a), b))
    else:
        inner_vol = weighted_disk_intersection(sol.mesh, space, phi, radius)
    outer_vol = sol.volume - inner_vol

    r1 = match_ball_radius(space, n, phi, inner_vol)[0] if inner_vol > 0 else 0.0
    r2 = match_ball_radius(space, n, phi, outer_vol, radius)[0] if outer_vol > 0 else radius

    mode = sol.ball_mode
    mu_ball = mode.mu
    a_in, _ = ball_rayleigh_integrals(mode, r1, radius)
    a_out, _ = ball_rayleigh_integrals(mode, radius, r2)
    _, b_core = ball_rayleigh_integrals(mode, 0.0, radius)
    sharper_rhs = (a_in - a_out) / b_core

    # rearranged strengthening: mu1(ball) - (n-1)/LHS >= correction >= 0;
    # the main budget on LHS carries over to (n-1)/LHS to first order
    lhs = report["lhs"]
    sharper_gap = (mu_ball - (n - 1) / lhs) - sharper_rhs
    budget = (n - 1) * report["tol_budget"] / lhs**2
    nonneg_ok = bool(sharper_rhs >= -budget)
    return {
        "r1": r1,
        "r2": r2,
        "inner_volume": inner_vol,
        "outer_volume": outer_vol,
        "rhs": float(sharper_rhs),
        "gap": float(sharper_gap),
        "tol_budget": budget,
        "nonnegative_ok": nonneg_ok,
        "passed": bool(nonneg_ok and sharper_gap >= -budget),
    }


# ---------------------------------------------------------------------------
# open-question exploration


def _conjecture_block(sol: CaseSolution) -> dict:
    """The ``n``-term sum against ``n/mu_1(ball)``, escalated when negative.

    This inequality is open, so a negative margin is never called a
    refutation: it is re-examined once on a finer solution (two more
    refinement levels, or radial solver tolerances tightened tenfold for
    radial domains), and only a margin that stays negative is labelled a
    counterexample candidate.  The finer solution feeds this block alone.
    """
    n = sol.dimension
    block = _comparison(sol, n)
    escalated = not block["passed"]
    if escalated:
        if sol.shell is not None:
            finer = {"domain": sol.shell, "options": sol.options.tightened(10.0)}
        else:
            # levels r + 1 and r + 2 from the finest mesh: the escalated
            # base solve factorises level r + 1 alone
            finer = {"domain": sol.mesh, "refinements": 2, "options": sol.options}
        sol = solve_case(space=sol.space, phi=sol.phi, dimension=n, conjecture=True, **finer)
        block = _comparison(sol, n)
    return {
        "eigenvalues": [float(v) for v in sol.eigenvalues],
        **block,
        "verdict": (
            "conjecture-consistent" if block["passed"] else "counterexample-candidate"
        ),
        "escalated": escalated,
    }


def hull_equations(points: np.ndarray) -> np.ndarray:
    """Edges of the convex hull of plane ``points`` as rows ``[nx, ny, c]``:
    the unit outward normal and the offset, so that ``n . x + c <= 0`` inside,
    the layout of ``scipy.spatial.ConvexHull.equations``.

    Andrew's monotone chain on the points sorted by ``x`` then ``y``; a point
    on the line through its neighbours is not a corner, so collinear boundary
    nodes add no edge.  The edges run counter-clockwise.
    """
    pts = np.unique(points, axis=0).tolist()

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]  # the last point starts the other chain

    corners = np.array(chain(pts) + chain(pts[::-1]))
    edges = np.roll(corners, -1, axis=0) - corners
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    return np.column_stack([normals, -np.einsum("ij,ij->i", normals, corners)])


def find_trial_center(
    domain,
    phi: WeightFunction,
    mode: RadialSolution,
    start: tuple[float, float] | None = None,
    max_iterations: int = 100,
) -> dict:
    """Zero of the profile-weighted direction field over a plane domain, as
    the record's ``center`` block.

    Searches for a point ``o`` inside the convex hull of the domain where

        V(o) = integral over the domain of f(|x-o|) (x-o)/|x-o| dm(x)

    vanishes, ``dm`` the weighted area element and ``f`` the extended
    first-mode profile of the matched ball (``mode.profile``).  The weight
    stays radial about the ambient origin throughout; only the trial center
    moves.
    A damped Newton iteration runs until ``|V|`` drops below 1e-8 of the
    field's natural scale, with the Jacobian evaluated in the same pass as
    the field: with ``e = (x-o)/r``,

        dV/do = -integral of [f'(r) e e^T + f(r)/r (I - e e^T)] dm(x).

    A step that would leave the hull is cut where the step crosses the
    hull, and reported (``escaped_hull``), not fatal.  The check passes when
    the search converges; without convergence ``iterations`` is
    ``max_iterations``.
    """
    mesh = _mesh_for(domain)
    p = mesh.nodes[mesh.triangles]
    xq = np.einsum("qi,...id->q...d", QUAD_BARY, p).reshape(-1, 2)
    wq = (QUAD_WEIGHTS[:, None] * mesh.signed_areas()[None, :]).reshape(-1)
    density = wq * np.exp(-phi.value(np.hypot(xq[:, 0], xq[:, 1])))

    eqs = hull_equations(mesh.nodes[mesh.boundary_nodes])
    normals, offsets = eqs[:, :2], eqs[:, 2]

    def field(o: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        rel = xq - o
        r = np.maximum(np.hypot(rel[:, 0], rel[:, 1]), 1e-300)
        fr, fpr = mode.profile(r)
        coeff = density * fr / r
        v = np.array([coeff @ rel[:, 0], coeff @ rel[:, 1]])
        scale = float(np.abs(density) @ np.abs(fr))
        e = rel / r[:, None]
        radial = density * fpr - coeff
        jac = -(e.T @ (radial[:, None] * e) + np.sum(coeff) * np.eye(2))
        return v, scale, jac

    o = np.asarray(start if start is not None else mesh.nodes.mean(axis=0), dtype=float)
    if np.any(normals @ o + offsets > HULL_SLACK):
        o = mesh.nodes.mean(axis=0)
    escaped = converged = False
    iterations = max_iterations
    diam = float(np.max(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)))

    v, scale, jac = field(o)
    for iteration in range(max_iterations):
        if np.linalg.norm(v) <= CENTER_RESIDUAL_TOL * scale:
            iterations, converged = iteration, True
            break
        try:
            full_step = np.linalg.solve(jac, -v)
        except np.linalg.LinAlgError:
            full_step = -v * diam / max(scale, 1e-300)
        # the fraction of the step at which it crosses the first hull row
        rate = normals @ full_step
        room = HULL_SLACK - (normals @ o + offsets)
        cut = float(np.min(room[rate > 0] / rate[rate > 0], initial=np.inf))
        damping = 1.0
        for _ in range(30):
            escaped = escaped or cut < damping
            cand = o + min(damping, cut) * full_step
            v_new, scale_new, jac_new = field(cand)
            if np.linalg.norm(v_new) < np.linalg.norm(v):
                o, v, scale, jac = cand, v_new, scale_new, jac_new
                break
            damping *= 0.5
        else:
            break
    return {
        "center": (float(o[0]), float(o[1])),
        "residual": float(np.linalg.norm(v) / scale),
        "iterations": iterations,
        "converged": converged,
        "passed": converged,
        "escaped_hull": escaped,
        "note": "weight held radial about the ambient origin",
    }
