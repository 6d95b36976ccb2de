"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately written against the raw mathematics rather
than the package under test: Bessel-type eigenvalues come from power series
plus bisection, generic radial problems from a dense cell-centred
finite-volume discretization, radial integrals from adaptive Gauss-Kronrod
quadrature told the weight's knots, geometric quantities from closed
forms or brute-force grids, and the mesh kernels (disk clipping, uniform
refinement and its P1 prolongation) one triangle at a time in plain
Python, and P1 assembly in the five-operand einsum form.  None of it imports :mod:`wittenlab`
internals, except :func:`lowest_nonzero`, a shorthand that chains the
package's own assembly and eigensolve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal


# ----------------------------------------------------------------------
# Bessel-type roots via power series + bisection.
# ----------------------------------------------------------------------

def _mode_series_derivative(n: int, l: int, x: float, terms: int = 80) -> float:
    """Evaluate h(x) = x^{1-w-a} * d/dx [x^a J_w(x)] as a power series.

    Here a = 1 - n/2 and w = n/2 - 1 + l, so roots of h are the Neumann
    eigen-abscissae of the degree-l radial mode of the flat unit ball.
    The prefactor strips the singular power, leaving an even entire series.
    """
    a = 1.0 - n / 2.0
    w = n / 2.0 - 1.0 + l
    acc = []
    for m in range(terms):
        coeff = (2 * m + w + a) / (
            math.factorial(m) * math.gamma(m + w + 1.0) * 2.0 ** (2 * m + w)
        )
        acc.append((-1.0) ** m * coeff * x ** (2 * m))
    return math.fsum(acc)


def flat_ball_mode_root(n: int, l: int, which: int = 1) -> float:
    """k-th positive Neumann abscissa of the degree-l mode on the flat unit ball.

    The eigenvalue of the unit ball is the square of this value.  Uses scan
    plus bisection on the series; accurate to ~1e-14 for the low roots used
    in tests.
    """
    f = lambda x: _mode_series_derivative(n, l, x)
    found = 0
    x_prev, f_prev = 1e-9, f(1e-9)
    x = x_prev
    step = 0.01
    while x < 60.0:
        x_next = x + step
        f_next = f(x_next)
        if f_prev == 0.0:
            found += 1
            if found == which:
                return x
        elif f_prev * f_next < 0.0:
            found += 1
            if found == which:
                lo, hi = x, x_next
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if f(lo) * f(mid) <= 0.0:
                        hi = mid
                    else:
                        lo = mid
                return 0.5 * (lo + hi)
        x, f_prev = x_next, f_next
    raise RuntimeError(f"no root found for n={n}, l={l}, which={which}")


def flat_ball_mode_eigenvalue(n: int, l: int, radius: float = 1.0, which: int = 1) -> float:
    root = flat_ball_mode_root(n, l, which)
    return (root / radius) ** 2


# ----------------------------------------------------------------------
# Dense finite-volume discretization of the radial problems.
# ----------------------------------------------------------------------

def fd_mode_eigenvalues(
    n: int,
    curvature: int,
    phi_fn,
    l: int,
    r_in: float,
    r_out: float,
    count: int,
    num_points: int = 10_000,
) -> np.ndarray:
    """Lowest positive eigenvalues of the degree-l radial mode, brute force.

    Cell-centred three-point flux scheme on a uniform grid with zero-flux
    (ghost-point Neumann) conditions at both ends; at ``r_in = 0`` the flux
    weight vanishes by itself, which encodes regularity.  Returns the first
    ``count`` eigenvalues above a near-zero cutoff, ascending.
    """
    if curvature == 0:
        S = lambda t: t
    elif curvature == -1:
        S = np.sinh
    else:
        raise ValueError("curvature must be 0 or -1")

    h = (r_out - r_in) / num_points
    centers = r_in + (np.arange(num_points) + 0.5) * h
    faces = r_in + np.arange(num_points + 1) * h

    w_face = S(faces) ** (n - 1) * np.exp(-np.asarray(phi_fn(faces), dtype=float))
    w_face[0] = 0.0  # zero flux at the inner end (regularity or Neumann)
    w_face[-1] = 0.0  # Neumann at the outer end

    nu = l * (l + n - 2)
    dens = np.exp(-np.asarray(phi_fn(centers), dtype=float))
    q = nu * S(centers) ** (n - 3) * dens
    m = S(centers) ** (n - 1) * dens

    diag_a = (w_face[:-1] + w_face[1:]) / h + q * h
    off_a = -w_face[1:-1] / h

    d = np.sqrt(m * h)
    diag_b = diag_a / (m * h)
    off_b = off_a / (d[:-1] * d[1:])

    k_hi = min(count + 3, num_points - 1)
    vals = eigh_tridiagonal(
        diag_b, off_b, select="i", select_range=(0, k_hi), eigvals_only=True
    )
    cutoff = 1e-8 * max(1.0, abs(vals[-1]))
    positive = vals[vals > cutoff]
    return np.asarray(positive[:count], dtype=float)


# ----------------------------------------------------------------------
# Closed-form and brute-force geometric quantities.
# ----------------------------------------------------------------------

def square_neumann_eigenvalues(count: int, side: float = 1.0) -> np.ndarray:
    """First ``count`` nonzero Neumann eigenvalues of the axis-aligned square."""
    vals = []
    kmax = int(math.ceil(math.sqrt(count) + 3))
    for p in range(kmax + 1):
        for q in range(kmax + 1):
            if p == 0 and q == 0:
                continue
            vals.append(math.pi ** 2 * (p * p + q * q) / side ** 2)
    return np.asarray(sorted(vals)[:count])


def polar_area(rho_fn, samples: int = 8192) -> float:
    """Area of a star-shaped polar-graph domain by periodic trapezoid rule."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    rho = np.asarray(rho_fn(theta), dtype=float)
    return float(0.5 * np.mean(rho ** 2) * 2.0 * math.pi)


def mesh_area(mesh) -> float:
    """Total signed area of a triangulation, one cross product per triangle."""
    p = mesh.nodes[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return float(0.5 * np.sum(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))


def grid_weighted_area(inside_fn, phi_fn, box, resolution: int = 2000) -> float:
    """Brute-force weighted area of ``{inside}`` with density ``exp(-phi(|x|))``.

    Midpoint rule over a Cartesian grid covering ``box = (xmin, xmax, ymin,
    ymax)``; first-order accurate at the boundary, good to ~1e-3 for the
    cross checks it supports.
    """
    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, resolution, endpoint=False) + (xmax - xmin) / (2 * resolution)
    ys = np.linspace(ymin, ymax, resolution, endpoint=False) + (ymax - ymin) / (2 * resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = inside_fn(gx, gy)
    r = np.hypot(gx, gy)
    dens = np.exp(-np.asarray(phi_fn(r), dtype=float))
    cell = (xmax - xmin) * (ymax - ymin) / resolution ** 2
    return float(np.sum(dens * mask) * cell)


# ----------------------------------------------------------------------
# Reference mesh kernels: one triangle at a time, in plain Python.
# ----------------------------------------------------------------------

def _segment_circle_params(p: np.ndarray, q: np.ndarray, radius: float) -> list[float]:
    d = q - p
    a = float(d @ d)
    if a == 0.0:
        return []
    b = 2.0 * float(p @ d)
    c = float(p @ p) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    root = math.sqrt(disc)
    return sorted(s for s in ((-b - root) / (2 * a), (-b + root) / (2 * a)) if 0.0 < s < 1.0)


def _clip_triangle_to_disk(pts: np.ndarray, radius: float) -> np.ndarray:
    """Triangle cut against the origin-centred disk, arcs replaced by chords."""
    out: list[np.ndarray] = []
    inside = [float(v @ v) <= radius * radius for v in pts]
    if all(inside):
        return pts
    for i in range(3):
        p, q = pts[i], pts[(i + 1) % 3]
        if inside[i]:
            out.append(p)
        for s in _segment_circle_params(p, q, radius):
            out.append(p + s * (q - p))
    return np.asarray(out) if len(out) >= 3 else np.empty((0, 2))


def _polygon_weighted_integral(poly, density, bary, weights) -> float:
    """Integral of ``density(|x|)`` over a convex polygon, fanned from vertex 0."""
    total = 0.0
    for i in range(1, len(poly) - 1):
        tri = np.stack([poly[0], poly[i], poly[i + 1]])
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        if abs(area) < 1e-300:
            continue
        xq = bary @ tri
        total += area * float(weights @ density(np.hypot(xq[:, 0], xq[:, 1])))
    return total


def disk_intersection_by_triangle(nodes, triangles, density, radius, bary, weights):
    """Weighted areas of ``mesh ∩ B_radius`` and of the whole mesh, clipping
    one triangle at a time with chords and fanning each clipped polygon from
    its first vertex through the quadrature rule ``(bary, weights)``."""
    inter = total = 0.0
    for tri in triangles:
        pts = nodes[tri]
        total += _polygon_weighted_integral(pts, density, bary, weights)
        clipped = _clip_triangle_to_disk(pts, radius)
        if len(clipped) >= 3:
            inter += _polygon_weighted_integral(clipped, density, bary, weights)
    return inter, total


def refine_by_dict(nodes, triangles, boundary_nodes, project=None):
    """Split every triangle into four with dict-based edge bookkeeping.

    Edges are numbered in the order a walk over the sides ``ab, bc, ca`` of
    each triangle first meets them; boundary midpoints (edges of one
    triangle) go through ``project`` when given.  Returns the refined
    ``(nodes, triangles, boundary_nodes)``, triangles oriented
    counter-clockwise.
    """
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1

    out_nodes = [tuple(p) for p in nodes]
    midpoint_index: dict[tuple[int, int], int] = {}
    boundary_keys, boundary_mids = [], []
    for (a, b), count in counts.items():
        mid = 0.5 * (nodes[a] + nodes[b])
        midpoint_index[(a, b)] = len(out_nodes)
        out_nodes.append(tuple(mid))
        if count == 1:
            boundary_keys.append(midpoint_index[(a, b)])
            boundary_mids.append(mid)
    out_nodes = np.asarray(out_nodes, dtype=float)
    if boundary_mids and project is not None:
        out_nodes[np.asarray(boundary_keys, dtype=int)] = project(np.asarray(boundary_mids))

    tris = []
    for a, b, c in triangles:
        mab = midpoint_index[(a, b) if a < b else (b, a)]
        mbc = midpoint_index[(b, c) if b < c else (c, b)]
        mca = midpoint_index[(c, a) if c < a else (a, c)]
        tris.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])
    tris = np.asarray(tris, dtype=int)
    p = out_nodes[tris]
    area = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    tris[area < 0] = tris[area < 0][:, [0, 2, 1]]

    new_boundary = (
        np.sort(np.concatenate([boundary_nodes, np.asarray(boundary_keys, dtype=int)]))
        if boundary_keys
        else boundary_nodes.copy()
    )
    return out_nodes, tris, new_boundary


def prolongation_by_dict(num_nodes, triangles) -> sparse.csr_matrix:
    """P1 prolongation onto the mesh :func:`refine_by_dict` makes: the
    identity on the coarse nodes, then one row per edge midpoint, in the
    order a walk over the sides ``ab, bc, ca`` first meets the edges, with
    1/2 at the edge's two ends."""
    midpoints: dict[tuple[int, int], None] = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            midpoints.setdefault((min(u, v), max(u, v)))
    entries = [(i, i, 1.0) for i in range(num_nodes)]
    for row, (u, v) in enumerate(midpoints, start=num_nodes):
        entries += [(row, u, 0.5), (row, v, 0.5)]
    rows, cols, vals = zip(*entries)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(num_nodes + len(midpoints), num_nodes)
    )


def assemble_by_einsum(nodes, triangles, stiff_density, mass_density, bary, weights):
    """P1 stiffness and mass matrices from one einsum per local block.

    ``stiff_density`` and ``mass_density`` map the quadrature points, an
    array of shape ``(len(bary), len(triangles), 2)``, to the integrand
    factors there.  Returns ``(K, M)`` as CSR matrices.
    """
    p = nodes[triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    two_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * two_area
    # the hat gradients: the opposite edge rotated by -90 degrees over 2|T|
    b = np.stack([p[:, (i + 1) % 3] - p[:, (i + 2) % 3] for i in range(3)], axis=1)
    b = np.stack([b[..., 1], -b[..., 0]], axis=-1) / two_area[:, None, None]
    xq = np.einsum("qi,mid->qmd", bary, p)
    stiff_coeff = area * np.einsum("q,qm->m", weights, stiff_density(xq))
    k_local = np.einsum("mid,mjd,m->mij", b, b, stiff_coeff)
    m_local = np.einsum("q,qi,qj,qm,m->mij", weights, bary, bary, mass_density(xq), area)
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    n = len(nodes)
    return tuple(
        sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        for local in (k_local, m_local)
    )


def lowest_nonzero(mesh, space, weight, count: int = 1):
    """Assemble and solve in one call, through the package under test."""
    from wittenlab.fem import assemble, solve_lowest

    return solve_lowest(assemble(mesh, space, weight), count=count)


def _metric(curvature: int):
    if curvature == 0:
        return lambda t: t
    if curvature == -1:
        return math.sinh
    raise ValueError("curvature must be 0 or -1")


def _sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _adaptive(fn, lo: float, hi: float, knots) -> float:
    """Adaptive Gauss-Kronrod integral at ``epsrel`` 1e-13, told the knots
    inside ``(lo, hi)`` where ``fn`` is only finitely smooth."""
    points = [k for k in knots if lo < k < hi] or None
    return quad(fn, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500, points=points)[0]


def weighted_annulus_volume_quad(n, curvature, phi_fn, inner, outer, knots=()) -> float:
    """``sigma_{n-1} int_inner^outer S^{n-1} exp(-phi) dt`` by adaptive quadrature."""
    S = _metric(curvature)
    return _sphere_area(n) * _adaptive(
        lambda t: S(t) ** (n - 1) * math.exp(-float(phi_fn(t))), inner, outer, knots
    )


def rayleigh_integrals_quad(n, curvature, phi_fn, f, fprime, lower, upper, knots=()):
    """Energy and mass integrals of a radial profile ``f`` (see
    ``radial.ball_rayleigh_integrals``) by adaptive quadrature, one scalar
    integrand evaluation per node."""
    S = _metric(curvature)

    def energy(t):
        s, fv, fp = S(t), float(f(t)), float(fprime(t))
        w = math.exp(-float(phi_fn(t)))
        return (fp * fp + (n - 1) * fv * fv / (s * s)) * s ** (n - 1) * w

    def mass(t):
        return float(f(t)) ** 2 * S(t) ** (n - 1) * math.exp(-float(phi_fn(t)))

    scale = _sphere_area(n) / n
    return (
        scale * _adaptive(energy, lower, upper, knots),
        scale * _adaptive(mass, lower, upper, knots),
    )


def geodesic_distance_poincare(x) -> float:
    """Geodesic distance from the origin of a point ``x`` of the Poincare unit
    disk, ``2 artanh |x|``; raises for ``|x| >= 1``."""
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r >= 1.0:
        raise ValueError(f"point with |x| = {r:.6g} lies outside the Poincare unit disk")
    return 2.0 * math.atanh(r)


def poincare_radius(geodesic_radius: float) -> float:
    """Disk-model radius of a geodesic radius: ``tanh(R/2)``."""
    if geodesic_radius <= 0:
        raise ValueError("geodesic radius must be positive")
    return math.tanh(0.5 * geodesic_radius)


def hyperbolic_ball_area(R: float) -> float:
    """Unweighted area of the hyperbolic geodesic disk: 2 pi (cosh R - 1)."""
    return 2.0 * math.pi * (math.cosh(R) - 1.0)


def hyperbolic_ball_volume_3d(R: float) -> float:
    """Unweighted volume of the hyperbolic 3-ball: pi (sinh 2R - 2R)."""
    return math.pi * (math.sinh(2.0 * R) - 2.0 * R)
