"""Linear finite elements for the weighted Neumann eigenproblem in 2D.

The bilinear forms are assembled in the coordinates the mesh lives in.  For
the hyperbolic plane the mesh is a region of the Poincare unit disk; the
Dirichlet integral of the disk model is conformally invariant in two
dimensions, so the stiffness integrand carries only the radial weight factor
``exp(-phi(t))`` with ``t`` the geodesic distance of the quadrature point
from the model origin.  The mass integrand additionally picks up the squared
conformal factor ``(2 / (1 - |x|^2))^2``.  In the flat case both reduce to
the familiar weighted forms with ``t = |x|``.  The total mass is only the
six-point rule's estimate of the mesh's weighted area; a verdict reads the
exact one from :func:`wittenlab.checker.weighted_disk_intersection`.

No boundary terms appear anywhere: leaving the boundary alone *is* the
natural condition for these forms, and the kernel of the stiffness matrix is
exactly the constants (checked after every solve).

Assembly is vectorised over triangles in struct-of-arrays form (in the
spirit of Cuvelier, Japhet and Scarella, BIT Numer. Math. 56, 2016): each
triangle's three diagonal and three side entries are rows of ``(3, M)``
arrays, the six-point rule visits them one point at a time, and
``np.bincount`` adds them onto the nodes and onto the edges of the mesh's
carried edge table (``Mesh.edge_table``, which :func:`~wittenlab.mesh.refine`
derives level by level).  So each matrix is built from one entry per node
and two per edge, not nine per triangle.

The low spectrum is solved on two nested meshes.  The coarse level is
solved by shift-inverted Lanczos, whose shifted matrix is SPD and factorised
here, in symmetric mode without pivoting (:func:`_factor`), with ARPACK
stopped at a hundredth of the residual contract; the fine level by LOBPCG
on row blocks with the constant deflated (:func:`_lobpcg`), started from
the coarse modes prolonged to it (``Mesh.prolongation``, set by
:func:`~wittenlab.mesh.refine`) and preconditioned by one two-grid cycle
(:func:`_two_grid`) whose coarse solve is that same factor and whose
smoothing steps are one sparse product each.  So each two-level solve
factorises one matrix, the coarse one, and no fine-level matrix at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .mesh import QUAD_BARY, QUAD_WEIGHTS, Mesh
from .spaceform import SpaceForm
from .weights import WeightFunction


class AssemblyError(RuntimeError):
    """Mesh, geometry, and weight are mutually inconsistent."""


class EigsolveError(RuntimeError):
    """The sparse eigensolve did not produce a trustworthy spectrum."""


RESIDUAL_TOL = 1e-8
ZERO_MODE_REL_TOL = 1e-6
POINCARE_MARGIN = 1e-12
LOBPCG_MAXITER = 100


@dataclass
class AssembledForms:
    """Stiffness and mass matrices of one discretised problem."""

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix
    mesh: Mesh = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.stiffness.shape[0]


def _geodesic_radii(space: SpaceForm, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.hypot(x, y)
    if not space.is_hyperbolic:
        return r
    if np.max(r) >= 1.0 - POINCARE_MARGIN:
        raise AssemblyError(
            "hyperbolic meshes must stay strictly inside the Poincare unit "
            f"disk; found |x| = {np.max(r):.12g}"
        )
    return 2.0 * np.arctanh(r)


def assemble(mesh: Mesh, space: SpaceForm, weight: WeightFunction) -> AssembledForms:
    """Build the weighted stiffness and mass matrices on a mesh.

    The weight's domain must cover the farthest mesh node (measured
    geodesically for the hyperbolic case).

    Each matrix holds one entry per node and two per edge, from the mesh's
    :meth:`~wittenlab.mesh.Mesh.table`.  Per triangle its three diagonal
    entries and its three side entries (nodes ``k, k + 1``) are rows of
    ``(3, M)`` arrays, filled by the six-point rule one point at a time, and
    ``np.bincount`` adds them onto the nodes and the edges.  With ``e_k``
    the edge vector from corner ``k`` to ``k + 1`` and ``A`` the area, the
    stiffness entries are ``e_{i+1} . e_{j+1}`` times ``sum_q w_q rho(x_q) /
    4A``, the mass entries ``A sum_q w_q b_q[i] b_q[j] rho(x_q)``.
    """
    node_t = _geodesic_radii(space, *mesh.nodes.T)
    if np.max(node_t) > weight.domain_cap:
        raise AssemblyError(
            f"weight is only defined up to t = {weight.domain_cap:g} but the "
            f"mesh reaches geodesic radius {np.max(node_t):.6g}"
        )

    x, y = np.ascontiguousarray(mesh.nodes.T)[:, mesh.triangles.T]  # (3, M) each
    ex, ey = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y  # e_k, from corner k to k + 1
    area = 0.5 * (ex[0] * -ey[2] - ey[0] * -ex[2])
    if np.min(area) <= 0:
        raise AssemblyError("mesh contains a non-positive triangle")
    # the stiffness geometry row by row, with no rotated copy of the edge
    # vectors, and each input dropped once used: the quadrature loop and the
    # CSR conversions then hold no more than they need
    stiff_diag, stiff_side = np.empty_like(x), np.empty_like(x)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        stiff_diag[i] = ex[j] * ex[j] + ey[j] * ey[j]
        stiff_side[i] = ex[j] * ex[k] + ey[j] * ey[k]
    del ex, ey

    coeff = np.zeros(len(area))
    mass_diag, mass_side = np.zeros_like(x), np.zeros_like(x)
    for w, bary in zip(QUAD_WEIGHTS, QUAD_BARY):
        px, py = bary @ x, bary @ y
        rho = np.exp(-weight.value(_geodesic_radii(space, px, py)))
        coeff += w * rho
        if space.is_hyperbolic:
            rho *= (2.0 / (1.0 - px * px - py * py)) ** 2
        mass_diag += (w * bary * bary)[:, None] * rho
        mass_side += (w * bary * bary[[1, 2, 0]])[:, None] * rho
    del x, y
    coeff /= 4.0 * area
    stiff_diag *= coeff
    stiff_side *= coeff
    mass_diag *= area
    mass_side *= area

    edges, _, side = mesh.table()
    n = len(mesh.nodes)
    node_of, edge_of = mesh.triangles.T.ravel(), side.T.ravel()
    rows = np.concatenate([np.arange(n, dtype=np.int32), edges[:, 0], edges[:, 1]])
    cols = np.concatenate([np.arange(n, dtype=np.int32), edges[:, 1], edges[:, 0]])

    def csr(diag: np.ndarray, off: np.ndarray) -> sparse.csr_matrix:
        on_edges = np.bincount(edge_of, off.ravel(), minlength=len(edges))
        data = np.concatenate(
            [np.bincount(node_of, diag.ravel(), minlength=n), on_edges, on_edges]
        )
        return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    stiffness = csr(stiff_diag, stiff_side)
    mass = csr(mass_diag, mass_side)
    return AssembledForms(stiffness=stiffness, mass=mass, mesh=mesh)


@dataclass
class SpectrumResult:
    """Lowest nonzero modes of one assembled problem.

    ``eigenvalues`` excludes the constant mode, whose computed value and
    spatial spread are recorded separately as solver diagnostics.  A base
    solve keeps its factor of the shifted stiffness as ``factor``, the
    exact coarse solve of the two-grid cycle one level up.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray = field(repr=False)
    zero_mode_value: float = 0.0
    zero_mode_spread: float = 0.0
    residuals: np.ndarray = field(default=None, repr=False)
    dimension: int = 0
    factor: object = field(default=None, repr=False)


def _factor(A: sparse.spmatrix):
    """LU factorisation of the SPD matrix ``A``: symmetric mode, minimum
    degree ordering of ``A^T + A`` and no pivoting, which an SPD matrix
    never needs; against scipy's default column ordering with partial
    pivoting the factor holds ~20% fewer entries."""
    return splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _smoother(A: sparse.csr_matrix) -> sparse.csr_matrix:
    """The degree-2 Chebyshev smoother of :func:`_two_grid` for ``A`` as one
    matrix ``S = p(D^-1 A) D^-1 = c0 D^-1 + c1 D^-1 A D^-1``, ``D`` the
    diagonal of ``A``, so a smoothing step is one sparse product.

    ``S`` has the pattern of ``A``, which must hold each entry once, and
    shares its ``indices`` and ``indptr``.  The polynomial's error ``1 - t p(t)`` is the scaled
    Chebyshev ``T_2((theta - t) / delta) / T_2(theta / delta)`` on
    ``[lmax / 10, lmax]``; ``lmax`` is the Gershgorin bound ``max_i sum_j
    |a_ij| / a_ii``, the row sums taken straight from ``A``'s data: an
    estimate from below (ten power steps fall ~12% short) lets the smoother
    amplify the top of the spectrum and stalls the eigensolve.
    """
    dinv = 1.0 / A.diagonal()
    lmax = float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[:-1]) * dinv))
    theta, delta = 11.0 * lmax / 20.0, 9.0 * lmax / 20.0
    c0, c1 = np.array([4.0 * theta, -2.0]) / (2.0 * theta**2 - delta**2)
    rows = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))
    data = (c1 * dinv)[rows] * A.data * dinv[A.indices]
    diagonal = A.indices == rows
    data[diagonal] += c0 * dinv[rows[diagonal]]
    return sparse.csr_matrix((data, A.indices, A.indptr), shape=A.shape, copy=False)


def _two_grid(K: sparse.csr_matrix, P: sparse.csr_matrix, F):
    """One symmetric two-grid cycle for the fine stiffness ``K`` as a
    function of a block of right-hand sides, one per row, cycled row by row.

    It smooths with :func:`_smoother` of ``K``, corrects with ``P F^-1
    P^T``, ``P`` the prolongation and ``F`` the base solve's factor of the
    coarse ``K_c - sigma M_c``, and smooths again; the coarse level halves
    h, so its correction resolves about the bottom quarter of the spectrum
    and the smoother only damps the top.  The cycle is symmetric and
    positive definite, as the smoother's error polynomial stays inside
    [0, 1] below ``lmax / 10`` and at most 81/161 in size above.  ``|sigma|``
    is 1e-8 of the mean diagonal, so a constant part of ``f`` comes back
    amplified about that much more than the rest, for the caller to deflate.
    """
    S = _smoother(K)

    def cycle(f: np.ndarray) -> np.ndarray:
        x = S @ f
        x += P @ F.solve(P.T @ (f - K @ x))
        return x + S @ (f - K @ x)

    return lambda rows: np.array([cycle(f) for f in rows])


def _lobpcg(K, M, X: np.ndarray, precond, tol: float):
    """Ritz values and mass-normalised rows of the lowest ``len(X)`` pairs of
    ``K x = lam M x`` off the constants, by LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23, 2001) from the rows of ``X`` until every residual norm is at
    most ``tol``.  Blocks are C-ordered ``(count, n)``, one vector per row,
    so elementwise work runs along the long axis and each sparse product is
    a single-vector one.  The constant is deflated from the start rows and
    each preconditioned residual.  ``S = [X; W; P]``, ``K S`` and ``M S``
    live in preallocated buffers; a step restarts without ``P`` if its
    Cholesky or the Rayleigh-Ritz fails."""
    count, n = X.shape
    m1 = M @ np.ones(n) / M.sum()
    S, KS, MS = (np.empty((3 * count, n)) for _ in range(3))
    S[:count] = X - (X @ m1)[:, None]

    def orthonormalise(rows: slice) -> None:
        inverse = np.linalg.inv(np.linalg.cholesky(S[rows] @ MS[rows].T))
        for B in (S, KS, MS):
            B[rows] = inverse @ B[rows]

    def ritz(k: int) -> np.ndarray:
        # eigh reads the lower triangles only, so the Gram pair needs no symmetrising
        lam, C = eigh(S[:k] @ KS[:k].T, S[:k] @ MS[:k].T, subset_by_index=(0, count - 1))
        for B in (S, KS, MS):
            p = C[count:].T @ B[count:k]
            B[:count] = C[:count].T @ B[:count] + p
            B[2 * count:] = p
        return lam

    for i in range(count):
        KS[i], MS[i] = K @ S[i], M @ S[i]
    # k = 2 count until there is a P: its slice is then empty
    lam, k = ritz(count), 2 * count
    for iteration in range(LOBPCG_MAXITER + 1):
        R = KS[:count] - lam[:, None] * MS[:count]
        worst = np.max(np.linalg.norm(R, axis=1))
        if worst <= tol:
            return lam, S[:count].copy()
        if iteration == LOBPCG_MAXITER:
            break
        W = precond(R)
        S[count:2 * count] = W - (W @ m1)[:, None] - (W @ MS[:count].T) @ S[:count]
        for i in range(count, 2 * count):
            KS[i], MS[i] = K @ S[i], M @ S[i]
        try:
            orthonormalise(slice(count, 2 * count))
            try:
                orthonormalise(slice(2 * count, k))
                lam = ritz(k)
            except np.linalg.LinAlgError:
                lam = ritz(2 * count)
        except np.linalg.LinAlgError:
            break
        k = 3 * count
    raise EigsolveError(
        f"LOBPCG stopped at iteration {iteration} with residual {worst:.3g} > {tol:.3g}"
    )


def solve_lowest(
    forms: AssembledForms,
    count: int = 1,
    coarse: SpectrumResult | None = None,
) -> SpectrumResult:
    """Lowest ``count`` nonzero eigenvalues and their modes.

    Without ``coarse`` this is the base solve: shift-inverted Lanczos, with
    the shift just below zero (scaled by the mean diagonal of the stiffness
    matrix) so the factorised operator is definite and the constant mode
    comes out first.  That operator is factorised once by :func:`_factor`
    and handed to ARPACK, which stops at a relative accuracy of a hundredth
    of ``RESIDUAL_TOL`` rather than at machine precision; the result keeps
    the factor.  With ``coarse``, the base solve on the mesh that
    ``forms.mesh`` was refined from, :func:`_lobpcg` starts from the rows
    of ``(forms.mesh.prolongation @ coarse.modes).T``, with the constant
    deflated, and is preconditioned by one :func:`_two_grid` cycle for
    ``K`` whose coarse solve is ``coarse.factor``; nothing of the fine
    level is factorised.  Its absolute tolerance is a tenth of
    ``RESIDUAL_TOL`` times the smallest ``|K x|`` of the mass-normalised
    start modes.

    Either way the constant mode is then verified: its eigenvalue, on the
    fine level the Rayleigh quotient ``1^T K 1 / 1^T M 1``, must vanish
    relative to the spectral gap and its vector must be flat.  Every
    returned pair is residual-checked against the original matrices, and
    that check alone decides whether the solve is accepted.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    K, M = forms.stiffness, forms.mass
    dim = K.shape[0]
    if count + 1 >= dim:
        raise EigsolveError(
            f"requested {count} modes on a {dim}-node mesh; refine the mesh"
        )
    if coarse is None:
        sigma = -1e-8 * K.diagonal().sum() / dim
        # a fixed start vector makes reruns bit-identical; not the
        # constant vector, which lies in the stiffness kernel
        v0 = np.random.default_rng(0).standard_normal(dim)
        try:
            shifted = _factor(K - sigma * M)
            vals, vecs = eigsh(
                K, k=count + 1, M=M, sigma=sigma, which="LM", v0=v0,
                OPinv=LinearOperator((dim, dim), matvec=shifted.solve, dtype=K.dtype),
                tol=0.01 * RESIDUAL_TOL,
            )
        except Exception as exc:  # arpack failures come in several flavours
            raise EigsolveError(f"sparse eigensolve failed: {exc}") from exc
        order = np.argsort(vals)
        zero, flat = vals[order[0]], vecs[:, order[0]]
        spread = float(np.ptp(flat) / np.max(np.abs(flat)))
        kept_vals, kept_vecs = vals[order[1:]], vecs[:, order[1:]]
    else:
        # the constant is deflated exactly: its Rayleigh quotient, no spread
        zero, spread = K.sum() / M.sum(), 0.0
        start = (forms.mesh.prolongation @ coarse.modes).T
        norms = [np.linalg.norm(K @ x) / np.sqrt(x @ (M @ x)) for x in start]
        tol = 0.1 * RESIDUAL_TOL * min(norms)
        precond = _two_grid(K, forms.mesh.prolongation, coarse.factor)
        kept_vals, rows = _lobpcg(K, M, start, precond, tol)
        kept_vecs = rows.T

    gap = kept_vals[0]
    if gap <= 0:
        raise EigsolveError(
            f"first nonzero eigenvalue came out nonpositive ({gap:.3g})"
        )
    if abs(zero) > ZERO_MODE_REL_TOL * gap:
        raise EigsolveError(
            f"constant-mode eigenvalue {zero:.3g} is not small against the "
            f"spectral gap {gap:.3g}; the mesh may be disconnected"
        )
    if spread > 1e-5:
        raise EigsolveError(
            f"constant mode varies by {spread:.3g} across the mesh"
        )

    residuals = np.empty(count)
    for i in range(count):
        x = kept_vecs[:, i]
        kx = K @ x
        residuals[i] = np.linalg.norm(kx - kept_vals[i] * (M @ x)) / np.linalg.norm(kx)
    if np.max(residuals) > RESIDUAL_TOL:
        raise EigsolveError(
            f"eigenpair residual {np.max(residuals):.3g} exceeds {RESIDUAL_TOL:g}"
        )
    return SpectrumResult(
        eigenvalues=kept_vals,
        modes=kept_vecs,
        zero_mode_value=float(zero),
        zero_mode_spread=spread,
        residuals=residuals,
        dimension=dim,
        factor=shifted if coarse is None else None,
    )
