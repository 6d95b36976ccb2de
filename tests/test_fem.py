"""Finite element tests.

The single-triangle stiffness and mass matrices are checked against matrices
multiplied out by hand.  Spectra are checked against the separable square,
the frozen disk constant from the radial suite, and the radial collocation
solver in the hyperbolic case, which exercises the conformal-factor handling
end to end.
"""

import gc
import math
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from oracles import assemble_by_einsum, lowest_nonzero, poincare_radius
from wittenlab import fem
from wittenlab import mesh as msh
from wittenlab.checker import solve_case, weighted_disk_intersection
from wittenlab.fem import AssemblyError, EigsolveError, assemble, solve_lowest
from wittenlab.mesh import DomainSpec, Mesh, generate, load, refine, save
from wittenlab.radial import shoot_first_mode
from wittenlab.spaceform import BallSpec, SpaceForm
from wittenlab.weights import make_weight

MU1_DISK = 3.389957716671889  # frozen in test_radial.py

FLAT = SpaceForm(curvature=0)
HYP = SpaceForm(curvature=-1)


@pytest.fixture(scope="module")
def phi_zero():
    return make_weight("constant", (0.0,), 50.0)


@pytest.fixture(scope="module")
def unit_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return Mesh(nodes=nodes, triangles=tris)


class TestAssembly:
    def test_reference_triangle_matrices(self, unit_triangle, phi_zero):
        forms = assemble(unit_triangle, FLAT, phi_zero)
        k_ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        m_ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.allclose(forms.stiffness.toarray(), k_ref, atol=1e-14)
        assert np.allclose(forms.mass.toarray(), m_ref, atol=1e-15)

    def test_quadrature_rule_normalised(self):
        assert abs(msh.QUAD_WEIGHTS.sum() - 1.0) < 1e-15
        assert np.allclose(msh.QUAD_BARY.sum(axis=1), 1.0, atol=1e-15)
        # degree-4 exactness on the reference triangle: x^2 y^2 and x^4
        x, y = msh.QUAD_BARY[:, 1], msh.QUAD_BARY[:, 2]
        assert abs(np.dot(msh.QUAD_WEIGHTS, x**2 * y**2) - 2 * 1.0 / 180.0) < 1e-15
        assert abs(np.dot(msh.QUAD_WEIGHTS, x**4) - 2 * 1.0 / 30.0) < 1e-15

    def test_constants_in_stiffness_kernel(self, phi_zero):
        mesh = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15))
        w = make_weight("exponential-decay", (0.0, 1.0, 0.7), 50.0)
        for weight in (phi_zero, w):
            forms = assemble(mesh, FLAT, weight)
            ones = np.ones(forms.dimension)
            assert np.max(np.abs(forms.stiffness @ ones)) < 1e-12

    def test_mass_total_is_weighted_area_flat(self):
        mesh = refine(generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1)))
        forms = assemble(mesh, FLAT, make_weight("constant", (0.0,), 50.0))
        # polygon inscribed in the circle: slightly below pi, O(h^2) off
        assert abs(forms.mass.sum() - math.pi) < 1e-3

    def test_mass_total_is_weighted_area_hyperbolic(self, phi_zero):
        rd = poincare_radius(1.0)
        mesh = refine(generate(DomainSpec(shape="disk", radius=rd, target_edge_length=0.02)))
        area = assemble(mesh, HYP, phi_zero).mass.sum()
        assert abs(area - 2.0 * math.pi * (math.cosh(1.0) - 1.0)) < 1e-3

    def test_mass_total_converges_to_the_boundary_integral(self, phi_zero):
        # A quadrilateral in the Poincare disk keeps its boundary under
        # refinement, so its exact area is one number, and the six-point
        # rule's total of the smooth density (2 / (1 - |x|^2))^2 closes in on
        # it at least threefold per level (~60-fold: 8.7e-8, 1.5e-9, 2.4e-11
        # relative).  Under a weight with phi'(0) != 0 the density has a cone
        # at the origin and the error falls unevenly (1.2e-7 to 6.5e-8 from
        # L1 to L2 under the exponential weight).
        spec = DomainSpec(
            shape="polygon",
            vertices=((0.55, -0.15), (0.35, 0.55), (-0.5, 0.35), (-0.25, -0.55)),
            target_edge_length=0.1,
        )
        mesh = generate(spec)
        exact = weighted_disk_intersection(mesh, HYP, phi_zero, math.inf)
        errors = []
        for _ in range(3):
            errors.append(abs(assemble(mesh, HYP, phi_zero).mass.sum() - exact))
            mesh = refine(mesh)
        assert errors[0] >= 3.0 * errors[1] and errors[1] >= 3.0 * errors[2]

    def test_undersized_weight_domain_rejected(self, unit_triangle):
        small = make_weight("constant", (0.0,), 0.5)
        with pytest.raises(AssemblyError, match="defined up to"):
            assemble(unit_triangle, FLAT, small)

    def test_mesh_outside_poincare_disk_rejected(self, phi_zero):
        mesh = generate(DomainSpec(shape="disk", radius=1.2, target_edge_length=0.3))
        with pytest.raises(AssemblyError, match="Poincare"):
            assemble(mesh, HYP, phi_zero)

    @pytest.mark.parametrize("curvature", [0, -1])
    def test_matches_einsum_assembly(self, curvature):
        # flat and Poincare ellipses, each read through its carried edge
        # table and, built by hand without one, through the table its
        # construction sorts out of the triangles
        space = SpaceForm(curvature=curvature)
        radius = 1.0 if curvature == 0 else poincare_radius(1.0)
        spec = DomainSpec(shape="ellipse", semi_axis_x=1.4 * radius,
                          semi_axis_y=radius / 1.4, target_edge_length=0.1 * radius)
        carried = refine(generate(spec))
        bare = Mesh(nodes=carried.nodes, triangles=carried.triangles)
        for got, want in zip(bare.edge_table, msh._edges(carried.triangles), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        weight = make_weight("exponential-decay", (0.0, 1.0, 0.7), 50.0)

        def stiff_density(xq):
            r = np.hypot(xq[..., 0], xq[..., 1])
            return np.exp(-weight.value(r if curvature == 0 else 2.0 * np.arctanh(r)))

        def mass_density(xq):
            if curvature == 0:
                return stiff_density(xq)
            r2 = xq[..., 0] ** 2 + xq[..., 1] ** 2
            return stiff_density(xq) * (2.0 / (1.0 - r2)) ** 2

        expected = assemble_by_einsum(carried.nodes, carried.triangles, stiff_density,
                                      mass_density, msh.QUAD_BARY, msh.QUAD_WEIGHTS)
        for mesh in (carried, bare):
            forms = assemble(mesh, space, weight)
            for got, want in zip((forms.stiffness, forms.mass), expected):
                scale = abs(want).max()
                assert abs(got - want).max() <= 1e-14 * scale
                # one entry per node and two per edge
                assert got.nnz == len(mesh.nodes) + 2 * len(carried.edge_table[0])


class TestSpectra:
    def test_square_separable_spectrum(self, phi_zero):
        # the mode-four pairs need the finer pitch: P1 error grows with mu h^2
        mesh = generate(
            DomainSpec(
                shape="polygon",
                vertices=((0, 0), (1, 0), (1, 1), (0, 1)),
                target_edge_length=0.04,
            )
        )
        res = lowest_nonzero(mesh, FLAT, phi_zero, count=5)
        expected = math.pi**2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0])
        assert np.max(np.abs(res.eigenvalues / expected - 1.0)) < 0.01

    def test_disk_value_and_double_multiplicity(self, phi_zero):
        mesh = refine(generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1)))
        res = lowest_nonzero(mesh, FLAT, phi_zero, count=2)
        assert abs(res.eigenvalues[0] / MU1_DISK - 1.0) < 5e-3
        # exact mesh symmetry keeps the discrete doublet degenerate
        assert abs(res.eigenvalues[1] / res.eigenvalues[0] - 1.0) < 1e-3

    def test_hyperbolic_ball_matches_shooting(self, phi_zero):
        geodesic_radius = 1.0
        reference = shoot_first_mode(BallSpec(geodesic_radius, 2, HYP), phi_zero).mu
        mesh = refine(
            generate(
                DomainSpec(
                    shape="disk",
                    radius=poincare_radius(geodesic_radius),
                    target_edge_length=0.02,
                )
            )
        )
        res = lowest_nonzero(mesh, HYP, phi_zero, count=1)
        assert abs(res.eigenvalues[0] / reference - 1.0) < 5e-3

    def test_weighted_hyperbolic_ball_matches_shooting(self):
        w = make_weight("linear-decreasing", (0.3, 0.5), 50.0)
        reference = shoot_first_mode(BallSpec(1.0, 2, HYP), w).mu
        mesh = refine(
            generate(
                DomainSpec(shape="disk", radius=poincare_radius(1.0), target_edge_length=0.02)
            )
        )
        res = lowest_nonzero(mesh, HYP, w, count=1)
        assert abs(res.eigenvalues[0] / reference - 1.0) < 5e-3

    def test_quadratic_convergence(self, phi_zero):
        mesh = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1))
        errors = []
        for _ in range(3):
            res = lowest_nonzero(mesh, FLAT, phi_zero, count=1)
            errors.append(abs(res.eigenvalues[0] - MU1_DISK))
            mesh = refine(mesh)
        assert errors[0] > errors[1] > errors[2]
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(coarse / fine - 4.0) < 0.5

    def test_solver_diagnostics(self, phi_zero):
        mesh = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1))
        res = solve_lowest(assemble(mesh, FLAT, phi_zero), count=3)
        assert abs(res.zero_mode_value) < 1e-9
        assert res.zero_mode_spread < 1e-10
        assert np.max(res.residuals) <= fem.RESIDUAL_TOL
        assert res.modes.shape == (len(mesh.nodes), 3)
        # modes are mass-orthogonal to constants
        m_total = assemble(mesh, FLAT, phi_zero).mass @ np.ones(len(mesh.nodes))
        assert np.max(np.abs(res.modes.T @ m_total)) < 1e-8

    @pytest.mark.parametrize(
        "domain, space, weight",
        [
            (DomainSpec(shape="polygon", vertices=((0, 0), (1, 0), (1, 1), (0, 1)),
                        target_edge_length=0.1), FLAT, ("constant", (0.0,))),
            (DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15),
             FLAT, ("exponential-decay", (0.0, 1.1804, 0.509))),
            (DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.35,
                        target_edge_length=0.07), HYP, ("linear-decreasing", (0.3223, 0.421))),
        ],
        ids=["square", "crossing-ellipse", "poincare-ellipse"],
    )
    def test_base_solve_matches_arpack_to_convergence(self, domain, space, weight, monkeypatch):
        # fem's own factor with ARPACK stopped at 0.01 RESIDUAL_TOL against
        # ARPACK's own factorisation run to machine precision
        forms = assemble(refine(generate(domain)), space, make_weight(*weight, 50.0))
        K, M, dim = forms.stiffness, forms.mass, forms.dimension
        sigma = -1e-8 * K.diagonal().sum() / dim
        v0 = np.random.default_rng(0).standard_normal(dim)
        want = np.sort(eigsh(K, k=4, M=M, sigma=sigma, which="LM", v0=v0, tol=0)[0])[1:]
        calls = []
        splu = fem.splu
        monkeypatch.setattr(fem, "splu", lambda *a, **k: calls.append(a[0].shape) or splu(*a, **k))
        res = solve_lowest(forms, count=3)
        assert calls == [(dim, dim)]
        assert np.max(np.abs(res.eigenvalues / want - 1.0)) <= 1e-12
        assert np.max(res.residuals) <= 1e-10

    def test_count_validation(self, unit_triangle, phi_zero):
        forms = assemble(unit_triangle, FLAT, phi_zero)
        with pytest.raises(ValueError):
            solve_lowest(forms, count=0)
        with pytest.raises(EigsolveError, match="refine"):
            solve_lowest(forms, count=2)

    @pytest.mark.parametrize("refinements", [1, 2])
    def test_disconnected_mesh_refused_by_the_base_solve(self, phi_zero, refinements):
        # a disk beside an annulus has Euler characteristic 1 + 0, so
        # mesh.validate lets it through; its second zero eigenvalue trips a
        # constant-mode check of solve_lowest.  Which check fires depends on
        # the sign of round-off, so only the class is matched
        disk = generate(DomainSpec(shape="disk", radius=0.5, target_edge_length=0.2))
        ring = generate(DomainSpec(
            shape="annulus", inner_radius=1.0, outer_radius=1.5, target_edge_length=0.2
        ))
        mesh = Mesh(
            nodes=np.vstack([disk.nodes, ring.nodes]),
            triangles=np.vstack([disk.triangles, ring.triangles + len(disk.nodes)]),
        )
        msh.validate(mesh)
        with pytest.raises(EigsolveError):
            solve_case(mesh, FLAT, phi_zero, refinements=refinements)

    def test_translated_disk_same_spectrum_without_weight(self, phi_zero):
        # with phi constant the problem is translation invariant
        a = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.08))
        b = generate(
            DomainSpec(
                shape="translated-disk", radius=1.0, center=(5.0, 3.0), target_edge_length=0.08
            )
        )
        mu_a = lowest_nonzero(a, FLAT, phi_zero, count=1).eigenvalues[0]
        mu_b = lowest_nonzero(b, FLAT, phi_zero, count=1).eigenvalues[0]
        assert abs(mu_a - mu_b) < 1e-12 * mu_a

    def test_translated_disk_weight_breaks_translation(self):
        # a genuinely decreasing weight sees the displacement
        w = make_weight("exponential-decay", (0.0, 1.0, 0.5), 60.0)
        a = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.08))
        b = generate(
            DomainSpec(
                shape="translated-disk", radius=1.0, center=(2.0, 0.0), target_edge_length=0.08
            )
        )
        mu_a = lowest_nonzero(a, FLAT, w, count=1).eigenvalues[0]
        mu_b = lowest_nonzero(b, FLAT, w, count=1).eigenvalues[0]
        assert abs(mu_a - mu_b) > 1e-3 * mu_a


class TestTwoLevelSolve:
    """The fine solve of :func:`solve_case`, :func:`fem._lobpcg` from the
    prolonged coarse modes under a two-grid cycle, against the base solve on
    the same fine mesh and against ``eigsh``."""

    L_SHAPE = ((0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1))

    @staticmethod
    def _resolve(domain, tmp_path):
        """``domain``, or for ``"loaded"`` a perturbed disk saved and loaded
        back, a mesh without a prolongation."""
        if domain != "loaded":
            return domain
        path = tmp_path / "perturbed.mesh"
        save(generate(DomainSpec(shape="perturbed-disk", radius=1.0,
                                 perturbation=((3, 0.1),), target_edge_length=0.15)), path)
        return load(path)

    @pytest.mark.parametrize(
        "domain, space, weight",
        [
            (DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15),
             FLAT, ("constant", (0.0,))),
            (DomainSpec(shape="annulus", inner_radius=0.35, outer_radius=1.0,
                        target_edge_length=0.12), FLAT, ("exponential-decay", (0.0, 1.0, 0.5))),
            # polygons refine without projecting their midpoints
            (DomainSpec(shape="polygon", vertices=L_SHAPE, target_edge_length=0.08),
             FLAT, ("linear-decreasing", (0.0, 0.4))),
            (DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.35,
                        target_edge_length=0.07), HYP, ("linear-decreasing", (0.1, 0.4))),
            ("loaded", FLAT, ("exponential-decay", (0.0, 1.0, 0.5))),
            # mu_2 and mu_3 swap order between L0 and L1: a solve that climbs
            # level by level from the root reports mu_3 = 5.85993 as mu_2 at
            # L2, where mu_2 = 5.84661
            (DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15),
             FLAT, ("exponential-decay", (0.0, 1.1804, 0.509))),
            # mu_2 = 5.86137 and mu_3 = 5.86166 on L1 swap at L2, where they
            # are 5.85028 and 5.85617: LOBPCG from the prolonged L1 modes
            # converges to mu_3, a true eigenpair, so no check fires and the
            # error of 1.0e-3 exceeds est_rel_error = 4.2e-4
            pytest.param(
                DomainSpec(shape="ellipse", aspect=1.3995, target_edge_length=0.15),
                FLAT, ("exponential-decay", (0.0, 1.1804, 0.509)),
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="mu_2 and mu_3 swap between L1 and L2, and the fine "
                    "solve from the prolonged L1 modes returns mu_3 as mu_2",
                ),
            ),
        ],
        ids=["disk", "annulus", "polygon", "poincare-ellipse", "loaded-mesh", "crossing-ellipse",
             "crossing-L1-L2"],
    )
    def test_matches_base_solve(self, domain, space, weight, tmp_path):
        domain = self._resolve(domain, tmp_path)
        phi = make_weight(*weight, 50.0)
        # count 2: on the disk the double pair mu_1 = mu_2, both members
        sol = solve_case(domain, space, phi, conjecture=True, refinements=2)
        ref = solve_lowest(assemble(sol.mesh, space, phi), count=2)
        assert np.max(np.abs(sol.eigenvalues / ref.eigenvalues - 1.0)) < 1e-10

    def test_small_fine_level_solves_silently(self):
        # 9 fine nodes, fewer than 5 (count + 1): scipy's lobpcg warned here
        # and fell back to a dense eigensolver
        spec = DomainSpec(shape="polygon", vertices=((0, 0), (1, 0), (1, 1), (0, 1)),
                          target_edge_length=2.0)
        phi = make_weight("constant", (0.0,), 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_case(spec, FLAT, phi, conjecture=True, refinements=1)
        assert len(sol.mesh.nodes) == 9
        ref = solve_lowest(assemble(sol.mesh, FLAT, phi), count=2)
        assert np.max(np.abs(sol.eigenvalues / ref.eigenvalues - 1.0)) < 1e-10

    @pytest.mark.parametrize(
        "domain, space, weight",
        [
            (DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15),
             FLAT, ("exponential-decay", (0.0, 1.1804, 0.509))),
            (DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.35,
                        target_edge_length=0.07), HYP, ("linear-decreasing", (0.1, 0.4))),
            ("loaded", FLAT, ("exponential-decay", (0.0, 1.0, 0.5))),
        ],
        ids=["crossing-ellipse", "poincare-ellipse", "loaded-mesh"],
    )
    def test_lobpcg_against_eigsh(self, domain, space, weight, tmp_path):
        # the fine problem of solve_case at refinements = 2, set up as
        # solve_lowest sets it up
        domain = self._resolve(domain, tmp_path)
        phi = make_weight(*weight, 50.0)
        coarse_mesh = refine(domain if isinstance(domain, Mesh) else generate(domain))
        coarse = solve_lowest(assemble(coarse_mesh, space, phi), count=2)
        mesh = refine(coarse_mesh)
        forms = assemble(mesh, space, phi)
        K, M = forms.stiffness, forms.mass
        start = (mesh.prolongation @ coarse.modes).T
        tol = 0.1 * fem.RESIDUAL_TOL * min(
            np.linalg.norm(K @ x) / np.sqrt(x @ (M @ x)) for x in start
        )
        precond = fem._two_grid(K, mesh.prolongation, coarse.factor)
        vals, rows = fem._lobpcg(K, M, start, precond, tol)
        again = fem._lobpcg(K, M, start, precond, tol)
        assert vals.tobytes() == again[0].tobytes() and rows.tobytes() == again[1].tobytes()

        dim = forms.dimension
        sigma = -1e-8 * K.diagonal().sum() / dim
        v0 = np.random.default_rng(0).standard_normal(dim)
        want = np.sort(eigsh(K, k=3, M=M, sigma=sigma, which="LM", v0=v0, tol=0)[0])[1:]
        assert np.max(np.abs(vals / want - 1.0)) <= 1e-10
        for lam, x in zip(vals, rows):
            assert np.linalg.norm(K @ x - lam * (M @ x)) <= tol
        m1 = M @ np.ones(dim)
        m_norms = np.sqrt(np.einsum("ij,ij->i", rows, rows @ M))
        assert np.all(np.abs(rows @ m1) <= 1e-12 * m_norms * np.sqrt(m1.sum()))

    def test_iteration_limit_raises(self, monkeypatch):
        # scipy's lobpcg warned at its limit and returned its best iterate
        monkeypatch.setattr(fem, "LOBPCG_MAXITER", 1)
        spec = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15)
        phi = make_weight("exponential-decay", (0.0, 1.1804, 0.509), 50.0)
        with pytest.raises(EigsolveError, match=r"iteration 1 with residual \S+ > "):
            solve_case(spec, FLAT, phi, conjecture=True, refinements=2)

    @staticmethod
    def _two_grid_of(spec: DomainSpec, levels: int, phi):
        """The fine stiffness ``levels`` splits below ``generate(spec)`` and
        its two-grid cycle, set up as :func:`solve_lowest` sets it up."""
        coarse_mesh = generate(spec)
        for _ in range(levels - 1):
            coarse_mesh = refine(coarse_mesh)
        coarse = solve_lowest(assemble(coarse_mesh, FLAT, phi))
        mesh = refine(coarse_mesh)
        K = assemble(mesh, FLAT, phi).stiffness
        return K, fem._two_grid(K, mesh.prolongation, coarse.factor)

    def test_two_grid_symmetric_positive(self):
        spec = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.2)
        phi = make_weight("exponential-decay", (0.0, 1.0, 0.5), 50.0)
        K, cycle = self._two_grid_of(spec, 3, phi)
        # zero-sum rows, as LOBPCG's residuals are up to round-off: the
        # coarse solve of the barely shifted K_c - sigma M_c would scale a
        # constant part by ~1 / |sigma|
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, K.shape[0]))
        x, y = x - x.mean(), y - y.mean()
        # the cycle maps a block of rows to a block of rows
        tx, ty = cycle(np.array([x, y]))
        assert abs(x @ ty - y @ tx) <= 1e-12 * abs(x @ ty)
        block = rng.standard_normal((4, K.shape[0]))
        block -= block.mean(axis=1)[:, None]
        assert np.all(np.einsum("ij,ij->i", block, cycle(block)) > 0)
        rowwise = np.vstack([cycle(row[None]) for row in block])
        np.testing.assert_allclose(cycle(block), rowwise, rtol=1e-13)

    def test_smoother_is_the_two_step_chebyshev(self):
        mesh = refine(refine(generate(DomainSpec(shape="ellipse", aspect=1.4,
                                                 target_edge_length=0.2))))
        forms = assemble(mesh, FLAT, make_weight("exponential-decay", (0.0, 1.0, 0.5), 50.0))
        A = forms.stiffness
        S = fem._smoother(A)
        assert np.shares_memory(S.indices, A.indices)
        assert np.shares_memory(S.indptr, A.indptr)
        dinv = 1.0 / A.diagonal()
        lmax = np.max(abs(A) @ np.ones(A.shape[0]) * dinv)
        theta, delta = 11.0 * lmax / 20.0, 9.0 * lmax / 20.0
        c0, c1 = np.array([4.0 * theta, -2.0]) / (2.0 * theta**2 - delta**2)
        r = np.random.default_rng(7).standard_normal((A.shape[0], 3))
        z = dinv[:, None] * r
        want = c0 * z + c1 * dinv[:, None] * (A @ z)
        assert np.linalg.norm(S @ r - want) <= 1e-14 * np.linalg.norm(want)

    def test_two_grid_leaves_no_reference_cycle(self):
        # a cycle would keep the fine stiffness, its smoother and the coarse
        # factor alive after the solve until the next collection, stacking
        # cases in a pool worker
        spec = DomainSpec(shape="disk", radius=1.0, target_edge_length=0.3)
        K, cycle = self._two_grid_of(spec, 2, make_weight("constant", (0.0,), 50.0))
        gc.collect()
        gc.disable()
        try:
            cycle(np.ones((1, K.shape[0])))
            del cycle
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("refinements, applications", [(2, 11), (3, 11)])
    def test_two_grid_applications_of_a_solve(self, monkeypatch, refinements, applications):
        # the crossing ellipse above: one application per LOBPCG iteration
        calls = []
        two_grid = fem._two_grid

        def spy(K, P, F):
            cycle = two_grid(K, P, F)
            return lambda f: calls.append(f.shape) or cycle(f)

        monkeypatch.setattr(fem, "_two_grid", spy)
        spec = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15)
        phi = make_weight("exponential-decay", (0.0, 1.1804, 0.509), 50.0)
        solve_case(spec, FLAT, phi, conjecture=True, refinements=refinements)
        assert len(calls) == applications

    def test_edge_tables_of_a_solve(self, monkeypatch, phi_zero):
        # generate, then refinements = 3: only the root mesh sorts its edge
        # table; each refine derives its child's, and validation, assembly
        # and the boundary integral read the carried tables
        spec = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.2)
        root = len(generate(spec).triangles)
        calls = []
        edges = msh._edges
        spy = lambda t: calls.append(len(t)) or edges(t)
        for module in (msh, fem):
            monkeypatch.setattr(module, "_edges", spy, raising=False)
        solve_case(spec, FLAT, phi_zero, refinements=3)
        assert calls == [root]

    def test_hyperbolic_ellipse_meets_contract(self):
        # the benchmark's fem-refine hyperbolic ellipse with one of its
        # drawn weights: an underestimated smoothing interval (largest
        # eigenvalue by power steps) stalls LOBPCG far above the contract
        spec = DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.35,
                          target_edge_length=0.07)
        phi = make_weight("linear-decreasing", (0.3223, 0.421), 50.0)
        sol = solve_case(spec, HYP, phi, conjecture=True, refinements=2)
        ref = solve_lowest(assemble(sol.mesh, HYP, phi), count=2)
        assert np.max(np.abs(sol.eigenvalues / ref.eigenvalues - 1.0)) < 1e-10
