"""Verification-pipeline tests.

Volume matching is checked against closed forms and an independent
quadrature inversion.  The main comparison is exercised on the equality
case (the centred ball, both solver paths), on strictly-inside cases
(ellipse, square, shell, hyperbolic ellipse), and on the documented
boundary of the claim: a domain moved off the weight's anchor point can
beat the matched origin-centred ball, so those runs must report a
genuine negative gap and the trial-center diagnostic must explain why
(the direction field does not vanish at the ambient origin).  The open
question n-term sum reproduces the frozen square numbers, and the
pointwise reciprocal bound behind the trial-function argument is
property-tested.
"""

import importlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull

from oracles import (
    disk_intersection_by_triangle,
    grid_weighted_area,
    mesh_area,
    square_neumann_eigenvalues,
)
from wittenlab import checker, fem
from wittenlab.checker import (
    CheckerError,
    build_report,
    find_trial_center,
    hull_equations,
    match_ball_radius,
    solve_case,
    weighted_disk_intersection,
)
from wittenlab.mesh import QUAD_BARY, QUAD_WEIGHTS, DomainSpec, Mesh, generate, refine
from wittenlab.radial import ShellSpec, shoot_first_mode
from wittenlab.spaceform import (
    BallSpec, SpaceForm, s_kappa, unit_sphere_area, weighted_annulus_volume,
)
from wittenlab.weights import FAMILIES, make_weight

FLAT = SpaceForm(curvature=0)
HYP = SpaceForm(curvature=-1)

MU1_DISK = 3.389957716671889  # frozen in test_radial.py
SQUARE_SUM_LHS = 2.0 / math.pi**2  # two reciprocal pi^2 terms
SQUARE_SUM_RHS = 2.0 / (math.pi * MU1_DISK)  # 2 / mu_1 of the area-matched disk


@pytest.fixture(scope="module")
def phi_zero():
    return make_weight("constant", (0.0,), 50.0)


@pytest.fixture(scope="module")
def phi_lin():
    return make_weight("linear-decreasing", (0.3, 0.4), 50.0)


@pytest.fixture(scope="module")
def phi_exp():
    return make_weight("exponential-decay", (0.0, 1.0, 0.5), 50.0)


class TestMatchBallRadius:
    def test_flat_disk_area_inverts_to_unit_radius(self, phi_zero):
        radius, mismatch = match_ball_radius(FLAT, 2, phi_zero, math.pi)
        assert abs(radius - 1.0) < 1e-10
        # the mismatch is the matched disk's area minus the target
        assert abs(mismatch - (radius * radius - 1.0) * math.pi) < 1e-14

    def test_flat_ball_3d(self, phi_zero):
        vol = 4.0 * math.pi / 3.0 * 8.0
        assert abs(match_ball_radius(FLAT, 3, phi_zero, vol)[0] - 2.0) < 1e-10

    def test_hyperbolic_disk_area_closed_form(self, phi_zero):
        area = 2.0 * math.pi * (math.cosh(1.0) - 1.0)
        assert abs(match_ball_radius(HYP, 2, phi_zero, area)[0] - 1.0) < 1e-10

    def test_weighted_radius_against_independent_inversion(self):
        # phi(t) = -0.5 t makes the measure heavier outward, so the matched
        # radius for target pi sits below 1.  Closed-form volume:
        # int_0^R 2 pi t e^{0.5 t} dt, inverted by brentq without touching
        # the package quadrature.
        phi = make_weight("linear-decreasing", (0.0, 0.5), 50.0)
        a = 0.5

        def volume(r):
            return 2.0 * math.pi * ((r / a - 1.0 / a**2) * math.exp(a * r) + 1.0 / a**2)

        oracle = brentq(lambda r: volume(r) - math.pi, 1e-6, 2.0, xtol=1e-14)
        ours, mismatch = match_ball_radius(FLAT, 2, phi, math.pi)
        assert abs(mismatch) <= 1e-12 * math.pi
        assert ours < 1.0
        assert abs(ours - oracle) < 1e-9

    def test_target_beyond_certified_range(self):
        phi = make_weight("constant", (0.0,), 1.0)
        with pytest.raises(CheckerError, match="certified range"):
            match_ball_radius(FLAT, 2, phi, 10.0)

    def test_annulus_from_an_inner_radius(self, phi_zero):
        # flat annulus 1 <= t <= 2 has area 3 pi; a round-off target stays at
        # the inner radius instead of failing the match check
        assert abs(match_ball_radius(FLAT, 2, phi_zero, 3.0 * math.pi, 1.0)[0] - 2.0) < 1e-10
        assert abs(match_ball_radius(FLAT, 2, phi_zero, 1e-16, 1.0)[0] - 1.0) < 1e-14
        with pytest.raises(CheckerError, match="certified range"):
            match_ball_radius(FLAT, 2, make_weight("constant", (0.0,), 2.0), 10.0, 1.0)

    @pytest.mark.parametrize("space", [FLAT, HYP], ids=["flat", "hyperbolic"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cap", [5.0, 50.0, 200.0])
    def test_newton_against_brentq(self, monkeypatch, space, n, cap):
        # brentq on the package's own volume is the oracle; the Newton
        # iteration must land on the same radius with fewer volume
        # evaluations, the cap check included.  At hyperbolic cap 50 the
        # volume out to the cap is ~e^100 of the target.
        phi = make_weight("exponential-decay", (0.0, 1.0, 0.5), cap)
        calls = []
        volume = checker.weighted_annulus_volume

        def counted(*args):
            calls.append(args[-1])
            return volume(*args)

        monkeypatch.setattr(checker, "weighted_annulus_volume", counted)
        for r_true in (0.01, 0.3, 1.0, 4.9):
            target = volume(space, n, phi, 0.0, r_true)
            calls.clear()
            ours, mismatch = match_ball_radius(space, n, phi, target)
            ours_calls = len(calls)
            calls.clear()
            oracle = brentq(
                lambda r: counted(space, n, phi, 0.0, r) - target if r > 0 else -target,
                0.0, cap, xtol=1e-15, rtol=8.9e-16,
            )
            assert abs(ours - oracle) <= 1e-12 * oracle
            assert abs(mismatch) <= 1e-13 * target
            assert ours_calls < len(calls), (r_true, ours_calls, len(calls))

    @given(
        family=st.sampled_from(FAMILIES),
        space=st.sampled_from([FLAT, HYP]),
        n=st.integers(2, 5),
        scale=st.floats(0.1, 2.0),
        cap=st.floats(1.0, 6.0),
        inner_frac=st.just(0.0) | st.floats(0.0, 0.9),
        root_frac=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    # r0 = 3.50390625 - ulp: its 0.0039 step past the inner radius is
    # resolved to ulp(3.5), 1.1e-13 of the step, and V(r0) falls that short
    @example(family="constant", space=FLAT, n=3, scale=1.0, cap=4.0,
             inner_frac=0.875, root_frac=0.0078125)
    def test_start_is_an_upper_bound_of_the_root(
        self, family, space, n, scale, cap, inner_frac, root_frac
    ):
        # phi non-increasing and S(t) >= t make the start r0 an upper bound:
        # V(r0) >= target, up to the volume's own round-off and the rounding
        # of r0 itself, a few ulp(r0) times the slope dV/dr at r0
        params = {
            "constant": (scale,),
            "linear-decreasing": (scale, 0.4 * scale),
            "exponential-decay": (0.0, scale, 0.5 * scale),
            "tabulated-spline": (0.0, 2.0 * scale, cap / 3, 0.9 * scale,
                                 2 * cap / 3, 0.35 * scale, cap, 0.0),
        }[family]
        phi = make_weight(family, params, cap)
        inner = inner_frac * cap
        root = inner + root_frac * (cap - inner)
        target = weighted_annulus_volume(space, n, phi, inner, root)
        with mock.patch.object(
            checker, "weighted_annulus_volume", wraps=weighted_annulus_volume
        ) as spy:
            radius, _ = match_ball_radius(space, n, phi, target, inner)
        start = spy.call_args_list[0].args[-1]
        density = unit_sphere_area(n) * math.exp(-phi.value(inner)) / n
        assert start == min((inner**n + target / density) ** (1 / n), cap)
        assert start >= radius * (1.0 - 1e-14)
        if start < cap:
            slope = unit_sphere_area(n) * s_kappa(start, space) ** (n - 1) * math.exp(
                -phi.value(start)
            )
            shortfall = target * 1e-13 + 4.0 * math.ulp(start) * slope
            assert weighted_annulus_volume(space, n, phi, inner, start) >= target - shortfall

    @pytest.mark.parametrize("space", [FLAT, HYP], ids=["flat", "hyperbolic"])
    @pytest.mark.parametrize("inner", [0.0, 1.0])
    def test_target_past_the_cap_raises(self, phi_lin, space, inner):
        # the start is then past the cap, so the match starts at the cap and
        # its volume there proves the weight's range too small
        target = weighted_annulus_volume(space, 3, phi_lin, inner, 50.0) * (1.0 + 1e-9)
        with pytest.raises(CheckerError, match="certified range 50"):
            match_ball_radius(space, 3, phi_lin, target, inner)

    def test_underflowing_weight_starts_at_the_cap(self):
        # exp(-phi(inner)) underflows to 0, so no bound is formed: the match
        # starts at the cap, whose zero volume raises the cap error
        phi = make_weight("constant", (800.0,), 50.0)
        with pytest.raises(CheckerError, match="certified range"):
            match_ball_radius(FLAT, 2, phi, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_targets(self, phi_zero, bad):
        with pytest.raises(ValueError):
            match_ball_radius(FLAT, 2, phi_zero, bad)


class TestTheoremMain:
    def test_ball_equality_fem(self, phi_zero):
        spec = DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1)
        report = build_report(solve_case(spec, FLAT, phi_zero))
        assert report["method"] == "fem"
        assert report["passed"]
        assert abs(report["gap"]) <= report["tol_budget"]
        assert abs(report["matched_radius"] - 1.0) < 1e-3
        assert report["volume_match_rel_err"] <= 1e-8

    def test_ball_equality_radial_weighted(self, phi_lin):
        report = build_report(solve_case(
            ShellSpec(0.0, 1.0), FLAT, phi_lin, dimension=3
        ))
        assert report["method"] == "radial"
        assert report["passed"]
        assert abs(report["gap"]) <= report["tol_budget"]
        assert abs(report["matched_radius"] - 1.0) < 1e-9

    def test_ellipse_reproduces_classical_gap(self, phi_zero):
        spec = DomainSpec(shape="ellipse", aspect=1.2, target_edge_length=0.1)
        report = build_report(solve_case(spec, FLAT, phi_zero))
        assert report["passed"]
        assert report["gap"] > report["tol_budget"]  # strictly inside for a non-ball
        assert report["mu1_domain_below_ball"]
        # area pi up to mesh chord deficit, so the matched ball is the unit disk
        assert abs(1.0 / report["rhs"] - MU1_DISK) / MU1_DISK < 2e-3

    def test_square_gap_matches_analytic_values(self, phi_zero):
        square = DomainSpec(
            shape="polygon",
            vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
            target_edge_length=0.08,
        )
        report = build_report(solve_case(square, FLAT, phi_zero))
        assert report["passed"]
        mu_square = math.pi**2
        mu_ball = MU1_DISK * math.pi  # unit-area disk: mu scales by 1/R^2
        expected = 1.0 / mu_square - 1.0 / mu_ball
        assert abs(report["gap"] - expected) < 5e-4
        assert abs(report["eigenvalues"][0] - mu_square) / mu_square < 0.01

    def test_shell_three_dimensional(self, phi_zero):
        outer = (1.0 + 0.6**3) ** (1.0 / 3.0)
        report = build_report(solve_case(
            ShellSpec(0.6, outer), FLAT, phi_zero, dimension=3
        ))
        assert report["passed"]
        assert report["gap"] > report["tol_budget"]
        assert abs(report["matched_radius"] - 1.0) < 1e-9
        assert len(report["eigenvalues"]) == 2

    def test_hyperbolic_ellipse(self, phi_zero):
        spec = DomainSpec(
            shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.38, target_edge_length=0.05
        )
        report = build_report(solve_case(spec, HYP, phi_zero))
        assert report["curvature"] == -1
        assert report["passed"]
        assert report["gap"] > 0

    def test_hyperbolic_weighted_ball_equality(self, phi_lin):
        report = build_report(solve_case(ShellSpec(0.0, 0.8), HYP, phi_lin, dimension=3))
        assert report["passed"]
        assert abs(report["gap"]) <= report["tol_budget"]

    def test_centred_weighted_disk_passes(self, phi_exp):
        spec = DomainSpec(shape="disk", radius=0.8, target_edge_length=0.1)
        report = build_report(solve_case(spec, FLAT, phi_exp))
        assert report["passed"]
        assert abs(report["gap"]) <= report["tol_budget"]  # equality case again

    def test_shell_requires_dimension(self, phi_zero):
        with pytest.raises(ValueError, match="dimension"):
            build_report(solve_case(ShellSpec(0.0, 1.0), FLAT, phi_zero))

    def test_meshed_domain_rejects_other_dimensions(self, phi_zero):
        spec = DomainSpec(shape="disk", radius=1.0)
        with pytest.raises(ValueError, match="two-dimensional"):
            build_report(solve_case(spec, FLAT, phi_zero, dimension=3))

    @pytest.mark.parametrize("refinements", [0, -1])
    def test_meshed_domain_needs_a_refinement(self, phi_zero, refinements):
        spec = DomainSpec(shape="disk", radius=1.0)
        with pytest.raises(ValueError, match="refinements"):
            solve_case(spec, FLAT, phi_zero, refinements=refinements)

    def test_report_serialises(self, phi_zero):
        report = build_report(solve_case(ShellSpec(0.0, 1.0), FLAT, phi_zero, dimension=4))
        blob = json.dumps(report, sort_keys=True)
        back = json.loads(blob)
        assert back["dimension"] == 4
        assert back["passed"] is True
        assert len(back["eigenvalues"]) == 3


@pytest.fixture(scope="module")
def offset_report(phi_exp):
    spec = DomainSpec(
        shape="translated-disk", radius=0.8, center=(0.5, 0.0),
        target_edge_length=0.1,
    )
    return build_report(solve_case(spec, FLAT, phi_exp))


class TestOffCenterAnchoredWeight:
    """Boundary of the claim: the comparison assumes the weight's anchor and
    the domain's trial center coincide, which symmetry forces only for
    centred domains.  A disk moved off the anchor under a non-constant
    weight genuinely beats the matched origin-centred ball, and the
    direction-field diagnostic locates the reason."""

    def test_violation_is_resolved_not_marginal(self, offset_report):
        report = offset_report
        assert not report["passed"]
        assert report["gap"] < -10.0 * report["tol_budget"]
        # both sides pinned against independent solves (dense 1D finite
        # differences for the ball, a global polynomial Galerkin basis for
        # the domain), so the negative gap is not a discretisation artifact
        assert abs(report["eigenvalues"][0] - 5.01338087) / 5.01338087 < 2e-3
        assert abs(report["mu1_ball"] - 4.718752968188861) / 4.718752968188861 < 2e-4
        assert abs(report["matched_radius"] - 0.81998) < 5e-4

    def test_first_eigenvalue_beats_the_ball_only_off_centre(self, phi_exp):
        # mu_1 of the domain against mu_1 of the matched ball: above it (past
        # the budget) for the disk moved off the anchor, whose comparison
        # fails, and below it for a centred ellipse, whose comparison passes
        spec = DomainSpec(
            shape="translated-disk", radius=0.8, center=(0.5, 0.0), target_edge_length=0.12,
        )
        moved = build_report(solve_case(spec, FLAT, phi_exp))
        assert not moved["passed"]
        assert not moved["mu1_domain_below_ball"]
        spec = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15)
        centred = build_report(solve_case(spec, FLAT, phi_exp))
        assert centred["passed"]
        assert centred["mu1_domain_below_ball"]

    def test_same_disk_centred_is_equality(self, phi_exp):
        spec = DomainSpec(shape="disk", radius=0.8, target_edge_length=0.1)
        report = build_report(solve_case(spec, FLAT, phi_exp))
        assert report["passed"]

    def test_unweighted_translation_is_equality(self, phi_zero):
        spec = DomainSpec(
            shape="translated-disk", radius=0.8, center=(0.5, 0.0),
            target_edge_length=0.1,
        )
        report = build_report(solve_case(spec, FLAT, phi_zero))
        assert report["passed"]
        assert abs(report["gap"]) <= report["tol_budget"]

    def test_direction_field_does_not_vanish_at_anchor(self, phi_exp):
        spec = DomainSpec(
            shape="translated-disk", radius=0.8, center=(0.5, 0.0),
            target_edge_length=0.08,
        )
        volume = grid_weighted_area(
            lambda x, y: (x - 0.5) ** 2 + y**2 <= 0.64,
            lambda t: np.exp(-0.5 * t),
            box=(-0.4, 1.4, -0.9, 0.9),
            resolution=1200,
        )
        radius, _ = match_ball_radius(FLAT, 2, phi_exp, volume)
        mode = shoot_first_mode(BallSpec(radius, 2, FLAT), phi_exp)
        at_anchor = find_trial_center(spec, phi_exp, mode, start=(0.0, 0.0),
                                      max_iterations=0)
        assert at_anchor["residual"] > 1e-3  # orthogonality premise fails here
        solved = find_trial_center(spec, phi_exp, mode)
        assert solved["converged"]
        assert solved["iterations"] <= 3  # Newton with the exact Jacobian
        # a non-increasing weight puts more mass on the side far from the
        # anchor, so the field's zero lands past the disk center, not at it
        assert 0.5 < solved["center"][0] < 0.65
        assert abs(solved["center"][1]) < 1e-6


class TestSharper:
    def test_ball_itself_all_corrections_vanish(self, phi_lin):
        sol = solve_case(ShellSpec(0.0, 1.0), FLAT, phi_lin, dimension=3)
        report = build_report(sol, sharper=True)
        s = report["sharper"]
        assert s["passed"] and s["nonnegative_ok"]
        assert abs(s["r1"] - report["matched_radius"]) < 1e-9
        assert abs(s["r2"] - report["matched_radius"]) < 1e-9
        assert abs(s["rhs"]) < 1e-9
        assert abs(s["gap"]) < 1e-6

    def test_shell_outer_radius_is_r2(self, phi_zero):
        outer = (1.0 + 0.6**3) ** (1.0 / 3.0)
        report = build_report(solve_case(
            ShellSpec(0.6, outer), FLAT, phi_zero, dimension=3
        ), sharper=True)
        s = report["sharper"]
        assert s["passed"]
        assert s["rhs"] > 0  # strictly, since the shell is not the ball
        assert abs(s["r2"] - outer) < 1e-9  # outside part is already an annulus
        assert s["r1"] < report["matched_radius"]

    def test_centred_ellipse_passes(self, phi_zero):
        spec = DomainSpec(shape="ellipse", aspect=1.3, target_edge_length=0.1)
        report = build_report(solve_case(spec, FLAT, phi_zero), sharper=True)
        s = report["sharper"]
        assert s["passed"]
        assert s["rhs"] > 0
        assert s["r1"] < report["matched_radius"] < s["r2"]

    def test_centred_ellipse_weighted_passes(self, phi_lin):
        spec = DomainSpec(shape="ellipse", aspect=1.3, target_edge_length=0.1)
        report = build_report(solve_case(spec, FLAT, phi_lin), sharper=True)
        assert report["sharper"]["passed"]

    def test_offset_disk_unweighted_fails_strengthened_form(self, phi_zero):
        # Translation leaves the spectrum alone, so the strengthened
        # comparison's left side is zero while its annulus correction is
        # strictly positive: the strengthening does not survive moving the
        # domain off the anchor.  The plain comparison still passes.
        spec = DomainSpec(
            shape="translated-disk", radius=1.0, center=(0.3, 0.0),
            target_edge_length=0.1,
        )
        report = build_report(solve_case(spec, FLAT, phi_zero), sharper=True)
        assert report["passed"]  # plain reciprocal-sum comparison: equality
        s = report["sharper"]
        assert s["nonnegative_ok"]
        assert s["rhs"] > 0.03
        assert s["gap"] < -0.03
        assert not s["passed"]

    def test_budget_scales_with_the_disk(self, phi_zero):
        # Under a constant weight the discrete problems at these radii are
        # rescalings of one another, so gap over budget may not move.  The
        # sharper gap is in units of mu and the main budget in units of
        # 1/mu; carried over to (n-1)/LHS, it is (n-1) tol_budget / LHS^2.
        # The disk is the equality case, so it passes at every radius.
        ratios = []
        for radius in (0.3, 1.0, 3.0):
            spec = DomainSpec(shape="disk", radius=radius, target_edge_length=0.1 * radius)
            report = build_report(solve_case(spec, FLAT, phi_zero), sharper=True)
            assert report["sharper"]["passed"]
            ratios.append(report["sharper"]["gap"] * report["lhs"]**2 / report["tol_budget"])
        assert -1.0 < ratios[0] < 0.0
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-6)

    def test_negative_correction_fails_however_large_the_gap(self, phi_zero, monkeypatch):
        # Rayleigh integrals that make the annulus correction -1: the sharper
        # gap is then the main slack plus 1, yet the block must fail on the
        # sign of the correction alone
        spec = DomainSpec(shape="ellipse", aspect=1.3, target_edge_length=0.2)
        sol = solve_case(spec, FLAT, phi_zero, refinements=1)
        integrals = iter([(1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])  # A(r1, R), A(R, r2), B(0, R)
        monkeypatch.setattr(checker, "ball_rayleigh_integrals", lambda *args: next(integrals))
        s = build_report(sol, sharper=True)["sharper"]
        assert s["rhs"] == pytest.approx(-1.0)
        assert s["gap"] > 0
        assert not s["nonnegative_ok"]
        assert not s["passed"]

    def test_hyperbolic_rejected(self, phi_zero):
        with pytest.raises(CheckerError, match="flat"):
            build_report(solve_case(ShellSpec(0.0, 1.0), HYP, phi_zero, dimension=3), sharper=True)


CLIP_MESHES = [
    DomainSpec(shape="translated-disk", radius=0.8, center=(0.3, 0.1), target_edge_length=0.15),
    DomainSpec(shape="translated-disk", radius=0.5, center=(-0.6, 0.4), target_edge_length=0.1),
    DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.15),
    DomainSpec(shape="annulus", inner_radius=0.4, outer_radius=1.2, target_edge_length=0.15),
]
# polygons around the anchor, not symmetric about it: their sides keep more
# than 0.68 and 0.38 from the origin, and their corners lie within 1.0 and
# 0.66 of it, the quadrilateral inside the Poincare disk
PENTAGON = DomainSpec(
    shape="polygon",
    vertices=((0.9, -0.2), (0.6, 0.8), (-0.5, 0.7), (-0.8, -0.3), (0.1, -0.9)),
    target_edge_length=0.2,
)
QUADRILATERAL = DomainSpec(
    shape="polygon",
    vertices=((0.55, -0.15), (0.35, 0.55), (-0.5, 0.35), (-0.25, -0.55)),
    target_edge_length=0.1,
)


@pytest.fixture(scope="module")
def phi_spline():
    # knots at t = 0.3, 0.6 and 1, which B_0.65 crosses in flat space and
    # the first two of which B_0.35 crosses in the Poincare disk
    return make_weight(
        "tabulated-spline", (0.0, 2.0, 0.3, 1.5, 0.6, 1.1, 1.0, 0.7, 3.0, 0.0), 3.0
    )


class TestDiskIntersection:
    def test_against_grid_oracle(self, phi_exp):
        spec = DomainSpec(
            shape="translated-disk", radius=0.8, center=(0.3, 0.0),
            target_edge_length=0.05,
        )
        mesh = generate(spec)
        mesh = refine(mesh)
        inter = weighted_disk_intersection(mesh, FLAT, phi_exp, 0.75)
        total = weighted_disk_intersection(mesh, FLAT, phi_exp, math.inf)

        def inside_both(x, y):
            return ((x - 0.3) ** 2 + y**2 <= 0.64) & (x**2 + y**2 <= 0.5625)

        oracle_inter = grid_weighted_area(
            inside_both,
            lambda t: np.exp(-0.5 * t),
            box=(-0.6, 1.2, -0.9, 0.9),
            resolution=2400,
        )
        oracle_total = grid_weighted_area(
            lambda x, y: (x - 0.3) ** 2 + y**2 <= 0.64,
            lambda t: np.exp(-0.5 * t),
            box=(-0.6, 1.2, -0.9, 0.9),
            resolution=2400,
        )
        assert abs(inter - oracle_inter) / oracle_inter < 1e-3
        assert abs(total - oracle_total) / oracle_total < 1e-3
        assert inter < total

    def test_disk_fully_inside_radius(self, phi_zero):
        mesh = generate(DomainSpec(shape="disk", radius=0.5, target_edge_length=0.1))
        inter = weighted_disk_intersection(mesh, FLAT, phi_zero, 2.0)
        total = weighted_disk_intersection(mesh, FLAT, phi_zero, math.inf)
        assert abs(inter - total) <= 1e-15 * total
        assert abs(total - mesh_area(mesh)) <= 1e-14 * total

    @pytest.mark.parametrize("spec", [*CLIP_MESHES, PENTAGON], ids=lambda s: s.describe())
    def test_constant_weight_total_is_the_area(self, spec, phi_zero):
        # under a constant weight the flux is half the sum of cross(p, d)
        # over the boundary, the shoelace formula
        mesh = refine(generate(spec))
        total = weighted_disk_intersection(mesh, FLAT, phi_zero, math.inf)
        assert abs(total - mesh_area(mesh)) <= 1e-14 * total

    @pytest.mark.parametrize(
        "space, spec, radius",
        [(FLAT, PENTAGON, 0.85), (HYP, QUADRILATERAL, 0.5)],
        ids=["flat-pentagon", "poincare-quadrilateral"],
    )
    @pytest.mark.parametrize("weight", ["phi_exp", "phi_spline"])
    def test_polygon_is_level_independent(self, space, spec, radius, weight, request):
        # refinement does not move a polygon's boundary, so neither its total
        # nor its part inside a disk that cuts it may move
        phi = request.getfixturevalue(weight)
        base = generate(spec)
        levels = [base, refine(base), refine(refine(base))]
        for r in (radius, math.inf):
            values = [weighted_disk_intersection(mesh, space, phi, r) for mesh in levels]
            assert np.ptp(values) <= 1e-14 * values[0]

    @pytest.mark.parametrize(
        "space, spec, radius",
        [(FLAT, PENTAGON, 0.65), (HYP, QUADRILATERAL, 0.35)],
        ids=["flat-pentagon", "poincare-quadrilateral"],
    )
    @pytest.mark.parametrize("weight", ["phi_exp", "phi_lin", "phi_spline"])
    def test_ball_inside_the_domain(self, space, spec, radius, weight, request):
        # with B_R inside the domain the flux is the weighted area of B_R on
        # any mesh; R lies beyond two of the spline's knots
        phi = request.getfixturevalue(weight)
        t = 2.0 * math.atanh(radius) if space.is_hyperbolic else radius
        want = weighted_annulus_volume(space, 2, phi, 0.0, t)
        got = weighted_disk_intersection(generate(spec), space, phi, radius)
        assert abs(got - want) <= 1e-13 * want

    @staticmethod
    def reference(mesh, phi, radius):
        """The chord-clipping reference's inner volume; a triangle farther
        from the origin than ``radius`` plus the longest edge misses the
        disk and is skipped."""
        p = mesh.nodes[mesh.triangles]
        reach = radius + np.max(mesh.edge_lengths())
        near = np.hypot(p[..., 0], p[..., 1]).min(axis=1) < reach
        return disk_intersection_by_triangle(
            mesh.nodes, mesh.triangles[near], lambda t: np.exp(-phi.value(t)), radius,
            QUAD_BARY, QUAD_WEIGHTS,
        )[0]

    @pytest.mark.parametrize("spec", CLIP_MESHES, ids=lambda s: s.describe())
    @pytest.mark.parametrize("weight", ["phi_zero", "phi_exp"])
    def test_matches_per_triangle_reference(self, spec, weight, request):
        # The per-triangle reference replaces arcs with chords, O(h^2) in the
        # inner volume, so it converges to the flux: its error, summed over
        # two radii, falls at least threefold per level from L0 to L2.  Neither
        # radius meets a node, where the reference can drop a whole triangle.
        phi = request.getfixturevalue(weight)
        base = generate(spec)
        errors = [
            sum(
                abs(self.reference(mesh, phi, r) - weighted_disk_intersection(mesh, FLAT, phi, r))
                for r in (0.55, 0.75)
            )
            for mesh in (base, refine(base), refine(refine(base)))
        ]
        assert errors[0] >= 3.0 * errors[1] and errors[1] >= 3.0 * errors[2]

    @pytest.mark.parametrize("weight", ["phi_zero", "phi_exp"])
    def test_crossings_only_polygons(self, weight, request):
        # The equilateral triangle with circumradius 1 and inradius 1/2 against
        # R = 0.6: all three vertices lie outside the disk and every side
        # crosses it twice, and the sides (1.73) are longer than the disk's
        # diameter.  The oracle is the disk less three circular segments on
        # every level; at R = 0.47 the disk lies inside and the oracle is the
        # whole disk.  Both are integrated by scipy's adaptive quadrature.
        phi = request.getfixturevalue(weight)

        def density(r):
            return r * math.exp(-float(phi.value(r)))

        def disk(radius):
            return 2.0 * math.pi * quad(density, 0.0, radius, epsabs=0.0, epsrel=1e-13)[0]

        def segment(radius, offset):
            # the part of B_radius beyond a chord at distance offset, in the
            # polar angle psi = acos(offset / r), which makes it smooth
            def ring(psi):
                r = offset / math.cos(psi)
                return 2.0 * psi * density(r) * r * math.tan(psi)

            top = math.acos(offset / radius)
            return quad(ring, 0.0, top, epsabs=0.0, epsrel=1e-13)[0]

        want = {0.6: disk(0.6) - 3.0 * segment(0.6, 0.5), 0.47: disk(0.47)}
        corners = np.array([[1.0, 0.0], [-0.5, 0.75**0.5], [-0.5, -(0.75**0.5)]])
        equilateral = Mesh(nodes=corners, triangles=np.array([[0, 1, 2]]))
        # on the single triangle the chords inside the disk are 0.66 long at
        # 0.5 from the origin, where the 8-point rule is good to ~1e-11 under
        # a weight with phi'(0) != 0; refinement halves them
        levels = [(equilateral, 1e-11), (refine(equilateral), 1e-14),
                  (refine(refine(equilateral)), 1e-14)]
        for mesh, tol in levels:
            for radius, value in want.items():
                got = weighted_disk_intersection(mesh, FLAT, phi, radius)
                assert abs(got - value) <= tol * value

    @pytest.mark.parametrize("spec", CLIP_MESHES, ids=lambda s: s.describe())
    def test_radius_through_a_node(self, spec, phi_exp):
        # The flux is continuous in the radius: with the circle through a
        # boundary node it lies between its values just inside and just
        # outside, which differ by no more than the disk grows.
        mesh = refine(generate(spec))
        radii = np.hypot(*mesh.nodes[mesh.boundary_nodes].T)
        candidates = radii[(radii > 0.3) & (radii < 1.1)]
        for radius in candidates[:: max(1, len(candidates) // 6)]:
            lo, at, hi = (
                weighted_disk_intersection(mesh, FLAT, phi_exp, radius * f)
                for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)
            )
            assert lo <= at <= hi
            assert hi - lo <= 1e-10 * radius**2  # B_R grows by ~4 pi R^2 1e-12


def _moved(mesh: Mesh, nodes: np.ndarray) -> Mesh:
    """``mesh`` with its nodes at ``nodes``: the same triangles, no shape."""
    return Mesh(nodes=nodes, triangles=mesh.triangles)


# mirror images of themselves under y -> -y, all off the weight's anchor
MIRROR_DOMAINS = [
    DomainSpec(shape="translated-disk", radius=0.8, center=(0.4, 0.0), target_edge_length=0.15),
    DomainSpec(shape="ellipse", semi_axis_x=0.9, semi_axis_y=0.6, center=(0.3, 0.0),
               target_edge_length=0.15),
    DomainSpec(shape="perturbed-disk", radius=0.8, perturbation=((3, 0.1),), center=(0.2, 0.0),
               target_edge_length=0.15),
    DomainSpec(shape="polygon",
               vertices=((1.0, 0.0), (0.3, 0.7), (-0.6, 0.4), (-0.6, -0.4), (0.3, -0.7)),
               target_edge_length=0.15),
]


class TestMetamorphic:
    """Whole cases under maps that must not change them: a rotation about
    the weight's anchor, a translation under a constant weight, and a mirror
    symmetry of the domain."""

    @pytest.mark.parametrize("space", [FLAT, HYP], ids=["flat", "poincare"])
    def test_rotation_about_the_anchor(self, space, phi_exp):
        # a generic angle in flat space, which rounds the nodes, and a quarter
        # turn (x, y) -> (-y, x) in the Poincare disk, which does not
        mesh = generate(PENTAGON if space is FLAT else QUADRILATERAL)
        x, y = mesh.nodes.T
        if space is FLAT:
            c, s = math.cos(0.7), math.sin(0.7)
            turned = np.column_stack([c * x - s * y, s * x + c * y])
        else:
            turned = np.column_stack([-y, x])
        sharper = space is FLAT
        before, after = (
            build_report(solve_case(m, space, phi_exp), sharper=sharper)
            for m in (mesh, _moved(mesh, turned))
        )
        assert np.allclose(after["eigenvalues"], before["eigenvalues"], rtol=1e-12, atol=0.0)
        assert abs(after["volume"] - before["volume"]) <= 1e-14 * before["volume"]
        if sharper:
            moved = abs(after["sharper"]["gap"] - before["sharper"]["gap"])
            assert moved <= 1e-12 * before["mu1_ball"]

    @pytest.mark.parametrize("shift", [(0.3, -0.2), (-1.5, 2.0)])
    def test_translation_under_a_constant_weight(self, shift, phi_zero):
        mesh = generate(PENTAGON)
        before, after = (
            build_report(solve_case(m, FLAT, phi_zero))
            for m in (mesh, _moved(mesh, mesh.nodes + shift))
        )
        assert np.allclose(after["eigenvalues"], before["eigenvalues"], rtol=1e-12, atol=0.0)
        assert abs(after["volume"] - before["volume"]) <= 1e-14 * before["volume"]

    @pytest.mark.parametrize("spec", MIRROR_DOMAINS, ids=lambda s: s.shape)
    def test_mirror_symmetric_domain_centres_on_its_axis(self, spec, phi_exp):
        sol = solve_case(spec, FLAT, phi_exp)
        result = find_trial_center(sol.base_mesh, phi_exp, sol.ball_mode)
        assert result["converged"]
        assert abs(result["center"][1]) <= 1e-6


class TestConjectures:
    def test_square_reproduces_frozen_numbers(self, phi_zero):
        square = DomainSpec(
            shape="polygon",
            vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
            target_edge_length=0.08,
        )
        report = build_report(solve_case(square, FLAT, phi_zero, conjecture=True))
        c = report["conjecture"]
        assert c["verdict"] == "conjecture-consistent"
        assert not c["escalated"]
        assert abs(c["lhs"] - SQUARE_SUM_LHS) / SQUARE_SUM_LHS < 5e-3
        assert abs(c["rhs"] - SQUARE_SUM_RHS) / SQUARE_SUM_RHS < 5e-3
        assert c["gap"] > 0
        # the two analytic values really are what the suite freezes
        mu = square_neumann_eigenvalues(2)
        assert abs(sum(1.0 / m for m in mu) - SQUARE_SUM_LHS) < 1e-12

    def test_ball_equality_n_terms(self, phi_zero):
        sol = solve_case(ShellSpec(0.0, 1.0), FLAT, phi_zero, dimension=3, conjecture=True)
        report = build_report(sol)
        c = report["conjecture"]
        assert c["verdict"] == "conjecture-consistent"
        assert abs(c["gap"]) <= c["tol_budget"]

    def test_offset_weighted_disk_escalates_and_flags(self, phi_exp):
        # the n-term sum inherits the off-anchor deficit, so this is the
        # honest path through the escalation protocol: refine harder, then
        # keep the flag only because the margin stays negative
        spec = DomainSpec(
            shape="translated-disk", radius=0.8, center=(0.5, 0.0),
            target_edge_length=0.15,
        )
        report = build_report(solve_case(spec, FLAT, phi_exp, conjecture=True))
        c = report["conjecture"]
        assert c["escalated"]
        assert c["verdict"] == "counterexample-candidate"
        assert report["notes"]  # escalation is recorded on the report

    def test_escalation_factorises_one_level_per_solve(self, phi_exp, monkeypatch):
        # every factorisation, ours and any inside ARPACK's shift-invert:
        # the base solve factorises the coarse level L1, and the two-grid
        # cycle of the fine solve reuses that factor; the escalated solve
        # continues from the finest mesh, so its base solve factorises L3
        # alone.  Both are fem's own: the base solve hands its factor to
        # ARPACK
        spec = DomainSpec(
            shape="translated-disk", radius=0.8, center=(0.5, 0.0),
            target_edge_length=0.15,
        )
        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        sizes = {fem: [], arpack: []}
        for module in sizes:
            def spy(A, *args, module=module, splu=module.splu, **kwargs):
                sizes[module].append(A.shape[0])
                return splu(A, *args, **kwargs)
            monkeypatch.setattr(module, "splu", spy)
        report = build_report(solve_case(spec, FLAT, phi_exp, conjecture=True))
        assert report["conjecture"]["escalated"]
        levels = [generate(spec)]
        for _ in range(3):
            levels.append(refine(levels[-1]))
        _, n1, _, n3 = (len(mesh.nodes) for mesh in levels)
        assert sizes[fem] == [n1, n3]
        assert sizes[arpack] == []

    @pytest.mark.parametrize("conjecture", [False, True])
    @pytest.mark.parametrize(
        "domain,dimension",
        [
            (ShellSpec(0.0, 1.0), 3),
            (DomainSpec(shape="ellipse", aspect=1.2, target_edge_length=0.2), 2),
        ],
        ids=["shell", "mesh"],
    )
    def test_block_attached_when_solved_for_it(self, phi_exp, domain, dimension, conjecture):
        sol = solve_case(domain, FLAT, phi_exp, dimension, conjecture=conjecture)
        report = build_report(sol)
        assert len(report["eigenvalues"]) == dimension - 1 + conjecture
        assert (report["conjecture"] is not None) == conjecture
        # the main fields are the one comparison over n - 1 terms
        main = checker._comparison(sol, dimension - 1)
        assert {key: report[key] for key in main} == main
        if conjecture:
            block = report["conjecture"]
            assert block["passed"] == (block["gap"] >= -block["tol_budget"])
            assert block["verdict"] == (
                "conjecture-consistent" if block["passed"] else "counterexample-candidate"
            )

    def test_ellipse_margin_positive(self, phi_zero):
        spec = DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.12)
        report = build_report(solve_case(spec, FLAT, phi_zero, conjecture=True))
        c = report["conjecture"]
        assert c["verdict"] == "conjecture-consistent"
        assert c["gap"] > c["tol_budget"]


def pointwise_slack(mu, xi) -> tuple[bool, float]:
    """For ascending positive ``mu`` and a unit ``xi``, with weights ``a_i = 1 -
    xi_i^2`` (which sum to n-1), whether ``sum_i a_i / mu_i <= sum_{i<n} 1 /
    mu_i`` holds to round-off, and the right side minus the left."""
    mu, xi = np.asarray(mu, dtype=float), np.asarray(xi, dtype=float)
    rhs = float(np.sum(1.0 / mu[:-1]))
    slack = rhs - float(np.sum((1.0 - xi * xi) / mu))
    return bool(slack >= -1e-12 * max(1.0, abs(rhs))), slack


class TestPointwiseBound:
    def test_equal_eigenvalues_zero_slack(self):
        holds, slack = pointwise_slack([2.0, 2.0, 2.0], [0.0, 0.0, 1.0])
        assert holds
        assert abs(slack) < 1e-15

    def test_last_axis_direction_zero_slack(self):
        mu = [1.0, 2.0, 5.0, 9.0]
        holds, slack = pointwise_slack(mu, [0.0, 0.0, 0.0, 1.0])
        assert holds
        assert abs(slack) < 1e-15

    def test_first_axis_gives_maximal_slack(self):
        mu = [1.0, 2.0, 4.0]
        holds, slack = pointwise_slack(mu, [1.0, 0.0, 0.0])
        # weights (0, 1, 1): lhs = 1/2 + 1/4, rhs = 1 + 1/2
        assert holds
        assert abs(slack - 0.75) < 1e-15

    @given(
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_instances_hold(self, n, data):
        mu = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=1e-3, max_value=1e3),
                    min_size=n, max_size=n,
                )
            )
        )
        raw = data.draw(
            st.lists(
                st.floats(min_value=-1.0, max_value=1.0),
                min_size=n, max_size=n,
            ).filter(lambda v: sum(x * x for x in v) > 1e-6)
        )
        norm = math.sqrt(sum(x * x for x in raw))
        xi = [x / norm for x in raw]
        holds, slack = pointwise_slack(mu, xi)
        assert holds

    def test_vectorised_bulk_draw(self):
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            mu = np.sort(rng.uniform(0.05, 50.0, size=(4000, n)), axis=1)
            xi = rng.normal(size=(4000, n))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            a = 1.0 - xi**2
            lhs = np.sum(a / mu, axis=1)
            rhs = np.sum(1.0 / mu[:, :-1], axis=1)
            assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))


@pytest.fixture(scope="module")
def flat_profile(phi_zero):
    return shoot_first_mode(BallSpec(1.0, 2, FLAT), phi_zero)


HULL_MESHES = [
    DomainSpec(
        shape="polygon",
        vertices=((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)),
        target_edge_length=0.15,
    ),
    DomainSpec(shape="annulus", inner_radius=0.4, outer_radius=1.2, target_edge_length=0.15),
]


def assert_same_hull(ours, points):
    # the same edges in any order: every row has a partner within round-off
    ref = ConvexHull(points).equations
    assert ours.shape == ref.shape
    dist = np.abs(ours[:, None, :] - ref[None, :, :]).max(axis=2)
    assert dist.min(axis=1).max() <= 1e-12
    assert dist.min(axis=0).max() <= 1e-12


class TestHull:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_cloud_matches_convex_hull(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((int(rng.integers(3, 400)), 2)) * rng.uniform(0.1, 10.0)
        assert_same_hull(hull_equations(points), points)

    @pytest.mark.parametrize("spec", HULL_MESHES, ids=["L-shape", "annulus"])
    def test_boundary_nodes_span_the_mesh_hull(self, spec):
        # the L-shape's straight sides carry collinear boundary nodes, which
        # must not become corners; the annulus' inner ring lies inside
        mesh = generate(spec)
        for _ in range(2):
            ours = hull_equations(mesh.nodes[mesh.boundary_nodes])
            assert_same_hull(ours, mesh.nodes)
            assert np.allclose(np.hypot(ours[:, 0], ours[:, 1]), 1.0, rtol=0.0, atol=1e-15)
            mesh = refine(mesh)
        assert len(hull_equations(generate(HULL_MESHES[0]).nodes)) == 5


class TestTrialCenter:
    def test_centred_symmetric_domain_keeps_origin(self, phi_lin):
        spec = DomainSpec(shape="ellipse", aspect=1.3, target_edge_length=0.12)
        mode = shoot_first_mode(BallSpec(1.0, 2, FLAT), phi_lin)
        result = find_trial_center(spec, phi_lin, mode)
        assert result["converged"]
        assert math.hypot(*result["center"]) < 1e-8  # twofold symmetry pins it

    def test_translated_disk_unweighted_recovers_disk_center(self, flat_profile, phi_zero):
        spec = DomainSpec(
            shape="translated-disk", radius=0.7, center=(0.3, 0.0),
            target_edge_length=0.1,
        )
        result = find_trial_center(spec, phi_zero, flat_profile)
        assert result["converged"]
        assert abs(result["center"][0] - 0.3) < 1e-6
        assert abs(result["center"][1]) < 1e-10
        assert not result["escaped_hull"]

    def test_offset_ellipse_weighted_matches_grid_search(self):
        phi = make_weight("linear-decreasing", (0.0, 0.3), 50.0)
        spec = DomainSpec(
            shape="ellipse", semi_axis_x=0.9, semi_axis_y=0.7,
            center=(0.4, 0.0), target_edge_length=0.1,
        )
        mesh = generate(spec)
        volume = float(
            grid_weighted_area(
                lambda x, y: ((x - 0.4) / 0.9) ** 2 + (y / 0.7) ** 2 <= 1.0,
                lambda t: -0.3 * t,
                box=(-0.6, 1.4, -0.8, 0.8),
                resolution=1500,
            )
        )
        radius, _ = match_ball_radius(FLAT, 2, phi, volume)
        mode = shoot_first_mode(BallSpec(radius, 2, FLAT), phi)
        result = find_trial_center(mesh, phi, mode)
        assert result["converged"]
        assert result["iterations"] <= 3

        # independent coarse search: centroid-rule field on the same mesh
        pts = mesh.nodes[mesh.triangles]
        cent = pts.mean(axis=1)
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        dens = areas * np.exp(0.3 * np.hypot(cent[:, 0], cent[:, 1]))

        def field_norm(ox, oy):
            rel = cent - (ox, oy)
            r = np.maximum(np.hypot(rel[:, 0], rel[:, 1]), 1e-12)
            coeff = dens * mode.profile(r)[0] / r
            return math.hypot(coeff @ rel[:, 0], coeff @ rel[:, 1])

        grid = np.linspace(0.1, 0.7, 61)
        vals = [(field_norm(ox, 0.0), ox) for ox in grid]
        best_ox = min(vals)[1]
        assert abs(result["center"][0] - best_ox) < 0.02  # two grid steps
        assert abs(result["center"][1]) < 1e-6

    def test_zero_iterations_reports_field_at_start(self, flat_profile, phi_zero):
        spec = DomainSpec(
            shape="translated-disk", radius=0.7, center=(0.3, 0.0),
            target_edge_length=0.1,
        )
        probe = find_trial_center(spec, phi_zero, flat_profile, start=(0.0, 0.0),
                                  max_iterations=0)
        assert not probe["converged"]
        assert probe["residual"] > 1e-3  # off-center start sees a real field

    def test_step_across_the_hull_is_cut(self, flat_profile, phi_zero):
        # a thin ellipse searched from near its right tip: a Newton step
        # leaves the hull and is cut where it crosses it
        spec = DomainSpec(
            shape="ellipse", semi_axis_x=2.0, semi_axis_y=0.2, center=(0.5, 0.0),
            target_edge_length=0.05,
        )
        result = find_trial_center(spec, phi_zero, flat_profile, start=(2.4, 0.0))
        assert result["converged"] and result["escaped_hull"]
        assert result["iterations"] == 3
        assert math.hypot(result["center"][0] - 0.5, result["center"][1]) < 1e-8
        mesh = generate(spec)
        eqs = hull_equations(mesh.nodes[mesh.boundary_nodes])
        assert np.all(eqs[:, :2] @ result["center"] + eqs[:, 2] <= 1e-10)

    def test_outside_start_falls_back_to_centroid(self, flat_profile, phi_zero):
        spec = DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15)
        result = find_trial_center(spec, phi_zero, flat_profile, start=(5.0, 5.0))
        assert result["converged"]
        assert math.hypot(*result["center"]) < 1e-7
