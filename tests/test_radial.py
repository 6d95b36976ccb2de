"""Radial collocation solver checks against series and finite-volume oracles.

Frozen reference values below were produced by the oracles in
``tests/oracles.py`` (power-series bisection for flat-ball modes, dense
finite-volume eigensolver for everything else); the oracle calls are kept in
the assertions so the pinned constants stay justified.  Two tests pin the
solver's own contract: a Chebyshev-tail tolerance that the degree cap cannot
meet raises, and tightened options agree with the default solve.
"""

import math
from itertools import pairwise

import numpy as np
import pytest

import oracles
from wittenlab import BallSpec, SpaceForm, make_weight, radial
from wittenlab.radial import (
    DEFAULT_OPTIONS,
    ShellSpec,
    ShootingError,
    ShootingOptions,
    ball_rayleigh_integrals,
    check_lemma_monotone,
    shoot_first_mode,
    shoot_general_mode,
    spherical_harmonic_multiplicity,
    symmetric_spectrum,
)

FLAT = SpaceForm(0)
HYP = SpaceForm(-1)

# oracle-pinned constants (flat unit ball, first mode): squares of the first
# positive Neumann abscissae
MU1_DISK = 3.389957716671889          # n=2: 1.8411837813406593**2
MU1_BALL3 = 4.33295855142938          # n=3: 2.0815759778181**2
MU1_BALL4 = 5.289587527091361         # n=4
MU_DISK_L0 = 14.681970642123892       # n=2, l=0: 3.831705970207512**2
MU_DISK_L2 = 9.32836321374636         # n=2, l=2


@pytest.fixture(scope="module")
def phi_zero():
    return make_weight("constant", [0.0], 12.0)


@pytest.fixture(scope="module")
def disk_solution(phi_zero):
    return shoot_first_mode(BallSpec(1.0, 2, FLAT), phi_zero)


def test_first_mode_matches_series_oracle(phi_zero, disk_solution):
    assert oracles.flat_ball_mode_eigenvalue(2, 1) == pytest.approx(MU1_DISK, rel=1e-13)
    assert disk_solution.mu == pytest.approx(MU1_DISK, rel=1e-6)
    # far tighter in practice; the contract line is the 1e-6 above
    assert disk_solution.mu == pytest.approx(MU1_DISK, rel=1e-9)
    assert disk_solution.residual <= 1e-10
    assert check_lemma_monotone(disk_solution)["passed"]


def test_first_mode_dimension_three(phi_zero):
    assert oracles.flat_ball_mode_eigenvalue(3, 1) == pytest.approx(MU1_BALL3, rel=1e-13)
    sol = shoot_first_mode(BallSpec(1.0, 3, FLAT), phi_zero)
    assert sol.mu == pytest.approx(MU1_BALL3, rel=1e-9)


def test_degree_zero_and_two_modes(phi_zero):
    assert oracles.flat_ball_mode_eigenvalue(2, 0) == pytest.approx(MU_DISK_L0, rel=1e-13)
    sol0 = shoot_general_mode(0, 0.0, 1.0, 2, FLAT, phi_zero, which=1)
    assert sol0.mu == pytest.approx(MU_DISK_L0, rel=1e-9)
    sol2 = shoot_general_mode(2, 0.0, 1.0, 2, FLAT, phi_zero, which=1)
    assert sol2.mu == pytest.approx(MU_DISK_L2, rel=1e-9)


def test_higher_indices_strictly_increasing_and_match_oracle(phi_zero):
    mus = [
        shoot_general_mode(1, 0.0, 1.0, 2, FLAT, phi_zero, which=k).mu for k in (1, 2, 3)
    ]
    assert mus[0] < mus[1] < mus[2]
    fd = oracles.fd_mode_eigenvalues(
        2, 0, lambda t: np.zeros_like(np.asarray(t, float)), 1, 0.0, 1.0, 3
    )
    np.testing.assert_allclose(mus, fd, rtol=1e-5)
    # every degree 0-3 and index 1-3 of the flat balls in n = 2-5, against
    # the Bessel-series oracle
    for n in (2, 3, 4, 5):
        for l in (0, 1, 2, 3):
            mus = [
                shoot_general_mode(l, 0.0, 1.0, n, FLAT, phi_zero, which=k).mu
                for k in (1, 2, 3)
            ]
            assert mus[0] < mus[1] < mus[2], (n, l)
            expected = [oracles.flat_ball_mode_eigenvalue(n, l, which=k) for k in (1, 2, 3)]
            np.testing.assert_allclose(mus, expected, rtol=1e-11, err_msg=f"n={n}, l={l}")


def test_weighted_flat_disk_against_fd_oracle():
    phi = make_weight("linear-decreasing", [0.0, 0.5], 10.0)
    sol = shoot_first_mode(BallSpec(1.0, 2, FLAT), phi)
    fd = oracles.fd_mode_eigenvalues(
        2, 0, lambda t: -0.5 * np.asarray(t, float), 1, 0.0, 1.0, 1
    )
    assert sol.mu == pytest.approx(fd[0], rel=1e-5)


def test_hyperbolic_disk_against_fd_oracle(phi_zero):
    sol = shoot_first_mode(BallSpec(1.0, 2, HYP), phi_zero)
    fd = oracles.fd_mode_eigenvalues(
        2, -1, lambda t: np.zeros_like(np.asarray(t, float)), 1, 0.0, 1.0, 1
    )
    assert sol.mu == pytest.approx(fd[0], rel=1e-5)
    # drift of the metric lowers the disk eigenvalue below its flat sibling
    assert sol.mu < MU1_DISK


def test_hyperbolic_weighted_ball_against_fd_oracle():
    phi = make_weight("exponential-decay", [0.0, 1.0, 1.0], 10.0)
    sol = shoot_first_mode(BallSpec(1.4, 2, HYP), phi)
    fd = oracles.fd_mode_eigenvalues(
        2, -1, lambda t: np.exp(-np.asarray(t, float)), 1, 0.0, 1.4, 1
    )
    assert sol.mu == pytest.approx(fd[0], rel=1e-5)
    # a spline weight whose knots 0.4 and 0.8 both lie inside the ball
    spline = make_weight(
        "tabulated-spline", [0.0, 2.0, 0.4, 1.3, 0.8, 0.8, 1.5, 0.35, 3.0, 0.0], 3.0
    )
    sol = shoot_first_mode(BallSpec(1.2, 3, HYP), spline)
    fd = oracles.fd_mode_eigenvalues(
        3, -1, spline.value, 1, 0.0, 1.2, 1
    )
    assert sol.mu == pytest.approx(fd[0], rel=1e-5)


def test_shell_neumann_mode_against_fd_oracle(phi_zero):
    sol = shoot_general_mode(0, 0.5, 1.0, 3, FLAT, phi_zero, which=1)
    fd = oracles.fd_mode_eigenvalues(
        3, 0, lambda t: np.zeros_like(np.asarray(t, float)), 0, 0.5, 1.0, 1
    )
    assert sol.mu == pytest.approx(fd[0], rel=1e-5)


def test_scaling_law(phi_zero):
    mu1 = shoot_first_mode(BallSpec(1.0, 2, FLAT), phi_zero).mu
    mu2 = shoot_first_mode(BallSpec(2.0, 2, FLAT), phi_zero).mu
    muh = shoot_first_mode(BallSpec(0.5, 2, FLAT), phi_zero).mu
    assert mu2 == pytest.approx(mu1 / 4.0, rel=1e-8)
    assert muh == pytest.approx(4.0 * mu1, rel=1e-8)


def test_weight_shift_leaves_eigenvalue_unchanged():
    lo = make_weight("linear-decreasing", [0.0, 0.8], 10.0)
    hi = make_weight("linear-decreasing", [5.0, 0.8], 10.0)
    a = shoot_first_mode(BallSpec(1.0, 2, FLAT), lo)
    b = shoot_first_mode(BallSpec(1.0, 2, FLAT), hi)
    assert b.mu == pytest.approx(a.mu, rel=1e-10)


def test_tightened_options_agree_with_default():
    # tenfold tighter tolerances move mu by under 1e-11 relative, ~1/3000 of a
    # radial case's budget: why the checker labels a radial margin unrefined
    phi = make_weight("linear-decreasing", [0.0, 0.8], 10.0)
    base = shoot_first_mode(BallSpec(1.0, 2, FLAT), phi)
    tight = shoot_first_mode(
        BallSpec(1.0, 2, FLAT), phi, ShootingOptions(rtol=1e-11, atol=1e-13, residual_tol=1e-11)
    )
    assert abs(base.mu - tight.mu) / base.mu < 1e-11
    assert tight.tail <= 1e-11 and tight.residual <= 1e-11


def test_unreachable_tail_tolerance_raises(phi_zero):
    # no degree up to the cap brings the Chebyshev tail below 1e-30
    with pytest.raises(ShootingError, match="degree cap"):
        shoot_first_mode(
            BallSpec(1.0, 2, FLAT), phi_zero, ShootingOptions(rtol=1e-30, atol=1e-30)
        )


def test_radius_beyond_weight_cap_rejected():
    phi = make_weight("constant", [0.0], 1.0)
    with pytest.raises(ValueError):
        shoot_first_mode(BallSpec(2.0, 2, FLAT), phi)


def test_extension_values(phi_zero, disk_solution):
    sol = disk_solution

    def T(t):  # the unextended interpolant
        t = np.asarray(t, dtype=float)
        return radial._times_power(t, sol._power, radial._piecewise(sol.nodes, sol.samples, t))

    f, fprime = sol.profile(0.5)
    assert float(f) == pytest.approx(float(T(0.5)[0]), rel=1e-12)
    assert float(sol.profile(1.2)[0]) == pytest.approx(float(T(1.0)[0]), rel=1e-12)
    assert float(sol.profile(1.2)[1]) == 0.0
    assert float(sol.profile(0.7)[1]) == pytest.approx(float(T(0.7)[1]), rel=1e-10)
    # flat past the radius, to the last bit
    f, fprime = sol.profile(np.array([1.0, 1.5, 4.0]))
    assert np.all(f == sol.profile(1.0)[0])
    assert np.array_equal(fprime, [T(1.0)[1], 0.0, 0.0])


@pytest.mark.parametrize("ball, weight", [
    (BallSpec(1.0, 2, FLAT), ("constant", [0.0], 12.0)),
    # knots at 0.4 and 0.8 split the radius into three pieces
    (BallSpec(1.2, 3, HYP),
     ("tabulated-spline", [0.0, 2.0, 0.4, 1.3, 0.8, 0.8, 1.5, 0.35, 3.0, 0.0], 3.0)),
], ids=["ball", "spline"])
def test_piecewise_is_each_piece_barycentric(ball, weight):
    # one loop serves a single piece too: bit for bit the direct call
    sol = shoot_first_mode(ball, make_weight(*weight))
    t = np.linspace(0.0, ball.radius, 301).reshape(7, 43)
    got = radial._piecewise(sol.nodes, sol.samples, t)
    flat = t.reshape(-1)
    piece = np.searchsorted(sol.nodes[1:, 0], flat, side="right")
    assert len(np.unique(piece)) == len(sol.nodes) == (1 if ball.radius == 1.0 else 3)
    for k in range(len(sol.nodes)):
        want = radial._barycentric(sol.nodes[k], sol.samples[k], flat[piece == k])
        assert got.reshape(-1, 2)[piece == k].tobytes() == want.tobytes()


def test_rayleigh_quotient_identity(phi_zero, disk_solution):
    A, B = ball_rayleigh_integrals(disk_solution, 0.0, 1.0)
    assert A / B == pytest.approx(disk_solution.mu, rel=1e-8)


def test_rayleigh_outside_closed_form(phi_zero, disk_solution):
    # beyond the ball f is constant, so for n=2 and no weight
    # A([R, 2R]) = pi f(R)^2 ln 2 and B = (pi/2) f(R)^2 * (4R^2 - R^2)/... via t dt
    A, B = ball_rayleigh_integrals(disk_solution, 1.0, 2.0)
    plateau = float(disk_solution.profile(1.0)[0])
    assert A == pytest.approx(math.pi * plateau ** 2 * math.log(2.0), rel=1e-10)
    assert B == pytest.approx(math.pi * plateau ** 2 * 1.5, rel=1e-10)


def test_rayleigh_degenerate_interval(phi_zero, disk_solution):
    assert ball_rayleigh_integrals(disk_solution, 0.7, 0.7) == (0.0, 0.0)


def test_rayleigh_beyond_weight_cap_rejected(disk_solution):
    # the weight's own range check bounds the integrals
    with pytest.raises(ValueError, match="enlarge domain_cap"):
        ball_rayleigh_integrals(disk_solution, 1.0, 1e3)


def test_rayleigh_identity_weighted_hyperbolic():
    # the spline ball of radius 1.2 crosses the knots 0.4 and 0.8, and
    # [r1, R], [R, r2] cross 0.8 and 1.5 (and R, where f' jumps to 0)
    spline = [0.0, 1.0, 0.4, 0.7, 0.8, 0.45, 1.5, 0.2, 3.0, 0.05, 6.5, 0.0]
    weights = [
        make_weight("exponential-decay", [0.1, 0.8, 1.2], 8.0),
        make_weight("tabulated-spline", spline, 6.0),
    ]
    for phi in weights:
        sol = shoot_first_mode(BallSpec(1.2, 3, HYP), phi)
        A, B = ball_rayleigh_integrals(sol, 0.0, 1.2)
        assert A / B == pytest.approx(sol.mu, rel=1e-8)
        for lower, upper in [(0.0, 1.2), (0.3, 1.2), (1.2, 2.5), (0.3, 2.5)]:
            ours = ball_rayleigh_integrals(sol, lower, upper)
            ref = oracles.rayleigh_integrals_quad(
                3, -1, phi.value,
                lambda t: sol.profile(t)[0], lambda t: sol.profile(t)[1], lower, upper,
                knots=[*spline[0::2], 1.2],
            )
            np.testing.assert_allclose(ours, ref, rtol=1e-10, err_msg=f"{phi.family}")


def test_monotonicity_check_passes_on_real_profiles():
    cases = [
        (FLAT, 2, make_weight("constant", [0.0], 12.0)),
        (FLAT, 3, make_weight("linear-decreasing", [0.0, 0.6], 12.0)),
        (HYP, 2, make_weight("exponential-decay", [0.0, 1.0, 1.0], 12.0)),
    ]
    for space, n, phi in cases:
        sol = shoot_first_mode(BallSpec(1.0, n, space), phi)
        report = check_lemma_monotone(sol)
        assert report["passed"], (space, n, report["worst_increase"], report["min_fprime"])


def test_monotonicity_check_flags_synthetic_bump():
    # increasing profile f(t) = t with a localized bump inside the ball of
    # radius 4: the ratio f/S = 1 + bump/t must rise on the bump's flank
    class BumpedProfile:
        ball = BallSpec(4.0, 2, FLAT)

        @staticmethod
        def profile(t):
            return t + 0.2 * np.exp(-((t - 2.0) ** 2) / 0.01), np.ones_like(t)

    report = check_lemma_monotone(BumpedProfile())
    assert not report["passed"]
    lo, hi = report["worst_interval"]
    assert 1.5 < lo < hi < 2.1  # the injected bump's rising flank


def test_multiplicities():
    assert [spherical_harmonic_multiplicity(l, 2) for l in range(4)] == [1, 2, 2, 2]
    assert [spherical_harmonic_multiplicity(l, 3) for l in range(4)] == [1, 3, 5, 7]
    assert [spherical_harmonic_multiplicity(l, 4) for l in range(4)] == [1, 4, 9, 16]


def test_disk_spectrum_with_multiplicities(phi_zero):
    vals = symmetric_spectrum(ShellSpec(0.0, 1.0), 2, FLAT, phi_zero, 5)
    expected = [MU1_DISK, MU1_DISK, MU_DISK_L2, MU_DISK_L2, MU_DISK_L0]
    np.testing.assert_allclose(vals, expected, rtol=1e-8)


def test_ball4_low_spectrum_is_first_mode(phi_zero):
    vals = symmetric_spectrum(ShellSpec(0.0, 1.0), 4, FLAT, phi_zero, 4)
    np.testing.assert_allclose(vals, [MU1_BALL4] * 4, rtol=1e-8)


def test_shell_spectrum_against_fd_oracle():
    phi = make_weight("linear-decreasing", [0.0, 0.5], 10.0)
    vals = symmetric_spectrum(ShellSpec(0.4, 1.0), 3, FLAT, phi, 4)
    fd_by_l = {
        l: oracles.fd_mode_eigenvalues(
            3, 0, lambda t: -0.5 * np.asarray(t, float), l, 0.4, 1.0, 2
        )
        for l in range(4)
    }
    expected = sorted(
        [v for l, fd in fd_by_l.items() for v in fd for _ in range(
            spherical_harmonic_multiplicity(l, 3))]
    )[:4]
    np.testing.assert_allclose(vals, expected, rtol=1e-5)


def test_shell_spec_validation():
    with pytest.raises(ValueError):
        ShellSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        ShellSpec(-0.1, 1.0)


def test_shell_spec_record_tag():
    assert ShellSpec(0.0, 1.25).describe() == "ball(radius=1.25)"
    assert ShellSpec(0.5, 1.0).describe() == "shell(0.5, 1)"


def test_eigenpairs_match_scipy_on_the_full_pencil():
    # numpy's eig on the system with the condition rows eliminated against
    # scipy's QZ on the whole pencil (A, t on the equation rows, 0 on the
    # condition rows); a hyperbolic shell with two spline knots inside has
    # Neumann rows at both ends and continuity rows at each knot
    scipy_linalg = pytest.importorskip("scipy.linalg")
    spline = make_weight(
        "tabulated-spline", [0.0, 2.0, 0.4, 1.3, 0.8, 0.8, 1.5, 0.35, 3.0, 0.0], 3.0
    )
    grids = [radial._chebyshev(a, b, 24) for a, b in pairwise(spline.breaks(0.3, 1.2))]
    A, t, condition = radial._collocation_system(
        np.stack([x for x, _ in grids]), np.stack([D for _, D in grids]), 0, 1, 3, HYP, spline
    )
    w, V = radial._eigenpairs(A, t, condition)
    w_ref = scipy_linalg.eig(A, np.diag(np.where(condition, 0.0, t)), right=False)

    def lowest(values):
        values = values[np.isfinite(values) & (np.abs(values) < 1e6)]
        return np.sort_complex(values)[:6]

    assert np.allclose(lowest(w), lowest(w_ref), rtol=1e-9, atol=0.0)
    # every pair solves the pencil: the equations to round-off, and the
    # conditions exactly as eliminated
    residual = A @ V - (t[:, None] * V) * np.where(condition, 0.0, 1.0)[:, None] * w
    assert np.max(np.abs(residual[:, np.abs(w) < 1e3])) < 1e-13 * np.max(np.abs(A))


def test_check_matrix_is_cached_barycentric_interpolation():
    # one read-only matrix per degree, exact on polynomials of that degree
    E = radial._check_matrix(24)
    assert E is radial._check_matrix(24)
    assert E.shape == (radial.PROFILE_SAMPLES, 25) and not E.flags.writeable
    x = radial._chebyshev(-1.0, 1.0, 24)[0]
    y = radial._lobatto_grid(-1.0, 1.0, radial.PROFILE_SAMPLES)
    np.testing.assert_allclose(E @ x ** 24, y ** 24, rtol=0.0, atol=1e-14)
    assert np.array_equal(E[[0, -1]], np.eye(25)[[0, -1]])


@pytest.mark.parametrize("space", [FLAT, HYP], ids=["flat", "hyperbolic"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("inner, outer", [(0.0, 1.0), (0.3, 1.1)], ids=["ball", "shell"])
def test_check_grid_on_one_piece_is_the_interval_grid(space, n, inner, outer):
    # on a one-piece interval the check grid is the interval's own Lobatto
    # grid, and the cached matrix gives what the profile's interpolant gives
    phi = make_weight("exponential-decay", [0.0, 1.0, 0.5], 12.0)
    m = radial.PROFILE_SAMPLES
    grid = inner + 0.5 * (outer - inner) * (1.0 - np.cos(math.pi * np.arange(m) / (m - 1)))
    grid[0], grid[-1] = inner, outer
    assert np.array_equal(radial._lobatto_grid([inner], [outer], m).reshape(-1), grid)
    for l in (0, 1, 2):
        for mode in radial._solve_degree(l, inner, outer, n, space, phi, 2, DEFAULT_OPTIONS):
            got = radial._on_check_grid([inner, outer], mode.samples, mode._power)
            want = mode.profile(grid)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (l, mode.mu)


def test_spline_ball_is_checked_on_every_piece():
    # knots at 0.4 and 0.8 split the ball into three pieces, each with its
    # own check grid; the degree-0 modes keep their zero counts and Neumann
    # residuals there, the first mode its positive derivative
    spline = make_weight(
        "tabulated-spline", [0.0, 2.0, 0.4, 1.3, 0.8, 0.8, 1.5, 0.35, 3.0, 0.0], 3.0
    )
    breaks = spline.breaks(0.0, 1.2)
    assert len(breaks) == 4
    for k, mode in enumerate(radial._solve_degree(0, 0.0, 1.2, 3, HYP, spline, 3,
                                                  DEFAULT_OPTIONS)):
        values, derivs = radial._on_check_grid(breaks, mode.samples, 0)
        assert values.shape == (3 * radial.PROFILE_SAMPLES,)
        assert radial._count_interior_zeros(values[:-1]) == k + 1
        assert abs(derivs[-1]) <= DEFAULT_OPTIONS.residual_tol * np.max(np.abs(derivs))
        assert mode.residual <= DEFAULT_OPTIONS.residual_tol
    first = shoot_first_mode(BallSpec(1.2, 3, HYP), spline)
    assert check_lemma_monotone(first)["passed"]
    assert first.residual <= DEFAULT_OPTIONS.residual_tol
    assert np.all(radial._on_check_grid(breaks, first.samples, 1)[1][:-1] > 0.0)
