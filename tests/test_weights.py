"""Weight family construction and the admissibility condition."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from wittenlab import make_weight
from wittenlab.weights import CERTIFY_TOL, WeightFunction, _require_admissible, _spline_table


def spline_params(knots_t, knots_phi):
    return np.column_stack([knots_t, knots_phi]).ravel().tolist()


def unchecked_spline(knots_t, knots_phi, cap):
    # the interpolant as make_weight builds it, without the admissibility check
    params = tuple(spline_params(knots_t, knots_phi))
    return WeightFunction("tabulated-spline", params, cap, _spline_table(knots_t, knots_phi))


def test_constant_family():
    phi = make_weight("constant", [1.5], 10.0)
    assert phi.value(3.0) == 1.5
    assert phi.slope(3.0) == 0.0
    assert phi.convexity(3.0) == 0.0


def test_linear_family_example():
    phi = make_weight("linear-decreasing", [1.0, 0.5], 10.0)
    assert phi.value(2.0) == pytest.approx(0.0, abs=1e-15)
    assert phi.slope(2.0) == -0.5


@pytest.mark.parametrize("family", ["constant", "linear-decreasing", "exponential-decay"])
def test_closed_forms_match_written_out_formulas(family):
    # phi, phi' and phi'' against the formulas written out, bit for bit
    c, a, b, lam = 0.3, 0.4, 1.2, 0.7
    t = np.linspace(0.0, 4.0, 1001)
    zero = np.zeros_like(t)
    params, expected = {
        "constant": ([c], [np.full_like(t, c), zero, zero]),
        "linear-decreasing": ([c, a], [c - a * t, np.full_like(t, -a), zero]),
        "exponential-decay": (
            [c, b, lam],
            [c + b * np.exp(-lam * t), -b * lam * np.exp(-lam * t),
             b * lam * lam * np.exp(-lam * t)],
        ),
    }[family]
    phi = make_weight(family, params, 4.0)
    for fn, exact in zip((phi.value, phi.slope, phi.convexity), expected):
        assert fn(t).tobytes() == exact.tobytes(), fn.__name__


def test_exponential_family_example():
    phi = make_weight("exponential-decay", [0.0, 1.0, 1.0], 10.0)
    assert phi.value(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert phi.convexity(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert phi.slope(1.0) == pytest.approx(-np.exp(-1.0), rel=1e-15)


def test_spline_family_certifies_on_convex_decreasing_data():
    knots_t = np.linspace(0.0, 6.0, 25)
    knots_phi = 0.8 * np.exp(-0.9 * knots_t)
    phi = make_weight("tabulated-spline", spline_params(knots_t, knots_phi), 6.0)
    assert phi.value(3.0) == pytest.approx(0.8 * np.exp(-2.7), rel=1e-4)


def test_spline_of_concave_data_rejected_with_location():
    # phi(t) = -t^2 violates convexity everywhere but at the natural end
    # t = 0; the first knot past it is named, with the curvature there
    knots_t = np.linspace(0.0, 4.0, 17)
    params = spline_params(knots_t, -(knots_t ** 2))
    message = r"admissibility .*: convexity at t = 0\.25 \(phi'' = -2\.5"
    with pytest.raises(ValueError, match=message):
        make_weight("tabulated-spline", params, 4.0)


def test_increasing_weight_rejected_with_location():
    # a V whose right arm rises on [2, 6]: the spline rings near the corner,
    # so convexity already fails at the knot t = 0.1; the rising arm alone
    # fails monotonicity at its start
    knots_t = np.linspace(0.0, 6.0, 61)
    knots_phi = np.where(knots_t < 2.0, 2.0 - knots_t, knots_t - 2.0)
    with pytest.raises(ValueError, match=r"admissibility .*: convexity at t = 0\.1 \(phi''"):
        make_weight("tabulated-spline", spline_params(knots_t, knots_phi), 6.0)
    rising = spline_params(knots_t[20:] - 2.0, knots_phi[20:])
    message = r"admissibility .*: monotonicity at t = 0 \(phi' = 1"
    with pytest.raises(ValueError, match=message):
        make_weight("tabulated-spline", rising, 4.0)


def test_adversarial_spline_between_grid_points_refused():
    # (1 - t)^2 with seven knots 1e-5 apart after 0.5 and +1e-9 at 0.50004:
    # phi'' = -41.9 there, but nowhere on a 10,000-point uniform grid
    knots_t = np.array([0.0, 0.25, 0.5, *(0.5 + 1e-5 * np.arange(1, 8)), 0.75, 1.0])
    knots_phi = (1.0 - knots_t) ** 2
    knots_phi[6] += 1e-9
    phi = unchecked_spline(knots_t, knots_phi, 1.0)
    grid = np.linspace(0.0, 1.0, 10_000)
    assert np.all(phi.convexity(grid) >= 0.0) and np.all(phi.slope(grid) <= 0.0)
    assert phi.convexity(0.50004) == pytest.approx(-41.9, abs=0.05)
    with pytest.raises(ValueError, match="admissibility .*: convexity at t = 0.50002"):
        make_weight("tabulated-spline", phi.params, 1.0)


def test_slope_peak_inside_a_piece_refused():
    # knots 0..3 with phi'' = tol (0, 1/2, -1/2, 0): phi'' >= -tol and phi' =
    # tol (0.7, 0.95, 0.95, 0.7) <= tol at the knots, but phi'' changes sign
    # in the middle piece and phi' peaks there at 1.075 tol
    m = CERTIFY_TOL * np.array([0.0, 0.5, -0.5, 0.0])
    slope, knots_phi = 0.7 * CERTIFY_TOL, [0.0]
    for i in range(3):
        knots_phi.append(knots_phi[-1] + slope + m[i] / 2.0 + (m[i + 1] - m[i]) / 6.0)
        slope += (m[i] + m[i + 1]) / 2.0
    params = spline_params(np.arange(4.0), knots_phi)
    with pytest.raises(ValueError, match=r"monotonicity at t = 1\.5 \(phi' = 1\.0[78]e-10\)"):
        make_weight("tabulated-spline", params, 3.0)


def test_accepted_splines_hold_on_dense_grid():
    # 200 seeded knot sets of convex decreasing profiles whose curvature,
    # from 1e-12 up, competes with knot noise of 1e-13 to 1e-9: every spline
    # make_weight accepts keeps phi' <= tol and phi'' >= -tol at 10^6 points
    rng = np.random.default_rng(11)
    accepted = near_tol = 0
    for _ in range(200):
        k = int(rng.integers(4, 30))
        cap = float(rng.uniform(0.5, 20.0))
        gaps = rng.uniform(0.05, 1.0, k - 1)
        knots_t = np.concatenate([[0.0], np.cumsum(gaps)]) * cap / gaps.sum()
        knots_t[-1] = cap
        lam = float(rng.uniform(0.1, 3.0)) / cap
        knots_phi = 10.0 ** rng.uniform(-12, 0) / lam**2 * np.exp(-lam * knots_t)
        knots_phi += 10.0 ** rng.uniform(-13, -9) * rng.standard_normal(k)
        try:
            phi = make_weight("tabulated-spline", spline_params(knots_t, knots_phi), cap)
        except ValueError:
            continue
        grid = np.linspace(0.0, cap, 1_000_000)
        worst = max(np.max(phi.slope(grid)), -np.min(phi.convexity(grid)))
        assert worst <= CERTIFY_TOL
        accepted += 1
        near_tol += worst > 1e-12
    assert accepted >= 100 and near_tol >= 5


def test_invalid_params():
    with pytest.raises(ValueError):
        make_weight("constant", [], 1.0)
    with pytest.raises(ValueError):
        make_weight("linear-decreasing", [0.0, -1.0], 1.0)
    with pytest.raises(ValueError):
        make_weight("exponential-decay", [0.0, 1.0, -1.0], 1.0)
    with pytest.raises(ValueError):
        make_weight("no-such-family", [0.0], 1.0)
    with pytest.raises(ValueError):
        make_weight("constant", [np.inf], 1.0)
    with pytest.raises(ValueError):
        make_weight("constant", [0.0], -2.0)


def test_spline_knot_validation():
    with pytest.raises(ValueError):
        # non-monotone abscissae
        make_weight("tabulated-spline", [0.0, 1.0, 0.5, 0.9, 0.4, 0.8, 2.0, 0.1], 2.0)
    with pytest.raises(ValueError):
        # knots do not cover the cap
        make_weight("tabulated-spline", [0.0, 1.0, 0.5, 0.9, 1.0, 0.8, 1.5, 0.7], 3.0)


def test_evaluation_outside_cap_rejected():
    phi = make_weight("constant", [0.0], 2.0)
    with pytest.raises(ValueError):
        phi.value(2.5)
    with pytest.raises(ValueError):
        phi.value(-0.5)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["linear-decreasing", "exponential-decay"]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.05, max_value=4.8),
)
def test_slope_matches_finite_differences(family, c, a, t):
    # the derivative callables agree with centred differences of the value
    if family == "linear-decreasing":
        phi = make_weight(family, [c, a], 5.0)
    else:
        phi = make_weight(family, [c, a, 1.3], 5.0)
    h = 1e-6
    fd = (phi.value(t + h) - phi.value(t - h)) / (2 * h)
    assert fd == pytest.approx(float(phi.slope(t)), rel=1e-6, abs=1e-9)


def test_spline_slope_matches_finite_differences_on_interior_grid():
    knots_t = np.linspace(0.0, 5.0, 26)
    knots_phi = np.exp(-knots_t)
    params = np.column_stack([knots_t, knots_phi]).ravel().tolist()
    phi = make_weight("tabulated-spline", params, 5.0)
    ts = np.linspace(0.01, 4.99, 257)
    h = 1e-6
    fd = (phi.value(ts + h) - phi.value(ts - h)) / (2 * h)
    np.testing.assert_allclose(fd, phi.slope(ts), rtol=1e-6, atol=1e-8)


def test_certification_idempotent():
    # the check stamps nothing: a built weight is frozen and passes again
    knots_t = np.linspace(0.0, 4.0, 9)
    phi = make_weight("tabulated-spline", spline_params(knots_t, np.exp(-knots_t)), 4.0)
    before = phi.describe()
    _require_admissible(phi)
    assert phi.describe() == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.domain_cap = 5.0


def test_report_records_origin_value():
    phi = make_weight("exponential-decay", [0.25, 1.0, 1.0], 4.0)
    record = phi.describe()
    assert record["value_at_origin"] == pytest.approx(1.25, rel=1e-15)
    assert record["domain_cap"] == 4.0
    assert "certified" not in record


def test_spline_matches_scipy_natural_cubic_spline():
    # 200 seeded random knot sets, uneven spacing, evaluated inside, on the
    # knots and past both ends (the end pieces extend, as in CubicSpline)
    rng = np.random.default_rng(7)
    worst = np.zeros(3)
    for _ in range(200):
        k = int(rng.integers(4, 30))
        cap = float(rng.uniform(0.5, 20.0))
        gaps = rng.uniform(0.05, 1.0, k - 1)
        knots_t = np.concatenate([[0.0], np.cumsum(gaps)]) * cap / gaps.sum()
        knots_t[-1] = cap
        knots_phi = rng.standard_normal(k) * rng.uniform(0.1, 10.0)
        # mostly not admissible, so built through the interpolant itself
        phi = unchecked_spline(knots_t, knots_phi, cap)
        ref = CubicSpline(knots_t, knots_phi, bc_type="natural")
        t = np.concatenate([rng.uniform(0.0, cap, 400), knots_t, [-1e-10, cap + 1e-10]])
        for nu, fn in enumerate((phi.value, phi.slope, phi.convexity)):
            ours, exact = fn(t), ref(t, nu)
            worst[nu] = max(worst[nu], np.max(np.abs(ours - exact)) / np.max(np.abs(exact)))
    assert np.all(worst <= 1e-12), worst


def test_spline_curvatures_match_scipy_solve_banded():
    # the knots' second derivatives, twice the table's half curvature at
    # each interior knot, against LAPACK's tridiagonal solve, bit for bit
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(4, 30))
        knots_t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, k - 1))])
        knots_phi = rng.standard_normal(k) * rng.uniform(0.1, 10.0)
        half_curvature = _spline_table(knots_t, knots_phi)[3]
        h = np.diff(knots_t)
        bands = np.zeros((3, k - 2))
        bands[0, 1:], bands[1], bands[2, :-1] = h[1:-1], 2.0 * (h[:-1] + h[1:]), h[1:-1]
        ref = scipy_linalg.solve_banded((1, 1), bands, 6.0 * np.diff(np.diff(knots_phi) / h))
        assert np.array_equal(2.0 * half_curvature[1:], ref)


@pytest.mark.parametrize(
    "family, params",
    [
        ("constant", [0.7]),
        ("linear-decreasing", [0.3, 0.4]),
        ("exponential-decay", [0.0, 1.0, 0.5]),
        ("tabulated-spline", spline_params(np.arange(9) / 2.0, np.exp(-np.arange(9) / 2.0))),
    ],
)
def test_pickle_round_trip(family, params):
    # a weight is its family, parameters and cap: a pool worker receives it
    # by value, and equal arguments make equal weights
    phi = make_weight(family, params, 4.0)
    copy = pickle.loads(pickle.dumps(phi))
    assert copy == phi and hash(copy) == hash(phi)
    again = make_weight(family, params, 4.0)
    assert again == phi and hash(again) == hash(phi)
    assert make_weight(family, params, 3.0) != phi
    t = np.linspace(0.0, 4.0, 1001)
    for name in ("value", "slope", "convexity"):
        assert getattr(copy, name)(t).tobytes() == getattr(phi, name)(t).tobytes(), name
