"""Weight family construction and admissibility certification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from wittenlab import make_weight, property_I_certify


def test_constant_family():
    phi = make_weight("constant", [1.5], 10.0)
    assert phi.value(3.0) == 1.5
    assert phi.slope(3.0) == 0.0
    assert phi.convexity(3.0) == 0.0
    assert property_I_certify(phi).passed
    assert phi.certified


def test_linear_family_example():
    phi = make_weight("linear-decreasing", [1.0, 0.5], 10.0)
    assert phi.value(2.0) == pytest.approx(0.0, abs=1e-15)
    assert phi.slope(2.0) == -0.5
    assert property_I_certify(phi).passed


def test_exponential_family_example():
    phi = make_weight("exponential-decay", [0.0, 1.0, 1.0], 10.0)
    assert phi.value(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert phi.convexity(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert phi.slope(1.0) == pytest.approx(-np.exp(-1.0), rel=1e-15)
    assert property_I_certify(phi).passed


def test_spline_family_certifies_on_convex_decreasing_data():
    knots_t = np.linspace(0.0, 6.0, 25)
    knots_phi = 0.8 * np.exp(-0.9 * knots_t)
    params = np.column_stack([knots_t, knots_phi]).ravel().tolist()
    phi = make_weight("tabulated-spline", params, 6.0)
    report = property_I_certify(phi)
    assert report.passed, (report.worst_slope, report.worst_convexity)


def test_spline_of_concave_data_rejected_with_location():
    # phi(t) = -t^2 violates convexity everywhere; the report should say so
    knots_t = np.linspace(0.0, 4.0, 17)
    knots_phi = -(knots_t ** 2)
    params = np.column_stack([knots_t, knots_phi]).ravel().tolist()
    phi = make_weight("tabulated-spline", params, 4.0)
    report = property_I_certify(phi)
    assert not report.passed
    assert not phi.certified
    assert report.first_violation_kind == "convexity"
    assert report.worst_convexity < -1.0  # true curvature is -2 throughout


def test_increasing_weight_rejected_with_location():
    # a bump that rises on [2, 4]: slope is positive there
    knots_t = np.linspace(0.0, 6.0, 61)
    knots_phi = np.where(knots_t < 2.0, 2.0 - knots_t, knots_t - 2.0)
    params = np.column_stack([knots_t, knots_phi]).ravel().tolist()
    phi = make_weight("tabulated-spline", params, 6.0)
    report = property_I_certify(phi, grid_points=12_000)
    assert not report.passed
    assert report.first_violation_kind in ("monotonicity", "convexity")
    # worst slope location sits in the rising half, within a grid cell
    assert report.worst_slope > 0.5
    assert report.worst_slope_t > 2.0 - 6.0 / 12_000


def test_certification_grid_floor():
    phi = make_weight("constant", [0.0], 1.0)
    with pytest.raises(ValueError):
        property_I_certify(phi, grid_points=10)


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
    phi = make_weight("exponential-decay", [0.3, 2.0, 0.7], 8.0)
    r1 = property_I_certify(phi)
    r2 = property_I_certify(phi)
    assert r1.passed and r2.passed
    assert r1.worst_slope == r2.worst_slope


def test_report_records_origin_value():
    phi = make_weight("exponential-decay", [0.25, 1.0, 1.0], 4.0)
    report = property_I_certify(phi)
    assert report.value_at_origin == pytest.approx(1.25, rel=1e-15)
    assert "domain_cap" in report.as_dict()


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
        params = np.column_stack([knots_t, knots_phi]).ravel().tolist()
        phi = make_weight("tabulated-spline", params, cap)
        ref = CubicSpline(knots_t, knots_phi, bc_type="natural")
        t = np.concatenate([rng.uniform(0.0, cap, 400), knots_t, [-1e-10, cap + 1e-10]])
        for j, (ours, nu) in enumerate(
            [(phi._value(t), 0), (phi._slope(t), 1), (phi._convexity(t), 2)]
        ):
            exact = ref(t, nu)
            worst[j] = max(worst[j], np.max(np.abs(ours - exact)) / np.max(np.abs(exact)))
    assert np.all(worst <= 1e-12), worst

