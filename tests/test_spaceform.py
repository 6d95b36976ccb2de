"""Geometry kernel checks: metric coefficients, distances, weighted volumes."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import geodesic_distance_poincare, poincare_radius
from wittenlab import (
    BallSpec,
    SpaceForm,
    make_weight,
    s_kappa,
    unit_sphere_area,
    weighted_annulus_volume,
)
from wittenlab.spaceform import CHEBYSHEV_DEGREES, QuadratureError, _chebyshev_integrals, dct

FLAT = SpaceForm(0)
HYP = SpaceForm(-1)


def test_metric_coefficient_values():
    assert s_kappa(1.0, FLAT) == 1.0
    assert s_kappa(1.0, HYP) == pytest.approx(math.sinh(1.0), rel=1e-15)
    arr = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(s_kappa(arr, HYP), np.sinh(arr), rtol=1e-15)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        s_kappa(-0.5, FLAT)
    with pytest.raises(ValueError):
        s_kappa(np.array([0.2, -0.1]), HYP)


def test_positive_curvature_rejected():
    with pytest.raises(ValueError):
        SpaceForm(1)
    with pytest.raises(ValueError):
        SpaceForm(2)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=5.0))
def test_c_is_derivative_of_s(t):
    # centred difference of S matches C = 1 or cosh t to high relative accuracy
    h = 1e-6 * max(1.0, t)
    for space, c in ((FLAT, 1.0), (HYP, math.cosh(t))):
        fd = (s_kappa(t + h, space) - s_kappa(t - h, space)) / (2 * h)
        assert fd == pytest.approx(c, rel=1e-7)


def test_poincare_distance_values():
    # |x| = 1/2 sits at geodesic distance 2 artanh(1/2) = ln 3
    assert geodesic_distance_poincare([0.5, 0.0]) == pytest.approx(math.log(3.0), rel=1e-14)
    assert geodesic_distance_poincare([0.3, 0.4]) == pytest.approx(
        2.0 * math.atanh(0.5), rel=1e-14
    )
    assert geodesic_distance_poincare([0.0, 0.0]) == 0.0


def test_poincare_distance_domain():
    with pytest.raises(ValueError):
        geodesic_distance_poincare([1.0, 0.0])
    with pytest.raises(ValueError):
        geodesic_distance_poincare([0.8, 0.7])


def test_poincare_radius_roundtrip():
    R = 1.0
    r = poincare_radius(R)
    assert r == pytest.approx(math.tanh(0.5), rel=1e-15)
    assert geodesic_distance_poincare([r, 0.0]) == pytest.approx(R, rel=1e-14)


def test_unit_sphere_area():
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


def test_flat_ball_volumes_unweighted():
    phi = make_weight("constant", [0.0], 10.0)
    vol2 = weighted_annulus_volume(FLAT, 2, phi, 0.0, 1.0)
    assert vol2 == pytest.approx(math.pi, rel=1e-10)
    vol3 = weighted_annulus_volume(FLAT, 3, phi, 0.0, 2.0)
    assert vol3 == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-10)


def test_hyperbolic_volumes_match_closed_forms():
    phi = make_weight("constant", [0.0], 10.0)
    vol2 = weighted_annulus_volume(HYP, 2, phi, 0.0, 1.0)
    assert vol2 == pytest.approx(oracles.hyperbolic_ball_area(1.0), rel=1e-10)
    vol3 = weighted_annulus_volume(HYP, 3, phi, 0.0, 1.5)
    assert vol3 == pytest.approx(oracles.hyperbolic_ball_volume_3d(1.5), rel=1e-10)


def test_constant_shift_scales_volume():
    base = make_weight("constant", [0.0], 10.0)
    shifted = make_weight("constant", [0.7], 10.0)
    v0 = weighted_annulus_volume(FLAT, 3, base, 0.0, 1.3)
    v1 = weighted_annulus_volume(FLAT, 3, shifted, 0.0, 1.3)
    assert v1 == pytest.approx(math.exp(-0.7) * v0, rel=1e-12)


def test_volume_strictly_increasing_in_radius():
    phi = make_weight("exponential-decay", [0.0, 1.0, 1.0], 6.0)
    radii = np.linspace(0.1, 5.0, 40)
    for space, n in ((FLAT, 2), (HYP, 2), (FLAT, 4)):
        vols = [weighted_annulus_volume(space, n, phi, 0.0, float(r)) for r in radii]
        assert np.all(np.diff(vols) > 0)


def test_annulus_volume_is_difference_of_balls():
    phi = make_weight("linear-decreasing", [0.2, 0.4], 8.0)
    full = weighted_annulus_volume(FLAT, 3, phi, 0.0, 2.0)
    inner = weighted_annulus_volume(FLAT, 3, phi, 0.0, 0.75)
    ann = weighted_annulus_volume(FLAT, 3, phi, 0.75, 2.0)
    assert ann == pytest.approx(full - inner, rel=1e-10)


SPLINE = [0.0, 1.0, 0.4, 0.7, 0.8, 0.45, 1.5, 0.2, 3.0, 0.05, 6.5, 0.0]


@pytest.mark.parametrize("space", [FLAT, HYP], ids=["flat", "hyperbolic"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spline_annulus_volumes_across_knots_match_oracle(space, n):
    # the natural spline is only C^2 at its knots 0.4, 0.8, 1.5 and 3.0;
    # the annuli cross none, one and several of them
    phi = make_weight("tabulated-spline", SPLINE, 6.0)
    for inner, outer in [(0.0, 0.3), (0.0, 1.2), (0.35, 1.6), (0.9, 6.0), (0.0, 6.0)]:
        ours = weighted_annulus_volume(space, n, phi, inner, outer)
        ref = oracles.weighted_annulus_volume_quad(
            n, space.curvature, phi.value, inner, outer, knots=SPLINE[0::2]
        )
        assert ours == pytest.approx(ref, rel=1e-12), (inner, outer)


def test_quadrature_converges_on_smooth_pieces():
    # |t - 0.3| is a polynomial on each side of the break
    val = _chebyshev_integrals(lambda t: np.abs(t - 0.3), [0.0, 0.3, 1.0])
    assert val == pytest.approx(0.29, rel=1e-14)
    rows = _chebyshev_integrals(lambda t: np.stack([np.exp(t), t * t]), [0.0, 1.0])
    np.testing.assert_allclose(rows, [math.e - 1.0, 1.0 / 3.0], rtol=1e-14)


@pytest.mark.parametrize("N", CHEBYSHEV_DEGREES)
@pytest.mark.parametrize("kind", [1, 2])
def test_dct_matches_scipy(kind, N):
    # the radial solver takes type 1 on N + 1 Lobatto values, the quadrature
    # type 2 on N + 1 Gauss values; both along the last axis of a stack
    rng = np.random.default_rng(N)
    smooth = np.cos(np.pi * np.arange(N + 1) / N)[None, None, :] ** np.arange(1, 4)[:, None, None]
    for values in (rng.standard_normal((3, 4, N + 1)), np.exp(smooth)):
        ours = dct(values, kind)
        ref = scipy.fft.dct(values, type=kind, axis=-1)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_quadrature_raises_at_degree_cap_on_a_kink():
    # without the break the kink keeps the Chebyshev tail at O(N^-2)
    with pytest.raises(QuadratureError, match=f"degree cap {CHEBYSHEV_DEGREES[-1]}"):
        _chebyshev_integrals(lambda t: np.abs(t - 0.3), [0.0, 1.0])


def test_radius_beyond_cap_rejected():
    phi = make_weight("constant", [0.0], 1.0)
    with pytest.raises(ValueError):
        weighted_annulus_volume(FLAT, 2, phi, 0.0, 2.0)


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec(-1.0, 2, FLAT)
    with pytest.raises(ValueError):
        BallSpec(1.0, 1, FLAT)
