"""Window features: residual values, scaling, and analytic Jacobians."""

import numpy as np
import pytest

import slgp
from slgp.features import (AccelerationPenalty, AffineFeature, DriftPenalty,
                           FiniteDifference, check_jacobian, coordinate_target)
from slgp.scenarios import ContactFacePlane


def _accel(window, dt):
    # Second-difference acceleration read off the unit-sigma effort residual.
    window = np.asarray(window, dtype=float)
    r, _ = AccelerationPenalty(window.shape[1], dt, sigma=1.0).eval(window)
    return r * dt**1.5 / dt**2


def test_constant_window_has_zero_acceleration():
    window = np.full((3, 4), 1.7)
    assert np.array_equal(_accel(window, dt=0.1), np.zeros(4))


def test_linear_ramp_has_zero_acceleration():
    window = np.array([[0.0], [1.0], [2.0]])
    assert np.array_equal(_accel(window, dt=1.0), np.zeros(1))


def test_quadratic_window_acceleration_value():
    window = np.array([[0.0], [1.0], [4.0]])
    assert _accel(window, dt=1.0) == pytest.approx([2.0])


def test_acceleration_scales_with_inverse_dt_squared():
    rng = np.random.default_rng(3)
    window = rng.normal(size=(3, 2))
    a1 = _accel(window, dt=0.5)
    a2 = _accel(window, dt=1.0)
    assert np.allclose(a1, 4.0 * a2)


def test_window_shape_is_validated():
    feat = AccelerationPenalty(3, dt=0.1, sigma=1.0)
    with pytest.raises(IndexError):
        feat.eval(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        feat.eval(np.zeros(3))
    with pytest.raises(ValueError):
        AccelerationPenalty(2, dt=0.0, sigma=0.1)
    with pytest.raises(ValueError):
        AccelerationPenalty(2, dt=-1.0, sigma=0.1)


def test_zero_acceleration_window_has_zero_residual():
    window = np.array([[0.2, -1.0], [0.5, -0.5], [0.8, 0.0]])
    r, _ = AccelerationPenalty(2, dt=0.25, sigma=0.3).eval(window)
    assert np.allclose(r, 0.0)


def test_unit_step_residual_and_transition_cost():
    # One unit of displacement in the last step at dt = sigma = 1.
    window = np.array([[0.0], [0.0], [1.0]])
    r, _ = AccelerationPenalty(1, dt=1.0, sigma=1.0).eval(window)
    assert r == pytest.approx([1.0])
    assert 0.5 * float(r @ r) == pytest.approx(0.5)


def test_doubling_sigma_halves_the_residual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        window = rng.normal(size=(3, 3))
        r1, _ = AccelerationPenalty(3, dt=0.2, sigma=0.1).eval(window)
        r2, _ = AccelerationPenalty(3, dt=0.2, sigma=0.2).eval(window)
        assert np.allclose(r1, 2.0 * r2)


def test_acceleration_penalty_coordinate_selection():
    window = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
    r, _ = AccelerationPenalty(2, dt=1.0, sigma=1.0, coords=[1]).eval(window)
    assert r == pytest.approx([2.0])


def test_acceleration_penalty_rejects_bad_sigma():
    with pytest.raises(ValueError):
        AccelerationPenalty(1, dt=1.0, sigma=0.0)


def test_acceleration_penalty_matches_the_scaled_second_difference():
    rng = np.random.default_rng(7)
    feat = AccelerationPenalty(3, dt=0.2, sigma=0.4)
    for _ in range(10):
        window = rng.normal(size=(3, 3))
        r, _ = feat.eval(window)
        expected = (window[2] - 2.0 * window[1] + window[0]) / (0.4 * 0.2**1.5)
        assert np.allclose(r, expected)


def test_batched_evaluation_matches_each_window():
    rng = np.random.default_rng(37)
    d = 7
    feats = (AccelerationPenalty(d, dt=0.2, sigma=0.4, coords=[2, 0]),
             DriftPenalty(d, dt=0.2, sigma=0.5, coords=[1]),
             # The push scenario's rest rows and two-finger face rows.
             FiniteDifference(d, (-1.0, 1.0), 1.0, coords=[4, 5, 6]),
             ContactFacePlane([(0, (-0.1, 0.06)), (2, (-0.1, -0.06))], 4, [1.0, 0.0], d),
             AffineFeature(rng.normal(size=(2, 2 * d)), rng.normal(size=2), window=2))
    for feat in feats:
        xs = rng.normal(size=(5, feat.window, d))
        values, jacs = feat.eval(xs)
        assert values.shape == (5, feat.size)
        assert jacs.shape == (5, feat.size, feat.window * d)
        for m in range(5):
            value, jac = feat.eval(xs[m])
            assert np.abs(values[m] - value).max() <= 1e-12
            assert np.array_equal(jacs[m], jac)


def test_acceleration_penalty_jacobian_is_exact():
    rng = np.random.default_rng(19)
    for coords in (None, [0], [2, 0]):
        feat = AccelerationPenalty(3, dt=0.1, sigma=0.5, coords=coords)
        window = rng.normal(size=(3, 3))
        assert check_jacobian(feat, window) < 1e-6


def test_drift_penalty_residual_and_jacobian():
    feat = DriftPenalty(2, dt=0.25, sigma=0.5, coords=[1])
    window = np.array([[0.0, 1.0], [3.0, 2.0]])
    r, _ = feat.eval(window)
    assert r == pytest.approx([1.0 / (0.5 * 0.5)])
    rng = np.random.default_rng(23)
    assert check_jacobian(feat, rng.normal(size=(2, 2))) < 1e-6


def test_drift_penalty_takes_a_sigma_per_coordinate():
    # The push box drifts with one sigma for translation and one for
    # rotation: one feature, the rows of the two in coordinate order.
    rng = np.random.default_rng(31)
    both = DriftPenalty(7, dt=0.125, sigma=(0.3, 0.3, 3.0), coords=[4, 5, 6])
    parts = (DriftPenalty(7, dt=0.125, sigma=0.3, coords=[4, 5]),
             DriftPenalty(7, dt=0.125, sigma=3.0, coords=[6]))
    xs = rng.normal(size=(5, 2, 7))
    values, jacs = both.eval(xs)
    assert np.array_equal(values, np.concatenate([p.eval(xs)[0] for p in parts], axis=-1))
    assert np.array_equal(jacs, np.concatenate([p.eval(xs)[1] for p in parts], axis=-2))
    assert np.allclose(values, (xs[:, 1, 4:] - xs[:, 0, 4:])
                       / (np.array([0.3, 0.3, 3.0]) * 0.125**0.5))
    for window in xs:
        assert check_jacobian(both, window) < 1e-6
    with pytest.raises(ValueError, match="dt and sigma must be positive"):
        DriftPenalty(7, dt=0.125, sigma=(0.3, 0.0, 3.0), coords=[4, 5, 6])
    with pytest.raises(ValueError):
        DriftPenalty(7, dt=0.125, sigma=(0.3, 3.0), coords=[4, 5, 6])


def test_affine_feature_shapes_are_validated():
    with pytest.raises(ValueError):
        AffineFeature(np.zeros((2, 4)), np.zeros(3), window=2)
    with pytest.raises(ValueError):
        AffineFeature(np.zeros(4), np.zeros(1), window=1)


def test_coordinate_target_residual_vanishes_at_target():
    feat = coordinate_target(3, coords=[0, 2], values=[1.0, -2.0], weight=9.0)
    r, jac = feat.eval(np.array([[1.0, 5.0, -2.0]]))
    assert np.allclose(r, 0.0)
    # sqrt(weight) enters both the residual slope and the Jacobian.
    r2, _ = feat.eval(np.array([[2.0, 5.0, -2.0]]))
    assert r2 == pytest.approx([3.0, 0.0])
    assert jac[0, 0] == pytest.approx(3.0)
    rng = np.random.default_rng(29)
    assert check_jacobian(feat, rng.normal(size=(1, 3))) < 1e-6


def test_effort_and_task_groups_are_tagged():
    assert AccelerationPenalty(1, dt=1.0, sigma=1.0).group == "effort"
    assert DriftPenalty(1, dt=1.0, sigma=1.0).group == "effort"
    assert coordinate_target(1, [0], [0.0]).group == "task"


def test_finite_difference_is_exported_from_the_package():
    assert slgp.FiniteDifference is FiniteDifference
    assert "FiniteDifference" in slgp.__all__
