"""Residual features over short windows of consecutive path configurations.

Every cost and constraint quantity in this package is a feature: a
differentiable map from a window of at most three consecutive
configurations to a residual vector, together with an analytic Jacobian
with respect to the stacked window.  A cost feature contributes half its
squared norm to the objective; constraint features contribute rows
h(x) = 0 or g(x) <= 0.

Cost features carry a ``group`` tag.  ``"effort"`` rows define the
negative log density of the uncontrolled (passive) path distribution;
``"task"`` rows are state costs.  The split matters downstream where the
two Hessians are compared against each other.

A feature has one method, ``eval(xs)``: xs stacks windows on leading
axes as an (..., window, d) array, and the result is the values
(..., size) and the Jacobians (..., size, window * d), each window
evaluated on its own.  ``problem.assemble`` calls it once per feature
over an (M, window, d) stack of all the steps where the feature applies,
and checks the shapes and finiteness of what it returns.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

EFFORT = "effort"
TASK = "task"


def _constant(jac: Array, xs: Array) -> Array:
    """A constant Jacobian repeated over the batch axes of xs (read-only)."""
    return np.broadcast_to(jac, xs.shape[:-2] + jac.shape)


class AccelerationPenalty:
    """Effort rows penalizing finite-difference acceleration.

    The residual is (x_n - 2 x_{n-1} + x_{n-2}) / (sigma dt^{3/2}) on the
    selected coordinates; its half squared norm is the step's negative log
    density under the passive double integrator.
    """

    window = 3
    group = EFFORT

    def __init__(self, dim: int, dt: float, sigma: float,
                 coords: Array | None = None, name: str = "accel"):
        self.dim = int(dim)
        self.coords = (np.arange(self.dim) if coords is None
                       else np.asarray(coords, dtype=int))
        if not (dt > 0 and sigma > 0):
            raise ValueError("dt and sigma must be positive")
        self.scale = 1.0 / (sigma * dt**1.5)
        self.size = len(self.coords)
        self.name = name
        jac = np.zeros((self.size, 3 * self.dim))
        rows = np.arange(self.size)
        for k, stencil in enumerate((1.0, -2.0, 1.0)):
            jac[rows, k * self.dim + self.coords] = stencil * self.scale
        self._jac = jac

    def eval(self, xs: Array) -> tuple[Array, Array]:
        r = self.scale * (xs[..., 2, :] - 2.0 * xs[..., 1, :] + xs[..., 0, :])
        return r[..., self.coords], _constant(self._jac, xs)


class DriftPenalty:
    """Effort rows penalizing the first difference of selected coordinates.

    Used as the passive density of quasi-static object coordinates: the
    residual (x_n - x_{n-1}) / (sigma dt^{1/2}) makes "stay where you are"
    the most likely uncontrolled motion.
    """

    window = 2
    group = EFFORT

    def __init__(self, dim: int, dt: float, sigma: float,
                 coords: Array | None = None, name: str = "drift"):
        self.dim = int(dim)
        self.coords = (np.arange(self.dim) if coords is None
                       else np.asarray(coords, dtype=int))
        if not (dt > 0 and sigma > 0):
            raise ValueError("dt and sigma must be positive")
        self.scale = 1.0 / (sigma * dt**0.5)
        self.size = len(self.coords)
        self.name = name
        jac = np.zeros((self.size, 2 * self.dim))
        rows = np.arange(self.size)
        jac[rows, self.coords] = -self.scale
        jac[rows, self.dim + self.coords] = self.scale
        self._jac = jac

    def eval(self, xs: Array) -> tuple[Array, Array]:
        r = self.scale * (xs[..., 1, :] - xs[..., 0, :])
        return r[..., self.coords], _constant(self._jac, xs)


class AffineFeature:
    """r = A @ vec(window) + b with constant Jacobian A."""

    group = TASK

    def __init__(self, A: Array, b: Array, window: int, name: str = "affine",
                 group: str = TASK):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValueError("A must be (size, window*d) and b (size,)")
        self.window = int(window)
        self.size = self.A.shape[0]
        self.name = name
        self.group = group

    def eval(self, xs: Array) -> tuple[Array, Array]:
        flat = xs.reshape(xs.shape[:-2] + (-1,))
        return flat @ self.A.T + self.b, _constant(self.A, xs)


def coordinate_target(dim: int, coords, values, weight: float = 1.0,
                      name: str = "target") -> AffineFeature:
    """Task rows sqrt(weight) * (x[coords] - values) on a single configuration."""
    coords = np.asarray(coords, dtype=int)
    values = np.asarray(values, dtype=float)
    w = np.sqrt(weight)
    A = np.zeros((len(coords), dim))
    A[np.arange(len(coords)), coords] = w
    return AffineFeature(A, -w * values, window=1, name=name)


def check_jacobian(feature, xs: Array, h: float = 1e-6) -> float:
    """Max relative error of the analytic Jacobian vs. central differences."""
    xs = np.asarray(xs, dtype=float)
    _, jac = feature.eval(xs)
    flat = xs.ravel()
    fd = np.zeros_like(jac)
    for j in range(flat.size):
        bump = np.zeros_like(flat)
        bump[j] = h
        hi, _ = feature.eval((flat + bump).reshape(xs.shape))
        lo, _ = feature.eval((flat - bump).reshape(xs.shape))
        fd[:, j] = (hi - lo) / (2.0 * h)
    denom = max(1.0, float(np.abs(jac).max()))
    return float(np.abs(fd - jac).max() / denom)
