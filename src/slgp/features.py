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

Each relation is one class.  ``FiniteDifference`` is every constant
stencil: the effort rows ``AccelerationPenalty`` and ``DriftPenalty``
build, and the push scenario's rest rows.  ``AffineFeature`` is every
affine row; the nonlinear rows live in ``slgp.scenarios``.

A feature has one method, ``eval(xs)``: xs stacks windows on leading
axes as an (..., window, d) array, and the result is the values
(..., size) and the Jacobians (..., size, window * d), each window
evaluated on its own.  ``problem.assemble`` calls it once per feature
over an (M, window, d) stack of all the steps where the feature applies,
and checks the shapes of what it returns and the finiteness of the table.

Features whose rows come out of one common computation may share it as a
pass.  Such a feature holds the pass as ``shared``, whose own ``eval(xs)``
runs on the same window stacks, and has ``take(out)``, which slices the
feature's values and Jacobians out of what the pass returned, each window
on its own; the feature's ``eval(xs)`` is ``take(shared.eval(xs))``.
``problem.assemble`` runs each shared pass once per path over the union
of the steps of the features that hold it (those of one window width),
and puts each feature's slice through the same checks.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

EFFORT = "effort"
TASK = "task"


def _constant(jac: Array, xs: Array) -> Array:
    """A constant Jacobian repeated over the batch axes of xs (read-only)."""
    return np.broadcast_to(jac, xs.shape[:-2] + jac.shape)


class FiniteDifference:
    """Rows scale * sum_k stencil[k] x_{n-w+1+k}[coords] on a window of
    w = len(stencil) configurations, oldest first; constant Jacobian.  The
    scale is one number or one per coordinate.  With scale 1 they also
    serve as equality rows, such as an object at rest; the group tag
    matters only where the rows are costs."""

    group = EFFORT

    def __init__(self, dim: int, stencil, scale,
                 coords: Array | None = None, name: str = "difference"):
        self.dim = int(dim)
        self.coords = (np.arange(self.dim) if coords is None
                       else np.asarray(coords, dtype=int))
        self.stencil = tuple(float(c) for c in stencil)
        self.window = len(self.stencil)
        self.size = len(self.coords)
        self.scale = np.broadcast_to(np.asarray(scale, dtype=float), (self.size,))
        self.name = name
        self._jac = np.zeros((self.size, self.window * self.dim))
        rows = np.arange(self.size)
        for k, c in enumerate(self.stencil):
            self._jac[rows, k * self.dim + self.coords] = c * self.scale

    def eval(self, xs: Array) -> tuple[Array, Array]:
        # Newest first, scaled last: (x_n - 2 x_{n-1}) + x_{n-2}.
        r = self.stencil[-1] * xs[..., self.window - 1, :]
        for k in range(self.window - 2, -1, -1):
            r = r + self.stencil[k] * xs[..., k, :]
        return self.scale * r[..., self.coords], _constant(self._jac, xs)


def _effort_scale(dt: float, sigma: float, power: float) -> float:
    if not (dt > 0 and sigma > 0):
        raise ValueError("dt and sigma must be positive")
    try:
        if (scale := 1.0 / (sigma * dt**power)) < np.inf:
            return scale
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"effort scale 1/(sigma dt^{power:g}) is not finite "
                     f"for sigma {sigma!r} and time step dt {dt!r}")


def AccelerationPenalty(dim: int, dt: float, sigma: float,
                        coords: Array | None = None,
                        name: str = "accel") -> FiniteDifference:
    """Effort rows (x_n - 2 x_{n-1} + x_{n-2}) / (sigma dt^{3/2}): their half
    squared norm is the step's negative log density under the passive
    double integrator."""
    return FiniteDifference(dim, (1.0, -2.0, 1.0), _effort_scale(dt, sigma, 1.5),
                            coords, name)


def DriftPenalty(dim: int, dt: float, sigma, coords: Array | None = None,
                 name: str = "drift") -> FiniteDifference:
    """Effort rows (x_n - x_{n-1}) / (sigma dt^{1/2}), the passive density of
    quasi-static object coordinates: "stay where you are" is the most
    likely uncontrolled motion.  sigma is one number or one per coordinate."""
    sigmas = np.broadcast_to(sigma, (dim if coords is None else len(coords),))
    return FiniteDifference(dim, (-1.0, 1.0), [_effort_scale(dt, float(s), 0.5)
                                               for s in sigmas], coords, name)


class AffineFeature:
    """r = A @ vec(window) + b with constant Jacobian A."""

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
    """Task rows sqrt(weight) * (x[coords] - values) on a single configuration;
    a ValueError names the feature when sqrt(weight) * values is not finite."""
    coords = np.asarray(coords, dtype=int)
    values = np.asarray(values, dtype=float)
    w = np.sqrt(weight)
    with np.errstate(over="ignore", invalid="ignore"):
        offset = -w * values
    if not np.isfinite(offset).all():
        raise ValueError(f"feature '{name}': offset sqrt(weight) * values is not finite "
                         f"for weight {weight!r} and values {values.tolist()}")
    A = np.zeros((len(coords), dim))
    A[np.arange(len(coords)), coords] = w
    return AffineFeature(A, offset, window=1, name=name)


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
