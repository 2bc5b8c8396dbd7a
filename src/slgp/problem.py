"""Discrete path problems, mode skeletons, and feature stacking.

A path is x_{1:N} in R^{N x d} with a fixed two-configuration prefix
x_{-1:0} supplying initial position and velocity (x_{-1} = x_0 encodes a
resting start).  A skeleton decorates the horizon with an ordered list of
modes whose windows partition [1, N] and with switches between
consecutive modes; modes and switches contribute equality and inequality
features on windows of at most three consecutive configurations.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .features import EFFORT, Array

# Relative rank tolerance for active constraint rows: a direction whose
# singular value or pivoted-QR diagonal falls below RANK_TOL times the
# largest counts as dependent.  Shared by the Laplace nullspaces and
# future-ratio recursion and by the policy builder's row filter, so both
# drop the same rows.
RANK_TOL = 1e-8


class SkeletonError(ValueError):
    """Raised by assemble when the skeleton structure is invalid."""


class FeatureEvalError(RuntimeError):
    """A feature failed to evaluate or produced nonfinite values."""

    def __init__(self, step: int, label: str, reason: str):
        super().__init__(f"feature '{label}' at step {step}: {reason}")
        self.step = step
        self.label = label


@dataclass(frozen=True)
class Mode:
    """A phase of the plan: symbol, inclusive step window, constraint features."""

    symbol: str
    window: tuple[int, int]
    eq: tuple = ()
    ineq: tuple = ()


@dataclass(frozen=True)
class Switch:
    """Transition marker between consecutive modes, applied at one step."""

    symbol: str
    at_step: int
    eq: tuple = ()
    ineq: tuple = ()


@dataclass(frozen=True)
class Skeleton:
    id: str
    modes: tuple[Mode, ...]
    switches: tuple[Switch, ...] = ()


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


def skeleton_structure_violations(skeleton: Skeleton, n_steps: int) -> list[Violation]:
    """Window partition and switch-count checks, no successor table needed."""
    out: list[Violation] = []
    prev_end = 0
    for mode in skeleton.modes:
        start, end = mode.window
        if start > end:
            out.append(Violation("window", f"mode '{mode.symbol}' has empty window {mode.window}"))
            continue
        if start < 1 or end > n_steps:
            out.append(Violation("window", f"mode '{mode.symbol}' window {mode.window} leaves [1, {n_steps}]"))
        if start > prev_end + 1:
            out.append(Violation("gap", f"steps {prev_end + 1}..{start - 1} covered by no mode"))
        elif start <= prev_end:
            out.append(Violation("overlap", f"mode '{mode.symbol}' starts at {start} inside the previous window"))
        prev_end = max(prev_end, end)
    if prev_end < n_steps:
        out.append(Violation("gap", f"steps {prev_end + 1}..{n_steps} covered by no mode"))
    if len(skeleton.switches) != max(len(skeleton.modes) - 1, 0):
        out.append(Violation("switches", f"expected {max(len(skeleton.modes) - 1, 0)} switches, "
                                         f"got {len(skeleton.switches)}"))
    for sw in skeleton.switches:
        if not 1 <= sw.at_step <= n_steps:
            out.append(Violation("switches", f"switch '{sw.symbol}' at step {sw.at_step} leaves [1, {n_steps}]"))
    return out


def validate_skeleton(skeleton: Skeleton, successors, n_steps: int) -> list[Violation]:
    """Full skeleton validation against a successor table.

    successors maps (mode symbol, switch symbol) to a collection of legal
    next-mode symbols.  Returns a list of violations; empty means valid.
    Never raises.
    """
    out = skeleton_structure_violations(skeleton, n_steps)
    if len(skeleton.switches) == max(len(skeleton.modes) - 1, 0):
        for i, sw in enumerate(skeleton.switches):
            prev = skeleton.modes[i].symbol
            nxt = skeleton.modes[i + 1].symbol
            allowed = successors.get((prev, sw.symbol), ())
            if nxt not in allowed:
                out.append(Violation("transition",
                                     f"'{prev}' --{sw.symbol}--> '{nxt}' not in successor table"))
    return out


def free_skeleton(n_steps: int, symbol: str = "free", skeleton_id: str = "free") -> Skeleton:
    return Skeleton(id=skeleton_id, modes=(Mode(symbol, (1, n_steps)),))


@dataclass(frozen=True)
class PathProblem:
    """Problem data: horizon, step scale, prefix, and cost features.

    step_costs[n-1] lists the cost features evaluated at step n; terminal
    costs are additional features evaluated at step N.  `actuated` marks
    the coordinates that receive control noise during execution.
    """

    N: int
    d: int
    dt: float
    sigma: float
    prefix: Array
    step_costs: tuple
    terminal_costs: tuple = ()
    actuated: Array | None = None
    # Row layouts by skeleton (see _layout); a replaced, copied or
    # unpickled problem starts empty.
    _layouts: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not (self.dt > 0 and self.sigma > 0):
            raise ValueError("dt and sigma must be positive")
        prefix = np.asarray(self.prefix, dtype=float)
        if prefix.shape != (2, self.d):
            raise ValueError(f"prefix must be (2, {self.d}), got {prefix.shape}")
        prefix = prefix.copy()
        prefix.setflags(write=False)
        object.__setattr__(self, "prefix", prefix)
        if len(self.step_costs) != self.N:
            raise ValueError(f"step_costs must have length N={self.N}")
        actuated = (np.ones(self.d, dtype=bool) if self.actuated is None
                    else np.asarray(self.actuated, dtype=bool).copy())
        if actuated.shape != (self.d,):
            raise ValueError(f"actuated must be ({self.d},)")
        actuated.setflags(write=False)
        object.__setattr__(self, "actuated", actuated)

    def __getstate__(self):
        # The memo's weak references can be neither pickled nor shared.
        return {**self.__dict__, "_layouts": {}}

    @classmethod
    def uniform(cls, N, d, dt, sigma, prefix, per_step, terminal=(), actuated=None):
        """Same cost features at every step plus terminal features at N."""
        return cls(N=N, d=d, dt=dt, sigma=sigma, prefix=np.asarray(prefix, float),
                   step_costs=tuple(tuple(per_step) for _ in range(N)),
                   terminal_costs=tuple(terminal), actuated=actuated)

    def config(self, x: Array, m: int) -> Array:
        """Configuration at index m, substituting the prefix for m <= 0."""
        if m >= 1:
            return x[m - 1]
        return self.prefix[m + 1]

    def window(self, x: Array, n: int, width: int) -> Array:
        """Stack configurations n-width+1 .. n, oldest first."""
        return np.stack([self.config(x, m) for m in range(n - width + 1, n + 1)])


def step_constraints(skeleton: Skeleton, n: int):
    """Equality and inequality features active at step n, in canonical order.

    Order: modes in declared order (windows partition, so at most one is
    active), then switches with at_step == n; feature declaration order
    within each.  Every Jacobian row consumer relies on this order.
    """
    eq: list[tuple[str, object]] = []
    ineq: list[tuple[str, object]] = []
    for mode in skeleton.modes:
        if mode.window[0] <= n <= mode.window[1]:
            eq.extend((mode.symbol, f) for f in mode.eq)
            ineq.extend((mode.symbol, f) for f in mode.ineq)
    for sw in skeleton.switches:
        if sw.at_step == n:
            eq.extend((sw.symbol, f) for f in sw.eq)
            ineq.extend((sw.symbol, f) for f in sw.ineq)
    return eq, ineq


@dataclass(frozen=True)
class FeatureStack:
    """All residuals, constraint values, and Jacobians at one path.

    Cost, equality and inequality rows each come in canonical order: step
    by step, and within a step in the order of the step's cost features
    (terminal costs last) or of step_constraints.  Index tuples give
    (step, label) per row and the *_steps arrays the step alone; they and
    effort_mask are shared, read-only, by every stack of one (problem,
    skeleton).  The Jacobian of a row is a dense block over the window (x_{n-2}, x_{n-1},
    x_n) of its step n, zero-padded on the left for features on one or two
    configurations.  Columns of the prefix configurations keep the
    feature's derivative; they are constants, not decision variables, so
    `transpose_dot` and the CSR views `jac`, `eq_jac` and `ineq_jac` (over
    the N*d path columns, built on first use) drop them.
    """

    N: int
    d: int
    residuals: Array
    effort_mask: Array
    eq: Array
    ineq: Array
    cost_steps: Array
    eq_steps: Array
    ineq_steps: Array
    cost_index: tuple
    eq_index: tuple
    ineq_index: tuple
    cost_blocks: Array
    eq_blocks: Array
    ineq_blocks: Array

    @property
    def n_vars(self) -> int:
        return self.N * self.d

    @cached_property
    def jac(self) -> sp.csr_matrix:
        return self._csr(self.cost_blocks, self.cost_steps)

    @cached_property
    def eq_jac(self) -> sp.csr_matrix:
        return self._csr(self.eq_blocks, self.eq_steps)

    @cached_property
    def ineq_jac(self) -> sp.csr_matrix:
        return self._csr(self.ineq_blocks, self.ineq_steps)

    def _columns(self, steps: Array) -> Array:
        """Column of every block entry in the path with the prefix in front:
        configuration m starts at column (m + 1) d."""
        return ((steps - 1) * self.d)[:, None] + np.arange(3 * self.d)

    def _csr(self, blocks: Array, steps: Array) -> sp.csr_matrix:
        cols = self._columns(steps) - 2 * self.d
        rows = np.broadcast_to(np.arange(len(steps))[:, None], cols.shape)
        keep = (cols >= 0) & (blocks != 0.0)
        return sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])),
                             shape=(len(steps), self.n_vars))

    def transpose_dot(self, cost: Array, eq: Array, ineq: Array) -> Array:
        """J^T cost + J_h^T eq + J_g^T ineq over the N*d path variables."""
        out = np.zeros((self.N + 2) * self.d)
        for blocks, steps, coeff in ((self.cost_blocks, self.cost_steps, cost),
                                     (self.eq_blocks, self.eq_steps, eq),
                                     (self.ineq_blocks, self.ineq_steps, ineq)):
            out += np.bincount(self._columns(steps).ravel(),
                               weights=(blocks * coeff[:, None]).ravel(),
                               minlength=out.size)
        return out[2 * self.d:]


def step_gram(steps: Array, rows: Array, weights: Array, N: int) -> Array:
    """Per-step weighted Gram matrices, shape (N, width, width).

    Entry n-1 is the sum of weights[i] rows[i] rows[i]^T over the rows i
    with steps[i] == n.  The rows of each step are stacked into one padded
    slab, so the sums are one batched matrix product.
    """
    order = np.argsort(steps, kind="stable")
    s = steps[order]
    slot = np.arange(len(s)) - np.searchsorted(s, s)
    slabs = np.zeros((2, N, int(slot.max()) + 1 if len(s) else 0, rows.shape[1]))
    slabs[0, s - 1, slot] = rows[order]
    slabs[1, s - 1, slot] = rows[order] * weights[order, None]
    return slabs[0].transpose(0, 2, 1) @ slabs[1]


def _eval_feature(feat, xs: Array, n: int, label: str):
    """Value and Jacobian of one feature on the window xs of step n, checked."""
    try:
        value, jac = feat.eval(xs)
    except FeatureEvalError:
        raise
    except Exception as exc:  # noqa: BLE001 - reported with step/feature index
        raise FeatureEvalError(n, label, repr(exc)) from exc
    value = np.atleast_1d(np.asarray(value, dtype=float))
    jac = np.asarray(jac, dtype=float)
    if value.shape != (feat.size,) or jac.shape != (feat.size, feat.window * xs.shape[1]):
        raise FeatureEvalError(n, label, f"bad shapes {value.shape}, {jac.shape}")
    if not np.all(np.isfinite(value)) or not np.all(np.isfinite(jac)):
        raise FeatureEvalError(n, label, "nonfinite value or Jacobian")
    return value, jac


def _eval_group(feat, label: str, xp: Array, steps: Array):
    """Values (M, size) and Jacobians (M, size, window*d) of one feature at
    each of its M steps; xp is the path with the two prefix rows in front.

    A FeatureEvalError names the first step that fails: when eval_batch
    raises, the steps are evaluated one by one to find it.
    """
    w, d = feat.window, xp.shape[1]
    first = int(steps[0])
    if w not in (1, 2, 3):
        raise FeatureEvalError(first, label, f"window {w} is not 1, 2 or 3")
    xs = xp[steps[:, None] + np.arange(2 - w, 2)]

    def per_step():
        evals = [_eval_feature(feat, xs[m], int(n), label) for m, n in enumerate(steps)]
        return np.stack([v for v, _ in evals]), np.stack([j for _, j in evals])

    batch = getattr(feat, "eval_batch", None)
    if batch is None:
        return per_step()
    try:
        values, jacs = batch(xs)
    except FeatureEvalError:
        raise
    except Exception as exc:  # noqa: BLE001 - reported with step/feature index
        per_step()
        raise FeatureEvalError(first, label, f"batch over steps {first}..{int(steps[-1])}: "
                                             f"{exc!r}") from exc
    values = np.asarray(values, dtype=float)
    jacs = np.asarray(jacs, dtype=float)
    if values.shape != (len(steps), feat.size) or jacs.shape != (len(steps), feat.size, w * d):
        raise FeatureEvalError(first, label, f"bad batch shapes {values.shape}, {jacs.shape}")
    finite = np.isfinite(values).all(axis=1) & np.isfinite(jacs).all(axis=(1, 2))
    if not finite.all():
        raise FeatureEvalError(int(steps[np.argmin(finite)]), label,
                               "nonfinite value or Jacobian")
    return values, jacs


def _frozen(values) -> Array:
    out = np.array(values, dtype=int)
    out.setflags(write=False)
    return out


class _Rows:
    """Canonical row layout of one kind of row (cost, eq or ineq), built
    from its (step, label, feature) items in row order: each feature object
    with its label, the steps where it applies, the first row it fills at
    each step and all its rows; every row's (step, label) and step.  Every
    stack of one (problem, skeleton) shares it, so its arrays are read-only.
    """

    def __init__(self, items):
        groups: dict = {}
        index: list[tuple[int, str]] = []
        for n, label, feat in items:
            _, _, at, first = groups.setdefault((id(feat), label), (feat, label, [], []))
            at.append(n)
            first.append(len(index))
            index.extend([(n, label)] * feat.size)
        self.groups = [(feat, label, _frozen(at), _frozen(first),
                        _frozen((np.array(first)[:, None] + np.arange(feat.size)).ravel()))
                       for feat, label, at, first in groups.values()]
        self.index = tuple(index)
        self.steps = _frozen([n for n, _ in index])

    def evaluate(self, xp: Array):
        """Values and (rows, 3d) Jacobian blocks in row order, and the
        failures as (step, row, error)."""
        width = 3 * xp.shape[1]
        values = np.zeros(len(self.index))
        blocks = np.zeros((len(self.index), width))
        failures = []
        for feat, label, at, first, rows in self.groups:
            try:
                vals, jacs = _eval_group(feat, label, xp, at)
            except FeatureEvalError as exc:
                hit = np.flatnonzero(at == exc.step)
                failures.append((exc.step, int(first[hit[0] if hit.size else 0]), exc))
                continue
            values[rows] = vals.ravel()
            jacs = jacs.reshape(len(rows), -1)
            blocks[rows, width - jacs.shape[1]:] = jacs
        return values, blocks, failures


def _label(feat) -> str:
    return getattr(feat, "name", type(feat).__name__)


def _layout(problem: PathProblem, skeleton: Skeleton):
    """Cost, eq and ineq row layouts and the effort mask of (problem,
    skeleton), built on first use and kept on the problem.

    They depend on the problem and the skeleton alone, never on the path.
    The memo is keyed by the id of the skeleton object and holds the
    skeleton weakly: the entry leaves the memo when the skeleton dies, so
    skeletons made per call do not pile up, and an entry whose reference
    is not this skeleton (its id reused) is rebuilt.  An invalid skeleton
    raises SkeletonError and is not kept.
    """
    entry = problem._layouts.get(id(skeleton))
    if entry is not None and entry[0]() is skeleton:
        return entry[1]
    structural = skeleton_structure_violations(skeleton, problem.N)
    if structural:
        raise SkeletonError("; ".join(v.message for v in structural))
    cost, eqs, ineqs = [], [], []
    for n in range(1, problem.N + 1):
        feats = problem.step_costs[n - 1]
        if n == problem.N:
            feats = tuple(feats) + tuple(problem.terminal_costs)
        cost.extend((n, _label(feat), feat) for feat in feats)
        eq_feats, ineq_feats = step_constraints(skeleton, n)
        for rows, owned in ((eqs, eq_feats), (ineqs, ineq_feats)):
            rows.extend((n, f"{owner}:{_label(feat)}", feat) for owner, feat in owned)
    kinds = (_Rows(cost), _Rows(eqs), _Rows(ineqs))
    effort_mask = np.zeros(len(kinds[0].index), dtype=bool)
    for feat, _, _, _, rows in kinds[0].groups:
        effort_mask[rows] = getattr(feat, "group", None) == EFFORT
    effort_mask.setflags(write=False)
    memo, key = problem._layouts, id(skeleton)
    memo[key] = (weakref.ref(skeleton, lambda _: memo.pop(key, None)),
                 (kinds, effort_mask))
    return kinds, effort_mask


def assemble(problem: PathProblem, skeleton: Skeleton, x: Array) -> FeatureStack:
    """Evaluate and stack all cost and constraint features at a path.

    Each feature object is evaluated once over all the steps where it
    applies.  A failure raises the FeatureEvalError of the first row in
    canonical step order that fails, as a step-by-step evaluation would.
    The row layout, index tuples, step arrays and effort mask are built
    once per (problem, skeleton) and shared, read-only, by its stacks.
    Deterministic: identical inputs produce bit-identical stacks.
    """
    kinds, effort_mask = _layout(problem, skeleton)
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.N, problem.d):
        raise ValueError(f"path must be ({problem.N}, {problem.d}), got {x.shape}")

    xp = np.vstack([problem.prefix, x])
    (residuals, cost_blocks, cost_fail), (eq, eq_blocks, eq_fail), \
        (ineq, ineq_blocks, ineq_fail) = [rows.evaluate(xp) for rows in kinds]
    failures = [(step, kind, row, exc)
                for kind, fails in enumerate((cost_fail, eq_fail, ineq_fail))
                for step, row, exc in fails]
    if failures:
        raise min(failures, key=lambda f: f[:3])[3]
    cost, eqs, ineqs = kinds
    return FeatureStack(N=problem.N, d=problem.d, residuals=residuals,
                        effort_mask=effort_mask, eq=eq, ineq=ineq,
                        cost_steps=cost.steps, eq_steps=eqs.steps,
                        ineq_steps=ineqs.steps, cost_index=cost.index,
                        eq_index=eqs.index, ineq_index=ineqs.index,
                        cost_blocks=cost_blocks, eq_blocks=eq_blocks,
                        ineq_blocks=ineq_blocks)


def cost_value(stack: FeatureStack) -> float:
    """Objective value: half the squared residual norm."""
    return 0.5 * float(stack.residuals @ stack.residuals)


def constraint_violation(stack: FeatureStack) -> float:
    """Max over |h| and positive parts of g; 0 when unconstrained."""
    viol = 0.0
    if stack.eq.size:
        viol = float(np.abs(stack.eq).max())
    if stack.ineq.size:
        viol = max(viol, float(np.clip(stack.ineq, 0.0, None).max()))
    return viol
