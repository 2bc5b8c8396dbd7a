"""Discrete path problems, mode skeletons, and feature stacking.

A path is x_{1:N} in R^{N x d} with a fixed two-configuration prefix
x_{-1:0} supplying initial position and velocity (x_{-1} = x_0 encodes a
resting start).  A skeleton decorates the horizon with an ordered list of
modes whose windows partition [1, N] and with switches between
consecutive modes; modes and switches contribute equality and inequality
features on windows of at most three consecutive configurations.

One row layout per (problem, skeleton) decides which rows apply at each
step (_layout).  It lists each item once, in canonical order: the costs
over steps 1..N, the terminal costs at step N, each mode's equality and
inequality features over its window and each switch's at its step; one
numpy pass places their rows.  assemble fills those rows at a path, and
the rollout projection reads each step's equality rows from the layout
and cuts their rank at RANK_TOL.  The layout also holds the index tables
of the Gauss-Newton loop: each row's path columns and where the per-step
Gram blocks land in the banded Hessian.

Features may share one pass (see slgp.features): assemble runs each
shared pass once per path, over the union of the steps of the features
that hold it, and slices every feature's rows out of it; every other
feature runs once over all its steps.  Only a failure makes it walk the
rows step by step (_eval_step), as the rollout projection evaluates.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .banded import band_index
from .features import EFFORT, Array

# Relative rank tolerance for active constraint rows: a direction whose
# singular value falls below RANK_TOL times the largest counts as
# dependent.  Used by the block recursion (laplace.eliminate) that serves
# both the Laplace weights and the feedback policies, and by the rollout's
# equality projection (execution._project_equalities).
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
    """Window partition and switch-count checks."""
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


def free_skeleton(n_steps: int, symbol: str = "free", skeleton_id: str = "free") -> Skeleton:
    return Skeleton(id=skeleton_id, modes=(Mode(symbol, (1, n_steps)),))


@dataclass(frozen=True)
class PathProblem:
    """Problem data: horizon, step scale, prefix, and cost features.

    costs lists the cost features evaluated at every step n = 1..N, and
    terminal_costs the ones added at step N.  `actuated` marks the
    coordinates that receive control noise during execution.
    """

    N: int
    d: int
    dt: float
    sigma: float
    prefix: Array
    costs: tuple
    terminal_costs: tuple = ()
    actuated: Array | None = None
    # Row tables by skeleton (see _layout); a replaced, copied or
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
        actuated = (np.ones(self.d, dtype=bool) if self.actuated is None
                    else np.asarray(self.actuated, dtype=bool).copy())
        if actuated.shape != (self.d,):
            raise ValueError(f"actuated must be ({self.d},)")
        actuated.setflags(write=False)
        object.__setattr__(self, "actuated", actuated)

    def __getstate__(self):
        # The memo's weak references can be neither pickled nor shared.
        return {**self.__dict__, "_layouts": {}}


@dataclass(frozen=True)
class FeatureStack:
    """All cost and constraint rows at one path, in one row table.

    kinds slices the table into the cost, equality and inequality rows,
    in that order; within a kind the rows come step by step, and within a
    step in the order of the problem's costs (terminal costs last) or of
    its mode, then its switches.  values holds each row's value and blocks
    its Jacobian over the window (x_{n-2}, x_{n-1}, x_n) of its step n,
    zero-padded on the left for features on one or two configurations.
    steps, index ((step, label) per row), kinds, effort_mask (the effort
    cost rows), columns (each block entry's column in the path with the
    prefix in front, (rows, 3d)) and band (the banded Hessian's
    band_index) depend on the (problem, skeleton) alone and are shared,
    read-only, by its stacks.  Columns of the prefix
    configurations keep the feature's derivative; they are constants, so
    `transpose_dot` drops them and the step-by-step eliminations discard
    what lands on them.
    """

    N: int
    d: int
    values: Array
    blocks: Array
    steps: Array
    index: tuple
    kinds: tuple
    effort_mask: Array
    columns: Array
    band: Array

    # Each kind's values, as views of the table.
    residuals = property(lambda self: self.values[self.kinds[0]])
    eq = property(lambda self: self.values[self.kinds[1]])
    ineq = property(lambda self: self.values[self.kinds[2]])

    def transpose_dot(self, cost: Array, eq: Array, ineq: Array) -> Array:
        """J^T cost + J_h^T eq + J_g^T ineq over the N*d path variables."""
        out = np.zeros((self.N + 2) * self.d)
        for rows, coeff in zip(self.kinds, (cost, eq, ineq)):
            out += np.bincount(self.columns[rows].ravel(),
                               weights=(self.blocks[rows] * coeff[:, None]).ravel(),
                               minlength=out.size)
        return out[2 * self.d:]

    def by_step(self, select) -> Array:
        """The table rows that select (a slice or a mask over the table)
        picks, step by step and in table order within a step."""
        rows = np.arange(self.steps.size)[select]
        return rows[np.argsort(self.steps[rows], kind="stable")]

    def gram(self, select, weights: Array, values: bool = False) -> Array:
        """Per-step weighted Gram matrices of the selected rows, (N, w, w).

        Entry n-1 sums weights[i] b_i b_i^T over the selected rows i of
        step n, with b_i the row's block followed, when values is set, by
        its value; weights has one entry per table row.  The rows of each
        step fill one padded slab in by_step order, so the sums are one
        batched matrix product.
        """
        rows = self.by_step(select)
        s = self.steps[rows]
        b = (np.column_stack([self.blocks[rows], self.values[rows]]) if values
             else self.blocks[rows])
        slot = np.arange(len(s)) - np.searchsorted(s, s)
        slabs = np.zeros((2, self.N, int(slot.max()) + 1 if len(s) else 0, b.shape[1]))
        slabs[0, s - 1, slot] = b
        slabs[1, s - 1, slot] = b * weights[rows, None]
        return slabs[0].transpose(0, 2, 1) @ slabs[1]


def _eval_step(feat, label: str, xp: Array, n: int) -> tuple[Array, Array]:
    """Values (size,) and Jacobian (size, window*d) of one feature at step
    n alone, xp being the path with the prefix in front; a bad window, an
    eval that raises, bad shapes or nonfinite entries name step n."""
    w = feat.window
    if w not in (1, 2, 3):
        raise FeatureEvalError(n, label, f"window {w} is not 1, 2 or 3")
    try:
        values, jacs = feat.eval(xp[None, n + np.arange(2 - w, 2)])
    except FeatureEvalError:
        raise
    except Exception as exc:  # noqa: BLE001 - reported with step/feature index
        raise FeatureEvalError(n, label, repr(exc)) from exc
    values, jacs = np.asarray(values, dtype=float), np.asarray(jacs, dtype=float)
    if values.shape != (1, feat.size) or jacs.shape != (1, feat.size, w * xp.shape[1]):
        raise FeatureEvalError(n, label, f"bad shapes {values.shape}, {jacs.shape}")
    if not (np.isfinite(values).all() and np.isfinite(jacs).all()):
        raise FeatureEvalError(n, label, "nonfinite value or Jacobian")
    return values[0], jacs[0]


def _frozen(values, dtype=int) -> Array:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


class _Rows:
    """The row layout from items (kind, label, feature, first step, last
    step) listed kind by kind in canonical order: rows come kind by kind,
    step by step, then in item order.  Kept: each row's (step, label),
    step and path columns; the kind slices, the effort mask, the banded
    Hessian's index, per step with equality rows its (feature, label)
    pairs; the passes, and per item its feature, label, steps, rows, pass
    and slice of that pass.  Its arrays are shared, read-only.
    """

    def __init__(self, N: int, d: int, items):
        kind, size, lo, hi = np.array([(k, f.size, a, b) for k, _, f, a, b in items],
                                      dtype=int).reshape(-1, 4).T
        n = np.arange(1, N + 1)
        active = (lo[:, None] <= n) & (n <= hi[:, None])
        # Rows per item and step, summed per (kind, step).  An item's first
        # row at a step: the first row of its (kind, step), then the rows of
        # the earlier items there, less those of the earlier kinds.
        fill = active * size[:, None]
        per = np.zeros((3, N), dtype=int)
        np.add.at(per, kind, fill)
        start = (np.cumsum(per) - per.ravel()).reshape(3, N) - (np.cumsum(per, axis=0) - per)
        first = start[kind] + np.cumsum(fill, axis=0) - fill
        labels = np.empty(int(per.sum()), dtype=object)
        effort = np.zeros(labels.size, dtype=bool)
        # Each item reads one pass.  A shared pass runs once per window
        # width on the union of the steps of the features that hold it, and
        # each of them takes its slice: an item's steps are a run, and so
        # are their places in the union.  Any other feature is its own pass
        # (slice None).  A window the evaluator does not take has no stack.
        groups, members = [], {}
        for g, ((k, label, feat, *_), on, at_first) in enumerate(zip(items, active, first)):
            rows = (at_first[on][:, None] + np.arange(feat.size)).ravel()
            labels[rows] = label
            effort[rows] = k == 0 and getattr(feat, "group", None) == EFFORT
            groups.append((feat, label, _frozen(n[on]), _frozen(rows)))
            shared = getattr(feat, "shared", None)
            key = g if shared is None else (id(shared), feat.window)
            members.setdefault(key, (feat if shared is None else shared, []))[1].append(g)
        self.passes, self.groups = [], groups
        for source, gs in members.values():
            union = n[active[gs].any(axis=0)]
            for g in gs:
                feat, label, at, rows = groups[g]
                a = int(np.searchsorted(union, at[0]))
                groups[g] = (feat, label, at, rows, len(self.passes),
                             None if source is feat else slice(a, a + len(at)))
            self.passes.append((source, _frozen(union[:, None] + np.arange(2 - feat.window, 2))
                                if feat.window in (1, 2, 3) else None))
        ends = np.cumsum([0, *per.sum(axis=1)]).tolist()
        self.kinds = tuple(map(slice, ends[:-1], ends[1:]))
        self.steps = _frozen(np.repeat(np.tile(n, 3), per.ravel()))
        self.index = tuple(zip(self.steps.tolist(), labels.tolist()))
        self.effort_mask = _frozen(effort, dtype=bool)
        # Configuration m starts at column (m + 1) d of the path with the
        # prefix in front, so a row of step n starts at column (n - 1) d.
        self.columns = _frozen(((self.steps - 1) * d)[:, None] + np.arange(3 * d))
        self.band = _frozen(band_index(N, d))
        pairs = [(feat, label) for k, label, feat, *_ in items if k == 1]
        self.equalities = {m: tuple(p for p, on in zip(pairs, col) if on)
                           for m, col in enumerate((fill[kind == 1] > 0).T.tolist(), 1)
                           if any(col)}

    def evaluate(self, xp: Array) -> tuple[Array, Array]:
        """Values and (rows, 3d) Jacobian blocks in table order; a failure
        raises the FeatureEvalError that assemble describes."""
        d = xp.shape[1]
        values = np.zeros(len(self.index))
        blocks = np.zeros((len(self.index), 3 * d))
        outs = {}
        try:
            for feat, label, at, rows, p, pos in self.groups:
                if p not in outs:
                    source, windows = self.passes[p]
                    if windows is None:
                        raise FeatureEvalError(int(at[0]), label,
                                               f"window {feat.window} is not 1, 2 or 3")
                    outs[p] = source.eval(xp[windows])
                vals, jacs = (outs[p] if pos is None
                              else (np.asarray(a)[pos] for a in feat.take(outs[p])))
                vals, jacs = np.asarray(vals, dtype=float), np.asarray(jacs, dtype=float)
                if (vals.shape != (len(at), feat.size)
                        or jacs.shape != (len(at), feat.size, feat.window * d)):
                    raise FeatureEvalError(int(at[0]), label,
                                           f"bad shapes {vals.shape}, {jacs.shape}")
                values[rows] = vals.ravel()
                blocks[rows, 3 * d - jacs.shape[2]:] = jacs.reshape(len(rows), jacs.shape[2])
            if not (np.isfinite(values).all() and np.isfinite(blocks).all()):
                bad = np.flatnonzero(~np.isfinite(values) | ~np.isfinite(blocks).all(axis=1))
                step, label = self.index[bad[np.argmin(self.steps[bad])]]
                raise FeatureEvalError(step, label, "nonfinite value or Jacobian")
        except Exception as exc:  # noqa: BLE001 - named step by step
            if not isinstance(exc, FeatureEvalError):
                first = int(at[0])
                exc = FeatureEvalError(first, label, f"eval over steps {first}..{int(at[-1])}: "
                                                     f"{exc!r}")
            # Within a step the rows come in item order.
            for n in range(1, len(xp) - 1):
                for feat, label, at, *_ in self.groups:
                    if at[0] <= n <= at[-1]:
                        _eval_step(feat, label, xp, n)
            raise exc
        return values, blocks


def _label(feat) -> str:
    return getattr(feat, "name", type(feat).__name__)


def _layout(problem: PathProblem, skeleton: Skeleton) -> _Rows:
    """The row table of (problem, skeleton), built on first use and kept
    on the problem; its items are the module docstring's, modes and
    switches in declared order, and a constraint row is labelled
    owner:feature.  The memo is keyed by the id of the skeleton object and
    holds it weakly: the entry leaves when the skeleton dies, and one
    whose reference is not this skeleton (its id reused) is rebuilt.  An
    invalid skeleton raises SkeletonError and is not kept.
    """
    entry = problem._layouts.get(id(skeleton))
    if entry is not None and entry[0]() is skeleton:
        return entry[1]
    structural = skeleton_structure_violations(skeleton, problem.N)
    if structural:
        raise SkeletonError("; ".join(v.message for v in structural))
    N = problem.N
    items = [(0, _label(f), f, 1, N) for f in problem.costs]
    items += [(0, _label(f), f, N, N) for f in problem.terminal_costs]
    owners = ([(m, *m.window) for m in skeleton.modes]
              + [(sw, sw.at_step, sw.at_step) for sw in skeleton.switches])
    for kind, attr in ((1, "eq"), (2, "ineq")):
        items += [(kind, f"{owner.symbol}:{_label(f)}", f, lo, hi)
                  for owner, lo, hi in owners for f in getattr(owner, attr)]
    table = _Rows(N, problem.d, items)
    memo, key = problem._layouts, id(skeleton)
    memo[key] = (weakref.ref(skeleton, lambda _: memo.pop(key, None)), table)
    return table


def step_equalities(eq, n: int, xp: Array) -> tuple[Array, Array]:
    """Values and Jacobians with respect to x_n of step n's equality rows.

    eq is the nonempty tuple of (feature, label) pairs that the row layout
    lists for step n (_Rows.equalities), and the rows come in its order;
    xp is the path with the two prefix rows in front, read up to x_n.
    Each feature is evaluated and checked at step n alone, as assemble
    does to locate a failure.
    """
    values, jacs = zip(*(_eval_step(feat, label, xp, n) for feat, label in eq))
    # Features of different windows may share a step: keep the x_n columns
    # of each before joining them.
    d = xp.shape[1]
    return np.concatenate(values), np.concatenate([jac[:, -d:] for jac in jacs])


def assemble(problem: PathProblem, skeleton: Skeleton, x: Array) -> FeatureStack:
    """Evaluate all cost and constraint features at a path into one table.

    Each feature object is evaluated once over all the steps where it
    applies, and each shared pass once over all the steps of its
    features; one check covers the finiteness of the table.  A failure
    raises the FeatureEvalError of the first row in canonical step order
    that fails, as a step-by-step evaluation would: the rows are then
    walked step by step, each feature evaluated at one step alone.  If
    none fails alone, a batch that raised names its feature's first step,
    and a nonfinite table its first nonfinite row.
    The table's layout (steps, index, kinds, effort mask and the index
    tables) is built once per (problem, skeleton) and shared, read-only,
    by its stacks.
    Deterministic: identical inputs produce bit-identical stacks.
    """
    table = _layout(problem, skeleton)
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.N, problem.d):
        raise ValueError(f"path must be ({problem.N}, {problem.d}), got {x.shape}")

    values, blocks = table.evaluate(np.vstack([problem.prefix, x]))
    return FeatureStack(N=problem.N, d=problem.d, values=values, blocks=blocks,
                        steps=table.steps, index=table.index, kinds=table.kinds,
                        effort_mask=table.effort_mask, columns=table.columns,
                        band=table.band)


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
