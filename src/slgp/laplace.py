"""Degenerate Gaussian path posteriors and their mixture.

Each converged skeleton solution x* yields a Gaussian supported on the
nullspace of the active constraint Jacobian, with covariance
W (W^T H W)^{-1} W^T for a nullspace basis W and the full cost Hessian H
and, analogously, for the effort-only Hessian H0 of the uncontrolled path
distribution.  The mixture weight of a skeleton combines its path cost
with the pseudo-determinant ratio of the two covariances,

    w_i  propto  exp(-f(x*_i)) * sqrt(|Sigma*_i|+ / |Sigma_i|+),

computed in log space throughout.

Neither H nor W is ever formed.  quadratize expands each step's cost
into the Gram matrix of its rows [J | r] over the window
(x_{k-2}, x_{k-1}, x_k) and one affine column, for the full cost and for
its effort rows, and one backward block recursion (eliminate) over
k = N..1 eliminates x_k from both at once, in O(N d^3):

* the active rows at step k, [L | M] over the past (x_{k-2}, x_{k-1})
  and the current x_k, are split by the singular values of M (relative
  rank tolerance RANK_TOL).  x_k = T_k p + Z_k y satisfies the independent
  rows, with Z_k spanning the nullspace of M;
* combinations of the rows that vanish on x_k but still constrain the
  past join the rows of step k-1, ranked against the scale of the step
  they came from; on the prefix (k = 1), or when they vanish entirely,
  they drop out;
* the pivot Z_k^T E_k Z_k of each Hessian, with the later steps already
  folded into the current block E_k, must be numerically positive
  definite.  One eigendecomposition Q diag(lam) Q^T of it gives the
  step's log-determinant and the square root Z_k Q diag(lam)^{-1/2} of
  the covariance of x_k given the past; eliminating y leaves the Schur
  complement on (x_{k-2}, x_{k-1}, 1), which is added to the matching
  block of step k-1.

The log-determinant ratio does not depend on the basis of the nullspace,
so the pivot terms for k >= n are exactly those of the future n..N with
the past held fixed: log_ratio is the sum of all the terms and the future
log ratios are their suffix sums.

One pass of eliminate weighs all kept skeletons of a problem: their
distributions are stacked on one batch axis.  A step where a skeleton has
no rows (Z_k = I, T_k = 0) is taken by slicing its block of the batch,
and only the skeletons with rows at a step are split, each on its own.
Each skeleton is eliminated once, and its LaplaceComponent keeps the
per-step products for three readers, which only slice and multiply: the
weights (the half log-determinants), the sampler's forward ancestral
substitution through the conditional law and its square root (Rue &
Held, Gaussian Markov Random Fields, 2005, ch. 2; any square root of the
conditional covariance samples the same Gaussian), and the feedback
policy: slgp.execution.build_controller stacks the full-cost slice of
the law and the value, whose affine column carries the gradient and the
constant.
nullspace_basis remains as the dense reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .problem import RANK_TOL, PathProblem, Skeleton, assemble
from .solver import NlpSolution

Array = np.ndarray

UNNORMALIZED = "unnormalized"
UNIFORM_NA = "uniform_na"

# Distributions in the order of the leading axis of the stored pivots.
DISTRIBUTIONS = ("optimal", "uncontrolled")
_PIVOTS = ("Hessian pivot", "effort Hessian pivot")

_EIG_FLOOR = 1e-10


class SingularComponentError(RuntimeError):
    def __init__(self, label: str, smallest: float):
        super().__init__(f"{label} is numerically singular "
                         f"(smallest eigenvalue {smallest:.3e})")
        self.smallest = smallest


def nullspace_basis(J: Array, tol: float = RANK_TOL) -> Array:
    """Orthonormal basis of the numerical nullspace of J.

    Singular directions are those with singular value below
    tol * sigma_max.  An empty J (zero rows) yields the identity.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError(f"J must be 2-D, got shape {J.shape}")
    n = J.shape[1]
    if J.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(J, full_matrices=True)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T.copy()


@dataclass(frozen=True)
class LaplaceComponent:
    """One skeleton's Gaussian: mean path, prefix and its elimination.

    elimination holds the per-step products of both distributions, in
    DISTRIBUTIONS order; the sampler and the feedback policy read them.
    terms[k-1], the effort pivot's half log-determinant minus the full
    one's, is half the log ratio of the two pivots' determinants, so
    log_ratio, the sum of the terms, is the log of the entropy ratio
    sqrt(|Sigma*|+ / |Sigma|+).  rank is the support dimension, the sum
    of the r_k.
    """

    skeleton_id: str
    x_star: Array
    prefix: Array
    rank: int
    f_star: float
    log_ratio: float
    terms: Array
    elimination: Elimination


def _suffix_sums(terms: Array) -> Array:
    return np.cumsum(terms[::-1])[::-1]


@dataclass(frozen=True)
class Expansion:
    """Second-order expansion of one skeleton's path cost about x*.

    grams[k-1] (2, 3d+1, 3d+1) holds, for the full cost and for its effort
    rows (DISTRIBUTIONS order), the Gram matrix of step k's rows [J | r]
    over the window (x_{k-2}, x_{k-1}, x_k) and one affine column: the
    Gauss-Newton Hessian, the gradient and twice the constant of the
    step's cost 1/2 |r + J dw|^2.  rows[k-1] (r_k, 3d) are the step's
    active constraint rows, linearized as rows @ dw = 0.
    """

    skeleton_id: str
    x_ref: Array
    prefix: Array
    grams: Array
    rows: tuple

    @property
    def d(self) -> int:
        return self.x_ref.shape[1]


def quadratize(problem: PathProblem, skeleton: Skeleton,
               solution: NlpSolution) -> Expansion:
    """Expansion of every step about the solution, Gauss-Newton throughout.

    The active rows are all equality rows plus the inequality rows flagged
    in solution.active_set, those with a positive multiplier, the
    equality rows first within a step.
    """
    N = problem.N
    stack = assemble(problem, skeleton, solution.x_star)
    cost, eq, ineq = stack.kinds
    grams = np.stack([stack.gram(cost, weights, values=True)
                      for weights in (np.ones(stack.steps.size),
                                      stack.effort_mask.astype(float))], axis=1)
    active = np.zeros(stack.steps.size, dtype=bool)
    active[eq] = True
    active[ineq] = solution.active_set
    rows = stack.by_step(active)
    splits = np.searchsorted(stack.steps[rows], np.arange(2, N + 1))
    return Expansion(skeleton_id=skeleton.id, x_ref=solution.x_star.copy(),
                     prefix=np.asarray(problem.prefix, float).copy(),
                     grams=grams, rows=tuple(np.split(stack.blocks[rows], splits)))


@dataclass(frozen=True)
class Elimination:
    """Per-step products of the block recursion over one expansion.

    For step k (entry k-1), with the past p = (x_{k-2}, x_{k-1}, 1):
    x_k = T_k p[:2d] + Z_k y satisfies the step's rows.  G_k is the
    step's Gram block with the later steps folded in, E_k its x_k block
    and S_k the map from p to the window (x_{k-2}, x_{k-1}, x_k, 1) at
    y = 0.  For each eliminated distribution (the axis after the step,
    DISTRIBUTIONS order), with Q diag(lam) Q^T the pivot Z_k^T E_k Z_k:

      root[k-1]        (count, d, r_k)       Z_k Q diag(lam)^{-1/2}, a
                       square root of the covariance of x_k given p;
      half_logdet[k-1] (count,)              1/2 sum log lam;
      law[k-1]         (count, d, 2d+1)      [T_k | 0] - root C_k with
                       C_k = root^T (G_k S_k)_x, where (.)_x takes the
                       rows of x_k: the mean of x_k given p;
      V[k-1]           (count, 2d+1, 2d+1)   the Schur complement
                       S_k^T G_k S_k - C_k^T C_k: the cost of steps k..N
                       is 1/2 p^T V p once x_k..x_N are minimized out.

    skeleton_id names the skeleton of the expansion; notes list (step,
    text) for the rows carried back or dropped.
    """

    skeleton_id: str
    law: Array
    root: tuple
    half_logdet: Array
    V: Array
    notes: tuple


def eliminate(expansions, count: int = len(DISTRIBUTIONS)) -> list:
    """Run the block recursion over the first count distributions of every
    expansion in one pass.

    The expansions are the skeletons of one problem: they share N, d and
    the prefix, and their K x count distributions are stacked on one batch
    axis.  At a step where a skeleton has no rows, Z_k = I and T_k = 0, so
    S_k only selects p from the window: its (G S)_x and new V are taken out
    of G, not multiplied, and the pivots of all such skeletons are
    factored together.  Each skeleton with rows at the step, its own or
    carried ones, runs its SVD, carried rows, notes and pivot on its own,
    since r_k differs between skeletons.

    Returns one entry per expansion, in order: its Elimination, or the
    SingularComponentError of its first pivot whose smallest eigenvalue is
    at most _EIG_FLOOR times its mean eigenvalue, naming the skeleton and
    the step.  That skeleton keeps its place, its entry is its error, and
    the later steps skip it; the others go on.
    """
    if count not in range(1, len(DISTRIBUTIONS) + 1):
        raise ValueError(f"count must be 1 or {len(DISTRIBUTIONS)}, got {count!r}")
    expansions = tuple(expansions)
    if not expansions:
        return []
    first = expansions[0]
    N, d = len(first.rows), first.d
    for other in expansions[1:]:
        if ((len(other.rows), other.d) != (N, d)
                or not np.array_equal(other.prefix, first.prefix)):
            raise ValueError(f"expansions of skeletons '{first.skeleton_id}' and "
                             f"'{other.skeleton_id}' differ in N, d or the prefix")
    K, two_d, width = len(expansions), 2 * d, 3 * d + 1
    x = slice(two_d, 3 * d)
    # The window columns of the past p = (x_{k-2}, x_{k-1}, 1), and the
    # entries of the window's Gram that S^T G S selects at T_k = 0.
    past = np.r_[0:two_d, 3 * d]
    past_gram = (past[:, None] * width + past).ravel()
    eye = np.eye(d)
    grams = np.stack([e.grams[:, :count] for e in expansions], axis=1)
    carried = [[[] for _ in range(N + 1)] for _ in range(K)]
    scale = np.zeros((K, N + 1))
    notes: list[list[tuple[int, str]]] = [[] for _ in range(K)]
    errors: dict[int, SingularComponentError] = {}

    def singular(i: int, k: int, lam: Array) -> bool:
        """Record skeleton i's error if one of its pivots (rows of lam) is singular."""
        low = lam[:, 0] <= _EIG_FLOOR * (lam.sum(axis=1) / lam.shape[1])
        if not low.any():
            return False
        which = int(np.argmax(low))
        errors[i] = SingularComponentError(
            f"{_PIVOTS[which]} of skeleton '{expansions[i].skeleton_id}' at step {k}",
            float(lam[which, 0]))
        return True

    def fold(at, Z: Array, lam: Array, Q: Array) -> Array:
        """Fold the factored pivots Q diag(lam) Q^T of the skeletons at (an
        index or an index array) into the step's law, V and half
        log-determinants; returns root."""
        root = Z @ Q / np.sqrt(lam)[..., None, :]
        C = root.swapaxes(-1, -2) @ GS_x[at]
        law[at, k - 1] -= root @ C
        V[at] -= C.swapaxes(-1, -2) @ C
        half_logdet[at, k - 1] = 0.5 * np.log(lam).sum(axis=-1)
        return root

    law = np.zeros((K, N, count, d, two_d + 1))
    roots = [[None] * N for _ in range(K)]
    half_logdet = np.zeros((K, N, count))
    values = np.zeros((K, N, count, two_d + 1, two_d + 1))
    S = np.zeros((width, two_d + 1))
    S[:two_d, :two_d] = np.eye(two_d)
    S[-1, -1] = 1.0
    V = np.zeros((K, count, two_d + 1, two_d + 1))
    for k in range(N, 0, -1):
        # The window's Gram with the later steps folded into the
        # (x_{k-1}, x_k, 1) block; with x_k = T_k p + Z_k y the cost is
        # 1/2 p^T S^T G S p + y^T Z^T (G S)_x p + 1/2 y^T pivot y, and
        # eliminating y subtracts C^T C.  At T_k = 0, S only selects p.
        G = grams[k - 1].copy()
        G[:, :, d:, d:] += V
        GS_x = G[:, :, x].take(past, axis=3)
        V = G.reshape(K, count, -1).take(past_gram, axis=2).reshape(V.shape)
        free = []
        for i in range(K):
            if i in errors:
                continue
            if not (len(expansions[i].rows[k - 1]) or carried[i][k]):
                free.append(i)
                continue
            R = np.vstack([expansions[i].rows[k - 1], *carried[i][k]])
            U, s, vt = np.linalg.svd(R[:, two_d:])
            ref = max(s[0], scale[i, k])
            rank = int(np.sum(s > RANK_TOL * ref))
            Z = vt[rank:].T
            Tk = -(vt[:rank].T / s[:rank]) @ (U[:, :rank].T @ R[:, :two_d])
            dropped = 0
            for row in U[:, rank:].T @ R[:, :two_d]:
                # A combination free of x_k that still constrains the past:
                # a row of step k-1 over (x_{k-3}, x_{k-2}, x_{k-1}).
                if k > 1 and np.abs(row).max() > RANK_TOL * ref:
                    carried[i][k - 1].append(np.concatenate([np.zeros(d), row]))
                    scale[i, k - 1] = max(scale[i, k - 1], ref)
                else:
                    dropped += 1
            if carried[i][k - 1]:
                notes[i].append((k, f"carried {len(carried[i][k - 1])} constraint rows "
                                    f"to step {k - 1}"))
            if dropped:
                notes[i].append((k, f"dropped {dropped} dependent constraint rows"))
            S[x, :two_d] = Tk
            GS = G[i] @ S
            V[i] = S.T @ GS
            S[x, :two_d] = 0.0
            GS_x[i] = GS[:, x]
            pivot = Z.T @ G[i, :, x, x] @ Z
            lam, Q = np.linalg.eigh(0.5 * (pivot + pivot.swapaxes(-1, -2)))
            if Z.shape[1] and singular(i, k, lam):
                continue
            law[i, k - 1, :, :, :two_d] = Tk
            roots[i][k - 1] = fold(i, Z, lam, Q)
        if free:
            # Z_k = I: each pivot is the x_k block of G.  root is still
            # formed as the product Z_k Q, which equals Q but stores its
            # -0.0 as +0.0, as the steps with rows do.  A singular pivot
            # is folded at unit eigenvalues, so no NaN is formed.
            at = slice(None) if len(free) == K else np.array(free)
            E = G[at, :, x, x]
            lam, Q = np.linalg.eigh(0.5 * (E + E.swapaxes(-1, -2)))
            if (lam[:, :, 0] <= _EIG_FLOOR * (lam.sum(axis=2) / d)).any():
                for n, i in enumerate(free):
                    if singular(i, k, lam[n]):
                        lam[n] = 1.0
            for i, r in zip(free, fold(at, eye, lam, Q)):
                roots[i][k - 1] = r
        V = 0.5 * (V + V.swapaxes(-1, -2))
        values[:, k - 1] = V
        if errors:
            V[list(errors)] = 0.0
    return [errors[i] if i in errors else
            Elimination(skeleton_id=e.skeleton_id, law=law[i], root=tuple(roots[i]),
                        half_logdet=half_logdet[i], V=values[i], notes=tuple(notes[i]))
            for i, e in enumerate(expansions)]


def build_components(problem: PathProblem, solved) -> list:
    """Laplace components of converged (skeleton, solution) pairs of one
    problem, by one eliminate over all of their expansions.

    Returns one entry per pair, in order: its LaplaceComponent, or the
    SingularComponentError naming the skeleton, the step and the smallest
    eigenvalue of its singular pivot.
    """
    solved = tuple(solved)
    for skeleton, solution in solved:
        if not solution.converged:
            raise ValueError(f"solution for '{skeleton.id}' is not converged "
                             f"(status {solution.status})")
    expansions = [quadratize(problem, skeleton, solution) for skeleton, solution in solved]
    out = []
    for (_, solution), expansion, elim in zip(solved, expansions, eliminate(expansions)):
        if isinstance(elim, SingularComponentError):
            out.append(elim)
            continue
        terms = elim.half_logdet[:, 1] - elim.half_logdet[:, 0]
        out.append(LaplaceComponent(skeleton_id=expansion.skeleton_id,
                                    x_star=expansion.x_ref, prefix=expansion.prefix,
                                    rank=sum(root.shape[2] for root in elim.root),
                                    f_star=solution.f_star,
                                    log_ratio=float(_suffix_sums(terms)[0]),
                                    terms=terms, elimination=elim))
    return out


def build_component(problem: PathProblem, skeleton: Skeleton,
                    solution: NlpSolution) -> LaplaceComponent:
    """build_components of one pair: its component, or its
    SingularComponentError raised."""
    component, = build_components(problem, [(skeleton, solution)])
    if isinstance(component, SingularComponentError):
        raise component
    return component


def mixture_weights(f_star, log_ratio) -> Array:
    """Normalized weights from per-component log masses -f* + log_ratio.

    Computed with max subtraction; exact on the simplex.
    """
    f_star = np.asarray(f_star, dtype=float)
    log_ratio = np.asarray(log_ratio, dtype=float)
    if f_star.shape != log_ratio.shape or f_star.ndim != 1 or f_star.size == 0:
        raise ValueError("f_star and log_ratio must be equal-length 1-D arrays")
    logits = -f_star + log_ratio
    logits = logits - logits.max()
    w = np.exp(logits)
    return w / w.sum()


def multimodal_cost(f_star, log_ratio) -> float:
    """-log of the total mixture mass, without a prior over the components."""
    logits = -np.asarray(f_star, dtype=float) + np.asarray(log_ratio, dtype=float)
    peak = logits.max()
    return float(-(peak + np.log(np.exp(logits - peak).sum())))


@dataclass(frozen=True)
class PathMixture:
    components: tuple[LaplaceComponent, ...]
    weights: Array
    cost: float

    def to_dict(self) -> dict:
        """The uniform 1/K prior over the K components adds log K to the
        unnormalized cost."""
        return {
            "schema": "slgp.mixture/2",
            "components": [
                {"skeletonId": c.skeleton_id, "fStar": c.f_star,
                 "logRatio": c.log_ratio, "entropyRatio": float(np.exp(c.log_ratio)),
                 "rank": c.rank, "weight": float(w)}
                for c, w in zip(self.components, self.weights)
            ],
            "multimodalCost": {
                UNNORMALIZED: self.cost,
                UNIFORM_NA: float(self.cost + np.log(len(self.components))),
            },
        }


def build_mixture(components) -> PathMixture:
    """Weights and unnormalized multimodal cost of the components."""
    components = tuple(components)
    f = np.array([c.f_star for c in components])
    lr = np.array([c.log_ratio for c in components])
    return PathMixture(components=components, weights=mixture_weights(f, lr),
                       cost=multimodal_cost(f, lr))


def ancestral_paths(component: LaplaceComponent, z: Array,
                    distribution: str = "optimal") -> Array:
    """Paths x* + dx for standard normal coordinates z, shape (count, rank).

    Forward ancestral substitution through the component's elimination:
    with the past deviation p_k = (dx_{k-2}, dx_{k-1}) (zero on the
    prefix), dx_k = law_k p_k + root_k z_k, where law_k drops the affine
    column and z_k are the next r_k columns of z.  The map is linear in
    z, and for z standard normal dx has covariance W (W^T H W)^{-1} W^T of
    the chosen distribution.  Returns (count, N, d).
    """
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution '{distribution}'")
    which = DISTRIBUTIONS.index(distribution)
    N, d = component.x_star.shape
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != component.rank:
        raise ValueError(f"z must be (count, {component.rank}), got {z.shape}")
    elim = component.elimination
    dx = np.zeros((z.shape[0], N + 2, d))
    at = 0
    for k in range(N):
        root = elim.root[k][which]
        r = root.shape[1]
        p = dx[:, k:k + 2].reshape(-1, 2 * d)
        dx[:, k + 2] = p @ elim.law[k, which, :, :2 * d].T + z[:, at:at + r] @ root.T
        at += r
    return component.x_star + dx[:, 2:]


def sample_paths(component: LaplaceComponent, count: int, seed: int,
                 distribution: str = "optimal") -> Array:
    """Draw count paths from the component by ancestral_paths.

    distribution "optimal" uses the full-cost covariance, "uncontrolled"
    the effort-only covariance.  Deterministic for a fixed seed; returns
    (count, N, d).
    """
    z = np.random.default_rng(seed).standard_normal((count, component.rank))
    return ancestral_paths(component, z, distribution)


def future_log_ratios(component: LaplaceComponent) -> Array:
    """Per-step log entropy ratios of the conditional future distribution.

    Entry n-1 is 1/2 (logdet H0_f - logdet H_f), where H_f and H0_f are
    the trailing blocks over steps n..N of the full and the effort-only
    Hessian, projected onto the nullspace of the active rows' future
    columns: the suffix sum of the pivot terms from step n.  Entry 0
    equals the component's log_ratio.
    """
    return _suffix_sums(component.terms)
