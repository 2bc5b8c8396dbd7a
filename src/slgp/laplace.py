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


def eliminate(expansion: Expansion, count: int = len(DISTRIBUTIONS)) -> Elimination:
    """Run the block recursion over the first count distributions.

    A pivot whose smallest eigenvalue is at most _EIG_FLOOR times its mean
    eigenvalue raises SingularComponentError naming the skeleton and the
    step.
    """
    grams = expansion.grams[:, :count]
    N, d = len(expansion.rows), expansion.d
    two_d = 2 * d
    carried: list[list[Array]] = [[] for _ in range(N + 1)]
    scale = np.zeros(N + 1)
    notes: list[tuple[int, str]] = []

    law = np.zeros((N, count, d, two_d + 1))
    roots = [None] * N
    half_logdet = np.zeros((N, count))
    values = np.zeros((N, count, two_d + 1, two_d + 1))
    S = np.zeros((3 * d + 1, two_d + 1))
    S[:two_d, :two_d] = np.eye(two_d)
    S[-1, -1] = 1.0
    V = np.zeros((count, two_d + 1, two_d + 1))
    for k in range(N, 0, -1):
        Z, Tk = np.eye(d), np.zeros((d, two_d))
        R = np.vstack([expansion.rows[k - 1], *carried[k]])
        if R.size:
            past, M = R[:, :two_d], R[:, two_d:]
            U, s, vt = np.linalg.svd(M)
            ref = max(s[0], scale[k])
            rank = int(np.sum(s > RANK_TOL * ref))
            Z = vt[rank:].T
            Tk = -(vt[:rank].T / s[:rank]) @ (U[:, :rank].T @ past)
            dropped = 0
            for row in U[:, rank:].T @ past:
                # A combination free of x_k that still constrains the past:
                # a row of step k-1 over (x_{k-3}, x_{k-2}, x_{k-1}).
                if k > 1 and np.abs(row).max() > RANK_TOL * ref:
                    carried[k - 1].append(np.concatenate([np.zeros(d), row]))
                    scale[k - 1] = max(scale[k - 1], ref)
                else:
                    dropped += 1
            if carried[k - 1]:
                notes.append((k, f"carried {len(carried[k - 1])} constraint rows "
                                 f"to step {k - 1}"))
            if dropped:
                notes.append((k, f"dropped {dropped} dependent constraint rows"))
        # The window's Gram with the later steps folded into the
        # (x_{k-1}, x_k, 1) block; with x_k = T_k p + Z_k y the cost is
        # 1/2 p^T S^T G S p + y^T Z^T (G S)_x p + 1/2 y^T pivot y, and
        # eliminating y subtracts C^T C.
        S[two_d:3 * d, :two_d] = Tk
        G = grams[k - 1].copy()
        G[:, d:, d:] += V
        GS = G @ S
        V = S.T @ GS
        E = G[:, two_d:3 * d, two_d:3 * d]
        pivot = Z.T @ E @ Z
        lam, Q = np.linalg.eigh(0.5 * (pivot + pivot.transpose(0, 2, 1)))
        if Z.shape[1]:
            for label, low, bound in zip(_PIVOTS, lam[:, 0],
                                         _EIG_FLOOR * lam.mean(axis=1)):
                if low <= bound:
                    raise SingularComponentError(
                        f"{label} of skeleton '{expansion.skeleton_id}' at step {k}",
                        float(low))
        root = Z @ Q / np.sqrt(lam)[:, None, :]
        C = root.transpose(0, 2, 1) @ GS[:, two_d:3 * d]
        law[k - 1, :, :, :two_d] = Tk
        law[k - 1] -= root @ C
        V -= C.transpose(0, 2, 1) @ C
        V = 0.5 * (V + V.transpose(0, 2, 1))
        values[k - 1], roots[k - 1] = V, root
        half_logdet[k - 1] = 0.5 * np.log(lam).sum(axis=1)
    return Elimination(skeleton_id=expansion.skeleton_id, law=law, root=tuple(roots),
                       half_logdet=half_logdet, V=values, notes=tuple(notes))


def build_component(problem: PathProblem, skeleton: Skeleton,
                    solution: NlpSolution) -> LaplaceComponent:
    """Laplace component at a converged solution, by eliminate.

    A singular pivot of either Hessian raises SingularComponentError
    naming the skeleton and the step.
    """
    if not solution.converged:
        raise ValueError(f"solution for '{skeleton.id}' is not converged "
                         f"(status {solution.status})")
    expansion = quadratize(problem, skeleton, solution)
    elim = eliminate(expansion)
    terms = elim.half_logdet[:, 1] - elim.half_logdet[:, 0]
    return LaplaceComponent(skeleton_id=skeleton.id, x_star=expansion.x_ref,
                            prefix=expansion.prefix,
                            rank=sum(root.shape[2] for root in elim.root),
                            f_star=solution.f_star,
                            log_ratio=float(_suffix_sums(terms)[0]), terms=terms,
                            elimination=elim)


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
