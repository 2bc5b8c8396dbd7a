"""Gaussian path components: nullspaces, covariances, weights, sampling."""

import dataclasses

import numpy as np
import pytest

from slgp.features import (EFFORT, AccelerationPenalty, AffineFeature,
                           coordinate_target)
from slgp.laplace import (SingularComponentError, build_component, build_components,
                          build_mixture, eliminate, future_log_ratios, mixture_weights,
                          multimodal_cost, nullspace_basis, quadratize, sample_paths)
from slgp.problem import Mode, PathProblem, Skeleton, Switch, assemble, free_skeleton
from slgp.scenarios import ScenarioParams, build_scenario
from slgp.selftest import (dense_covariance, dense_laplace_terms,
                           factor_covariance, projected_logdet)
from slgp.selftest import _dense_future_log_ratios  # noqa: PLC2701
from slgp.solver import solve


def _lq(N=6, d=2, target_weight=5.0):
    return PathProblem(
        N=N, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        costs=(AccelerationPenalty(d, 0.2, 0.4),),
        terminal_costs=(coordinate_target(d, np.arange(d), np.full(d, 0.7),
                                          target_weight),))


def _component(problem):
    skeleton = free_skeleton(problem.N)
    sol = solve(problem, skeleton)
    assert sol.converged
    return build_component(problem, skeleton, sol), sol


# --- nullspace ----------------------------------------------------------


def test_empty_constraint_block_gives_identity_basis():
    W = nullspace_basis(np.zeros((0, 4)))
    assert np.array_equal(W, np.eye(4))


def test_single_row_nullspace_is_the_orthogonal_axis():
    W = nullspace_basis(np.array([[1.0, 0.0]]))
    assert W.shape == (2, 1)
    assert abs(W[1, 0]) == pytest.approx(1.0)
    assert W[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_random_full_rank_rows_leave_complementary_basis():
    rng = np.random.default_rng(6)
    J = rng.normal(size=(20, 50))
    W = nullspace_basis(J)
    assert W.shape == (50, 30)
    assert np.abs(J @ W).max() < 1e-8
    assert np.abs(W.T @ W - np.eye(30)).max() < 1e-8


def test_duplicate_rows_do_not_shrink_the_nullspace_twice():
    rng = np.random.default_rng(9)
    v, w = rng.normal(size=(2, 5))
    W = nullspace_basis(np.stack([v, v, w]))
    assert W.shape == (5, 3)
    assert np.abs(np.stack([v, w]) @ W).max() < 1e-8


# --- component covariance -------------------------------------------------


def test_unconstrained_covariance_is_the_inverse_hessian():
    problem = _lq()
    comp, sol = _component(problem)
    H, _, J = dense_laplace_terms(problem, free_skeleton(problem.N), sol)
    assert J.shape[0] == 0 and comp.rank == H.shape[0]
    assert np.abs(factor_covariance(comp) - np.linalg.inv(H)).max() < 1e-10


def test_pinned_coordinate_covariance_collapses_on_axis():
    # Unit quadratic in the plane at every step with the first coordinate
    # pinned to zero: the covariance is rank one per step, along the free
    # axis.
    unit = AffineFeature(np.eye(2), np.zeros(2), window=1, name="unit",
                         group=EFFORT)
    pin = AffineFeature(np.array([[1.0, 0.0]]), np.zeros(1), window=1, name="pin")
    problem = PathProblem(N=2, d=2, dt=1.0, sigma=1.0,
                          prefix=np.zeros((2, 2)), costs=(unit,))
    skeleton = Skeleton(id="toy", modes=(Mode("pinned", (1, 2), eq=(pin,)),))
    sol = solve(problem, skeleton)
    assert sol.converged
    comp = build_component(problem, skeleton, sol)
    assert comp.rank == 2 and comp.log_ratio == 0.0
    for distribution in ("optimal", "uncontrolled"):
        assert np.abs(factor_covariance(comp, distribution)
                      - np.diag([0.0, 1.0, 0.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize("bundle", ["elbow", "push", "tworoute"])
def test_factor_covariance_matches_the_dense_oracle(bundle, request):
    # The sampler's linear map through the per-step factors reproduces
    # W (W^T H W)^-1 W^T for both Hessians on every converged skeleton.
    bundle = request.getfixturevalue(bundle)
    problem = bundle.scenario.problem
    for sid, comp in bundle.components.items():
        if comp is None:
            continue
        sk, sol = bundle.scenario.skeleton(sid), bundle.solution(sid)
        for distribution in ("optimal", "uncontrolled"):
            oracle = dense_covariance(problem, sk, sol, distribution)
            got = factor_covariance(comp, distribution)
            assert np.abs(got - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_support_rank_counts_dimensions_minus_active_rows(elbow):
    comp = elbow.component("fix-joint-2")
    sol = elbow.solution("fix-joint-2")
    problem = elbow.scenario.problem
    stack = assemble(problem, elbow.scenario.skeleton("fix-joint-2"),
                     sol.x_star)
    n_active = stack.eq.size + int(sol.active_set.sum())
    assert comp.rank == problem.N * problem.d - n_active
    s = np.linalg.svd(factor_covariance(comp), compute_uv=False)
    assert int((s > 1e-10 * s[0]).sum()) == comp.rank


def test_component_requires_a_converged_solution():
    problem = _lq()
    skeleton = free_skeleton(problem.N)
    sol = solve(problem, skeleton)
    broken = dataclasses.replace(sol, status="max-iterations")
    with pytest.raises(ValueError):
        build_component(problem, skeleton, broken)


def test_taskless_direction_makes_the_component_singular():
    # No effort rows at all: the uncontrolled Hessian has empty support.
    problem = PathProblem(
        N=3, d=1, dt=0.5, sigma=1.0, prefix=np.zeros((2, 1)),
        costs=(), terminal_costs=(coordinate_target(1, [0], [1.0], 1.0),))
    skeleton = free_skeleton(3)
    sol = solve(problem, skeleton)
    with pytest.raises(SingularComponentError,
                       match="effort Hessian pivot of skeleton 'free' at step 3"):
        build_component(problem, skeleton, sol)


# --- one elimination pass over all skeletons ---------------------------------


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_elimination(got, want):
    assert got.skeleton_id == want.skeleton_id and got.notes == want.notes
    for name in ("law", "half_logdet", "V"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert len(got.root) == len(want.root)
    assert all(_same_bits(a, b) for a, b in zip(got.root, want.root))


_EXPANSIONS = {}


def _expansions(name, N):
    """The expansions of a bundled scenario's converged skeletons, solved
    once per module."""
    if (name, N) not in _EXPANSIONS:
        scenario = build_scenario(ScenarioParams(name=name, N=N))
        solved = [(sk, solve(scenario.problem, sk)) for sk in scenario.skeletons]
        _EXPANSIONS[name, N] = [quadratize(scenario.problem, sk, sol)
                                for sk, sol in solved if sol.converged]
    return _EXPANSIONS[name, N]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("N", [40, 160])
@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
def test_one_pass_equals_the_skeletons_eliminated_alone(name, N, count):
    expansions = _expansions(name, N)
    assert len(expansions) > 1
    batched = eliminate(expansions, count)
    assert len(batched) == len(expansions)
    for expansion, got in zip(expansions, batched):
        alone, = eliminate([expansion], count)
        _assert_same_elimination(got, alone)
        assert got.law.shape[1] == count


@pytest.mark.parametrize("bundle, order, victim", [
    ("tworoute", ["via-near", "via-far"], "via-far"),
    ("tworoute", ["via-far", "via-near"], "via-far"),
    # Step N has rows: the singular pivot is met on a skeleton's own.
    ("push", ["single-finger", "two-finger"], "two-finger"),
    # The free arm leaves while the contact skeletons have rows at step N.
    ("elbow", ["free", "fix-joint-1", "fix-joint-2", "fix-both"], "free"),
    # A skeleton with rows leaves first: the free arm moves to the front of
    # the batch, and the contact skeletons still have rows at its steps.
    ("elbow", ["fix-both", "free", "fix-joint-1", "fix-joint-2"], "fix-both"),
    # Every skeleton fails at step N, the free arm without rows and the
    # contact skeletons with theirs; each keeps its own error.
    ("elbow", ["free", "fix-joint-1", "fix-joint-2", "fix-both"], "all"),
])
def test_a_singular_skeleton_leaves_the_batch_alone(bundle, order, victim, request,
                                                    monkeypatch):
    # Leave only the victims' step-N effort rows out: their effort Hessian
    # pivots at step N are singular, and the other skeletons must not notice.
    victims = order if victim == "all" else [victim]
    bundle = request.getfixturevalue(bundle)
    problem = bundle.scenario.problem
    solved = [(bundle.scenario.skeleton(sid), bundle.solution(sid)) for sid in order]
    clean = dict(zip(order, build_components(problem, solved)))

    def victim_last_step_without_effort(problem, skeleton, x):
        stack = assemble(problem, skeleton, x)
        if skeleton.id not in victims:
            return stack
        return dataclasses.replace(
            stack, effort_mask=stack.effort_mask & (stack.steps != problem.N))

    monkeypatch.setattr("slgp.laplace.assemble", victim_last_step_without_effort)
    built = dict(zip(order, build_components(problem, solved)))
    for sid in victims:
        assert isinstance(built[sid], SingularComponentError)
        with pytest.raises(SingularComponentError) as alone:
            build_component(problem, *solved[order.index(sid)])
        assert str(built[sid]) == str(alone.value) == (
            f"effort Hessian pivot of skeleton '{sid}' at step {problem.N} is "
            "numerically singular (smallest eigenvalue 0.000e+00)")
    for sid in order:
        if sid not in victims:
            _assert_same_elimination(built[sid].elimination, clean[sid].elimination)
            assert (built[sid].log_ratio, built[sid].rank) == (clean[sid].log_ratio,
                                                               clean[sid].rank)


@pytest.mark.parametrize("count", [0, 3])
def test_eliminate_names_a_bad_count(tworoute, count):
    expansion = _expansions("tworoute", 40)[0]
    with pytest.raises(ValueError, match=f"count must be 1 or 2, got {count}"):
        eliminate([expansion], count)


def test_eliminate_refuses_expansions_of_different_problems():
    near, far = _expansions("tworoute", 40)
    for other in (dataclasses.replace(far, grams=far.grams[1:], rows=far.rows[1:]),
                  dataclasses.replace(far, x_ref=np.zeros((far.x_ref.shape[0], 3))),
                  dataclasses.replace(far, prefix=far.prefix + 1.0)):
        with pytest.raises(ValueError, match="'via-near' and 'via-far' differ in N, d "
                                             "or the prefix"):
            eliminate([near, other])


# --- log entropy ratio ------------------------------------------------------


def test_pure_effort_costs_give_zero_log_ratio():
    problem = PathProblem(
        N=5, d=2, dt=0.2, sigma=0.4, prefix=np.zeros((2, 2)),
        costs=(AccelerationPenalty(2, 0.2, 0.4),))
    comp, _ = _component(problem)
    assert comp.log_ratio == 0.0


def test_uniformly_scaled_hessian_shifts_log_ratio_by_rank():
    # Duplicate the effort stencil as task rows scaled by alpha: the full
    # Hessian is (1 + alpha^2) times the effort Hessian, so the log ratio
    # is -(rank / 2) log(1 + alpha^2).
    alpha, d = 1.7, 2
    scale = 1.0 / (0.4 * 0.2**1.5)
    A = np.zeros((d, 3 * d))
    for k, stencil in enumerate((1.0, -2.0, 1.0)):
        A[np.arange(d), k * d + np.arange(d)] = alpha * scale * stencil
    task_rows = AffineFeature(A, np.zeros(d), window=3, name="accel-task",
                              group="task")
    problem = PathProblem(
        N=5, d=2, dt=0.2, sigma=0.4, prefix=np.zeros((2, 2)),
        costs=(AccelerationPenalty(2, 0.2, 0.4), task_rows))
    comp, _ = _component(problem)
    expected = -0.5 * comp.rank * np.log(1.0 + alpha**2)
    assert comp.log_ratio == pytest.approx(expected, rel=1e-10)


def test_log_ratio_is_never_positive(elbow):
    for comp in elbow.components.values():
        assert comp.log_ratio <= 1e-12


def test_projected_logdet_matches_eigenvalue_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        B0 = rng.normal(size=(3, 3))
        B1 = rng.normal(size=(3, 3))
        H0 = B0 @ B0.T + 0.5 * np.eye(3)
        H1 = B1 @ B1.T + 0.5 * np.eye(3)
        W = np.eye(3)
        got = 0.5 * (projected_logdet(H0, W) - projected_logdet(H1, W))
        oracle = 0.5 * (np.sum(np.log(np.linalg.eigvalsh(H0)))
                        - np.sum(np.log(np.linalg.eigvalsh(H1))))
        assert got == pytest.approx(oracle, rel=1e-10)


# --- weights and combined cost ----------------------------------------------


def test_single_component_takes_all_weight():
    assert mixture_weights([3.2], [-1.0]) == pytest.approx([1.0])


def test_symmetric_pair_splits_evenly():
    w = mixture_weights([1.5, 1.5], [-0.3, -0.3])
    assert w == pytest.approx([0.5, 0.5])


def test_weights_live_on_the_simplex_at_any_scale():
    rng = np.random.default_rng(12)
    for scale in (1.0, 1e2, 1e4):
        for _ in range(20):
            f = scale * rng.uniform(0.1, 2.0, size=5)
            lr = -rng.uniform(0.0, 3.0, size=5)
            w = mixture_weights(f, lr)
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w >= 0.0).all()


def test_weights_are_shift_invariant():
    f = np.array([0.4, 1.1, 2.0])
    lr = np.array([-0.2, -0.9, -0.1])
    assert np.allclose(mixture_weights(f, lr), mixture_weights(f + 7.0, lr))


def test_weight_input_validation():
    with pytest.raises(ValueError):
        mixture_weights([1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        mixture_weights([], [])


def test_single_component_cost_is_f_minus_log_ratio():
    assert multimodal_cost([2.0], [-0.5]) == pytest.approx(2.5)


def test_uniform_prior_mode_adds_log_component_count(elbow):
    comps = [elbow.component(sid) for sid in ("free", "fix-joint-1",
                                              "fix-joint-2", "fix-both")]
    mix = build_mixture(comps)
    costs = mix.to_dict()["multimodalCost"]
    logits = np.array([c.log_ratio - c.f_star for c in comps])
    assert costs["unnormalized"] == mix.cost == multimodal_cost(
        [c.f_star for c in comps], [c.log_ratio for c in comps])
    # -log of the mass under the uniform prior 1/4 over the components.
    peak = logits.max()
    uniform = -(peak + np.log(np.mean(np.exp(logits - peak))))
    assert costs["uniform_na"] == pytest.approx(uniform, abs=1e-12)
    assert costs["uniform_na"] == pytest.approx(mix.cost + np.log(4.0), abs=1e-12)


def test_mixture_dict_schema_and_simplex(elbow):
    comps = [elbow.component(sid) for sid in ("free", "fix-joint-1",
                                              "fix-joint-2", "fix-both")]
    mix = build_mixture(comps)
    payload = mix.to_dict()
    assert payload["schema"] == "slgp.mixture/2"
    assert "priorMode" not in payload
    assert len(payload["components"]) == 4
    total = sum(c["weight"] for c in payload["components"])
    assert total == pytest.approx(1.0, abs=1e-12)
    for entry in payload["components"]:
        assert set(entry) == {"skeletonId", "fStar", "logRatio",
                              "entropyRatio", "rank", "weight"}
        assert entry["entropyRatio"] == pytest.approx(
            np.exp(entry["logRatio"]))
    assert set(payload["multimodalCost"]) == {"unnormalized", "uniform_na"}


# --- sampling ---------------------------------------------------------------


def test_sampling_is_bit_identical_for_a_fixed_seed():
    comp, _ = _component(_lq())
    a = sample_paths(comp, 64, seed=42)
    b = sample_paths(comp, 64, seed=42)
    assert np.array_equal(a, b)
    c = sample_paths(comp, 64, seed=43)
    assert not np.array_equal(a, c)


def test_sample_mean_concentrates_on_the_solution():
    problem = _lq()
    comp, sol = _component(problem)
    draws = sample_paths(comp, 10_000, seed=3)
    assert draws.shape == (10_000, comp.x_star.shape[0], comp.x_star.shape[1])
    mean = draws.reshape(10_000, -1).mean(axis=0)
    cov = dense_covariance(problem, free_skeleton(problem.N), sol)
    max_std = float(np.sqrt(np.diag(cov).max()))
    assert np.abs(mean - sol.x_star.ravel()).max() < 4.0 * max_std / 100.0


def test_samples_respect_active_constraint_rows(elbow):
    comp = elbow.component("fix-joint-2")
    _, _, J = dense_laplace_terms(elbow.scenario.problem,
                                  elbow.scenario.skeleton("fix-joint-2"),
                                  elbow.solution("fix-joint-2"))
    draws = sample_paths(comp, 50, seed=7)
    flat = draws.reshape(50, -1) - comp.x_star.ravel()
    assert J.shape[0] > 0
    assert np.abs(J @ flat.T).max() < 1e-8


def test_uncontrolled_samples_spread_wider_than_optimal():
    comp, _ = _component(_lq(target_weight=50.0))
    opt = sample_paths(comp, 2000, seed=5, distribution="optimal")
    unc = sample_paths(comp, 2000, seed=5, distribution="uncontrolled")
    assert unc.reshape(2000, -1).var(axis=0).sum() > \
        opt.reshape(2000, -1).var(axis=0).sum()
    with pytest.raises(ValueError):
        sample_paths(comp, 4, seed=1, distribution="gaussian")


# --- per-step future ratios ---------------------------------------------


def test_future_ratios_start_at_the_full_ratio_and_stay_nonpositive(elbow):
    comp = elbow.component("fix-joint-2")
    ratios = future_log_ratios(comp)
    assert ratios.shape == (elbow.scenario.problem.N,)
    assert ratios[0] == pytest.approx(comp.log_ratio, abs=1e-9)
    assert (ratios <= 1e-9).all()
    assert np.isfinite(ratios).all()


@pytest.mark.parametrize("bundle", ["elbow", "push", "tworoute"])
def test_future_ratios_match_the_dense_projection(bundle, request):
    bundle = request.getfixturevalue(bundle)
    for sid, comp in bundle.components.items():
        if comp is None:
            continue
        dense = _dense_future_log_ratios(bundle.scenario.problem,
                                         bundle.scenario.skeleton(sid),
                                         bundle.solution(sid))
        assert np.abs(future_log_ratios(comp) - dense).max() <= 1e-8
        assert abs(comp.log_ratio - dense[0]) <= 1e-8


def test_long_horizon_future_ratios_match_the_dense_projection():
    scenario = build_scenario(ScenarioParams(name="tworoute", N=160))
    for sk in scenario.skeletons:
        sol = solve(scenario.problem, sk)
        assert sol.converged
        comp = build_component(scenario.problem, sk, sol)
        dense = _dense_future_log_ratios(scenario.problem, sk, sol)
        assert np.abs(future_log_ratios(comp) - dense).max() <= 1e-8
        assert abs(comp.log_ratio - dense[0]) <= 1e-8


def test_future_ratios_carry_dependent_row_combinations_back():
    # Both rows at step 5 move x_5[0] alike, so one combination pins x_4[0]
    # alone.  The rows at step 7 move x_7[1] alike, so one combination pins
    # x_5[1], up to a 1e-12 entry on x_6[1] that is below the rank
    # tolerance; the third row is the sum of the first two: 5 rows of
    # rank 4.
    problem = _lq(N=8)
    pin_back = AffineFeature(np.array([[-1.0, 0.0, 1.0, 0.0],
                                       [-2.0, 0.0, 1.0, 0.0]]),
                             np.array([0.1, 0.3]), window=2)
    pin_skip = AffineFeature(np.array([[0.0, 1.0, 0.0, 1e-12, 0.0, 1.0],
                                       [0.0, 2.0, 0.0, 0.0, 0.0, 1.0],
                                       [0.0, 3.0, 0.0, 1e-12, 0.0, 2.0]]),
                             np.array([-0.6, -0.7, -1.3]), window=3)
    skeleton = Skeleton(id="pins",
                        modes=(Mode("a", (1, 4)), Mode("b", (5, 6)),
                               Mode("c", (7, 8))),
                        switches=(Switch("s5", 5, eq=(pin_back,)),
                                  Switch("s7", 7, eq=(pin_skip,))))
    sol = solve(problem, skeleton)
    assert sol.converged
    comp = build_component(problem, skeleton, sol)
    assert comp.rank == problem.N * problem.d - 4
    ratios = future_log_ratios(comp)
    assert np.abs(ratios - _dense_future_log_ratios(problem, skeleton, sol)).max() <= 1e-8
    assert ratios[0] == pytest.approx(comp.log_ratio, abs=1e-9)
