"""Augmented-Lagrangian Gauss-Newton solver behavior."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from slgp.banded import FactorizationError, banded_cholesky_solve
from slgp.cli import _config
from slgp.features import AccelerationPenalty, AffineFeature, coordinate_target
from slgp.problem import (FeatureEvalError, Mode, PathProblem, Skeleton,
                          assemble, constraint_violation, free_skeleton)
from slgp.scenarios import ScenarioParams, build_scenario
from slgp.selftest import dense_jacobian
from slgp.solver import (HESSIAN_NOT_PD, ALState, SolverConfig, gauss_newton_step,
                         kkt_residuals, solve)
from slgp.solver import _merit, _merit_grad, _merit_hessian  # noqa: PLC2701
from slgp.solver import (_ARMIJO_C, _ARMIJO_SHRINK, _MAX_INNER,  # noqa: PLC2701
                         _MU_GROWTH, _MU_INIT)

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _lsq_problem(N=5, d=2):
    # All residuals affine in the path, so the objective is a quadratic
    # with a unique minimizer reachable in one Gauss-Newton step.
    return PathProblem(
        N=N, d=d, dt=0.25, sigma=0.5, prefix=np.zeros((2, d)),
        costs=(AccelerationPenalty(d, 0.25, 0.5),),
        terminal_costs=(coordinate_target(d, np.arange(d), np.full(d, 0.6), 3.0),))


def _scalar_bound_problem():
    # min 1/2 x^2 over the final configuration subject to x >= 1, realized
    # on the minimal two-step horizon.
    cost = coordinate_target(1, [0], [0.0], 1.0)
    bound = AffineFeature(np.array([[-1.0]]), np.array([1.0]), window=1,
                          name="lower-bound")
    problem = PathProblem(N=2, d=1, dt=1.0, sigma=1.0,
                          prefix=np.zeros((2, 1)), costs=(),
                          terminal_costs=(cost,))
    skeleton = Skeleton(id="bounded", modes=(Mode("m", (1, 2), ineq=(bound,)),))
    return problem, skeleton


def test_unconstrained_quadratic_converges_in_one_inner_iteration():
    problem = _lsq_problem()
    sol = solve(problem, free_skeleton(problem.N))
    assert sol.converged
    assert sol.inner_iterations == 1

    stack = assemble(problem, free_skeleton(problem.N),
                     np.zeros((problem.N, problem.d)))
    closed_form = np.linalg.lstsq(dense_jacobian(stack, stack.kinds[0]), -stack.residuals,
                                  rcond=None)[0]
    assert np.abs(sol.x_star.ravel() - closed_form).max() < 1e-6


def test_active_scalar_bound_reaches_unit_multiplier():
    problem, skeleton = _scalar_bound_problem()
    tight = SolverConfig(tol_step=1e-12, tol_constraint=1e-12)
    sol = solve(problem, skeleton, config=tight)
    assert sol.converged
    # Constraint is active at both steps but only the final carries cost;
    # its KKT point is x = 1 with multiplier 1.
    assert sol.x_star[-1, 0] == pytest.approx(1.0, abs=1e-8)
    assert sol.lam[-1] == pytest.approx(1.0, abs=1e-6)
    assert sol.active_set[-1]


def test_kkt_residuals_vanish_at_the_bound_solution():
    problem, skeleton = _scalar_bound_problem()
    tight = SolverConfig(tol_step=1e-12, tol_constraint=1e-12)
    sol = solve(problem, skeleton, config=tight)
    kkt = kkt_residuals(problem, skeleton, sol.x_star, sol.lam, sol.nu)
    assert kkt.stationarity < 1e-8
    assert kkt.eq_violation == 0.0
    assert kkt.ineq_violation < 1e-8
    assert kkt.complementarity < 1e-8


def test_perturbing_the_solution_increases_stationarity():
    problem, skeleton = _scalar_bound_problem()
    sol = solve(problem, skeleton,
                config=SolverConfig(tol_step=1e-12, tol_constraint=1e-12))
    at_star = kkt_residuals(problem, skeleton, sol.x_star, sol.lam, sol.nu)
    bumped = sol.x_star.copy()
    bumped[-1, 0] += 1e-3
    at_bump = kkt_residuals(problem, skeleton, bumped, sol.lam, sol.nu)
    assert at_bump.stationarity > at_star.stationarity
    assert at_bump.stationarity > 1e-4


def test_unconstrained_solution_reports_zero_violations():
    problem = _lsq_problem()
    sol = solve(problem, free_skeleton(problem.N))
    assert sol.kkt.eq_violation == 0.0
    assert sol.kkt.ineq_violation == 0.0
    assert sol.lam.size == 0 and sol.nu.size == 0


def test_zero_gradient_gives_zero_step():
    problem = _lsq_problem()
    sol = solve(problem, free_skeleton(problem.N))
    stack = assemble(problem, free_skeleton(problem.N), sol.x_star)
    al = ALState(lam=np.zeros(0), nu=np.zeros(0), mu=1.0)
    dx, _ = gauss_newton_step(stack, al, 1e-8, _merit_grad(stack, al))
    assert np.abs(dx).max() < 1e-6


def test_undamped_step_is_the_exact_least_squares_step():
    problem = _lsq_problem()
    skeleton = free_skeleton(problem.N)
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(problem.N, problem.d))
    stack = assemble(problem, skeleton, x0)
    al = ALState(lam=np.zeros(0), nu=np.zeros(0), mu=1.0)
    dx, damping = gauss_newton_step(stack, al, 0.0, _merit_grad(stack, al))
    assert damping == 0.0
    A = dense_jacobian(stack, stack.kinds[0])
    exact = np.linalg.lstsq(A, -(stack.residuals + A @ (-x0.ravel())),
                            rcond=None)[0] - 0.0
    # Solve normal equations directly for the reference step.
    ref = np.linalg.solve(A.T @ A, -(A.T @ stack.residuals))
    assert np.abs(dx - ref).max() < 1e-8
    assert np.abs((x0.ravel() + dx) - exact).max() < 1e-8


def test_gauss_newton_step_reports_the_damping_it_factored_at(monkeypatch):
    # Two failed factorizations grow the damping tenfold twice.
    problem = _lsq_problem()
    stack = assemble(problem, free_skeleton(problem.N), np.zeros((problem.N, problem.d)))
    al = ALState(lam=np.zeros(0), nu=np.zeros(0), mu=1.0)
    calls = []

    def failing_twice(ab, rhs):
        calls.append(None)
        if len(calls) <= 2:
            raise FactorizationError("not positive definite")
        return banded_cholesky_solve(ab, rhs)

    monkeypatch.setattr("slgp.solver.banded_cholesky_solve", failing_twice)
    dx, damping = gauss_newton_step(stack, al, 1e-8, _merit_grad(stack, al))
    assert len(calls) == 3 and np.isfinite(dx).all()
    assert np.isclose(damping, 1e-6, rtol=1e-12, atol=0.0)


def test_a_system_that_never_factors_ends_the_solve_after_one_update(monkeypatch):
    # The first Gauss-Newton step fails at every damping: the solve ends
    # after one outer iteration at the start path, with that iteration's
    # multiplier update.
    problem, skeleton = _scalar_bound_problem()
    pin = AffineFeature(np.eye(1), np.array([-0.5]), window=1, name="pin")
    skeleton = dataclasses.replace(
        skeleton, modes=(dataclasses.replace(skeleton.modes[0], eq=(pin,)),))

    def never(ab, rhs):
        raise FactorizationError("not positive definite")

    monkeypatch.setattr("slgp.solver.banded_cholesky_solve", never)
    x0 = np.zeros((problem.N, problem.d))
    sol = solve(problem, skeleton, x_init=x0)
    stack = assemble(problem, skeleton, x0)
    assert sol.status == HESSIAN_NOT_PD and not sol.converged
    assert (sol.outer_iterations, sol.inner_iterations) == (1, 0)
    assert np.array_equal(sol.x_star, x0)
    assert np.array_equal(sol.lam, np.clip(2.0 * _MU_INIT * stack.ineq, 0.0, None))
    assert np.array_equal(sol.nu, 2.0 * _MU_INIT * stack.eq)
    assert sol.lam.min() > 0.0 and sol.nu.size == 2 and sol.nu.min() < 0.0


def test_gauss_newton_step_decreases_the_merit():
    problem, skeleton = _scalar_bound_problem()
    rng = np.random.default_rng(14)
    al = ALState(lam=np.full(2, 0.3), nu=np.zeros(0), mu=2.0)
    for _ in range(10):
        x0 = rng.normal(size=(2, 1))
        stack = assemble(problem, skeleton, x0)
        dx, _ = gauss_newton_step(stack, al, 1e-8, _merit_grad(stack, al))
        if np.abs(dx).max() < 1e-12:
            continue
        after = assemble(problem, skeleton,
                         (x0.ravel() + dx).reshape(2, 1))
        assert _merit(after, al) < _merit(stack, al)


def test_trace_merit_is_nonincreasing_within_an_outer_iteration():
    problem, skeleton = _scalar_bound_problem()
    sol = solve(problem, skeleton, collect_trace=True)
    assert sol.converged and len(sol.trace) > 0
    by_outer = {}
    for row in sol.trace:
        by_outer.setdefault(row.outer, []).append(row.merit)
    for merits in by_outer.values():
        assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))


def test_solver_is_deterministic():
    problem, skeleton = _scalar_bound_problem()
    a = solve(problem, skeleton)
    b = solve(problem, skeleton)
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.lam, b.lam)
    assert a.f_star == b.f_star


def test_config_rejects_camel_case_and_snake_case_mix():
    cfg = _config({"solver": {"maxOuter": 50, "tol_step": 1e-9}}, "solver")
    assert cfg.max_outer == 50 and cfg.tol_step == 1e-9
    with pytest.raises(SystemExit, match="unknown solver parameter 'unknownKnob'"):
        _config({"solver": {"unknownKnob": 1}}, "solver")


def test_solver_config_holds_only_the_settings_callers_turn():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "max_outer", "tol_step", "tol_constraint", "hessian_reg"]
    assert (_MAX_INNER, _MU_INIT, _MU_GROWTH, _ARMIJO_C, _ARMIJO_SHRINK) == (
        100, 1.0, 5.0, 1e-4, 0.5)


def test_elbow_free_skeleton_converges_cleanly(elbow):
    sol = elbow.solution("free")
    assert sol.converged
    stack = assemble(elbow.scenario.problem, elbow.scenario.skeleton("free"),
                     sol.x_star)
    assert constraint_violation(stack) < 1e-7


@pytest.mark.parametrize("sid", ["fix-joint-1", "fix-joint-2", "fix-both"])
def test_active_set_is_the_rows_with_a_positive_multiplier(elbow, sid):
    sol = elbow.solution(sid)
    stack = assemble(elbow.scenario.problem, elbow.scenario.skeleton(sid),
                     sol.x_star)
    assert np.array_equal(sol.active_set, sol.lam > 0)
    assert sol.active_set.any()
    # The kept rows are tight to the tolerance the solver reaches; the
    # others are strictly slack with a zero multiplier.
    tol = SolverConfig().tol_constraint
    assert np.abs(stack.ineq[sol.active_set]).max() <= tol
    assert stack.ineq[~sol.active_set].max() < -tol
    assert (sol.lam[~sol.active_set] == 0).all()


def _dense_from_band(ab):
    u, n = ab.shape[0] - 1, ab.shape[1]
    H = np.zeros((n, n))
    for k in range(u + 1):
        H += np.diag(ab[u - k, k:], k)
        if k:
            H += np.diag(ab[u - k, k:], -k)
    return H


@pytest.mark.parametrize("name,sid", [("elbow", "fix-both"), ("push", "two-finger")])
def test_banded_merit_hessian_matches_the_dense_oracle(name, sid, request):
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    skeleton = bundle.scenario.skeleton(sid)
    stack = assemble(problem, skeleton, bundle.solution(sid).x_star)
    rng = np.random.default_rng(43)
    # Multipliers on a random subset of the inequality rows, so the active
    # set mixes rows with g >= 0 and rows held only by lambda > 0.
    lam = np.where(rng.random(stack.ineq.size) < 0.4, rng.random(stack.ineq.size), 0.0)
    al = ALState(lam=lam, nu=rng.normal(size=stack.eq.size), mu=3.0)
    active = al.active_rows(stack.ineq)
    assert stack.ineq.size == 0 or (lam[active] > 0).any() and not active.all()
    cost, eq, ineq = stack.kinds
    J, Jh = dense_jacobian(stack, cost), dense_jacobian(stack, eq)
    Jg = dense_jacobian(stack, ineq)[active]
    damping = 1e-3
    n_vars = problem.N * problem.d
    H = (J.T @ J + 2.0 * al.mu * (Jh.T @ Jh + Jg.T @ Jg)
         + damping * np.eye(n_vars))
    ab = _merit_hessian(stack, al, damping)
    assert ab.shape == (3 * problem.d, n_vars)
    assert np.abs(_dense_from_band(ab) - H).max() <= 1e-12 * np.abs(H).max()
    coeff = np.where(active, lam + 2.0 * al.mu * stack.ineq, lam)
    grad = (J.T @ stack.residuals + Jh.T @ (al.nu + 2.0 * al.mu * stack.eq)
            + dense_jacobian(stack, ineq).T @ coeff)
    assert np.abs(_merit_grad(stack, al) - grad).max() <= 1e-12 * np.abs(grad).max()


def test_solve_never_assembles_one_point_twice_in_a_row(elbow, monkeypatch):
    points = []

    def counting_assemble(problem, skeleton, x):
        points.append(np.array(x, copy=True))
        return assemble(problem, skeleton, x)

    monkeypatch.setattr("slgp.solver.assemble", counting_assemble)
    scenario = elbow.scenario
    sol = solve(scenario.problem, scenario.skeleton("fix-joint-2"), collect_trace=True)
    assert sol.converged
    for prev, cur in zip(points, points[1:]):
        assert not np.array_equal(cur, prev)
    # One assemble at the start, then one per line-search trial.
    accepted = sum(1 for row in sol.trace if row.step_norm > 0.0)
    assert len(points) - 1 >= accepted
    assert np.array_equal(points[-1], sol.x_star)


def test_solve_computes_each_merit_quantity_once_per_point(elbow, monkeypatch):
    counts = {"assemble": 0, "merit": 0, "grad": 0, "step": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    for key, name, fn in (("assemble", "assemble", assemble), ("merit", "_merit", _merit),
                          ("grad", "_merit_grad", _merit_grad),
                          ("step", "gauss_newton_step", gauss_newton_step)):
        monkeypatch.setattr(f"slgp.solver.{name}", counting(key, fn))
    scenario = elbow.scenario
    sol = solve(scenario.problem, scenario.skeleton("fix-joint-1"))
    assert sol.converged and counts["step"] > 0
    # One merit per inner loop at its start point, one per trial point;
    # each loop iteration takes one gradient, which its step reuses.
    assert counts["merit"] == sol.outer_iterations + counts["assemble"] - 1
    assert counts["step"] <= counts["grad"] <= counts["step"] + sol.outer_iterations


@pytest.mark.parametrize("error", [RuntimeError("a bug in assembly"),
                                   FeatureEvalError(3, "probe", "nonfinite value"), None],
                         ids=["bug", "feature-failure", "merit-overflow"])
def test_line_search_rejects_only_feature_failures(error, monkeypatch):
    # The third assembly is the second line-search trial.  A feature that
    # fails there rejects the trial, and so does a point whose merit
    # overflows (error None); any other error propagates.
    calls = []

    def failing_assemble(problem, skeleton, x):
        calls.append(None)
        stack = assemble(problem, skeleton, x)
        if len(calls) == 3:
            if error is None:
                return dataclasses.replace(stack, values=stack.values * 1e300)
            raise error
        return stack

    monkeypatch.setattr("slgp.solver.assemble", failing_assemble)
    scenario = build_scenario(ScenarioParams(name="tworoute"))
    if error is None or isinstance(error, FeatureEvalError):
        assert solve(scenario.problem, scenario.skeletons[0]).converged
    else:
        with pytest.raises(RuntimeError, match="a bug in assembly"):
            solve(scenario.problem, scenario.skeletons[0])


@pytest.mark.parametrize("sid", ["fix-joint-1", "fix-joint-2", "fix-both"])
def test_elbow_constrained_skeletons_take_few_gauss_newton_steps(elbow, sid, monkeypatch):
    # Far from feasibility an inner loop ends after a tenfold gradient cut,
    # so each solve takes 28-36 steps; with an absolute inner tolerance it
    # took 80-115.  The optimum stays the recorded one.
    steps = []

    def counting_step(*args):
        steps.append(None)
        return gauss_newton_step(*args)

    monkeypatch.setattr("slgp.solver.gauss_newton_step", counting_step)
    scenario = elbow.scenario
    sol = solve(scenario.problem, scenario.skeleton(sid))
    assert sol.converged
    assert len(steps) == sol.inner_iterations <= 50
    expected = json.loads(EXPECTED.read_text())
    f_ref = expected["workloads"]["elbow"][sid]["fStar"]
    assert abs(sol.f_star - f_ref) <= expected["tolerance"]["fStar_rel"] * abs(f_ref)


def test_trace_rows_report_the_penalty_backtracks_and_damping(elbow):
    scenario = elbow.scenario
    cfg = SolverConfig()
    sol = solve(scenario.problem, scenario.skeleton("fix-both"), collect_trace=True)
    assert sol.converged and len(sol.trace) == sol.inner_iterations
    mus = [row.mu for row in sol.trace]
    assert mus[0] == _MU_INIT and mus == sorted(mus) and mus[-1] > mus[0]
    backtracks = [row.backtracks for row in sol.trace]
    assert all(isinstance(b, int) and b >= 0 for b in backtracks)
    assert 0 in backtracks and max(backtracks) > 0
    assert all(row.damping == cfg.hessian_reg for row in sol.trace)
