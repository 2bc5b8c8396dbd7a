"""Per-step value recursion: quadratization, the backward pass and the
policy in its full-cost slice."""

import dataclasses

import numpy as np
import pytest

from slgp.execution import build_controller
from slgp.features import AccelerationPenalty, coordinate_target
from slgp.kodp import PolicyError, backward_pass, quadratize
from slgp.laplace import build_component
from slgp.problem import PathProblem, assemble, cost_value, free_skeleton
from slgp.selftest import _dense_qp_oracle, _optimal_cost, _roll_policy  # noqa: PLC2701
from slgp.solver import SolverConfig, solve

from path_windows import step_constraints, window

TIGHT = SolverConfig(tol_step=1e-12, hessian_reg=1e-12)


def _lq(N=6, d=2):
    return PathProblem(
        N=N, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        costs=(AccelerationPenalty(d, 0.2, 0.4),),
        terminal_costs=(coordinate_target(d, np.arange(d), np.full(d, 0.7), 5.0),))


def _expansion(problem, config=TIGHT):
    skeleton = free_skeleton(problem.N)
    sol = solve(problem, skeleton, config=config)
    assert sol.converged
    return quadratize(problem, skeleton, sol), sol, skeleton


def _window_delta(delta, n, d):
    # Deviation over (x_{n-2}, x_{n-1}, x_n); prefix entries never deviate.
    w = np.zeros(3 * d)
    for k, m in enumerate((n - 2, n - 1, n)):
        if m >= 1:
            w[k * d:(k + 1) * d] = delta[m - 1]
    return w


def _policy(elim):
    """Gain, feedforward and cost-to-go terms of the full-cost slice."""
    law, V = elim.law[:, 0], elim.V[:, 0]
    two_d = V.shape[-1] - 1
    return {"K": law[..., :two_d], "u_ff": law[..., two_d],
            "V": V[:, :two_d, :two_d], "v": V[:, :two_d, two_d],
            "v_bar": 0.5 * V[:, two_d, two_d]}


def _with_rows(expansion, step, rows):
    return dataclasses.replace(expansion, rows=tuple(
        rows if n == step else r for n, r in enumerate(expansion.rows, start=1)))


# --- quadratize ----------------------------------------------------------


def test_step_models_reproduce_the_true_cost_on_affine_problems():
    problem = _lq()
    exp, sol, skeleton = _expansion(problem)
    rng = np.random.default_rng(4)
    for _ in range(5):
        delta = rng.normal(scale=0.2, size=sol.x_star.shape)
        stack = assemble(problem, skeleton, sol.x_star + delta)
        model = 0.0
        for n, G in enumerate(exp.grams[:, 0], start=1):
            w = np.append(_window_delta(delta, n, problem.d), 1.0)
            model += 0.5 * w @ G @ w
        assert model == pytest.approx(cost_value(stack), rel=1e-10)


def test_costless_problems_expand_to_zero_blocks():
    problem = PathProblem(N=4, d=1, dt=0.5, sigma=1.0,
                          prefix=np.zeros((2, 1)), costs=())
    exp, _, _ = _expansion(problem)
    assert exp.grams.shape == (4, 2, 4, 4)
    assert not exp.grams.any()
    assert [rows.shape for rows in exp.rows] == [(0, 3)] * 4


def test_constraint_rows_appear_only_inside_the_contact_window(elbow):
    sk = elbow.scenario.skeleton("fix-joint-2")
    sol = elbow.solution("fix-joint-2")
    lo, hi = next(m.window for m in sk.modes if m.eq)
    exp = quadratize(elbow.scenario.problem, sk, sol)
    counts = [rows.shape[0] for rows in exp.rows]
    if not sol.active_set.any():
        for n, count in enumerate(counts, start=1):
            assert count == (1 if lo <= n <= hi else 0)
    else:
        assert all(count >= 1 for count in counts[lo - 1:hi])


def _per_step_quadratics(problem, skeleton, solution):
    """Oracle: every feature at every step on its own, padded into the
    window plus the affine column, summed over all rows and over the
    effort rows."""
    x, d = solution.x_star, problem.d
    width = 3 * d
    cursor, out = 0, []
    for n in range(1, problem.N + 1):
        G = np.zeros((2, width + 1, width + 1))
        feats = list(problem.costs)
        if n == problem.N:
            feats += list(problem.terminal_costs)
        for feat in feats:
            r, jac = feat.eval(window(problem, x, n, feat.window))
            pad = np.zeros((feat.size, width + 1))
            pad[:, width - feat.window * d:width] = jac
            pad[:, width] = r
            G[0] += pad.T @ pad
            if getattr(feat, "group", None) == "effort":
                G[1] += pad.T @ pad
        eq, ineq = step_constraints(skeleton, n)
        rows = []
        for kind, items in (("eq", eq), ("ineq", ineq)):
            for _, feat in items:
                _, jac = feat.eval(window(problem, x, n, feat.window))
                keep = np.ones(feat.size, dtype=bool)
                if kind == "ineq":
                    keep = solution.active_set[cursor:cursor + feat.size]
                    cursor += feat.size
                pad = np.zeros((int(keep.sum()), width))
                pad[:, width - feat.window * d:] = jac[keep]
                rows.append(pad)
        con = np.vstack(rows) if rows else np.zeros((0, width))
        out.append((G, con))
    return out


@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
def test_quadratize_matches_the_per_step_expansion(name, request):
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    for sk in bundle.scenario.skeletons:
        sol = bundle.solution(sk.id)
        exp = quadratize(problem, sk, sol)
        oracle = _per_step_quadratics(problem, sk, sol)
        w = 3 * problem.d
        for G, rows, (G_ref, con) in zip(exp.grams, exp.rows, oracle, strict=True):
            for part, ref in ((G[:, :w, :w], G_ref[:, :w, :w]),
                              (G[:, :w, w], G_ref[:, :w, w])):
                assert np.abs(part - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            assert G[:, w, w] == pytest.approx(G_ref[:, w, w], rel=1e-12, abs=2e-12)
            assert rows.shape == con.shape
            assert np.abs(rows - con).max(initial=0.0) <= 1e-12


# --- backward pass -------------------------------------------------------


def test_costless_policy_raises_naming_the_last_step():
    # Nothing curves x_N, so the first pivot is zero; no regularization
    # papers over it.
    problem = PathProblem(N=4, d=1, dt=0.5, sigma=1.0,
                          prefix=np.zeros((2, 1)), costs=())
    exp, _, _ = _expansion(problem)
    with pytest.raises(PolicyError, match="pivot of skeleton 'free' at step 4 "
                                          "is numerically singular"):
        backward_pass(exp)


def test_feedforward_vanishes_at_the_expansion_point():
    exp, _, _ = _expansion(_lq())
    elim = backward_pass(exp)
    assert np.abs(_policy(elim)["u_ff"]).max() < 1e-6
    xs = _roll_policy(elim, np.zeros(2 * exp.d))
    assert np.abs(xs).max() < 1e-6


def test_rolled_policy_matches_the_dense_kkt_oracle(tworoute):
    # The recursion and the dense KKT oracle share the expansion point, so
    # the match tests the algebra, not how tight the reference solve was.
    problem = tworoute.scenario.problem
    sk = tworoute.scenario.skeleton("via-near")
    sol = tworoute.solution("via-near")
    exp = quadratize(problem, sk, sol)
    elim = backward_pass(exp)
    rng = np.random.default_rng(11)
    for _ in range(5):
        dp = rng.normal(scale=0.05, size=2 * problem.d)
        z, cost = _dense_qp_oracle(exp, dp)
        xs = _roll_policy(elim, dp)
        assert np.abs(xs - z).max() < 1e-8
        assert _optimal_cost(elim, dp) == pytest.approx(cost, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("name", ["elbow", "tworoute", "push"])
def test_policy_keeps_the_switch_constraint_satisfied(name, request):
    # Closed loop from a deviated prefix: at every step with active rows,
    # the realized window satisfies them.
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    d = problem.d
    rng = np.random.default_rng(2)
    checked = 0
    for sk in bundle.scenario.skeletons:
        exp = quadratize(problem, sk, bundle.solution(sk.id))
        elim = backward_pass(exp)
        for _ in range(3):
            dp = rng.normal(scale=0.1, size=2 * d)
            path = np.concatenate([dp, _roll_policy(elim, dp).ravel()])
            for n, rows in enumerate(exp.rows, start=1):
                if rows.shape[0]:
                    window = path[(n - 1) * d:(n + 2) * d]
                    assert np.abs(rows @ window).max() < 1e-8
                    checked += 1
    assert checked


def test_gains_are_invariant_under_uniform_cost_scaling():
    exp, _, _ = _expansion(_lq())
    c = 3.7
    scaled = dataclasses.replace(exp, grams=c * exp.grams)
    p1, p2 = _policy(backward_pass(exp)), _policy(backward_pass(scaled))
    assert np.abs(p2["K"] - p1["K"]).max() < 1e-8
    assert np.abs(p2["u_ff"] - p1["u_ff"]).max() < 1e-8
    assert np.abs(p2["V"] - c * p1["V"]).max() < 1e-6
    assert np.abs(p2["v_bar"] - c * p1["v_bar"]).max() < 1e-8


def test_duplicated_constraint_rows_are_filtered(tworoute):
    problem = tworoute.scenario.problem
    sk = tworoute.scenario.skeleton("via-near")
    sol = tworoute.solution("via-near")
    exp = quadratize(problem, sk, sol)
    doubled = dataclasses.replace(exp, rows=tuple(np.vstack([rows, rows])
                                                  for rows in exp.rows))
    clean, noisy = backward_pass(exp), backward_pass(doubled)
    assert any("dependent" in note for _, note in noisy.notes)
    assert np.isfinite(noisy.V).all() and np.isfinite(noisy.law).all()
    assert np.abs(noisy.law - clean.law).max() < 1e-8


def test_near_dependent_constraint_column_is_dropped_and_noted():
    # Two independent rows and a third that is their combination plus a
    # 1e-9 relative perturbation, far below the shared rank tolerance.
    exp, _, _ = _expansion(_lq(d=3))
    d = exp.d
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2, 3 * d))
    normal = np.cross(rows[0, 2 * d:], rows[1, 2 * d:])
    near = 0.7 * rows[0] - 1.3 * rows[1]
    near[2 * d:] += 1e-9 * np.linalg.norm(near) * normal / np.linalg.norm(normal)
    step = 3

    clean = backward_pass(_with_rows(exp, step, rows))
    noisy = backward_pass(_with_rows(exp, step, np.vstack([rows, near])))
    assert clean.notes == ()
    assert noisy.notes == ((step, "dropped 1 dependent constraint rows"),)
    assert np.abs(noisy.law - clean.law).max() < 1e-8


def test_rows_differing_only_in_the_past_are_carried_back():
    # Both rows pin the same combination of x_4, so only their difference
    # over (x_2, x_3) tells them apart: the policy must enforce it at step 3
    # instead of dropping the second row as dependent.
    exp, _, _ = _expansion(_lq(N=6, d=2))
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(2, 6))
    rows[1, 4:] = rows[0, 4:]
    pinned = _with_rows(exp, 4, rows)
    elim = backward_pass(pinned)
    assert elim.notes == ((4, "carried 1 constraint rows to step 3"),)
    for _ in range(5):
        dp = rng.normal(scale=0.1, size=4)
        z, cost = _dense_qp_oracle(pinned, dp)
        assert np.abs(_roll_policy(elim, dp) - z).max() < 1e-8
        assert _optimal_cost(elim, dp) == pytest.approx(cost, rel=1e-8, abs=1e-10)


CONTROLLER_TABLES = ("past_ref", "V", "v", "offset", "gain", "command")


@pytest.mark.parametrize("name", ["elbow", "tworoute", "push"])
def test_component_policy_equals_the_backward_pass(name, request):
    # The benchmark builds the controller from backward_pass of each kept
    # skeleton's expansion, slgp simulate from the components' own
    # eliminations: both give one controller, bit for bit.
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    kept = [sk for sk in bundle.scenario.skeletons
            if bundle.component(sk.id) is not None]
    comps = [bundle.component(sk.id) for sk in kept]
    passes = [backward_pass(quadratize(problem, sk, bundle.solution(sk.id)))
              for sk in kept]
    bench = build_controller(passes, comps)
    cli = build_controller([c.elimination for c in comps], comps)
    for table in CONTROLLER_TABLES:
        assert np.array_equal(getattr(bench, table), getattr(cli, table)), table
    for sk, elim, comp in zip(kept, passes, comps):
        assert elim.notes == comp.elimination.notes, sk.id


def test_push_single_finger_policy_drops_its_dependent_row(push):
    problem = push.scenario.problem
    sk = push.scenario.skeleton("single-finger")
    elim = backward_pass(quadratize(problem, sk, push.solution("single-finger")))
    assert elim.notes == ((16, "dropped 1 dependent constraint rows"),)
    assert np.isfinite(elim.V).all() and np.isfinite(elim.law).all()


# --- the policy in the controller ---------------------------------------------


def test_value_constants_are_the_zero_deviation_cost_to_go():
    # On an affine problem expanded at its optimum, a past on the
    # reference leaves the rest of the plan optimal: the value constant
    # v_bar_n is the cost of steps n..N along the plan.
    exp, _, _ = _expansion(_lq())
    v_bar = _policy(backward_pass(exp))["v_bar"]
    step_costs = 0.5 * exp.grams[:, 0, -1, -1]
    tail = np.cumsum(step_costs[::-1])[::-1]
    assert v_bar == pytest.approx(tail, rel=1e-10, abs=1e-12)
    assert _optimal_cost(backward_pass(exp), np.zeros(2 * exp.d)) == pytest.approx(
        tail[0], rel=1e-10, abs=1e-12)


def test_reference_lookups_substitute_the_prefix():
    problem = _lq(N=5, d=2)
    _, sol, skeleton = _expansion(problem)
    comp = build_component(problem, skeleton, sol)
    ctrl = build_controller([comp.elimination], [comp])
    assert ctrl.past_ref.shape == (5, 1, 4)
    law = comp.elimination.law[:, 0]
    assert np.array_equal(ctrl.command[2, 0], sol.x_star[2] + law[2, :, -1])
    assert np.array_equal(ctrl.past_ref[0, 0], problem.prefix.ravel())
    assert np.array_equal(ctrl.past_ref[1, 0],
                          np.concatenate([problem.prefix[1], sol.x_star[0]]))
    assert np.array_equal(ctrl.past_ref[3, 0], sol.x_star[1:3].ravel())
