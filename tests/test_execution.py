"""Composite execution: online weights, composed commands, closed-loop rolls."""

import dataclasses

import numpy as np
import pytest

from slgp.execution import (BLENDING, CompositeController, RolloutError,
                            _project_equalities, build_controller, compose,
                            online_weights, rms_final_error, rollout,
                            select_skeleton)
from slgp.features import AffineFeature
from slgp.kodp import (KodpPolicy, backward_pass, cost_to_go, quadratize,
                       step_policy)
from slgp.laplace import build_component, mixture_weights
from slgp.problem import (Mode, Skeleton, Switch, step_constraints,
                          step_equalities)
from slgp.scenarios import (BoxAtRest, ContactPointTouch, ScenarioParams,
                            build_scenario)
from slgp.solver import SolverConfig, solve


@pytest.fixture(scope="module")
def routes():
    # Tighter than the default so noiseless closed-loop exactness has
    # headroom: the waypoint projection error tracks tol_constraint.
    sc = build_scenario(ScenarioParams(name="tworoute"))
    cfg = SolverConfig(tol_step=1e-9, tol_constraint=1e-9, hessian_reg=1e-10)
    pols, comps = [], []
    for sid in ("via-near", "via-far"):
        sol = solve(sc.problem, sc.skeleton(sid), config=cfg)
        assert sol.converged
        pols.append(backward_pass(quadratize(sc.problem, sc.skeleton(sid),
                                             sol)))
        comps.append(build_component(sc.problem, sc.skeleton(sid), sol))
    return sc, pols, comps


def _mid_step(sc):
    return sc.skeleton("via-near").switches[0].at_step


# --- online weights -------------------------------------------------------


def test_first_step_weights_match_the_offline_mixture(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps)
    w = online_weights(ctrl, 1, sc.problem.prefix)
    offline = mixture_weights([c.f_star for c in comps],
                              [c.log_ratio for c in comps])
    assert np.abs(w - offline).max() < 1e-6


def test_past_on_a_reference_favors_that_skeleton(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps)
    n = _mid_step(sc)
    on_near = online_weights(ctrl, n, pols[0].past_reference(n))
    on_far = online_weights(ctrl, n, pols[1].past_reference(n))
    assert on_near[0] > 0.99
    assert on_far[1] > 0.99


def test_identical_copies_split_the_weight_evenly(routes):
    sc, pols, comps = routes
    ctrl = build_controller([pols[0], pols[0]], [comps[0], comps[0]])
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, sc.problem.N + 1))
        past = pols[0].past_reference(n) + rng.normal(scale=0.2, size=(2, 2))
        w = online_weights(ctrl, n, past)
        assert np.abs(w - 0.5).max() < 1e-12


def test_weight_rows_stay_on_the_simplex(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps, mode="switching")
    ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=2.0, seed=3)
    assert np.abs(ro.weights.sum(axis=1) - 1.0).max() < 1e-12
    assert (ro.weights >= 0.0).all()


# --- composed commands ----------------------------------------------------


def test_identical_policies_compose_to_the_same_command(routes):
    sc, pols, comps = routes
    rng = np.random.default_rng(5)
    past = pols[0].past_reference(4) + rng.normal(scale=0.1, size=(2, 2))
    cmds = {}
    for mode in ("blending", "switching"):
        ctrl = build_controller([pols[0], pols[0]], [comps[0], comps[0]],
                                mode=mode)
        cmds[mode] = compose(ctrl, 4, past)
    direct = pols[0].reference(4)
    assert np.allclose(cmds["blending"], cmds["switching"], atol=1e-12)
    assert np.abs(cmds["blending"] - direct).max() < 1.0  # same plan family


def test_dominant_weight_makes_both_modes_emit_its_command(routes):
    sc, pols, comps = routes
    # Push the second plan's value up by a constant: its weight collapses
    # to exp(-80) and both modes must emit the first plan's command.
    worse = dataclasses.replace(pols[1], v_bar=pols[1].v_bar + 80.0)
    rng = np.random.default_rng(13)
    # Small in value-function units: the quadratics carry 1/(sigma^2 dt^3)
    # curvature, so a 1e-3 displacement costs well under a nat.
    past = pols[0].past_reference(3) + rng.normal(scale=1e-3, size=(2, 2))
    from slgp.kodp import step_policy
    dp = (past - pols[0].past_reference(3)).ravel()
    direct = pols[0].reference(3) + step_policy(pols[0], 3, dp)
    for mode in ("blending", "switching"):
        ctrl = build_controller([pols[0], worse], [comps[0], comps[1]],
                                mode=mode)
        w = online_weights(ctrl, 3, past)
        assert w[0] > 1.0 - 1e-12
        assert np.abs(compose(ctrl, 3, past) - direct).max() < 1e-10


def test_opposed_feedforwards_blend_to_zero_and_switch_to_the_first():
    def pol(sid, sign):
        return KodpPolicy(
            skeleton_id=sid, d=1, V=np.zeros((1, 2, 2)), v=np.zeros((1, 2)),
            v_bar=np.zeros(1), u_ff=np.array([[sign * 0.6]]),
            K=np.zeros((1, 1, 2)), x_ref=np.zeros((1, 1)),
            prefix=np.zeros((2, 1)), notes=())

    ctrl = CompositeController(policies=(pol("a", 1.0), pol("b", -1.0)),
                               future_ratios=np.zeros((2, 1)), mode="blending")
    past = np.zeros((2, 1))
    assert compose(ctrl, 1, past) == pytest.approx([0.0], abs=1e-15)
    switch = dataclasses.replace(ctrl, mode="switching")
    assert compose(switch, 1, past) == pytest.approx([0.6])


def test_out_of_horizon_steps_and_bad_pasts_are_rejected(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps)
    N, d = sc.problem.N, sc.problem.d
    past = sc.problem.prefix
    for query in (online_weights, compose):
        for n in (0, N + 1):
            with pytest.raises(ValueError, match=f"step {n} "):
                query(ctrl, n, past)
        for bad in (past[:1], past.ravel(), np.zeros((2, d + 1))):
            with pytest.raises(ValueError, match="step 3"):
                query(ctrl, 3, bad)


def test_direct_construction_checks_the_table_shapes(routes):
    sc, pols, comps = routes
    ratios = np.zeros((2, sc.problem.N))
    with pytest.raises(ValueError, match="future_ratios"):
        CompositeController(policies=tuple(pols), future_ratios=ratios[:, 1:],
                            mode="blending")
    short = dataclasses.replace(pols[1], x_ref=pols[1].x_ref[1:])
    with pytest.raises(ValueError, match="horizon"):
        CompositeController(policies=(pols[0], short), future_ratios=ratios,
                            mode="blending")


def _policy_loop(ctrl, n, past, incumbent):
    """Weights and command from a loop over the per-policy queries."""
    logits, commands = [], []
    for p, ratios in zip(ctrl.policies, ctrl.future_ratios):
        dp = (past - p.past_reference(n)).ravel()
        logits.append(-cost_to_go(p, n, dp) + ratios[n - 1])
        commands.append(p.reference(n) + step_policy(p, n, dp))
    logits = np.array(logits)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    if ctrl.mode == BLENDING:
        return w, w @ np.array(commands)
    return w, commands[select_skeleton(w, incumbent, ctrl.hysteresis)]


def _bundle_controller(bundle):
    problem = bundle.scenario.problem
    kept = [sk for sk in bundle.scenario.skeletons
            if bundle.component(sk.id) is not None]
    pols = [backward_pass(quadratize(problem, sk, bundle.solution(sk.id)))
            for sk in kept]
    return build_controller(pols, [bundle.component(sk.id) for sk in kept])


@pytest.mark.parametrize("name", ["tworoute", "elbow"])
def test_stacked_tables_match_the_per_policy_queries(name, request):
    bundle = request.getfixturevalue(name)
    base = _bundle_controller(bundle)
    problem = bundle.scenario.problem
    rng = np.random.default_rng(17)
    for mode in ("blending", "switching"):
        ctrl = dataclasses.replace(base, mode=mode)
        for n in range(1, problem.N + 1):
            owner = ctrl.policies[int(rng.integers(len(ctrl.policies)))]
            past = owner.past_reference(n) + rng.normal(scale=1e-3,
                                                        size=(2, problem.d))
            incumbent = int(rng.integers(len(ctrl.policies)))
            w_loop, cmd_loop = _policy_loop(ctrl, n, past, incumbent)
            w = online_weights(ctrl, n, past)
            cmd = compose(ctrl, n, past, incumbent)
            assert np.abs(w - w_loop).max() <= 1e-12 * np.abs(w_loop).max()
            assert np.abs(cmd - cmd_loop).max() <= 1e-12 * np.abs(cmd_loop).max()


def _stepwise_rollout(problem, truth, ctrl, noise_scale, seed):
    """Rollout that draws the noise one step at a time and stacks the past."""
    rng = np.random.default_rng(seed)
    std = problem.sigma * noise_scale * problem.dt**1.5
    past = np.asarray(problem.prefix, dtype=float).copy()
    path, commands, active = [], [], []
    incumbent = None
    for n in range(1, problem.N + 1):
        w = online_weights(ctrl, n, past)
        cmd = compose(ctrl, n, past, incumbent)
        incumbent = (int(np.argmax(w)) if ctrl.mode == BLENDING
                     else select_skeleton(w, incumbent, ctrl.hysteresis))
        eta = rng.standard_normal(problem.d) * std
        eta[~problem.actuated] = 0.0
        padded = np.vstack([problem.prefix, *path, cmd + eta])
        _project_equalities(problem, truth, n, padded)
        x = padded[n + 1]
        path.append(x)
        commands.append(cmd)
        active.append(incumbent)
        past = np.vstack([past[1], x])
    return np.array(path), np.array(commands), np.array(active)


@pytest.mark.parametrize("mode", ["blending", "switching"])
def test_rollout_matches_a_stepwise_noise_reference(routes, mode):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps, mode=mode)
    for seed in (0, 7, 31):
        ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=seed)
        path, commands, active = _stepwise_rollout(sc.problem, sc.truth, ctrl,
                                                   1.5, seed)
        assert np.abs(ro.path - path).max() <= 1e-12 * np.abs(path).max()
        assert np.abs(ro.commands - commands).max() <= 1e-12 * np.abs(commands).max()
        assert np.array_equal(ro.active, active)


def test_select_skeleton_tie_break_and_hysteresis():
    assert select_skeleton(np.array([0.5, 0.5]), None, 0.0) == 0
    assert select_skeleton(np.array([0.2, 0.8]), None, 0.5) == 1
    assert select_skeleton(np.array([0.45, 0.55]), 0, 0.2) == 0
    assert select_skeleton(np.array([0.3, 0.7]), 0, 0.2) == 1
    assert select_skeleton(np.array([0.5, 0.5]), 1, 0.05) == 1
    assert select_skeleton(np.array([0.6, 0.4]), 1, 0.0) == 0


def test_controller_pairing_is_validated(routes):
    sc, pols, comps = routes
    with pytest.raises(ValueError):
        build_controller([pols[0]], [comps[1]])
    with pytest.raises(ValueError):
        build_controller([], [])
    with pytest.raises(ValueError):
        build_controller(pols, comps[:1])
    with pytest.raises(ValueError):
        build_controller(pols, comps, mode="voting")
    for hysteresis in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            build_controller(pols, comps, hysteresis=hysteresis)


# --- closed loop ------------------------------------------------------------


def test_noiseless_rollout_reproduces_the_planned_path(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols[:1], comps[:1])
    ro = rollout(sc.problem, sc.skeleton("via-near"), ctrl, noise_scale=0.0,
                 seed=0)
    assert np.abs(ro.path - pols[0].x_ref).max() < 1e-8
    assert (ro.active == 0).all()


def test_noiseless_modes_coincide_on_the_dominant_plan(routes):
    sc, pols, comps = routes
    for mode in ("blending", "switching"):
        ctrl = build_controller(pols, comps, mode=mode)
        ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0)
        assert np.abs(ro.path - pols[0].x_ref).max() < 1e-8


def test_switch_count_is_non_increasing_in_hysteresis(routes):
    sc, pols, comps = routes
    totals = []
    for h in (0.0, 0.05, 0.2):
        ctrl = build_controller(pols, comps, mode="switching", hysteresis=h)
        count = 0
        for seed in range(10):
            ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=2.0,
                         disturbances=((12, np.array([0.0, 0.45])),),
                         seed=seed)
            count += int((np.diff(ro.active) != 0).sum())
        totals.append(count)
    assert totals[0] >= totals[1] >= totals[2]


def test_rollout_is_bit_identical_for_a_fixed_seed(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps, mode="switching")
    a = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=21)
    b = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=21)
    assert np.array_equal(a.path, b.path)
    assert np.array_equal(a.commands, b.commands)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.active, b.active)
    c = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=22)
    assert not np.array_equal(a.path, c.path)


def test_disturbances_and_target_metric_are_applied(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps)
    bump = np.array([0.3, -0.2])
    coords, values = sc.target_coords, sc.target_values
    ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0,
                 disturbances=((5, bump),), seed=0,
                 target=(coords, values))
    quiet = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0)
    assert np.allclose(ro.path[:4], quiet.path[:4])
    assert np.abs(ro.path[4] - (quiet.commands[4] + bump)).max() < 1e-12
    assert np.isfinite(ro.final_error)
    assert np.isnan(quiet.final_error)


@pytest.mark.parametrize("scale", [-1.0, -1e-12, float("nan"), float("inf")])
def test_negative_or_nonfinite_noise_scale_is_rejected(routes, scale):
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps)
    with pytest.raises(ValueError, match="noise_scale"):
        rollout(sc.problem, sc.truth, ctrl, noise_scale=scale, seed=0)


def test_nonfinite_weights_abort_at_their_step(routes):
    # The past at step 6 holds the overflowing x_5, so the cost-to-go
    # overflows there; no numpy warning escapes on the way.
    sc, pols, comps = routes
    ctrl = build_controller(pols, comps)
    with pytest.raises(RolloutError, match=r"step 6: skeleton weights are not "
                                           r"finite; .* by up to 1\.000e\+307"):
        rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0,
                disturbances=((5, np.array([1e307, 0.0])),))


def test_projection_failure_aborts_with_the_step(routes):
    sc, pols, comps = routes
    ctrl = build_controller(pols[:1], comps[:1])
    # An inconsistent equality (zero Jacobian, nonzero value) cannot be
    # projected onto; the rollout must abort at its first step.
    stuck = AffineFeature(np.zeros((1, 2)), np.array([1.0]), window=1,
                          name="unreachable")
    N = sc.problem.N
    truth = Skeleton(id="broken",
                     modes=(Mode("m", (1, N), eq=(stuck,)),), switches=())
    with pytest.raises(RolloutError) as info:
        rollout(sc.problem, truth, ctrl, noise_scale=0.0, seed=0)
    assert info.value.step == 1
    assert "projection" in str(info.value)


class _NanBeyond:
    """A feature whose values turn NaN where coordinate coord of its last
    configuration exceeds limit."""

    def __init__(self, inner, coord, limit):
        self.inner, self.coord, self.limit = inner, coord, limit
        self.window, self.size, self.name = inner.window, inner.size, inner.name

    def eval(self, xs):
        values, jacs = self.inner.eval(xs)
        return np.where(xs[..., -1, self.coord, None] > self.limit, np.nan, values), jacs


def test_nonfinite_contact_feature_aborts_the_rollout_with_step_and_label(push):
    ctrl = _bundle_controller(push)
    problem = push.scenario.problem
    truth = push.scenario.skeleton("two-finger")
    approach, contact = truth.modes
    assert contact.symbol == "push-12"
    # Poison face-1 once the box passes halfway from its position at step
    # k - 1 of the clean rollout to that at step k; before step k the clean
    # box never gets that far.
    k = contact.window[0] + 15
    box_x = rollout(problem, truth, ctrl, noise_scale=0.0).path[:, 4]
    assert box_x[k - 2] < box_x[k - 1] and box_x[:k - 1].max() == box_x[k - 2]
    face = _NanBeyond(contact.eq[0], 4, 0.5 * (box_x[k - 2] + box_x[k - 1]))
    assert face.name == "face-1"
    poisoned = dataclasses.replace(truth, modes=(
        approach, dataclasses.replace(contact, eq=(face, *contact.eq[1:]))))
    with pytest.raises(RolloutError) as info:
        rollout(problem, poisoned, ctrl, noise_scale=0.0)
    assert info.value.step == k
    assert (f"rollout aborted at step {k}: feature 'push-12:face-1' at step {k}: "
            "nonfinite value or Jacobian") == str(info.value)


def test_projection_mixes_feature_windows_at_one_step(push):
    problem = push.scenario.problem
    N, d = problem.N, problem.d
    rest = BoxAtRest(d, 4)
    touch = ContactPointTouch(0, 4, np.array([-0.1, 0.0]), d)
    assert (rest.window, touch.window) == (2, 1)
    s = 5
    sk = Skeleton(id="rest-touch",
                  modes=(Mode("approach", (1, s - 1), eq=(rest,)),
                         Mode("hold", (s, N), eq=(rest,))),
                  switches=(Switch("touch", s, eq=(touch,)),))
    eq, _ = step_constraints(sk, s)
    padded = np.tile(problem.prefix[0], (N + 2, 1))
    padded[s + 1] += np.random.default_rng(3).normal(scale=0.05, size=d)
    h, J = step_equalities(eq, s, padded)
    windows = [padded[s + 2 - f.window:s + 2] for _, f in eq]
    assert np.array_equal(h, np.concatenate([f.eval(xs)[0] for (_, f), xs in zip(eq, windows)]))
    assert np.array_equal(J, np.vstack([f.eval(xs)[1][:, -d:] for (_, f), xs in zip(eq, windows)]))
    _project_equalities(problem, sk, s, padded)
    for (_, f), xs in zip(eq, [padded[s + 2 - f.window:s + 2] for _, f in eq]):
        assert np.abs(f.eval(xs)[0]).max() <= 1e-9


def test_rms_final_error_on_raw_paths_and_rollouts(routes):
    sc, pols, comps = routes
    values = np.array([1.0, 2.0])
    hit = np.zeros((4, 2))
    hit[-1] = values
    miss = hit.copy()
    miss[-1, 0] += 0.3
    assert rms_final_error([hit], [0, 1], values) == 0.0
    assert rms_final_error([miss], [0, 1], values) == pytest.approx(0.3)
    assert rms_final_error([hit, miss], [0, 1], values) == pytest.approx(
        0.3 / np.sqrt(2.0))
    ctrl = build_controller(pols[:1], comps[:1])
    ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0)
    direct = np.linalg.norm(ro.path[-1] - sc.target_values)
    assert rms_final_error([ro], [0, 1], sc.target_values) == pytest.approx(
        direct)
    with pytest.raises(ValueError):
        rms_final_error([], [0, 1], values)
