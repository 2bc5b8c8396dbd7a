"""The three bundled task families: geometry, constraints, orderings."""

import numpy as np
import pytest

import slgp.scenarios
from slgp.execution import build_controller, rollout
from slgp.features import check_jacobian
from slgp.kodp import backward_pass, quadratize
from slgp.laplace import build_component, mixture_weights, sample_paths
from slgp.problem import (Mode, Skeleton, _layout, assemble,
                          skeleton_structure_violations)
from slgp.scenarios import (ArmChain, ArmTips, ContactFacePlane, ContactPointTouch,
                            ScenarioParams, arm_joint_positions, build_scenario)
from slgp.selftest import dense_jacobian
from slgp.solver import solve


# --- parameter validation -------------------------------------------------


def test_parameter_bounds_are_enforced():
    with pytest.raises(ValueError):
        ScenarioParams(N=3)
    with pytest.raises(ValueError):
        ScenarioParams(T=-1.0)
    with pytest.raises(ValueError):
        ScenarioParams(sigma=0.0)
    with pytest.raises(ValueError):
        ScenarioParams(link_lengths=(0.5, -0.5))
    with pytest.raises(ValueError):
        ScenarioParams(contact_fraction=1.2)
    with pytest.raises(ValueError):
        ScenarioParams(waypoint_fraction=-0.1)
    for bad in (dict(N=True), dict(sigma=True), dict(T=np.nan),
                dict(arm_target=(np.nan, 0.0)), dict(arm_target=1.0),
                dict(route_target=(1.0,)), dict(box_start=(0.55, 0.0)),
                dict(route_target=(True, 0.0)), dict(link_lengths=()),
                dict(start_angles=(1.0, np.inf, 0.0, 0.0)),
                dict(contact_offset=-0.2), dict(contact_offset=np.inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ScenarioParams(**bad)
    # A time step whose effort scale overflows is named, not an OverflowError.
    with pytest.raises(ValueError, match="effort scale"):
        build_scenario(ScenarioParams(T=1e308))


def test_unknown_scenario_name_lists_the_choices():
    with pytest.raises(ValueError, match="choose from"):
        build_scenario(ScenarioParams(name="juggling"))


def test_unreachable_arm_target_is_rejected():
    with pytest.raises(ValueError, match="reach"):
        build_scenario(ScenarioParams(name="elbow", arm_target=(3.0, 3.0)))


def test_a_one_link_elbow_is_rejected_naming_link_lengths():
    # The contact skeletons pin link tips 1 and 2, so one link once failed
    # inside ArmTips with a message naming neither the field nor the rule.
    with pytest.raises(ValueError, match="link_lengths must hold two or more links"):
        build_scenario(ScenarioParams(name="elbow", link_lengths=(1.0,),
                                      start_angles=(1.0,), arm_target=(0.5, 0.5)))


def test_push_geometry_is_validated():
    with pytest.raises(ValueError, match="half-width"):
        build_scenario(ScenarioParams(name="push", contact_offset=0.2,
                                      box_half=0.1))
    with pytest.raises(ValueError, match="axis-aligned"):
        build_scenario(ScenarioParams(name="push", box_start=(0.5, 0.0, 0.4)))


# The legal (mode, switch) -> next mode transitions of each bundled scenario.
SUCCESSORS = {
    "elbow": {("free", "touch-1"): "contact-1", ("free", "touch-2"): "contact-2",
              ("free", "touch-12"): "contact-12"},
    "push": {("approach", "touch-1"): "push-1", ("approach", "touch-12"): "push-12"},
    "tworoute": {("travel", "via-near"): "arrive", ("travel", "via-far"): "arrive"},
}


def test_each_mode_and_switch_states_a_relation_once():
    # One feature per class in each of eq and ineq: a relation covers all
    # the tips or fingers its owner holds.
    for name in ("elbow", "push", "tworoute"):
        for sk in build_scenario(ScenarioParams(name=name)).skeletons:
            for owner in (*sk.modes, *sk.switches):
                for feats in (owner.eq, owner.ineq):
                    classes = [type(f) for f in feats]
                    assert len(classes) == len(set(classes)), (sk.id, owner.symbol)


def test_feature_groups_per_skeleton():
    groups = {}
    for name in ("elbow", "push", "tworoute"):
        sc = build_scenario(ScenarioParams(name=name))
        groups[name] = {sk.id: [label for _, label, *_ in _layout(sc.problem, sk).groups]
                        for sk in sc.skeletons}
    assert {name: [len(g) for g in by_id.values()] for name, by_id in groups.items()} == {
        "elbow": [3, 5, 5, 5], "push": [6, 6], "tworoute": [3, 3]}
    assert groups["elbow"]["fix-both"] == [
        "accel", "reach", "contact-12:joint12-on-table", "free:table-clearance",
        "contact-12:table-clearance"]
    assert groups["push"]["two-finger"] == [
        "accel", "object-drift", "box-target", "approach:box-at-rest",
        "push-12:face-12", "touch-12:touch-12"]
    assert groups["push"]["single-finger"][-2:] == ["push-1:face-1", "touch-1:touch-1"]


def test_every_bundled_skeleton_validates(elbow, push, tworoute):
    for bundle in (elbow, push, tworoute):
        sc = bundle.scenario
        for sk in sc.skeletons:
            assert skeleton_structure_violations(sk, sc.problem.N) == []
            for before, switch, after in zip(sk.modes, sk.switches, sk.modes[1:]):
                assert SUCCESSORS[sc.name][before.symbol, switch.symbol] == after.symbol
        with pytest.raises(KeyError):
            sc.skeleton("missing")


# --- planar arm -----------------------------------------------------------


def test_arm_forward_kinematics_on_straight_and_bent_poses():
    lengths = (0.5, 0.5, 0.5, 0.5)
    straight = arm_joint_positions(np.zeros(4), lengths)
    assert np.allclose(straight, [[0.5, 0], [1.0, 0], [1.5, 0], [2.0, 0]])
    upright = arm_joint_positions(np.array([np.pi / 2, 0, 0, 0]), lengths)
    assert np.allclose(upright[:, 0], 0.0, atol=1e-12)
    assert np.allclose(upright[:, 1], [0.5, 1.0, 1.5, 2.0])
    elbowed = arm_joint_positions(np.array([np.pi / 2, -np.pi / 2, 0, 0]),
                                  lengths)
    assert np.allclose(elbowed[1], [0.5, 0.5])


def _chain_jacobian(theta, lengths):
    """d tip_k / d theta_i = sum over links j in i..k of l_j (-sin phi_j,
    cos phi_j), phi_j the summed angles; shape (K, 2, K)."""
    phi = np.cumsum(theta)
    K = len(theta)
    jac = np.zeros((K, 2, K))
    for k in range(K):
        for i in range(k + 1):
            for j in range(i, k + 1):
                jac[k, :, i] += lengths[j] * np.array([-np.sin(phi[j]), np.cos(phi[j])])
    return jac


def test_arm_tips_match_the_reach_and_tip_height_formulas():
    rng = np.random.default_rng(41)
    lengths = (0.5, 0.4, 0.3, 0.2)
    target = np.array([0.7, 0.3])
    w = np.sqrt(1e3)
    reach = ArmTips(lengths, (3, 3), (0, 1), w, "reach", offset=target)
    clearance = ArmTips(lengths, (0, 2, 3), (1, 1, 1), -1.0, "table-clearance")
    on_table = ArmTips(lengths, (0, 1), (1, 1), 1.0, "joint12-on-table")
    xs = rng.uniform(-1.5, 1.5, (6, 1, 4))
    (r, J), (c, Jc), (h, Jh) = reach.eval(xs), clearance.eval(xs), on_table.eval(xs)
    pts = arm_joint_positions(xs[:, 0], lengths)
    assert np.array_equal(r, w * (pts[:, -1] - target))
    assert np.array_equal(c, -pts[:, [0, 2, 3], 1])
    assert np.array_equal(h, pts[:, [0, 1], 1])
    for theta, J, Jc, Jh in zip(xs[:, 0], J, Jc, Jh):
        chain = _chain_jacobian(theta, lengths)
        assert np.allclose(J, w * chain[-1], rtol=0, atol=1e-12)
        assert np.allclose(Jc, -chain[[0, 2, 3], 1], rtol=0, atol=1e-13)
        assert np.allclose(Jh, chain[[0, 1], 1], rtol=0, atol=1e-13)
    for feat in (reach, clearance, on_table):
        assert feat.size == feat.eval(xs)[0].shape[-1]
        for window in xs:
            assert check_jacobian(feat, window) < 1e-6


@pytest.mark.parametrize("tips, axes, offset, needle", [
    ((0,), (0, 1), 0.0, "one length"),
    ((4,), (1,), 0.0, "link tips 0..3"),
    ((-1,), (1,), 0.0, "link tips 0..3"),
    ((0, 3), (1, 2), 0.0, "0 (x) or 1 (y)"),
    ((0.5,), (1,), 0.0, "integers"),
    ((0, 1), (1, 1), (1.0, 2.0, 3.0), "offset"),
], ids=["axes-length", "tip-past-chain", "negative-tip", "axis-2", "float-tip",
        "offset-length"])
def test_malformed_arm_tips_are_refused_at_construction(tips, axes, offset, needle):
    with pytest.raises(ValueError) as err:
        ArmTips((0.5, 0.5, 0.5, 0.5), tips, axes, 1.0, "bad-tips", offset=offset)
    assert "'bad-tips'" in str(err.value) and needle in str(err.value)


def test_an_arm_tip_set_may_be_empty():
    tips = ArmTips((0.5, 0.5), [], [], -1.0, "table-clearance")
    values, jacs = tips.eval(np.zeros((3, 1, 2)))
    assert tips.size == 0 and values.shape == (3, 0) and jacs.shape == (3, 0, 2)


def test_an_empty_tip_set_assembles_to_no_rows():
    # A feature with no rows places no blocks and leaves the other rows alone.
    sc = build_scenario(ScenarioParams(name="elbow"))
    problem = sc.problem
    empty = ArmTips(problem.terminal_costs[0].shared, [], [], -1.0, "none")
    free = sc.skeleton("free")
    sk = Skeleton(id="empty", modes=(Mode("m", (1, problem.N), ineq=(empty,)),))
    x = np.tile(problem.prefix[1], (problem.N, 1))
    stack, plain = assemble(problem, sk, x), assemble(problem, free, x)
    assert stack.ineq.size == 0
    assert np.array_equal(stack.values, plain.residuals)


def _count_chain_passes(monkeypatch):
    calls = []
    passes = slgp.scenarios.arm_joint_jacobians

    def counted(theta, lengths):
        calls.append(theta.shape)
        return passes(theta, lengths)
    monkeypatch.setattr(slgp.scenarios, "arm_joint_jacobians", counted)
    return calls


def test_one_assemble_runs_the_arm_chain_once(monkeypatch):
    sc = build_scenario(ScenarioParams(name="elbow"))
    problem = sc.problem
    arms = {id(f.shared) for f in problem.terminal_costs}
    for sk in sc.skeletons:
        for owner in (*sk.modes, *sk.switches):
            arms.update(id(f.shared) for f in (*owner.eq, *owner.ineq))
    assert len(arms) == 1 and isinstance(problem.terminal_costs[0].shared, ArmChain)
    x = np.tile(problem.prefix[1], (problem.N, 1)) + 0.1
    for sk in sc.skeletons:
        assemble(problem, sk, x)  # builds the layout
        calls = _count_chain_passes(monkeypatch)
        assemble(problem, sk, x)
        # One pass over every step: the clearance rows cover the horizon.
        assert calls == [(problem.N, problem.d)], sk.id
        monkeypatch.undo()
    calls = _count_chain_passes(monkeypatch)
    problem.terminal_costs[0].eval(np.zeros((5, 1, problem.d)))
    assert calls == [(5, problem.d)]


def _finger_rows(x, f0, contact, normal):
    """One finger's touch offset (M, 2) and face row (M,) at configurations
    x (M, 7), with their Jacobians, by the per-finger formulas."""
    c, s = np.cos(x[:, 6]), np.sin(x[:, 6])
    R = np.stack([c, -s, s, c], -1).reshape(-1, 2, 2)
    dR = np.stack([-s, -c, c, -s], -1).reshape(-1, 2, 2)
    rel = x[:, f0:f0 + 2] - x[:, 4:6] - R @ contact
    jac = np.zeros((len(x), 2, 7))
    jac[:, :, f0:f0 + 2] = np.eye(2)
    jac[:, :, 4:6] = -np.eye(2)
    jac[:, :, 6] = -(dR @ contact)
    n = R @ normal
    face_jac = np.sum(n[:, :, None] * jac, axis=-2)
    face_jac[:, 6] += np.sum((dR @ normal) * rel, axis=-1)
    return rel, jac, np.sum(n * rel, axis=-1), face_jac


def test_contact_features_join_the_per_finger_rows_bit_for_bit():
    rng = np.random.default_rng(43)
    sc = build_scenario(ScenarioParams(name="push"))
    half, a = sc.params.box_half, sc.params.contact_offset
    normal = np.array([1.0, 0.0])
    xs = np.tile(sc.problem.prefix[1], (8, 1, 1)) + rng.normal(scale=0.3, size=(8, 1, 7))
    for sid, points in (("two-finger", [(-half, a), (-half, -a)]),
                        ("single-finger", [(-half, 0.0)])):
        sk = sc.skeleton(sid)
        (face,), (touch,) = sk.modes[1].eq, sk.switches[0].eq
        assert isinstance(face, ContactFacePlane) and type(touch) is ContactPointTouch
        rows = [_finger_rows(xs[:, 0], 2 * i, np.array(p), normal)
                for i, p in enumerate(points)]
        values, jacs = touch.eval(xs)
        assert np.array_equal(values, np.concatenate([r[0] for r in rows], axis=1))
        assert np.array_equal(jacs, np.concatenate([r[1] for r in rows], axis=1))
        values, jacs = face.eval(xs)
        assert np.array_equal(values, np.stack([r[2] for r in rows], axis=1))
        assert np.array_equal(jacs, np.stack([r[3] for r in rows], axis=1))
        for feat in (touch, face):
            for window in xs:
                assert check_jacobian(feat, window) < 1e-6


def test_scenario_feature_jacobians_match_finite_differences(elbow, push):
    rng = np.random.default_rng(17)
    for bundle in (elbow, push):
        problem = bundle.scenario.problem
        feats = list(problem.terminal_costs)
        for sk in bundle.scenario.skeletons:
            for mode in sk.modes:
                feats.extend(mode.eq)
                feats.extend(mode.ineq)
            for sw in sk.switches:
                feats.extend(sw.eq)
        checked = 0
        for feat in feats:
            for _ in range(3):
                xs = np.tile(problem.prefix[1], (feat.window, 1))
                xs = xs + rng.normal(scale=0.3, size=xs.shape)
                assert check_jacobian(feat, xs) < 5e-6
                checked += 1
        assert checked >= 9


def test_elbow_equality_row_counts(elbow):
    problem = elbow.scenario.problem
    flat = np.tile(problem.prefix[1], (problem.N, 1))
    counts = {}
    for sk in elbow.scenario.skeletons:
        counts[sk.id] = assemble(problem, sk, flat).eq.size
    contact_steps = counts["fix-joint-1"]
    assert counts["free"] == 0
    assert counts["fix-joint-2"] == contact_steps
    assert counts["fix-both"] == 2 * contact_steps
    assert contact_steps == 17


def test_elbow_contact_solutions_pin_the_joint_to_the_table(elbow):
    lengths = elbow.scenario.params.link_lengths
    sk = elbow.scenario.skeleton("fix-joint-2")
    lo, hi = next(m.window for m in sk.modes if m.eq)
    x = elbow.solution("fix-joint-2").x_star
    for n in range(lo, hi + 1):
        height = arm_joint_positions(x[n - 1], lengths)[1, 1]
        assert abs(height) < 1e-6


def test_elbow_free_plan_is_cheapest_and_most_entropic(elbow):
    ids = ("free", "fix-joint-1", "fix-joint-2", "fix-both")
    f = [elbow.solution(i).f_star for i in ids]
    assert np.argmin(f) == 0
    ratios = {i: elbow.component(i).log_ratio for i in ids}
    # More fixed joints leave fewer soft directions, so the entropy gap
    # to the uncontrolled flow narrows.
    assert ratios["free"] < ratios["fix-joint-1"] < ratios["fix-both"]
    assert ratios["free"] < ratios["fix-joint-2"] < ratios["fix-both"]


def test_elbow_weights_form_a_simplex(elbow):
    comps = [elbow.component(i) for i in ("free", "fix-joint-1",
                                          "fix-joint-2", "fix-both")]
    w = mixture_weights([c.f_star for c in comps],
                        [c.log_ratio for c in comps])
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert (w >= 0.0).all()


# --- quasi-static push ------------------------------------------------------


def test_second_finger_adds_constraint_rank(push):
    problem = push.scenario.problem
    ranks = {}
    for sid in ("single-finger", "two-finger"):
        sol = push.solution(sid)
        stack = assemble(problem, push.scenario.skeleton(sid), sol.x_star)
        ranks[sid] = np.linalg.matrix_rank(dense_jacobian(stack, stack.kinds[1]))
    assert ranks["two-finger"] > ranks["single-finger"]


def test_second_finger_narrows_the_entropy_gap(push):
    single = push.component("single-finger")
    two = push.component("two-finger")
    assert two.log_ratio > single.log_ratio


def test_uncontrolled_spread_shrinks_with_the_second_finger(push):
    sc = push.scenario
    rms = {}
    for sid in ("single-finger", "two-finger"):
        draws = sample_paths(push.component(sid), 100, seed=0,
                             distribution="uncontrolled")
        rms[sid] = float(np.sqrt(np.mean([sc.final_error(x[-1]) ** 2
                                          for x in draws])))
    assert rms["single-finger"] > rms["two-finger"]


def test_push_plans_move_the_box_to_the_target(push):
    sc = push.scenario
    for sid in ("single-finger", "two-finger"):
        x = push.solution(sid).x_star
        assert sc.final_error(x[-1]) < 0.05
        # The box may not move before contact is made.
        touch = sc.skeleton(sid).switches[0].at_step
        box0 = np.asarray(sc.params.box_start)
        assert np.abs(x[:touch - 1, 4:] - box0).max() < 1e-6


# --- two candidate routes -------------------------------------------------


def test_undisturbed_route_weights_favor_the_near_waypoint(tworoute):
    near = tworoute.component("via-near")
    far = tworoute.component("via-far")
    w = mixture_weights([near.f_star, far.f_star],
                        [near.log_ratio, far.log_ratio])
    assert w[0] > 0.99
    assert w[1] < 1e-6


def test_route_weights_respond_continuously_to_disturbance(tworoute):
    sc = tworoute.scenario
    pols, comps = [], []
    for sid in ("via-near", "via-far"):
        sol = tworoute.solution(sid)
        pols.append(backward_pass(quadratize(sc.problem,
                                             sc.skeleton(sid), sol)))
        comps.append(tworoute.component(sid))
    ctrl = build_controller(pols, comps, mode="switching")
    kick = sc.skeleton("via-near").switches[0].at_step - 8
    ws = []
    for m in np.linspace(0.05, 0.07, 41):
        ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0,
                     disturbances=((kick, np.array([0.0, m])),), seed=0)
        assert np.isfinite(ro.weights).all()
        ws.append(ro.weights[kick, 1])
    ws = np.array(ws)
    assert ws[0] < 0.01
    assert ws[-1] > 0.99
    assert (np.diff(ws) >= -1e-9).all()
    assert np.abs(np.diff(ws)).max() < 0.35
