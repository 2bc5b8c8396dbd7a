"""Path problems, skeleton validation, and feature stacking."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from slgp.features import EFFORT, AccelerationPenalty, AffineFeature, coordinate_target
from slgp.problem import (FeatureEvalError, Mode, PathProblem, Skeleton,
                          SkeletonError, Switch, assemble, constraint_violation, cost_value,
                          free_skeleton, skeleton_structure_violations,
                          step_constraints, validate_skeleton)


def _toy_problem(N=6, d=2):
    return PathProblem.uniform(
        N=N, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        per_step=(AccelerationPenalty(d, 0.2, 0.4),),
        terminal=(coordinate_target(d, [0], [1.0], 4.0),))


def test_horizon_and_prefix_are_validated():
    with pytest.raises(ValueError):
        _toy_problem(N=1)
    with pytest.raises(ValueError):
        PathProblem.uniform(N=4, d=2, dt=0.1, sigma=0.1,
                            prefix=np.zeros((2, 3)), per_step=())
    with pytest.raises(ValueError):
        PathProblem.uniform(N=4, d=2, dt=-0.1, sigma=0.1,
                            prefix=np.zeros((2, 2)), per_step=())


def test_prefix_is_frozen():
    problem = _toy_problem()
    with pytest.raises(ValueError):
        problem.prefix[0, 0] = 1.0


def test_config_substitutes_prefix_below_step_one():
    problem = PathProblem.uniform(N=3, d=1, dt=0.1, sigma=1.0,
                                  prefix=np.array([[-2.0], [-1.0]]),
                                  per_step=())
    x = np.array([[1.0], [2.0], [3.0]])
    assert problem.config(x, -1) == pytest.approx([-2.0])
    assert problem.config(x, 0) == pytest.approx([-1.0])
    assert problem.config(x, 1) == pytest.approx([1.0])
    window = problem.window(x, 1, 3)
    assert np.allclose(window, [[-2.0], [-1.0], [1.0]])


def test_single_mode_skeleton_validates_clean():
    sk = free_skeleton(8)
    assert skeleton_structure_violations(sk, 8) == []
    assert validate_skeleton(sk, {}, 8) == []


def test_overlapping_windows_are_flagged():
    sk = Skeleton(id="bad", modes=(Mode("a", (1, 5)), Mode("b", (4, 8))),
                  switches=(Switch("s", 4),))
    kinds = [v.kind for v in skeleton_structure_violations(sk, 8)]
    assert "overlap" in kinds


def test_window_gap_is_flagged():
    sk = Skeleton(id="bad", modes=(Mode("a", (1, 3)), Mode("b", (6, 8))),
                  switches=(Switch("s", 6),))
    kinds = [v.kind for v in skeleton_structure_violations(sk, 8)]
    assert "gap" in kinds


def test_switch_count_mismatch_is_flagged():
    sk = Skeleton(id="bad", modes=(Mode("a", (1, 4)), Mode("b", (5, 8))))
    kinds = [v.kind for v in skeleton_structure_violations(sk, 8)]
    assert "switches" in kinds


def test_missing_transition_names_both_modes():
    sk = Skeleton(id="t", modes=(Mode("walk", (1, 4)), Mode("slide", (5, 8))),
                  switches=(Switch("hop", 5),))
    table = {("walk", "hop"): ("run",)}
    violations = validate_skeleton(sk, table, 8)
    assert [v.kind for v in violations] == ["transition"]
    assert "walk" in violations[0].message and "slide" in violations[0].message


def test_allowed_transition_validates_clean():
    sk = Skeleton(id="t", modes=(Mode("walk", (1, 4)), Mode("slide", (5, 8))),
                  switches=(Switch("hop", 5),))
    assert validate_skeleton(sk, {("walk", "hop"): ("slide",)}, 8) == []


def test_step_constraints_canonical_order():
    eq_a = AffineFeature(np.eye(1), np.zeros(1), window=1, name="mode-row")
    eq_b = AffineFeature(np.eye(1), np.zeros(1), window=1, name="switch-row")
    sk = Skeleton(id="t",
                  modes=(Mode("a", (1, 3)), Mode("b", (4, 6), eq=(eq_a,))),
                  switches=(Switch("s", 4, eq=(eq_b,)),))
    eq, ineq = step_constraints(sk, 4)
    assert [(owner, f.name) for owner, f in eq] == [("b", "mode-row"),
                                                    ("s", "switch-row")]
    assert ineq == []
    assert step_constraints(sk, 3) == ([], [])


def test_free_skeleton_assembles_no_constraint_rows():
    problem = _toy_problem()
    stack = assemble(problem, free_skeleton(problem.N), np.zeros((6, 2)))
    assert stack.eq.size == 0 and stack.ineq.size == 0
    assert stack.eq_jac.shape == (0, 12)


def test_assemble_rejects_invalid_skeleton_structure():
    problem = _toy_problem()
    bad = Skeleton(id="bad", modes=(Mode("a", (1, 3)),))
    with pytest.raises(SkeletonError):
        assemble(problem, bad, np.zeros((6, 2)))


def test_assemble_rejects_wrong_path_shape():
    problem = _toy_problem()
    with pytest.raises(ValueError):
        assemble(problem, free_skeleton(6), np.zeros((5, 2)))


def test_cost_value_is_half_squared_residual_norm():
    problem = _toy_problem()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2))
    stack = assemble(problem, free_skeleton(6), x)
    assert cost_value(stack) == pytest.approx(
        0.5 * float(stack.residuals @ stack.residuals))
    assert constraint_violation(stack) == 0.0


def test_effort_mask_separates_cost_groups():
    problem = _toy_problem()
    stack = assemble(problem, free_skeleton(6), np.zeros((6, 2)))
    # 6 steps x 2 effort rows, plus 1 terminal task row.
    assert stack.effort_mask.sum() == 12
    assert stack.effort_mask.size == 13
    assert not stack.effort_mask[-1]


def test_constraint_violation_uses_positive_part_of_inequalities():
    problem = _toy_problem()
    # g = x[0] - 0.1 <= 0 at every step of the single mode.
    g = AffineFeature(np.array([[1.0, 0.0]]), np.array([-0.1]), window=1,
                      name="cap")
    sk = Skeleton(id="capped", modes=(Mode("m", (1, 6), ineq=(g,)),))
    x = np.zeros((6, 2))
    stack = assemble(problem, sk, x)
    assert constraint_violation(stack) == 0.0
    x[2, 0] = 0.6
    stack = assemble(problem, sk, x)
    assert constraint_violation(stack) == pytest.approx(0.5)


def test_assemble_is_deterministic():
    problem = _toy_problem()
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 2))
    a = assemble(problem, free_skeleton(6), x)
    b = assemble(problem, free_skeleton(6), x)
    assert np.array_equal(a.residuals, b.residuals)
    assert (a.jac != b.jac).nnz == 0


def test_contact_equality_rows_cover_exactly_the_contact_window(elbow):
    scenario = elbow.scenario
    params = scenario.params
    start = max(2, round(params.contact_fraction * params.N))
    sk = scenario.skeleton("fix-joint-2")
    stack = assemble(scenario.problem, sk,
                     np.tile(params.start_angles, (params.N, 1)))
    steps = sorted({step for step, _ in stack.eq_index})
    assert steps == list(range(start, params.N + 1))
    # one pinned joint -> one equality row per contact step
    assert stack.eq.size == params.N - start + 1


# --- batched evaluation ------------------------------------------------------


def _per_step_oracle(problem, skeleton, x):
    """Rows of every kind, one feature at one step at a time through eval."""
    d = problem.d
    kinds = {"cost": [], "eq": [], "ineq": []}
    for n in range(1, problem.N + 1):
        costs = list(problem.step_costs[n - 1])
        if n == problem.N:
            costs += list(problem.terminal_costs)
        eq, ineq = step_constraints(skeleton, n)
        for kind, items in (("cost", [(None, f) for f in costs]), ("eq", eq),
                            ("ineq", ineq)):
            for owner, feat in items:
                label = feat.name if owner is None else f"{owner}:{feat.name}"
                value, jac = feat.eval(problem.window(x, n, feat.window))
                block = np.zeros((feat.size, 3 * d))
                block[:, (3 - feat.window) * d:] = jac
                for i in range(feat.size):
                    kinds[kind].append((n, label, float(np.atleast_1d(value)[i]),
                                        block[i], getattr(feat, "group", None) == EFFORT))
    return kinds


def _dense(rows, N, d):
    J = np.zeros((len(rows), (N + 2) * d))
    for i, (n, _, _, block, _) in enumerate(rows):
        J[i, (n - 1) * d:(n + 2) * d] = block
    return J[:, 2 * d:]


@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
def test_batched_stack_matches_the_per_step_oracle(name, request):
    scenario = request.getfixturevalue(name).scenario
    problem = scenario.problem
    rng = np.random.default_rng(41)
    for skeleton in scenario.skeletons:
        for _ in range(2):
            x = (np.tile(problem.prefix[1], (problem.N, 1))
                 + rng.normal(scale=0.3, size=(problem.N, problem.d)))
            stack = assemble(problem, skeleton, x)
            oracle = _per_step_oracle(problem, skeleton, x)
            for kind, values, blocks, steps, index, jac in (
                    ("cost", stack.residuals, stack.cost_blocks, stack.cost_steps,
                     stack.cost_index, stack.jac),
                    ("eq", stack.eq, stack.eq_blocks, stack.eq_steps,
                     stack.eq_index, stack.eq_jac),
                    ("ineq", stack.ineq, stack.ineq_blocks, stack.ineq_steps,
                     stack.ineq_index, stack.ineq_jac)):
                rows = oracle[kind]
                assert index == tuple((n, label) for n, label, *_ in rows)
                assert np.array_equal(steps, [n for n, *_ in rows])
                assert np.abs(values - [v for _, _, v, _, _ in rows]).max(initial=0) <= 1e-12
                assert np.abs(blocks - np.array([b for *_, b, _ in rows]).reshape(
                    blocks.shape)).max(initial=0) <= 1e-12
                assert np.abs(jac.toarray() - _dense(rows, problem.N, problem.d)
                              ).max(initial=0) <= 1e-12
            assert np.array_equal(stack.effort_mask,
                                  [e for *_, e in oracle["cost"]])


class _EvalOnly:
    """A user feature without eval_batch: assemble stacks its eval."""

    def __init__(self, inner):
        self.inner = inner
        self.window, self.size, self.name = inner.window, inner.size, inner.name
        self.group = getattr(inner, "group", None)

    def eval(self, xs):
        return self.inner.eval(xs)


def test_features_without_eval_batch_assemble_identically(elbow):
    problem = elbow.scenario.problem
    skeleton = elbow.scenario.skeleton("fix-both")
    wrapped = {}

    def wrap(feats):
        return tuple(wrapped.setdefault(id(f), _EvalOnly(f)) for f in feats)

    plain_problem = dataclasses.replace(
        problem, step_costs=tuple(wrap(fs) for fs in problem.step_costs),
        terminal_costs=wrap(problem.terminal_costs))
    plain_skeleton = dataclasses.replace(
        skeleton,
        modes=tuple(dataclasses.replace(m, eq=wrap(m.eq), ineq=wrap(m.ineq))
                    for m in skeleton.modes),
        switches=tuple(dataclasses.replace(s, eq=wrap(s.eq), ineq=wrap(s.ineq))
                       for s in skeleton.switches))
    x = elbow.solution("fix-both").x_star
    a = assemble(problem, skeleton, x)
    b = assemble(plain_problem, plain_skeleton, x)
    for field in ("cost_index", "eq_index", "ineq_index", "effort_mask",
                  "cost_steps", "eq_steps", "ineq_steps"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for field in ("residuals", "eq", "ineq", "cost_blocks", "eq_blocks", "ineq_blocks"):
        assert np.abs(getattr(a, field) - getattr(b, field)).max() <= 1e-12


class _Sqrt:
    """sqrt(x[coord]) on one configuration, nonfinite where x[coord] < 0."""

    window, size = 1, 1

    def __init__(self, coord=0, name="sqrt"):
        self.coord, self.name = coord, name

    def eval(self, xs):
        v = xs[..., 0, self.coord:self.coord + 1]
        jac = np.zeros(v.shape + (xs.shape[-1],))
        jac[..., 0, self.coord] = 0.5 / np.sqrt(np.abs(v[..., 0]))
        with np.errstate(invalid="ignore"):
            return np.sqrt(v), jac

    eval_batch = eval


class _SqrtEvalOnly(_Sqrt):
    eval_batch = None


class _SqrtRaising(_Sqrt):
    """Raises on a negative coordinate, in a batch and at a single step."""

    def eval(self, xs):
        if np.any(xs[..., 0, self.coord] < 0):
            raise ValueError("negative")
        return super().eval(xs)

    eval_batch = eval


@pytest.mark.parametrize("feat", [_Sqrt(), _SqrtEvalOnly()], ids=["batch", "fallback"])
def test_nonfinite_batch_names_the_first_bad_step_and_label(feat):
    problem = _toy_problem()
    sk = Skeleton(id="rooted", modes=(Mode("m", (1, 6), ineq=(feat,)),))
    x = np.ones((6, 2))
    x[3, 0] = x[4, 0] = -1.0
    with pytest.raises(FeatureEvalError) as err:
        assemble(problem, sk, x)
    assert err.value.step == 4
    assert err.value.label == "m:sqrt"
    assert "feature 'm:sqrt' at step 4: nonfinite" in str(err.value)


def test_raising_batch_names_the_step_that_raises():
    problem = _toy_problem()
    sk = Skeleton(id="rooted", modes=(Mode("m", (1, 6), eq=(_SqrtRaising(),)),))
    x = np.ones((6, 2))
    x[3, 0] = x[4, 0] = -1.0
    with pytest.raises(FeatureEvalError) as err:
        assemble(problem, sk, x)
    assert err.value.step == 4
    assert err.value.label == "m:sqrt"
    assert "ValueError('negative')" in str(err.value)


def test_first_bad_step_wins_across_costs_and_constraints():
    d = 2
    problem = PathProblem.uniform(
        N=6, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        per_step=(AccelerationPenalty(d, 0.2, 0.4), _Sqrt(1, "cost-sqrt")))
    sk = Skeleton(id="rooted", modes=(Mode("m", (1, 6), eq=(_SqrtRaising(0),),
                                           ineq=(_Sqrt(0, "ineq-sqrt"),)),))
    x = np.ones((6, d))
    x[4, 1] = -1.0  # cost nonfinite at step 5
    x[2, 0] = -1.0  # eq raises and ineq nonfinite at step 3
    with pytest.raises(FeatureEvalError) as err:
        assemble(problem, sk, x)
    assert (err.value.step, err.value.label) == (3, "m:sqrt")
    x[2, 1] = -1.0  # the cost at step 3 comes first in canonical row order
    with pytest.raises(FeatureEvalError) as err:
        assemble(problem, sk, x)
    assert (err.value.step, err.value.label) == (3, "cost-sqrt")


# --- row layout memo ---------------------------------------------------------


def _stacks_equal(a, b):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


def test_interleaved_skeletons_assemble_as_on_fresh_problems(elbow):
    problem = dataclasses.replace(elbow.scenario.problem)
    skeletons = elbow.scenario.skeletons
    rng = np.random.default_rng(3)
    first = {}
    for sk in (*skeletons, *reversed(skeletons), skeletons[0]):
        x = (np.tile(problem.prefix[1], (problem.N, 1))
             + rng.normal(scale=0.3, size=(problem.N, problem.d)))
        stack = assemble(problem, sk, x)
        _stacks_equal(stack, assemble(dataclasses.replace(problem), sk, x))
        # Stacks of one skeleton share the layout built on its first use.
        kept = first.setdefault(sk.id, stack)
        assert stack.cost_index is kept.cost_index
        assert stack.ineq_steps is kept.ineq_steps


def test_invalid_skeleton_raises_on_every_call_and_is_not_kept():
    problem = _toy_problem()
    bad = Skeleton(id="bad", modes=(Mode("a", (1, 3)),))
    for _ in range(3):
        with pytest.raises(SkeletonError):
            assemble(problem, bad, np.zeros((6, 2)))
    assert id(bad) not in problem._layouts


def test_layouts_do_not_outlive_their_skeletons():
    problem = _toy_problem()
    kept = free_skeleton(6)
    assemble(problem, kept, np.zeros((6, 2)))
    for _ in range(5):
        assemble(problem, free_skeleton(6), np.zeros((6, 2)))
    assert list(problem._layouts) == [id(kept)]
    del kept
    assert not problem._layouts


def test_replaced_problem_gets_no_stale_layout():
    problem = _toy_problem()
    sk = free_skeleton(6)
    assert assemble(problem, sk, np.zeros((6, 2))).residuals.size == 13
    target = coordinate_target(2, [1], [2.0], 3.0)
    for terminal, rows in (((), 12), ((target, target), 14)):
        other = dataclasses.replace(problem, terminal_costs=terminal)
        stack = assemble(other, sk, np.zeros((6, 2)))
        assert stack.residuals.size == stack.effort_mask.size == rows
        assert len(stack.cost_index) == stack.cost_steps.size == rows
        assert stack.effort_mask.sum() == 12
    assert assemble(problem, sk, np.zeros((6, 2))).residuals.size == 13


def test_shared_layout_arrays_are_read_only(elbow):
    problem = elbow.scenario.problem
    sk = elbow.scenario.skeleton("fix-both")
    x = elbow.solution("fix-both").x_star
    stack = assemble(problem, sk, x)
    fresh = assemble(dataclasses.replace(problem), sk, x)
    assert stack.eq_steps.size and stack.ineq_steps.size
    for name in ("cost_steps", "eq_steps", "ineq_steps", "effort_mask"):
        with pytest.raises(ValueError):
            getattr(stack, name)[0] = 99
    _stacks_equal(assemble(problem, sk, x), fresh)


def test_entry_under_a_reused_id_is_rebuilt():
    problem = _toy_problem()
    cap = AffineFeature(np.array([[1.0, 0.0]]), np.array([-0.1]), window=1,
                        name="cap")
    capped = Skeleton(id="capped", modes=(Mode("m", (1, 6), ineq=(cap,)),))
    sk = free_skeleton(6)
    assemble(problem, capped, np.zeros((6, 2)))
    # The entry a dead skeleton would leave if its id came back.
    problem._layouts[id(sk)] = problem._layouts[id(capped)]
    stack = assemble(problem, sk, np.zeros((6, 2)))
    assert stack.ineq_steps.size == 0
    _stacks_equal(stack, assemble(_toy_problem(), sk, np.zeros((6, 2))))


def test_copied_and_unpickled_problems_start_without_layouts():
    problem = _toy_problem()
    sk = free_skeleton(6)
    x = np.linspace(0.0, 1.0, 12).reshape(6, 2)
    stack = assemble(problem, sk, x)
    for other in (copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
        assert not other._layouts
        _stacks_equal(assemble(other, sk, x), stack)
    assert list(problem._layouts) == [id(sk)]
