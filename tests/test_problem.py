"""Path problems, skeleton validation, and feature stacking."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from slgp.features import EFFORT, AccelerationPenalty, AffineFeature, coordinate_target
from slgp.problem import (FeatureEvalError, Mode, PathProblem, Skeleton,
                          SkeletonError, Switch, assemble, constraint_violation, cost_value,
                          _layout, free_skeleton, skeleton_structure_violations)
from slgp.scenarios import ScenarioParams, build_scenario
from slgp.selftest import dense_jacobian

from path_windows import step_constraints, window


def _toy_problem(N=6, d=2):
    return PathProblem(
        N=N, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        costs=(AccelerationPenalty(d, 0.2, 0.4),),
        terminal_costs=(coordinate_target(d, [0], [1.0], 4.0),))


def test_horizon_and_prefix_are_validated():
    with pytest.raises(ValueError):
        _toy_problem(N=1)
    with pytest.raises(ValueError):
        PathProblem(N=4, d=2, dt=0.1, sigma=0.1,
                    prefix=np.zeros((2, 3)), costs=())
    with pytest.raises(ValueError):
        PathProblem(N=4, d=2, dt=-0.1, sigma=0.1,
                    prefix=np.zeros((2, 2)), costs=())


def test_prefix_is_frozen():
    problem = _toy_problem()
    with pytest.raises(ValueError):
        problem.prefix[0, 0] = 1.0


def test_single_mode_skeleton_validates_clean():
    sk = free_skeleton(8)
    assert skeleton_structure_violations(sk, 8) == []


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


def test_layout_canonical_order():
    eq_a = AffineFeature(np.eye(1), np.zeros(1), window=1, name="mode-row")
    eq_b = AffineFeature(np.eye(1), np.zeros(1), window=1, name="switch-row")
    problem = _toy_problem(d=1)
    sk = Skeleton(id="t",
                  modes=(Mode("a", (1, 3)), Mode("b", (4, 6), eq=(eq_a,))),
                  switches=(Switch("s", 4, eq=(eq_b,)),))
    stack = assemble(problem, sk, np.zeros((6, 1)))
    # Step 3 has no rows; step 4 has the mode's row, then the switch's.
    assert stack.index[stack.kinds[1]] == ((4, "b:mode-row"), (4, "s:switch-row"),
                                           (5, "b:mode-row"), (6, "b:mode-row"))
    assert stack.ineq.size == 0
    table = _layout(problem, sk)
    assert table.equalities[4] == ((eq_a, "b:mode-row"), (eq_b, "s:switch-row"))
    assert 3 not in table.equalities
    assert table.equalities[5] == ((eq_a, "b:mode-row"),)


def test_free_skeleton_assembles_no_constraint_rows():
    problem = _toy_problem()
    stack = assemble(problem, free_skeleton(problem.N), np.zeros((6, 2)))
    assert stack.eq.size == 0 and stack.ineq.size == 0
    assert stack.blocks[stack.kinds[1]].shape == (0, 6)
    assert dense_jacobian(stack, stack.kinds[1]).shape == (0, 12)


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
    assert np.array_equal(a.blocks, b.blocks)


def test_contact_equality_rows_cover_exactly_the_contact_window(elbow):
    scenario = elbow.scenario
    params = scenario.params
    start = max(2, round(params.contact_fraction * params.N))
    sk = scenario.skeleton("fix-joint-2")
    stack = assemble(scenario.problem, sk,
                     np.tile(params.start_angles, (params.N, 1)))
    steps = sorted({step for step, _ in stack.index[stack.kinds[1]]})
    assert steps == list(range(start, params.N + 1))
    # one pinned joint -> one equality row per contact step
    assert stack.eq.size == params.N - start + 1


# --- batched evaluation ------------------------------------------------------


def _per_step_oracle(problem, skeleton, x):
    """Rows of every kind, one feature at one step at a time through eval."""
    d = problem.d
    kinds = {"cost": [], "eq": [], "ineq": []}
    for n in range(1, problem.N + 1):
        costs = list(problem.costs)
        if n == problem.N:
            costs += list(problem.terminal_costs)
        eq, ineq = step_constraints(skeleton, n)
        for kind, items in (("cost", [(None, f) for f in costs]), ("eq", eq),
                            ("ineq", ineq)):
            for owner, feat in items:
                label = feat.name if owner is None else f"{owner}:{feat.name}"
                value, jac = feat.eval(window(problem, x, n, feat.window))
                block = np.zeros((feat.size, 3 * d))
                block[:, (3 - feat.window) * d:] = jac
                for i in range(feat.size):
                    effort = kind == "cost" and getattr(feat, "group", None) == EFFORT
                    kinds[kind].append((n, label, float(np.atleast_1d(value)[i]),
                                        block[i], effort))
    return kinds


def _dense(rows, N, d):
    J = np.zeros((len(rows), (N + 2) * d))
    for i, (n, _, _, block, _) in enumerate(rows):
        J[i, (n - 1) * d:(n + 2) * d] = block
    return J[:, 2 * d:]


def _shared_feature_problem():
    """One feature object serving two modes, and a switch whose rows share
    its step with a mode's rows."""
    problem = _toy_problem(N=7)
    shared = AffineFeature(np.array([[1.0, -1.0]]), np.array([0.2]), window=1,
                           name="shared")
    touch = AffineFeature(np.array([[0.5, 0.0, 0.0, 1.0]]), np.zeros(1), window=2,
                          name="touch")
    cap = AffineFeature(np.array([[1.0, 0.0]]), np.array([-0.4]), window=1,
                        name="cap")
    sk = Skeleton(id="shared",
                  modes=(Mode("a", (1, 3), eq=(shared,), ineq=(cap,)),
                         Mode("b", (4, 7), eq=(shared, touch), ineq=(cap,))),
                  switches=(Switch("s", 4, eq=(touch,), ineq=(cap,)),))
    return problem, (sk,)


def _scenario_case(name, N=None):
    def case(request):
        scenario = (request.getfixturevalue(name).scenario if N is None
                    else build_scenario(ScenarioParams(name=name, N=N)))
        return scenario.problem, scenario.skeletons
    return case


ORACLE_CASES = {
    "elbow": _scenario_case("elbow"),
    "push": _scenario_case("push"),
    "tworoute": _scenario_case("tworoute"),
    "elbow-N4": _scenario_case("elbow", 4),
    "push-N4": _scenario_case("push", 4),
    "tworoute-N4": _scenario_case("tworoute", 4),
    "tworoute-N160": _scenario_case("tworoute", 160),
    "shared-feature": lambda request: _shared_feature_problem(),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_batched_stack_matches_the_per_step_oracle(case, request):
    problem, skeletons = ORACLE_CASES[case](request)
    rng = np.random.default_rng(41)
    for skeleton in skeletons:
        for _ in range(2):
            x = (np.tile(problem.prefix[1], (problem.N, 1))
                 + rng.normal(scale=0.3, size=(problem.N, problem.d)))
            stack = assemble(problem, skeleton, x)
            oracle = _per_step_oracle(problem, skeleton, x)
            for kind, select in zip(("cost", "eq", "ineq"), stack.kinds):
                rows = oracle[kind]
                blocks = stack.blocks[select]
                assert stack.index[select] == tuple((n, label) for n, label, *_ in rows)
                assert np.array_equal(stack.steps[select], [n for n, *_ in rows])
                assert np.abs(stack.values[select]
                              - [v for _, _, v, _, _ in rows]).max(initial=0) <= 1e-12
                assert np.abs(blocks - np.array([b for *_, b, _ in rows]).reshape(
                    blocks.shape)).max(initial=0) <= 1e-12
                assert np.abs(dense_jacobian(stack, select)
                              - _dense(rows, problem.N, problem.d)
                              ).max(initial=0) <= 1e-12
            assert np.array_equal(stack.effort_mask,
                                  [e for kind in ("cost", "eq", "ineq")
                                   for *_, e in oracle[kind]])
        # The projection's per-step pairs are the step's equality rows.
        walked = {}
        for n in range(1, problem.N + 1):
            eq, _ = step_constraints(skeleton, n)
            if eq:
                walked[n] = tuple((f, f"{owner}:{f.name}") for owner, f in eq)
        assert _layout(problem, skeleton).equalities == walked


def _items(problem, skeleton):
    """(label, feature, steps) of every cost and constraint feature."""
    N = problem.N
    out = [(f.name, f, range(1, N + 1)) for f in problem.costs]
    out += [(f.name, f, [N]) for f in problem.terminal_costs]
    for owner in (*skeleton.modes, *skeleton.switches):
        lo, hi = getattr(owner, "window", (getattr(owner, "at_step", 0),) * 2)
        out += [(f"{owner.symbol}:{f.name}", f, range(lo, hi + 1))
                for f in (*owner.eq, *owner.ineq)]
    return out


@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
@pytest.mark.parametrize("N", [40, 13])
def test_stack_rows_equal_each_features_own_eval_bit_for_bit(name, N):
    """Shared passes included: each feature's rows are what its own eval
    gives over all its steps at once."""
    sc = build_scenario(ScenarioParams(name=name, N=N))
    problem, d = sc.problem, sc.problem.d
    rng = np.random.default_rng(53 + N)
    for skeleton in sc.skeletons:
        for _ in range(3):
            x = (np.tile(problem.prefix[1], (N, 1))
                 + rng.normal(scale=0.3, size=(N, d)))
            stack = assemble(problem, skeleton, x)
            rows = {}
            for i, key in enumerate(stack.index):
                rows.setdefault(key, []).append(i)
            for label, feat, steps in _items(problem, skeleton):
                w = feat.window
                values, jacs = feat.eval(np.stack([window(problem, x, n, w) for n in steps]))
                for n, value, jac in zip(steps, values, jacs):
                    at = rows[n, label]
                    assert np.array_equal(stack.values[at], value), (skeleton.id, n, label)
                    assert np.array_equal(stack.blocks[at, 3 * d - w * d:], jac)
                    assert not stack.blocks[at, :3 * d - w * d].any()


class _RootPass:
    """Square roots of a configuration's coordinates and their slopes, one
    pass shared by _Root features; raises on a negative coordinate when
    raising is set, else returns NaN there."""

    def __init__(self, raising):
        self.raising = raising
        self.calls = 0

    def eval(self, xs):
        self.calls += 1
        v = xs[..., 0, :]
        if self.raising and (v < 0).any():
            raise ValueError("negative")
        with np.errstate(invalid="ignore"):
            return np.sqrt(v), 0.5 / np.sqrt(np.abs(v))


class _Root:
    """sqrt(x[coord]) sliced out of a shared _RootPass."""

    window, size = 1, 1

    def __init__(self, shared, coord, name):
        self.shared, self.coord, self.name = shared, coord, name

    def take(self, out):
        root, slope = out
        jac = np.zeros(root.shape[:-1] + (1, root.shape[-1]))
        jac[..., 0, self.coord] = slope[..., self.coord]
        return root[..., self.coord:self.coord + 1], jac

    def eval(self, xs):
        return self.take(self.shared.eval(xs))


class _Alone:
    """The same feature without its shared pass: assemble evaluates it on
    its own."""

    window, size = 1, 1

    def __init__(self, feat):
        self.feat, self.name = feat, feat.name

    def eval(self, xs):
        return self.feat.eval(xs)


def _root_skeleton(raising, alone=False):
    shared = _RootPass(raising)
    first, second = _Root(shared, 0, "root0"), _Root(shared, 1, "root1")
    if alone:
        first, second = _Alone(first), _Alone(second)
    sk = Skeleton(id="roots", modes=(Mode("a", (1, 3), eq=(first,)),
                                     Mode("b", (4, 6), eq=(second,), ineq=(first,))),
                  switches=(Switch("s", 4),))
    return sk, shared


@pytest.mark.parametrize("raising", [True, False], ids=["raising", "nonfinite"])
def test_a_failing_shared_pass_names_the_step_each_feature_alone_names(raising):
    problem = _toy_problem()
    sk, shared = _root_skeleton(raising)
    alone, _ = _root_skeleton(raising, alone=True)
    x = np.ones((6, 2))
    _stacks_equal(assemble(problem, sk, x), assemble(problem, alone, x))
    assert shared.calls == 1
    # A raising pass fails every feature at the step; a NaN only the
    # feature that reads it.
    for bad, expected in (((4, 1), (5, "b:root1")), ((1, 0), (2, "a:root0")),
                          ((5, 0), (6, "b:root1" if raising else "b:root0"))):
        x = np.ones((6, 2))
        x[bad] = -1.0
        with pytest.raises(FeatureEvalError) as err:
            assemble(problem, sk, x)
        with pytest.raises(FeatureEvalError) as own:
            assemble(problem, alone, x)
        assert (err.value.step, err.value.label) == (own.value.step, own.value.label)
        assert (err.value.step, err.value.label) == expected
        assert str(err.value) == str(own.value)


BUNDLED_SKELETONS = [("elbow", "free"), ("elbow", "fix-joint-1"),
                     ("elbow", "fix-joint-2"), ("elbow", "fix-both"),
                     ("push", "single-finger"), ("push", "two-finger"),
                     ("tworoute", "via-near"), ("tworoute", "via-far")]


def _gram_oracle(stack, select, weights, values):
    """Per-step sums of weighted outer products, one selected row at a time."""
    width = 3 * stack.d + values
    out = np.zeros((stack.N, width, width))
    for i in np.arange(stack.steps.size)[select]:
        b = np.append(stack.blocks[i], stack.values[i]) if values else stack.blocks[i]
        out[stack.steps[i] - 1] += weights[i] * np.outer(b, b)
    return out


@pytest.mark.parametrize("name, sid", BUNDLED_SKELETONS,
                         ids=[f"{name}-{sid}" for name, sid in BUNDLED_SKELETONS])
def test_row_table_partitions_its_kinds_and_forms_step_grams(name, sid, request):
    bundle = request.getfixturevalue(name)
    stack = assemble(bundle.scenario.problem, bundle.scenario.skeleton(sid),
                     bundle.solution(sid).x_star)
    rows = stack.steps.size
    assert stack.values.shape == (rows,) and stack.blocks.shape == (rows, 3 * stack.d)
    assert len(stack.index) == stack.effort_mask.size == rows
    # The kind slices cover the table in order: cost, eq, ineq.
    assert [(k.start, k.stop, k.step) for k in stack.kinds] == [
        (0, stack.residuals.size, None),
        (stack.residuals.size, rows - stack.ineq.size, None),
        (rows - stack.ineq.size, rows, None)]
    for kind in stack.kinds:
        assert (np.diff(stack.steps[kind]) >= 0).all()

    rng = np.random.default_rng(29)
    weights = rng.uniform(0.5, 2.0, rows)
    cost, _, ineq = stack.kinds
    # The merit Hessian's selection: every cost and equality row and part
    # of the inequality rows.
    select = np.ones(rows, dtype=bool)
    select[ineq] = rng.random(stack.ineq.size) < 0.5
    if sid == "fix-both":
        assert select[ineq].any() and not select[ineq].all()
    for chosen, values in ((cost, True), (select, False)):
        oracle = _gram_oracle(stack, chosen, weights, values)
        assert np.abs(stack.gram(chosen, weights, values) - oracle).max() <= (
            1e-12 * np.abs(oracle).max())


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


class _SqrtRaising(_Sqrt):
    """Raises on a negative coordinate, in a batch and at a single step."""

    def eval(self, xs):
        if np.any(xs[..., 0, self.coord] < 0):
            raise ValueError("negative")
        return super().eval(xs)


def test_nonfinite_batch_names_the_first_bad_step_and_label():
    problem = _toy_problem()
    sk = Skeleton(id="rooted", modes=(Mode("m", (1, 6), ineq=(_Sqrt(),)),))
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
    problem = PathProblem(
        N=6, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        costs=(AccelerationPenalty(d, 0.2, 0.4), _Sqrt(1, "cost-sqrt")))
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
        assert stack.index is kept.index
        assert stack.steps is kept.steps


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
        assert len(stack.index) == stack.steps.size == rows
        assert stack.effort_mask.sum() == 12
    assert assemble(problem, sk, np.zeros((6, 2))).residuals.size == 13


def test_shared_layout_arrays_are_read_only(elbow):
    problem = elbow.scenario.problem
    sk = elbow.scenario.skeleton("fix-both")
    x = elbow.solution("fix-both").x_star
    stack = assemble(problem, sk, x)
    fresh = assemble(dataclasses.replace(problem), sk, x)
    assert stack.eq.size and stack.ineq.size
    for name in ("steps", "effort_mask", "columns", "band"):
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
    assert stack.ineq.size == 0
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
