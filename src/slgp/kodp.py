"""The full-cost elimination of one expansion, under the names the
benchmark calls.

A skeleton's feedback policy is slice 0, the full cost, of the law and
the value of the block recursion that weighs it (laplace.eliminate);
execution.build_controller stacks it straight from each component's
Elimination.  This module remains because perfbench/run.py and
perfbench/spans.py call quadratize, backward_pass and PolicyError by
these names: backward_pass eliminates the full cost of an expansion
alone, and gives the same slice 0 as the component's two-distribution
elimination.
"""

from __future__ import annotations

# quadratize, re-exported, is the one expansion, shared with the Laplace
# components.
from .laplace import Elimination, Expansion, SingularComponentError, eliminate, quadratize


class PolicyError(RuntimeError):
    pass


def backward_pass(expansion: Expansion) -> Elimination:
    """Eliminate x_N..x_1 of the full cost alone.

    A singular pivot raises PolicyError naming the skeleton and the step.
    """
    try:
        return eliminate(expansion, count=1)
    except SingularComponentError as exc:
        raise PolicyError(str(exc)) from exc
