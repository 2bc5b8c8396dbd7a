"""Per-configuration window stacking and the step-by-step walk of a
skeleton's constraints for the per-step test oracles, kept apart from the
fancy indexing and the window-built row layout that they check."""

import numpy as np


def window(problem, x, n, width):
    """Configurations n-width+1 .. n, oldest first, the prefix below step 1."""
    return np.stack([x[m - 1] if m >= 1 else problem.prefix[m + 1]
                     for m in range(n - width + 1, n + 1)])


def step_constraints(skeleton, n):
    """Equality and inequality (owner symbol, feature) pairs active at step
    n, walked step by step: the modes whose window holds n in declared
    order, then the switches at n, features in declaration order within
    each."""
    eq, ineq = [], []
    owners = [m for m in skeleton.modes if m.window[0] <= n <= m.window[1]]
    owners += [sw for sw in skeleton.switches if sw.at_step == n]
    for owner in owners:
        eq.extend((owner.symbol, f) for f in owner.eq)
        ineq.extend((owner.symbol, f) for f in owner.ineq)
    return eq, ineq
