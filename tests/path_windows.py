"""Per-configuration window stacking for the per-step test oracles, kept
apart from the fancy indexing of the batched evaluator they check."""

import numpy as np


def window(problem, x, n, width):
    """Configurations n-width+1 .. n, oldest first, the prefix below step 1."""
    return np.stack([x[m - 1] if m >= 1 else problem.prefix[m + 1]
                     for m in range(n - width + 1, n + 1)])
