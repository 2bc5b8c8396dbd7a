"""Banded SPD linear solves for block-tridiagonal Gauss-Newton systems.

Features couple at most three consecutive configurations, so the
Gauss-Newton Hessian is a sum of per-step 3d x 3d blocks and has scalar
bandwidth at most 3d - 1.  It is built straight into LAPACK upper banded
storage, ab[u + i - j, j] = H[i, j] for bandwidth u.  Factor and solve
cost O(N d^3).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

Array = np.ndarray


class FactorizationError(RuntimeError):
    """The banded Cholesky factorization hit a non-positive pivot."""


def band_from_step_blocks(blocks: Array) -> Array:
    """Upper banded storage, bandwidth 3d - 1, of the sum of per-step blocks.

    blocks[n-1] is a symmetric (3d, 3d) matrix over the window
    (x_{n-2}, x_{n-1}, x_n) of step n = 1..N.  Rows and columns of the
    prefix configurations x_{-1} and x_0 are dropped, so the result is the
    (N d, N d) matrix over x_1..x_N, as an array of shape (3d, N d).
    """
    N, w, _ = blocks.shape
    d = w // 3
    u = w - 1
    a, b = np.triu_indices(w)
    width = (N + 2) * d
    # Band entries over the path with the prefix in front; block n-1 starts
    # at column (n-1) d, where x_{n-2} sits.
    flat = (u + a - b) * width + (np.arange(N) * d)[:, None] + b
    ab = np.bincount(flat.ravel(), weights=blocks[:, a, b].ravel(),
                     minlength=w * width).reshape(w, width)[:, 2 * d:]
    # Entries in the top-left corner couple to a prefix row; LAPACK never
    # reads them, and zeros keep the storage canonical.
    cols = np.arange(min(u, N * d))
    ab[:, :cols.size][np.add.outer(np.arange(w), cols) < u] = 0.0
    return np.ascontiguousarray(ab)


def banded_cholesky_solve(ab: Array, rhs: Array) -> Array:
    """Solve H x = rhs for SPD H given in upper banded storage ab.

    ab has shape (u + 1, n) for bandwidth u.  Raises FactorizationError
    when H is not numerically positive definite.
    """
    ab = np.asarray(ab, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if ab.ndim != 2 or rhs.shape[0] != ab.shape[1]:
        raise ValueError(f"shape mismatch: banded {ab.shape}, rhs {rhs.shape}")
    try:
        cb = scipy.linalg.cholesky_banded(ab, lower=False, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(str(exc)) from exc
    return scipy.linalg.cho_solve_banded((cb, False), rhs, check_finite=False)
