"""Banded SPD linear solves for block-tridiagonal Gauss-Newton systems.

Features couple at most three consecutive configurations, so the
Gauss-Newton Hessian is a sum of per-step 3d x 3d blocks and has scalar
bandwidth at most 3d - 1.  It is built straight into LAPACK upper banded
storage, ab[u + i - j, j] = H[i, j] for bandwidth u.  Factor and solve
cost O(N d^3).

The factor and the solve are LAPACK's dpbtrf and dpbtrs, called through
ctypes from the scipy-openblas library that numpy's Linux PyPI wheels
bundle, where they are exported as scipy_dpbtrf_64_ and scipy_dpbtrs_64_
with 64-bit integers.  The symbols are looked up through numpy's own
linalg extension, whose dependencies hold that library.  This was tested
with numpy 2.4's Linux x86-64 wheel only.  Elsewhere the lookup can find
nothing: on Windows ctypes does not search an extension's dependencies,
numpy's macOS arm64 wheels for macOS 14 and later link Accelerate, and
builds against MKL or a distribution's LAPACK export other names.
Importing this module then raises ImportError.
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

Array = np.ndarray

_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_DATA = ctypes.c_void_p
_UPPER = b"U"


def _lapack_routines():
    """dpbtrf and dpbtrs from numpy's bundled OpenBLAS, with their types."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    try:
        factor, solve = lib.scipy_dpbtrf_64_, lib.scipy_dpbtrs_64_
    except AttributeError:
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
        raise ImportError(
            f"slgp needs LAPACK dpbtrf/dpbtrs from numpy's bundled OpenBLAS "
            f"(scipy_dpbtrf_64_, scipy_dpbtrs_64_), but numpy "
            f"{np.__version__} with LAPACK '{lapack}' does not export them "
            f"through numpy.linalg._umath_linalg; slgp was tested only with "
            f"numpy's Linux x86-64 PyPI wheels") from None
    # Fortran calling convention: every argument by reference, then the
    # hidden length of the uplo string.
    factor.argtypes = [ctypes.c_char_p, _INT_P, _INT_P, _DATA, _INT_P,
                       _INT_P, ctypes.c_size_t]
    solve.argtypes = [ctypes.c_char_p, _INT_P, _INT_P, _INT_P, _DATA,
                      _INT_P, _DATA, _INT_P, _INT_P, ctypes.c_size_t]
    factor.restype = solve.restype = None
    return factor, solve


_dpbtrf, _dpbtrs = _lapack_routines()


def _ref(value: int):
    return ctypes.byref(_INT(value))


class FactorizationError(RuntimeError):
    """The banded Cholesky factorization hit a non-positive pivot."""


def band_index(N: int, d: int) -> Array:
    """Where band_from_step_blocks moves each entry: a (2, L) array of flat
    positions, in the blocks (N, 3d, 3d) and in the banded storage
    (3d, N d), of the upper-triangle entries that couple no prefix
    configuration, step by step."""
    w, u = 3 * d, 3 * d - 1
    a, b = np.triu_indices(w)
    # Block n-1 starts at path row (n-3) d, where x_{n-2} sits.
    row = (np.arange(N) * d)[:, None] + a - 2 * d
    keep = row >= 0
    source = (np.arange(N) * w * w)[:, None] + a * w + b
    target = (u + a - b) * (N * d) + row + b - a
    return np.stack([source[keep], target[keep]])


def band_from_step_blocks(blocks: Array, index: Array | None = None) -> Array:
    """Upper banded storage, bandwidth 3d - 1, of the sum of per-step blocks.

    blocks[n-1] is a symmetric (3d, 3d) matrix over the window
    (x_{n-2}, x_{n-1}, x_n) of step n = 1..N.  Rows and columns of the
    prefix configurations x_{-1} and x_0 are dropped, so the result is the
    (N d, N d) matrix over x_1..x_N, as an array of shape (3d, N d).  Its
    top-left corner, which LAPACK never reads, holds zeros.  index is
    band_index(N, d), built here when not given.
    """
    N, w, _ = blocks.shape
    source, target = band_index(N, w // 3) if index is None else index
    return np.bincount(target, weights=blocks.reshape(-1)[source],
                       minlength=w * N * (w // 3)).reshape(w, -1)


def banded_cholesky_solve(ab: Array, rhs: Array) -> Array:
    """Solve H x = rhs for SPD H given in upper banded storage ab.

    ab has shape (u + 1, n) for bandwidth u; rhs has shape (n,) or (n, k),
    and the result has the shape of rhs.  Neither input is modified.
    Raises FactorizationError when H is not numerically positive definite.
    """
    # LAPACK overwrites both arrays, so it gets fresh float64
    # Fortran-ordered copies, which these names hold through the calls.
    ab = np.array(ab, dtype=float, order="F")
    rhs = np.array(rhs, dtype=float, order="F")
    if (ab.ndim != 2 or not ab.shape[0] or rhs.ndim not in (1, 2)
            or rhs.shape[0] != ab.shape[1]):
        raise ValueError(f"shape mismatch: banded {ab.shape}, rhs {rhs.shape}")
    rows, n = ab.shape
    order, bandwidth, lead = _ref(n), _ref(rows - 1), _ref(rows)
    info = _INT()
    _dpbtrf(_UPPER, order, bandwidth, ab.ctypes.data, lead, ctypes.byref(info), 1)
    if info.value > 0:
        raise FactorizationError(
            f"leading minor of order {info.value} is not positive definite")
    if info.value == 0:
        nrhs = 1 if rhs.ndim == 1 else rhs.shape[1]
        _dpbtrs(_UPPER, order, bandwidth, _ref(nrhs), ab.ctypes.data, lead,
                rhs.ctypes.data, _ref(max(n, 1)), ctypes.byref(info), 1)
    if info.value < 0:
        raise ValueError(f"LAPACK rejected argument {-info.value} of the "
                         f"banded solve: banded {ab.shape}, rhs {rhs.shape}")
    return rhs
