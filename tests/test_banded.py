"""Banded Cholesky solves against dense references."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from slgp.banded import (FactorizationError, band_from_step_blocks,
                         banded_cholesky_solve)


def matrix_bandwidth(H) -> int:
    if sp.issparse(H):
        coo = H.tocoo()
        if coo.nnz == 0:
            return 0
        return int(np.abs(coo.row - coo.col).max())
    rows, cols = np.nonzero(np.asarray(H))
    return int(np.abs(rows - cols).max()) if rows.size else 0


def to_banded_upper(H, bandwidth: int | None = None):
    """LAPACK upper banded storage: ab[u + i - j, j] = H[i, j]."""
    u = matrix_bandwidth(H) if bandwidth is None else bandwidth
    ab = np.zeros((u + 1, H.shape[0]))
    for k in range(u + 1):
        ab[u - k, k:] = H.diagonal(k) if sp.issparse(H) else np.diagonal(H, k)
    return ab


def _block_tridiagonal_spd(n_blocks, d, rng):
    # SPD with the k=2 sparsity: couplings reach two blocks back.
    n = n_blocks * d
    B = sp.lil_matrix((n, n))
    for i in range(n_blocks):
        sl = slice(i * d, (i + 1) * d)
        B[sl, sl] = rng.normal(size=(d, d))
        if i + 1 < n_blocks:
            B[sl, slice((i + 1) * d, (i + 2) * d)] = 0.3 * rng.normal(size=(d, d))
        if i + 2 < n_blocks:
            B[sl, slice((i + 2) * d, (i + 3) * d)] = 0.1 * rng.normal(size=(d, d))
    A = (B @ B.T).toarray()
    return A + n * 1e-3 * np.eye(n)


def test_identity_returns_rhs():
    rhs = np.arange(5.0)
    assert np.allclose(banded_cholesky_solve(to_banded_upper(np.eye(5)), rhs), rhs)


def test_bandwidth_detection():
    H = np.eye(6)
    assert matrix_bandwidth(H) == 0
    H[0, 3] = H[3, 0] = 1.0
    assert matrix_bandwidth(H) == 3


def test_banded_layout_roundtrip():
    rng = np.random.default_rng(2)
    A = _block_tridiagonal_spd(4, 2, rng)
    bw = matrix_bandwidth(A)
    ab = to_banded_upper(A, bw)
    assert ab.shape == (bw + 1, A.shape[0])
    # last banded row is the diagonal
    assert np.allclose(ab[-1], np.diag(A))


def test_matches_dense_solve_on_random_spd_systems():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = _block_tridiagonal_spd(10, 6, rng)  # 60 x 60
        rhs = rng.normal(size=60)
        x = banded_cholesky_solve(to_banded_upper(A), rhs)
        x_dense = np.linalg.solve(A, rhs)
        rel = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
        assert rel < 1e-10


def test_accepts_sparse_input():
    rng = np.random.default_rng(21)
    A = _block_tridiagonal_spd(6, 3, rng)
    rhs = rng.normal(size=A.shape[0])
    x = banded_cholesky_solve(to_banded_upper(sp.csr_matrix(A)), rhs)
    assert np.allclose(A @ x, rhs, atol=1e-9)


def test_indefinite_matrix_raises():
    A = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(FactorizationError):
        banded_cholesky_solve(to_banded_upper(A), np.ones(3))


def _spd_system(seed, n_blocks=5, d=2):
    rng = np.random.default_rng(seed)
    A = _block_tridiagonal_spd(n_blocks, d, rng)
    return A, to_banded_upper(A), rng.normal(size=A.shape[0])


def test_one_dimensional_rhs_gives_the_dense_solution():
    A, ab, rhs = _spd_system(40)
    x = banded_cholesky_solve(ab, rhs)
    assert x.shape == rhs.shape
    x_dense = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


def test_inputs_are_left_unchanged():
    _, ab, rhs = _spd_system(41)
    ab_before, rhs_before = ab.copy(), rhs.copy()
    banded_cholesky_solve(ab, rhs)
    assert np.array_equal(ab, ab_before) and np.array_equal(rhs, rhs_before)

    ab[-1, 3] = -1.0
    ab_before = ab.copy()
    with pytest.raises(FactorizationError, match="order 4"):
        banded_cholesky_solve(ab, rhs)
    assert np.array_equal(ab, ab_before) and np.array_equal(rhs, rhs_before)


@pytest.mark.parametrize("ab_shape, rhs_shape", [
    ((3, 10), (9,)),       # rhs shorter than the band's columns
    ((3, 10), (11, 2)),    # rhs longer than the band's columns
    ((10,), (10,)),        # band not 2-D
    ((2, 3, 10), (10,)),   # band not 2-D
    ((0, 10), (10,)),      # band without a diagonal row
], ids=["short-rhs", "long-rhs", "flat-band", "cube-band", "empty-band"])
def test_shape_mismatch_is_rejected_before_lapack(ab_shape, rhs_shape, capfd):
    with pytest.raises(ValueError, match="shape mismatch"):
        banded_cholesky_solve(np.ones(ab_shape), np.ones(rhs_shape))
    # LAPACK's own argument check would print to stdout.
    assert capfd.readouterr().out == ""


def test_import_names_the_missing_lapack(fresh_python):
    # A LAPACK without the two routines: the library exports nothing.
    script = """
import ctypes
class Empty:
    def __init__(self, path):
        pass
    def __getattr__(self, name):
        raise AttributeError(name)
ctypes.CDLL = Empty
try:
    import slgp.banded
except ImportError as exc:
    print(exc)
"""
    done = fresh_python(script)
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
    assert done.stdout.strip() == (
        "slgp needs LAPACK dpbtrf/dpbtrs from numpy's bundled OpenBLAS "
        f"(scipy_dpbtrf_64_, scipy_dpbtrs_64_), but numpy {np.__version__} "
        f"with LAPACK '{lapack}' does not export them through "
        "numpy.linalg._umath_linalg; slgp was tested only with numpy's "
        "Linux x86-64 PyPI wheels")


def test_cost_scales_roughly_linearly_with_horizon():
    # Fixed block size, growing horizon: a banded solve is O(N d^3), so the
    # per-solve time ratio should track N, far below the dense O(N^3) cubic.
    rng = np.random.default_rng(30)
    d, reps = 4, 5
    times = {}
    for n_blocks in (50, 500):
        A = to_banded_upper(sp.csr_matrix(_block_tridiagonal_spd(n_blocks, d, rng)))
        rhs = rng.normal(size=n_blocks * d)
        banded_cholesky_solve(A, rhs)  # warm up
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            banded_cholesky_solve(A, rhs)
            best = min(best, time.perf_counter() - t0)
        times[n_blocks] = best
    ratio = times[500] / times[50]
    # 10x the size: linear predicts ~10, cubic ~1000; allow generous noise.
    assert ratio < 120, f"solve-time ratio {ratio:.1f} suggests superlinear scaling"


def _dense_from_step_blocks(blocks):
    # Oracle: place every step block on the padded path, then cut the prefix.
    N, w, _ = blocks.shape
    d = w // 3
    H = np.zeros(((N + 2) * d, (N + 2) * d))
    for n in range(N):
        H[n * d:n * d + w, n * d:n * d + w] += blocks[n]
    return H[2 * d:, 2 * d:]


@pytest.mark.parametrize("N,d", [(6, 2), (2, 1), (2, 2), (5, 3)])
def test_step_blocks_fill_the_band_of_the_dense_sum(N, d):
    rng = np.random.default_rng(31 + N + d)
    G = rng.normal(size=(N, 3 * d, 3 * d))
    blocks = G + G.transpose(0, 2, 1)
    H = _dense_from_step_blocks(blocks)
    ab = band_from_step_blocks(blocks)
    assert ab.shape == (3 * d, N * d)
    assert np.array_equal(ab, to_banded_upper(H, 3 * d - 1))
