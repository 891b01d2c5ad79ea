"""Exact linear algebra over GF(p).

Matrices are numpy int64 arrays with entries reduced mod p.  Gaussian
elimination is fully deterministic (first nonzero pivot, reduced row
echelon form) so that downstream canonical choices are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import fppoly


class InconsistentSystem(ValueError):
    """Raised when a linear system has no solution."""


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact modular product, accumulated in fppoly.word_dtype of the inner dimension."""
    if fppoly.word_dtype(A.shape[-1], p) is np.int64:
        return (A @ B) % p
    return ((A.astype(object) @ B.astype(object)) % p).astype(np.int64)


def matpow_mod(A: np.ndarray, e: int, p: int) -> np.ndarray:
    if e < 0:
        raise ValueError("negative matrix power")
    n = A.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = A % p
    while e:
        if e & 1:
            result = matmul_mod(result, base, p)
        e >>= 1
        if e:
            base = matmul_mod(base, base, p)
    return result


def krylov(M: np.ndarray, v, k: int, p: int) -> np.ndarray:
    """The n x k matrix with columns v, Mv, ..., M^(k-1) v: k - 1 mat-vecs, no matrix powers."""
    cur = np.asarray(v, dtype=np.int64) % p
    K = np.empty((cur.shape[0], k), dtype=np.int64)
    for i in range(k):
        K[:, i] = cur
        if i + 1 < k:
            cur = matmul_mod(M, cur, p)
    return K


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = (np.array(M, dtype=np.int64) % p).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), -1, p)
        R[r] = R[r] * inv % p
        col = R[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            R[mask] = (R[mask] - np.outer(col[mask], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def solve(M: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """One solution of Mx = b with free variables set to 0.

    b may be a vector or a matrix of stacked right-hand-side columns.
    Raises InconsistentSystem when no solution exists.
    """
    M = np.asarray(M, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    single = b.ndim == 1
    B = b.reshape(-1, 1) if single else b
    if B.shape[0] != M.shape[0]:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    aug = np.hstack([M, B])
    R, pivots = rref(aug, p)
    n = M.shape[1]
    if any(c >= n for c in pivots):
        raise InconsistentSystem("linear system has no solution")
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        X[c] = R[r, n:]
    return X[:, 0] if single else X


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
