"""Exact linear algebra over GF(p).

Matrices are numpy int64 arrays with entries reduced mod p.  Gaussian
elimination is fully deterministic (first nonzero pivot, reduced row
echelon form) so that downstream canonical choices are reproducible.

Matrix products take their dtype from fppoly.blas_dtype of the inner
dimension.  In its float64 tier a product goes through BLAS and is still
exact, which makes a large product cost about what a numpy call costs.
krylov uses that to build k Krylov columns from O(log k) matrix products
instead of k - 1 mat-vecs, and reduces the squarings it needs in float64
(float_mod).

Every change of basis goes through left_inverse, one rref of [W^T | I_d]
for a basis W of full column rank: the zeta-power bases of the cyclotomic
entries, the power bases B_l of the standard generators, the subalgebra
basis of a projection and the section of an embedding matrix.
"""

from __future__ import annotations

import numpy as np

from . import fppoly


# Matrix products with fewer multiply-adds than this are faster in int64 than
# through the float64 conversions BLAS needs: at 16^3 they tie (3.5 vs 3.0 us,
# one thread of a 2-vCPU x86-64 host, OpenBLAS).
BLAS_MIN_WORK = 4096


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact modular product of residue arrays, int64 result.

    The accumulator is fppoly.blas_dtype of the inner dimension: float64
    BLAS for a matrix-matrix product of at least BLAS_MIN_WORK multiply-adds,
    else int64 or, past 2^62, Python integers.
    """
    dtype = fppoly.blas_dtype(A.shape[-1], p)
    if dtype is object:
        return ((A.astype(object) @ B.astype(object)) % p).astype(np.int64)
    if dtype is np.float64 and B.ndim == 2 and A.size * B.shape[-1] >= BLAS_MIN_WORK:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
    return (A @ B) % p


# Below this many entries a float64 array reduces faster through int64 % p
# than by float_mod's four passes: they tie at 1024 entries, and at 4096
# float_mod is 2x faster (one thread of a 2-vCPU x86-64 host, p = 3, 65521).
FLOAT_MOD_MIN_ENTRIES = 1024


def float_mod(C: np.ndarray, p: int) -> np.ndarray:
    """C mod p, exact, for a float64 array C of integers in [0, 2^53); C is not written.

    From FLOAT_MOD_MIN_ENTRIES entries up, C - floor(C/p) p in float64 with
    one IEEE division: a non-integer C/p lies at least 1/p below the next
    integer and fl(C/p) within half an ulp of it, less than 1/p as
    C < 2^53, so the floor is exact.  A smaller C goes through int64 % p.
    Either way the result is float64.
    """
    if C.size < FLOAT_MOD_MIN_ENTRIES:
        return (C.astype(np.int64) % p).astype(np.float64)
    q = C / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(C, q, out=q)


def krylov(M: np.ndarray, v, k: int, p: int) -> np.ndarray:
    """The n x k int64 matrix with columns v, Mv, ..., M^(k-1) v, M an n x n residue matrix.

    In fppoly.blas_dtype's float64 tier, for k >= 16 and 2k >= n, by
    doubling (Keller-Gehrig 1985): columns j..2j-1 are M^j times columns
    0..j-1 and M^(2j) = (M^j)^2, so about 2 log2(k) BLAS products.
    Otherwise k - 1 mat-vecs, the only way at p near 2^31.  The crossover
    was measured on one thread of a 2-vCPU x86-64 host: doubling ties the
    loop at k = 12-16 for n <= 48 and at k = n/2 for n = 117, 256 and 511.
    """
    cur = np.asarray(v, dtype=np.int64) % p
    n = cur.shape[0]
    if k >= max(16, n / 2) and fppoly.blas_dtype(n, p) is np.float64:
        K = np.empty((n, k), dtype=np.float64)
        K[:, 0] = cur
        P = M.astype(np.float64)
        j = 1
        while True:
            m = min(j, k - j)
            K[:, j:j + m] = (P @ K[:, :m]).astype(np.int64) % p
            j += m
            if j == k:
                return K.astype(np.int64)
            P = float_mod(P @ P, p)
    K = np.empty((n, k), dtype=np.int64)
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


def left_inverse(W: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """(I, A): d independent rows I of the m x d matrix W and A = W_I^(-1).

    One rref of [W^T | I_d].  Its row operations, an invertible d x d T,
    give [T W^T | T]; when W has rank d the d pivots are columns of W^T,
    the rows I of W, and T W_I^T = I_d, so T = A^T.  A square W has
    I = 0, ..., d - 1 and A = W^(-1).  Any y = W x has y_I = W_I x, so
    A y_I = x.  A pivot in the I_d block means dependent columns: ValueError.
    """
    m, d = W.shape
    R, rows = rref(np.hstack([W.T, np.eye(d, dtype=np.int64)]), p)
    if rows and rows[-1] >= m:
        raise ValueError(f"the {m} x {d} matrix has dependent columns")
    return rows, R[:, m:].T.copy()
