"""Linear-system oracle for the tests: a general solver, one rref of [M | b],
to check linalg.left_inverse, the sections and the cyclotomic pullbacks
against."""

import numpy as np

from fflattice import linalg


class InconsistentSystem(ValueError):
    """Raised when a linear system has no solution."""


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
    R, pivots = linalg.rref(aug, p)
    n = M.shape[1]
    if any(c >= n for c in pivots):
        raise InconsistentSystem("linear system has no solution")
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        X[c] = R[r, n:]
    return X[:, 0] if single else X
