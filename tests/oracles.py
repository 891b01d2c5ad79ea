"""Oracles for the tests: a general linear solver, one rref of [M | b] by
the numpy row-update loop (linalg._rref_loop, also at p = 2, where rref
itself runs on packed rows), to check linalg.left_inverse, the sections and
the cyclotomic pullbacks against; multiplicative orders by factoring
p^n - 1; and the text form of a Conway table."""

import numpy as np

from fflattice import extfield, linalg
from fflattice.conway import ConwayTable


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
    R, pivots = linalg._rref_loop(aug, p)
    n = M.shape[1]
    if any(c >= n for c in pivots):
        raise InconsistentSystem("linear system has no solution")
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        X[c] = R[r, n:]
    return X[:, 0] if single else X


def multiplicative_order(x: extfield.FFElem) -> int:
    """Exact order in the multiplicative group, via factoring p^n - 1."""
    if x.is_zero():
        raise ZeroDivisionError("zero has no multiplicative order")
    f = x.field
    order = f.order() - 1
    for q in extfield.group_order_factors(f.p, f.n):
        while order % q == 0 and (x ** (order // q)) == f.one():
            order //= q
    return order


def is_primitive(x: extfield.FFElem) -> bool:
    return not x.is_zero() and multiplicative_order(x) == x.field.order() - 1


def dump_table(table: ConwayTable) -> str:
    """The table in the text format conway.parse_table reads."""
    lines = [f"# Conway polynomials for p={table.p}"]
    for a in table.degrees():
        coeffs = " ".join(str(c) for c in table._polys[a])
        lines.append(f"{table.p} {a} {coeffs}")
    return "\n".join(lines) + "\n"
