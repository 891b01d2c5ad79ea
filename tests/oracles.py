"""Oracles for the tests: a general linear solver, one rref of [M | b] by
the numpy row-update loop (linalg._rref_loop, also at p = 2, where rref
itself runs on packed rows), to check linalg.left_inverse, the sections and
the cyclotomic pullbacks against; multiplicative orders by factoring
p^n - 1; the text form of a Conway table; and a Hilbert-90 solution
rebuilt from its first coordinate in the zeta-power basis."""

import numpy as np

from fflattice import extfield, fppoly, linalg
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


def recover_alpha_oracle(alg, x0):
    """The Hilbert-90 solution of the Kummer algebra alg with first
    coordinate x0, in the zeta-power basis of K_l.

    With h = minimal polynomial of zeta and zeta^a = sum b_i zeta^i, the
    recursion x_{a-1} = sigma(x_0)/b_0, x_i = sigma(x_{i+1}) - b_{i+1} x_{a-1}
    on left-field elements, one Frobenius each, gives the coefficients C_zeta
    of the zeta^j; C_zeta P^T, P the zeta-power matrix, puts the scalars in
    K_l's Conway basis, the coefficient matrix of a KummerElem."""
    p, a = alg.p, alg.a
    zeta = alg.entry.zeta
    h = extfield.minimal_polynomial(zeta)
    assert fppoly.degree(h) == a
    b = [(-c) % p for c in h[:a]]
    cols = [x0] + [None] * (a - 1)
    if a > 1:
        x_top = extfield.frobenius(x0, 1) * pow(b[0], -1, p)
        cols[a - 1] = x_top
        for i in range(a - 2, 0, -1):
            cols[i] = extfield.frobenius(cols[i + 1], 1) - x_top * b[i + 1]
    C_zeta = np.array([c.vec for c in cols], dtype=np.int64).T % p
    return linalg.matmul_mod(C_zeta, alg.scalar.powers(zeta, a).T, p)
