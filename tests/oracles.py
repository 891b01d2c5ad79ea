"""Oracles for the tests: a general linear solver, one rref of [M | b] by
the numpy row-update loop (linalg._rref_loop, also at p = 2, where rref
itself runs on packed rows), to check linalg.left_inverse, the sections and
the cyclotomic pullbacks against; multiplicative orders by factoring
p^n - 1; the text form of a Conway table; a Hilbert-90 solution rebuilt
from its first coordinate in the zeta-power basis; and the standard
embedding by the general Kummer route at every level, which
standardize.standard_embed replaces by closed forms at level 1, from GF(p)
and onto the field itself."""

import numpy as np

from fflattice import extfield, fppoly, kummer, linalg
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


def kummer_embedding(src, dst, lattice):
    """(t, E) of the standard embedding of the decorated GF(p^l) into the
    decorated GF(p^m) by the general Kummer route: t is the first
    coordinate of (1 (x) kappa_{l,m}) alpha_m^(m/l), E = [1, t, ...,
    t^(l-1)] B_l^(-1) with B_l^(-1) from linalg.left_inverse.  alpha_m^m
    (l = 1) is the Kummer constant and alpha_m^1 (l = m) alpha_m itself."""
    ell, m, p = src.ell, dst.ell, lattice.p
    beta = (dst.alpha ** (m // ell)).scalar_mul(lattice.kappa(ell, lattice.level(m)))
    t = kummer.project_first(beta, ell)
    B_inverse = linalg.left_inverse(src.field.powers(src.s, ell), p)[1]
    return t, linalg.matmul_mod(dst.field.powers(t, ell), B_inverse, p)
