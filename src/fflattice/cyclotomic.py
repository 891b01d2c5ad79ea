"""The cyclotomic lattice: roots of unity zeta_l with compatible embeddings.

For each l coprime to p, the field K_l = GF(p)(zeta_l) is the Conway field
GF(p^a) of level a = level(l) = ord of p mod l, shared by every l of that
level, and zeta_l = X^((p^a-1)/l).  K_l has one copy and one basis, the
Conway basis 1, X, ..., X^(a-1); zeta_l enters only through its own powers.
The embedding iota_{l,m} : K_l -> K_m is the Conway embedding
X_a |-> X_b^((p^b-1)/(p^a-1)), b = level(m), which norm compatibility of
the table makes a field map; it sends zeta_l to zeta_m^(m/l).  iota_{l,m}
is the identity when l and m have the same level, so the standard Kummer
constant abar_l is X^a.

Each entry keeps, besides K_l and zeta_l, the inverse of the zeta-power
basis 1, zeta, ..., zeta^(a-1) of K_l (its rows read zeta-power
coordinates; kummer.project_first at l_sub = l is one product by it) and
the a x a recovery matrix of the Kummer algebra of order l: a Hilbert-90
solution with coefficient matrix C (scalars in the Conway basis) and first
coordinate s, the zeta^0 coordinate of its rows, has
C = [s, F s, ..., F^(a-1) s] recovery, F the Frobenius matrix of the left
field.  With w the row that reads the zeta^0 coordinate, row 0 of the
inverse of the zeta-power basis, and Z the matrix of multiplication by
zeta, F C = C Z^T gives F^k s = C (Z^T)^k w.  So
recovery is the inverse of U = [w, Z^T w, ..., (Z^T)^(a-1) w], which is
invertible because (x, y) |-> [x y]_(zeta^0) is a nondegenerate form on K_l:
its row k reads [zeta^k y]_(zeta^0), and these a forms are independent.

The per-l cache is append-only behind a lock; entries become visible only
once complete.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import linalg
from .conway import ConwayTable
from .extfield import ExtField, FFElem, FieldMismatch


@dataclass(frozen=True)
class CycloEntry:
    """Cached data for one root order l (see the module docstring for recovery)."""

    ell: int
    level: int                    # a = [GF(p)(zeta_l) : GF(p)]
    K: ExtField                   # the Conway field GF(p^a)
    zeta: FFElem                  # primitive l-th root of unity in K
    zeta_inverse: np.ndarray      # a x a, the inverse of the basis 1, zeta, ..., zeta^(a-1)
    recovery: np.ndarray          # a x a, alpha's coefficients from its first coordinate's orbit


class CycloLattice:
    """System of compatibly embedded cyclotomic fields over one prime."""

    def __init__(self, table: ConwayTable):
        self.p = table.p
        self.table = table
        self._cache: dict[int, CycloEntry] = {}
        self._fields: dict[int, ExtField] = {}
        self._lock = threading.Lock()

    def level(self, ell: int) -> int:
        """Multiplicative order of p mod l (level nu(l)); level(1) = 1."""
        if ell < 1:
            raise ValueError("root order must be >= 1")
        if ell % self.p == 0:
            raise ValueError(f"root order {ell} is divisible by the characteristic {self.p}")
        if ell == 1:
            return 1
        a, r = 1, self.p % ell
        while r != 1:
            r = r * self.p % ell
            a += 1
        return a

    def conway_field(self, a: int) -> ExtField:
        with self._lock:
            if a not in self._fields:
                f = self.table.get(a)
                self._fields[a] = ExtField(self.p, f, check=False)
            return self._fields[a]

    def entry(self, ell: int) -> CycloEntry:
        a = self.level(ell)
        with self._lock:
            if ell in self._cache:
                return self._cache[ell]
        p = self.p
        K = self.conway_field(a)
        zeta = K.gen() ** ((p ** a - 1) // ell)
        zeta_inverse = linalg.left_inverse(K.powers(zeta, a), p)[1]   # zeta generates K: a basis
        U = linalg.krylov(K.mul_matrix(zeta).T, zeta_inverse[0], a, p)
        e = CycloEntry(ell, a, K, zeta, zeta_inverse, linalg.left_inverse(U, p)[1])
        with self._lock:
            self._cache.setdefault(ell, e)
            return self._cache[ell]

    def embed(self, ell: int, m: int, x: FFElem) -> FFElem:
        """iota_{l,m}(x) for l | m: X_a |-> X_b^((p^b-1)/(p^a-1)), zeta_l |-> zeta_m^(m/l).

        One mat-vec: the powers 1, g, ..., g^(a-1) of g = X_b^((p^b-1)/(p^a-1)),
        a = level(l), b = level(m), times the Conway coordinates of x.
        """
        if m % ell:
            raise ValueError(f"{ell} does not divide {m}")
        a, b = self.level(ell), self.level(m)
        src, dst = self.conway_field(a), self.conway_field(b)
        if x.field != src:
            raise FieldMismatch("element does not live in K_l")
        g = dst.gen() ** ((self.p ** b - 1) // (self.p ** a - 1))
        vec = linalg.matmul_mod(dst.powers(g, a), np.array(x.vec, dtype=np.int64), self.p)
        return FFElem(dst, tuple(vec.tolist()))

    def standard_constant(self, ell: int) -> FFElem:
        """The pullback of zeta_(p^a-1)^a along iota_{l, p^a-1}, a = level(l).

        Both orders have level a, so iota is the identity and the pullback is
        X^a.  This is the canonical Kummer constant shared by all standard
        Hilbert-90 solutions of order l.
        """
        a = self.level(ell)
        return self.conway_field(a).gen() ** a
