"""The cyclotomic lattice: roots of unity zeta_l with compatible embeddings.

For each l coprime to p, the field K_l = GF(p)(zeta_l) is the Conway field
GF(p^a) of level a = level(l) = ord of p mod l, shared by every l of that
level, and zeta_l = X^((p^a-1)/l).  Embeddings iota_{l,m} : K_l -> K_m send
zeta_l to zeta_m^(m/l); they are evaluated by linear algebra in the
zeta-power bases.  iota_{l,m} is the identity when l and m have the same
level, so the standard Kummer constant abar_l is X^a.

The per-l cache is append-only behind a lock; entries become visible only
once complete.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import fppoly, linalg, extfield
from .conway import ConwayTable
from .extfield import ExtField, FFElem


@dataclass(frozen=True)
class CycloEntry:
    """Cached data for one root order l.

    power_inverse, the inverse of power_matrix (linalg.left_inverse), is
    computed once when CycloLattice.entry builds the entry, so a change to
    the zeta-power basis (to_power_basis) is one mat-vec.
    """

    ell: int
    level: int                    # a = [GF(p)(zeta_l) : GF(p)]
    K: ExtField                   # the Conway field GF(p^a)
    zeta: FFElem                  # primitive l-th root of unity in K
    h: list                      # minimal polynomial of zeta, degree a
    b_coeffs: list               # zeta^a = sum b_i zeta^i
    power_matrix: np.ndarray      # a x a, column i = coordinates of zeta^i
    scalar_field: ExtField        # GF(p)[Y]/(h), the abstract GF(p)(zeta)
    power_inverse: np.ndarray     # a x a, power_matrix^(-1)


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
        K = self.conway_field(a)
        zeta = K.gen() ** ((self.p ** a - 1) // ell)
        h = extfield.minimal_polynomial(zeta)
        assert fppoly.degree(h) == a, "zeta must generate its Conway field"
        b_coeffs = [(-c) % self.p for c in h[:a]]
        Z = K.powers(zeta, a)
        scalar = K if h == K.modulus else ExtField(self.p, h, check=False)
        e = CycloEntry(ell, a, K, zeta, h, b_coeffs, Z, scalar, linalg.left_inverse(Z, self.p)[1])
        with self._lock:
            self._cache.setdefault(ell, e)
            return self._cache[ell]

    # -- coordinates in the zeta-power basis -----------------------------------

    def to_power_basis(self, ell: int, x: FFElem) -> np.ndarray:
        """Coordinates of x in the basis 1, zeta_l, ..., zeta_l^(a-1).

        One mat-vec by the entry's cached power_inverse.
        """
        e = self.entry(ell)
        if x.field != e.K:
            raise extfield.FieldMismatch("element does not live in K_l")
        return linalg.matmul_mod(e.power_inverse, np.array(x.vec, dtype=np.int64), self.p)

    def from_power_basis(self, ell: int, coords) -> FFElem:
        e = self.entry(ell)
        vec = linalg.matmul_mod(e.power_matrix, np.asarray(coords, dtype=np.int64) % self.p, self.p)
        return FFElem(e.K, tuple(vec.tolist()))

    # -- embeddings -------------------------------------------------------------

    def embed(self, ell: int, m: int, x: FFElem) -> FFElem:
        """iota_{l,m}(x) for l | m: zeta_l |-> zeta_m^(m/l).

        One mat-vec: the powers 1, eta, ..., eta^(a-1) of eta = zeta_m^(m/l),
        a = level(l), times the coordinates of x in the zeta_l-power basis.
        """
        if m % ell:
            raise ValueError(f"{ell} does not divide {m}")
        dst = self.entry(m)
        coords = self.to_power_basis(ell, x)
        eta = dst.zeta ** (m // ell)
        vec = linalg.matmul_mod(dst.K.powers(eta, len(coords)), coords, self.p)
        return FFElem(dst.K, tuple(vec.tolist()))

    def standard_constant(self, ell: int) -> FFElem:
        """The pullback of zeta_(p^a-1)^a along iota_{l, p^a-1}, a = level(l).

        Both orders have level a, so iota is the identity and the pullback is
        X^a.  This is the canonical Kummer constant shared by all standard
        Hilbert-90 solutions of order l.
        """
        a = self.level(ell)
        return self.conway_field(a).gen() ** a
