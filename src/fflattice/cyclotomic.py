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

Each entry keeps, besides K_l and zeta_l, the row zeta0_row that reads the
zeta^0 coordinate of an element of K_l in the zeta-power basis 1, zeta,
..., zeta^(a-1): row 0 of that basis's inverse, one linalg.left_inverse
per entry.  kummer.project_first applies it.

Each level pair d | a keeps the Conway embedding K_d -> K_a as a matrix:
the a x d powers G = [1, g, ..., g^(d-1)] of g = X_a^((p^a-1)/(p^d-1)),
with its linalg.left_inverse (I, S), d independent rows I of G and
S = G_I^(-1).  embed is one product by G; kummer.project_first reads
K_d-coordinates of an element y of K_a as S y_I, and y lies in the
subfield exactly when G S y_I = y.  For d = a, G = S = I and no
elimination runs; otherwise one d x (a + d) elimination runs per lattice,
not per element.

The embedding constant kappa_{l,m} = X_b^(-q) of standardize depends on m
only through b = level(m) and is kept once per (l, b).  The per-l,
per-level-pair and per-(l, b) caches are append-only behind a lock; entries
become visible only once complete.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import linalg
from .conway import ConwayTable
from .extfield import ExtField, FFElem, FieldMismatch
from .fppoly import exact_div


@dataclass(frozen=True)
class CycloEntry:
    """Cached data for one root order l."""

    ell: int
    level: int                    # a = [GF(p)(zeta_l) : GF(p)]
    K: ExtField                   # the Conway field GF(p^a)
    zeta: FFElem                  # primitive l-th root of unity in K
    zeta0_row: np.ndarray         # length a, reads the zeta^0 coordinate of an element of K


@dataclass(frozen=True)
class LevelPair:
    """The Conway embedding K_d -> K_a of one level pair d | a and its left inverse."""

    matrix: np.ndarray            # a x d, G = [1, g, ..., g^(d-1)], g = X_a^((p^a-1)/(p^d-1))
    rows: list[int]               # I: d independent rows of G
    inverse: np.ndarray           # d x d, S = G_I^(-1)


class CycloLattice:
    """System of compatibly embedded cyclotomic fields over one prime."""

    def __init__(self, table: ConwayTable):
        self.p = table.p
        self.table = table
        self._cache: dict[int, CycloEntry] = {}
        self._fields: dict[int, ExtField] = {}
        self._pairs: dict[tuple[int, int], LevelPair] = {}
        self._kappas: dict[tuple[int, int], FFElem] = {}
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

    def _memo(self, cache: dict, key, build):
        """cache[key], built on first use outside the lock; threads see one complete value."""
        with self._lock:
            if key in cache:
                return cache[key]
        value = build()
        with self._lock:
            return cache.setdefault(key, value)

    def conway_field(self, a: int) -> ExtField:
        return self._memo(self._fields, a,
                          lambda: ExtField(self.p, self.table.get(a), check=False))

    def entry(self, ell: int) -> CycloEntry:
        def build():
            p, a = self.p, self.level(ell)
            K = self.conway_field(a)
            zeta = K.gen() ** ((p ** a - 1) // ell)
            zeta0_row = linalg.left_inverse(K.powers(zeta, a), p)[1][0].copy()   # zeta generates K
            return CycloEntry(ell, a, K, zeta, zeta0_row)
        return self._memo(self._cache, ell, build)

    def level_pair(self, d: int, a: int) -> LevelPair:
        """The cached Conway embedding matrix of K_d -> K_a, d | a, and its left inverse."""
        if a % d:
            raise ValueError(f"level {d} does not divide level {a}")

        def build():
            if d == a:
                eye = np.eye(a, dtype=np.int64)
                return LevelPair(eye, list(range(a)), eye)
            p, K = self.p, self.conway_field(a)
            G = K.powers(K.gen() ** ((p ** a - 1) // (p ** d - 1)), d)
            return LevelPair(G, *linalg.left_inverse(G, p))
        return self._memo(self._pairs, (d, a), build)

    def kappa(self, ell: int, b: int) -> FFElem:
        """kappa_{l,m} for every m of level b divisible by l, cached per (l, b).

        kappa is the cyclotomic pullback of zeta_(p^b-1) raised to
        -q = -((b-a) p^(b+a) - b p^b + a p^a) / ((p^a - 1) l), a = level(l).
        K_m and K_(p^b-1) are the same Conway field and zeta_(p^b-1) is its
        generator X, so kappa = X^(-q).  The division is exact in
        arbitrary-precision integers and must happen before reduction mod
        p^b - 1.
        """
        def build():
            p, a = self.p, self.level(ell)
            q = exact_div((b - a) * p ** (b + a) - b * p ** b + a * p ** a, (p ** a - 1) * ell)
            return self.conway_field(b).gen() ** ((-q) % (p ** b - 1))
        return self._memo(self._kappas, (ell, b), build)

    def embed(self, ell: int, m: int, x: FFElem) -> FFElem:
        """iota_{l,m}(x) for l | m: X_a |-> X_b^((p^b-1)/(p^a-1)), zeta_l |-> zeta_m^(m/l).

        One mat-vec by the level pair's matrix G (a = level(l), b = level(m))
        times the Conway coordinates of x.
        """
        if m % ell:
            raise ValueError(f"{ell} does not divide {m}")
        a, b = self.level(ell), self.level(m)
        if x.field != self.conway_field(a):
            raise FieldMismatch("element does not live in K_l")
        G = self.level_pair(a, b).matrix
        vec = linalg.matmul_mod(G, np.array(x.vec, dtype=np.int64), self.p)
        return FFElem(self.conway_field(b), tuple(vec.tolist()))

    def standard_constant(self, ell: int) -> FFElem:
        """The pullback of zeta_(p^a-1)^a along iota_{l, p^a-1}, a = level(l).

        Both orders have level a, so iota is the identity and the pullback is
        X^a.  This is the canonical Kummer constant shared by all standard
        Hilbert-90 solutions of order l.
        """
        a = self.level(ell)
        return self.conway_field(a).gen() ** a
