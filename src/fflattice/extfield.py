"""Explicit extension fields GF(p^n) = GF(p)[X]/(f) and their elements.

A field keeps two n x n matrices: the reduction matrix of its modulus
(fppoly's reduction kernel), so a product of elements is one convolve plus
one mat-vec and the matrix of multiplication by an element is one matrix
product (fppoly.mul_matrix), and the matrix F of the Frobenius x -> x^p in
the power basis (frobenius_matrix): read off the reduction matrix, which is
the matrix of multiplication by X^n, in p - 2 products for n >= p (p - 1),
else the Krylov matrix (linalg.krylov, O(log n) products in its float64
tier) of multiplication by X^p.  sigma^k is applied on demand as k mod n
products with F (frobenius_coords), for field elements and for the
tensor-algebra operators alike; no power of F is stored.  Also provides
minimal polynomials (Berlekamp-Massey on the constant coordinates of 1, x,
..., x^(2n-1), O(n^2) beyond their Krylov matrix), primitivity,
Pohlig-Hellman discrete logarithms (baby-step giant-step in the subgroup of
each prime order q dividing p^n - 1, on tables cached per field and base)
and deterministic l-th root extraction.

Irreducibility over GF(2) is Ben-Or's test on f packed into one Python int
(bit i is the coefficient of X^i): at most floor(n/2) squarings and
shift-XOR gcds, stopping at the first nonconstant gcd, with no matrix.  At
odd p <= ROOT_SCREEN_MAX_P (is_irreducible) a screen first divides f by
every monic irreducible of degree <= K, as one float64 product of about
p^K (n + 1) multiply-adds with a per-prime table of the powers X^i mod g;
K is the largest degree whose table fits ROOT_TABLE_MAX_ENTRIES (1 MB) at
n + 1 columns, and for n <= 2K + 1 the screen alone is complete.  Its other
survivors, and every candidate at larger p, go through Rabin's test read off
traces of powers of the Frobenius matrix F (_rabin): tr(F^k) mod p is the
sum of the degrees of the distinct irreducible factors of f whose degree
divides k (Petr 1937; Schwarz 1956), so a nonzero tr(F^k) with k < n
rejects f as soon as the floor(log2 n) squarings of F reach k (tr(F), a
root, before any), and at n < p the traces tr(F^(n/q)) replace Rabin's gcds.
random_irreducible builds the table before its first draw and draws its
candidates in blocks of Mersenne Twister words, the values randrange(p)
would give (_candidates).
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

import numpy as np

from . import fppoly, limits, linalg


class FieldMismatch(ValueError):
    pass


class ExtField:
    """GF(p^n) as GF(p)[X]/(modulus), modulus monic irreducible of degree n.

    An n whose dense n x n matrices exceed limits.DENSE_MATRIX_MAX_BYTES is
    refused before any is built.  The only n x n matrices held are the
    reduction matrix and the Frobenius matrix.  Immutable after construction
    apart from two lazy caches, each filled on first use with values that
    depend only on the field: the factorization of p^n - 1 (_order_factors)
    and the Pohlig-Hellman tables of each discrete-log base (_dlog_tables).
    A fill repeated by concurrent readers stores the same value, so shared
    concurrent reads stay safe.
    """

    def __init__(self, p: int, modulus: list[int], check: bool = True):
        self.p = fppoly.check_prime(p)
        modulus = fppoly.monic(fppoly.trim([c % p for c in modulus]), p)
        self.n = fppoly.degree(modulus)
        if self.n < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        limits.check_dense_matrices(p, self.n)
        if check and not is_irreducible(modulus, p):
            raise ValueError(f"defining polynomial {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self.reduction = fppoly.reduction_matrix(modulus, p)   # column i: X^(n+i) mod f
        self.frobenius_matrix = frobenius_matrix(modulus, p, self.reduction)
        self._order_factors = None
        self._dlog_tables = {}

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FFElem":
        """The element with these coordinates (or this integer); an FFElem of
        this field or of an equal one (a copy) is taken as this field's."""
        if isinstance(coeffs, FFElem):
            x = self._own(coeffs)
            return x if x.field is self else FFElem(self, x.vec)
        if isinstance(coeffs, (int, np.integer)):
            coeffs = [int(coeffs)]
        c = [int(v) % self.p for v in coeffs]
        if len(c) > self.n:
            c = fppoly.mod(c, self.modulus, self.p)
        c += [0] * (self.n - len(c))
        return FFElem(self, tuple(c))

    def zero(self) -> "FFElem":
        return self.element(0)

    def one(self) -> "FFElem":
        return self.element(1)

    def gen(self) -> "FFElem":
        """The class of X."""
        return self.element([0, 1]) if self.n > 1 else self.element([(-self.modulus[0]) % self.p])

    def random_element(self, rng: random.Random) -> "FFElem":
        return self.element([rng.randrange(self.p) for _ in range(self.n)])

    def order(self) -> int:
        return self.p ** self.n

    def mul_matrix(self, x: "FFElem") -> np.ndarray:
        """n x n matrix of multiplication by x in the power basis."""
        return fppoly.mul_matrix(self._own(x).vec, self.reduction, self.p)

    def powers(self, x: "FFElem", k: int) -> np.ndarray:
        """n x k int64 matrix whose columns are the coordinates of 1, x, ..., x^(k-1).

        For 6 k < max(36, n) by k - 2 products (fppoly.mulmod, O(n^2) each);
        otherwise the Krylov matrix of multiplication by x (linalg.krylov),
        whose n x n matrix alone is a cubic product.  Both give the same
        matrix.  The routes tie near k = 6 up to n = 36 and near k = n/6
        above.  Matrix route against products, one thread of a 2-vCPU x86-64
        host, best of 20 or 30: p = 2, n = 5: k = 5 21 -> 20 us, k = 6 24 ->
        25 us; n = 12: k = 8 33 -> 40 us; n = 48: k = 8 100 -> 95 us, k = 12
        124 -> 154 us; n = 117: k = 14 510 -> 432 us, k = 19 622 -> 626 us,
        k = 23 686 -> 793 us; n = 341: k = 56 9.3 -> 5.7 ms.  p = 3, n = 100:
        k = 16 274 -> 261 us, k = 25 360 -> 420 us.  p = 65521, n = 96: k = 16
        245 -> 239 us, k = 24 317 -> 374 us.  p = 2^31 - 1 (int64 digits):
        n = 12, k = 5 60 -> 62 us, k = 8 86 -> 122 us; n = 31, k = 10 160 ->
        189 us.
        """
        self._own(x)
        if 6 * k >= max(36, self.n):
            return linalg.krylov(self.mul_matrix(x), self.one().vec, k, self.p)
        cols = np.zeros((self.n, k), dtype=np.int64)
        if k:
            cols[0, 0] = 1
        if k > 1:
            cur = v = np.array(x.vec, dtype=np.int64)
            cols[:, 1] = v
            for i in range(2, k):
                cur = fppoly.mulmod(cur, v, self.reduction, self.p)
                cols[:, i] = cur
        return cols

    def _own(self, x: "FFElem") -> "FFElem":
        if x.field is not self and x.field != self:
            raise FieldMismatch("element belongs to a different field")
        return x

    def __eq__(self, other):
        return other is self or (isinstance(other, ExtField) and self.p == other.p
                                 and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, tuple(self.modulus)))

    def __repr__(self):
        return f"GF({self.p}^{self.n}) mod {fppoly.to_string(self.modulus)}"


class FFElem:
    """Element of an ExtField; vec is a full-length tuple of residues."""

    __slots__ = ("field", "vec")

    def __init__(self, field: ExtField, vec: tuple):
        self.field = field
        self.vec = vec

    def poly(self) -> list[int]:
        return fppoly.trim(list(self.vec))

    def is_zero(self) -> bool:
        return not any(self.vec)

    def _check(self, other) -> "FFElem":
        if isinstance(other, (int, np.integer)):
            return self.field.element(int(other))
        if not isinstance(other, FFElem):
            raise TypeError(f"cannot combine field element with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("elements belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElem(self.field, tuple((a + b) % p for a, b in zip(self.vec, other.vec)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FFElem(self.field, tuple((a - b) % p for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-a) % p for a in self.vec))

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        prod = fppoly.mulmod(np.array(self.vec, dtype=np.int64),
                             np.array(other.vec, dtype=np.int64), f.reduction, f.p)
        return FFElem(f, tuple(prod.tolist()))

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        f = self.field
        return f.element(fppoly.invmod(self.poly(), f.modulus, f.p))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        return f.element(fppoly.powmod(self.poly(), e, f.modulus, f.p, f.reduction))

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.field.element(int(other))
        return (isinstance(other, FFElem) and self.vec == other.vec
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return f"({fppoly.to_string(self.poly())})"


# -- polynomial-level predicates ----------------------------------------------


# F from R takes p - 2 products, n^3 (p-1)(p-2)/(2p) multiply-adds in all;
# Krylov takes X^p, one product for its matrix and about 2 log2 n doubling
# products, (log2 n + 2) n^3 multiply-adds.  Time from R over Krylov, one
# thread of a 2-vCPU x86-64 host, median of three moduli: p = 2, n = 3-400:
# 0.01-0.63; p = 3, n = 6-400: 0.06-0.78; p = 5: 0.86 at n = 16, 0.56 at 20,
# 0.25 at 400; p = 7: 1.02 at 32, 0.83 at 42; p = 11: 0.95 at 90, 0.80 at
# 110; p = 13: 0.88 at 169; p = 17: 1.15 at 200, 0.95 at 400; p = 31: 2.1
# at 400.  So frobenius_matrix takes F from R from n = p (p - 1) on.
def frobenius_matrix(f: list[int], p: int, R: np.ndarray | None = None) -> np.ndarray:
    """n x n matrix of y -> y^p on GF(p)[X]/(f), f monic: columns X^(p i) mod f.

    R is the reduction matrix of f (built here if not given); it is also the
    matrix of multiplication by X^n, since its column j is X^(n+j) mod f.
    Two builders, by a rule measured on (p, n) (see above):
    - From R, for n >= p (p - 1).  With p i = q n + r, 0 <= r < n,
      column i is R^q e_r: a column of the identity for q = 0, a column of
      R for q = 1, and the columns of each larger q come out of a Horner
      scheme, one product with R per q from 2 up to the largest quotient
      (p (n-1)) // n < p.  At p = 2 that is one gather from [I | R], at
      p = 3 one n x n by n x n/3 product.
    - Krylov otherwise: one powmod for X^p through R, one product for the
      matrix of multiplication by X^p (fppoly.mul_matrix), then the columns
      are its Krylov iterates of 1 (linalg.krylov, O(log n) products).
    """
    n = fppoly.degree(f)
    if R is None:
        R = fppoly.reduction_matrix(f, p)
    if n < p * (p - 1):
        mul_xp = fppoly.mul_matrix(fppoly.powmod([0, 1], p, f, p, R), R, p)
        return linalg.krylov(mul_xp, [1] + [0] * (n - 1), n, p)
    F = np.zeros((n, n), dtype=np.int64)
    U, hi = F[:, :0], n
    for q in range(p * (n - 1) // n, 0, -1):
        # U holds R^(q'-q) e_r for the columns i of each quotient q' > q, in order;
        # after this step it holds R^(q'-q+1) e_r for those of each q' >= q
        lo = -(-q * n // p)                 # the first i with p i >= q n
        U = np.hstack([R[:, p * np.arange(lo, hi) - q * n], linalg.matmul_mod(R, U, p)])
        hi = lo
    F[:, hi:] = U
    F[p * np.arange(hi), np.arange(hi)] = 1     # p i < n: X^(p i) itself
    return F


# The screen at odd p divides f by every monic irreducible g of degree k <= K,
# one product with the stacked k x (n + 1) blocks X^i mod g: sum over k <= K
# of k I_k rows, about p^K (p/(p-1)); the degree-1 rows are the powers a^i of
# the roots.  A rejected Rabin test costs O(n^3) in O(log n) products.  Above
# p = 161 even degree 2 does not fit, so K <= 1 and the screen is a root
# test; for it, the expected search cost with the screen against without it,
# measured against Rabin's test before its trace exits (a root now rejects
# there once F exists, with no squaring) and not measured again since,
# one thread of a 2-vCPU x86-64 host, n = 2-32: 1.4-2.4x lower at p = 1021
# and 4093, 1.2-1.4x lower at p = 8191, 1.1-2.4x higher at p = 16381 and
# 32749.  Mean time per rejected candidate against the root screen and
# Ben-Or's folded gcds it replaces, same host: 0.97x at p = 3 and 5, n = 14
# (K = 7 and 5); 0.62x at p = 3, n = 28; 0.36x at p = 3, n = 56 (K = 6);
# 0.29x at p = 3, n = 100; 0.40x at p = 5, n = 56 (K = 4); 0.48x at p = 7,
# n = 48 (K = 3); 0.78x at p = 31, n = 40 (K = 2).  The table, one per
# prime, is capped at ROOT_TABLE_MAX_ENTRIES (1 MB in float64), which fixes K
# for each n and at p = 65521 would leave n = 1.
ROOT_SCREEN_MAX_P = 8192
ROOT_TABLE_MAX_ENTRIES = 1 << 17


class _ScreenTable(NamedTuple):
    """The blocks of the monic irreducibles of degree 1..K over GF(p), stacked.

    T is float64, with sum over k <= K of k I_k rows: for each degree k in
    turn and each monic irreducible g of that degree, the k rows of the
    block whose column i holds the coordinates of X^i mod g.  row_ends[k]
    and block_ends[k] count the rows and the blocks of degree <= k, and
    starts holds the first row of every block.  Its entries are residues,
    float64 for linalg.float_matmul_mod.
    """
    T: np.ndarray
    row_ends: list[int]
    block_ends: list[int]
    starts: np.ndarray


_screen_tables: dict[int, _ScreenTable] = {}


def is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test on bit-packed GF(2)[X] at p = 2; at odd p, trial
    division by every irreducible of degree <= K, then, unless that was
    complete, Rabin's test on the Frobenius iterates of X.

    p = 2 (Ben-Or 1981): f is one Python int, bit i the coefficient of X^i.
    For k = 1 .. floor(n/2), X^(2^k) mod f is the square of the previous
    iterate (its bits spread, then reduced by shift-XOR against f), and a
    nonconstant gcd(X^(2^k) - X, f), by a shift-XOR Euclid, rejects f.  A
    reducible f has an irreducible factor of degree k <= n/2, which divides
    X^(2^k) - X, so the test is complete.  Cost: at most floor(n/2)
    squarings and gcds of O(n) shift-XOR steps each, no matrix; a random
    reducible f stops at small k (Gao and Panario 2003).

    Odd p.  Screen: for p <= ROOT_SCREEN_MAX_P, K = _screen_degree(p, n) is
    the largest degree <= n/2 whose blocks, with those of every lower
    degree, fit ROOT_TABLE_MAX_ENTRIES (2^17 entries, 1 MB) at n + 1
    columns; 0 past either bound.  The block of a monic irreducible g of
    degree k is the k x (n + 1) matrix of X^i mod g, so block f holds the
    coordinates of f mod g, and g divides f exactly when it is zero.  The
    blocks of every degree <= K are stacked in a per-prime table
    (_screen_table, built once per (p, K) and kept), so the screen is one
    float64 product of about p^K (n + 1) <= 2^17 multiply-adds and one sum
    per block, with no Euclid; the degree-1 blocks are the powers of the
    roots, so a root rejects f at once.  A random reducible f almost always
    has a factor that small (Gao and Panario 2003).  A reducible f has an
    irreducible factor of degree <= n/2, so for n <= 2K + 1 the screen is
    complete and a candidate that passes it is irreducible.  The other
    survivors, and every candidate at larger p (K = 0), go through Rabin's
    test on the traces of powers of the Frobenius matrix (_rabin), which is
    complete alone, so the screen changes no verdict.

    A p that is not prime raises ValueError.  The verdict of
    fppoly.check_prime is memoized per prime that passed, so a search pays
    one lookup per candidate.
    """
    _check_prime_memo(p)
    f = fppoly.trim([c % p for c in f])
    n = fppoly.degree(f)
    if n < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    if f[0] == 0:
        return False  # divisible by X
    if p == 2:
        return _is_irreducible_gf2(f)
    f = fppoly.monic(f, p)
    K = _screen_degree(p, n)
    if K:
        T, row_ends, block_ends, starts = _screen_table(p, K, n + 1)
        values = linalg.float_matmul_mod(T[:row_ends[K], :n + 1], np.array(f, dtype=float), p)
        # some g divides f: a root (the first p rows), or a block of degree >= 2
        # whose residues sum to 0
        if not values[:p].all() or not np.add.reduceat(values, starts[p:block_ends[K]]).all():
            return False
        if n <= 2 * K + 1:
            return True
    return _rabin(f, p, K)


def _rabin(f: list[int], p: int, K: int) -> bool:
    """Rabin's test at odd p for f monic of degree n >= 2, f(0) != 0, with no
    irreducible factor of degree <= K: early exits and, at n < p, acceptance
    read off traces of powers of the Frobenius matrix F.

    Rabin (1980): f is irreducible iff X^(p^n) = X mod f and, for every
    prime q | n, f has no irreducible factor of degree dividing n/q, which
    gcd(X^(p^(n/q)) - X, f) = 1 checks.  X^(p^e) = F^e X, with F from
    frobenius_matrix on a reduction matrix of f built once, and
    linalg.PowerOrbit gives F^e X and the traces from the floor(log2 n)
    squarings of F.

    The trace criterion (Petr 1937; Schwarz 1956): tr(F^k) = sum of deg g
    mod p over the distinct monic irreducible g | f with deg g | k.  By the
    Chinese remainder theorem GF(p)[X]/(f) is the product of the
    GF(p)[X]/(g^e), and on each the p-th power map takes every power of the
    radical into the next one, so on each graded piece but the residue
    field GF(p^d), d = deg g, it and its powers are 0; on GF(p^d) F^k is
    sigma^k, the identity when d | k and else a permutation of a normal
    basis with no fixed point, of trace d or 0.  So:
    - Early exits, at every n: tr(F^k) != 0 for some k < n means a factor
      of degree dividing k < n, and f is rejected.  k = 1 (a root) is read
      off F at once, with no squaring; after each square F^(2^j) that the
      test needs anyway, k = 2^j and 2^j + 2^i, i < j, by one O(n^2) pass
      each (PowerOrbit.traces).  k <= K is skipped: the screen ruled those
      factors out.  No k >= n is asked: an irreducible f of degree n has
      tr(F^n) = n, and n = 4, say, is not 0 mod p > 4.
    - Acceptance at n < p: a reducible f that passes X^(p^n) = X is
      squarefree with a factor of degree d | n/q < n for some prime q | n,
      so the sum is between d and n < p and tr(F^(n/q)) is not 0 mod p; an
      irreducible f gives 0.  So each gcd is replaced by tr(F^(n/q)) = 0,
      one pass over squares already held when n/q has at most two set bits,
      else after a product of the others; for a prime n, tr(F), already
      read.  The gcds remain where the sum can reach p (n >= p, screen
      survivors at p = 3, 5, 7).
    A q with n/q <= K needs no step: such a factor would have failed the
    screen.  A candidate with a root thus costs the reduction matrix, X^p
    (about log2(p/2n) squarings mod f) and the Frobenius matrix (O(log n)
    products), and others a few squarings more.
    """
    n = fppoly.degree(f)
    x_vec = np.zeros(n, dtype=np.int64)
    x_vec[1] = 1
    frob = linalg.PowerOrbit(frobenius_matrix(f, p, fppoly.reduction_matrix(f, p)), x_vec, p)
    if any(t for _, t in frob.traces(K)):
        return False
    if not np.array_equal(frob(n), x_vec):
        return False
    for q in _prime_factors(n):
        if n // q <= K:
            continue
        if n < p:
            if frob.trace(n // q):
                return False
            continue
        g = fppoly.trim(((frob(n // q) - x_vec) % p).tolist())
        if not g or fppoly.degree(fppoly.gcd(g, f, p)) > 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _block_rows(p: int, k: int) -> int:
    """k I_k, the rows of the degree-k blocks: p^k = sum over d | k of d I_d (Gauss)."""
    return p ** k - sum(_block_rows(p, d) for d in range(1, k) if k % d == 0)


def _fitting_degree(p: int, cols: int, most: int) -> int:
    """The largest K <= most whose blocks, with those of every lower degree,
    fit ROOT_TABLE_MAX_ENTRIES at cols columns."""
    K, rows = 0, 0
    while K < most:
        rows += _block_rows(p, K + 1)
        if rows * cols > ROOT_TABLE_MAX_ENTRIES:
            break
        K += 1
    return K


@functools.lru_cache(maxsize=4096)
def _screen_degree(p: int, n: int) -> int:
    """K, the screen's degree bound for a candidate of degree n: the largest
    K <= n/2 whose blocks fit ROOT_TABLE_MAX_ENTRIES at n + 1 columns, or 0
    when p = 2 or p > ROOT_SCREEN_MAX_P.  Depends on (p, n) alone."""
    if p == 2 or p > ROOT_SCREEN_MAX_P:
        return 0
    return _fitting_degree(p, n + 1, n // 2)


def _screen_table(p: int, K: int, cols: int) -> _ScreenTable:
    """The table of p, holding the blocks of every degree <= K with at least cols columns.

    Kept per prime and rebuilt only when too small, to as many degrees as
    fit at cols columns, up to the largest K any degree n gets (K(2k) = k
    while the blocks fit 2k + 1 columns), and then to as many columns as
    fit ROOT_TABLE_MAX_ENTRIES: 3225 x 40 at p = 3, 3865 x 33 at p = 5.
    K(n) falls as n grows, and each step down a degree frees about p times
    the columns, so a search at rising n rebuilds only at those steps: at
    p = 3 and 5, n <= 56, twice.  Callers pass K = _screen_degree(p,
    cols - 1), which those degrees include.  The blocks already held are
    copied and extended (_extend_powers); the irreducibles of each new
    degree k are the monic polynomials of degree k that no block of degree
    <= k/2 divides (_irreducibles).  A rebuild stores a new table, so a
    reader never sees a partial one.
    """
    held = _screen_tables.get(p)
    if held is not None and len(held.row_ends) > K and held.T.shape[1] >= cols:
        return held
    top = K
    while _screen_degree(p, 2 * top + 2) > top:
        top += 1
    K = _fitting_degree(p, cols, top)
    row_ends, block_ends = [0], [0]
    for k in range(1, K + 1):
        row_ends.append(row_ends[-1] + _block_rows(p, k))
        block_ends.append(block_ends[-1] + _block_rows(p, k) // k)
    C = ROOT_TABLE_MAX_ENTRIES // row_ends[K]
    T = np.empty((row_ends[K], C))
    kept = 0 if held is None else min(K, len(held.row_ends) - 1)
    if kept:
        c0 = min(C, held.T.shape[1])
        T[:row_ends[kept], :c0] = held.T[:row_ends[kept], :c0]
    for k in range(1, K + 1):
        B = T[row_ends[k - 1]:row_ends[k]].reshape(-1, k, C)
        if k > kept:
            B[:, :, :k] = np.eye(k)
            B[:, :, k] = (-_irreducibles(p, k, T, row_ends)) % p    # X^k mod g
        _extend_powers(B, k + 1 if k > kept else c0, p)
    starts = np.concatenate([np.arange(row_ends[k - 1], row_ends[k], k) for k in range(1, K + 1)])
    table = _screen_tables[p] = _ScreenTable(T, row_ends, block_ends, starts)
    return table


def _irreducibles(p: int, k: int, T: np.ndarray, row_ends: list[int]) -> np.ndarray:
    """The monic irreducibles of degree k over GF(p), as rows of their k low coefficients.

    The candidates are the p^k monic polynomials of degree k, by the base-p
    code of their coefficients; T's blocks of every degree <= k/2, with at
    least k + 1 columns, screen them in products of at most
    ROOT_TABLE_MAX_ENTRIES entries, and those no block divides are kept.
    """
    low = np.indices((p,) * k).reshape(k, -1)[::-1]     # column j: the base-p digits of j
    if k == 1:
        return low.T
    rows = row_ends[k // 2]
    step = max(1, ROOT_TABLE_MAX_ENTRIES // rows)
    kept = []
    for c in range(0, low.shape[1], step):
        chunk = low[:, c:c + step]
        V = linalg.float_matmul_mod(T[:rows, :k + 1],
                                    np.vstack([chunk, np.ones(chunk.shape[1])]), p)
        coprime = np.ones(chunk.shape[1], dtype=bool)
        for j in range(1, k // 2 + 1):      # no block of degree j all zero
            coprime &= V[row_ends[j - 1]:row_ends[j]].reshape(-1, j, V.shape[1]).any(axis=1).all(axis=0)
        kept.append(chunk[:, coprime])
    return np.hstack(kept).T


def _extend_powers(B: np.ndarray, c: int, p: int) -> None:
    """Fill columns c.. of the blocks B (blocks x k x columns, float64) in place.

    Columns 0..c-1 of each block are X^i mod g, c > k = deg g.  Columns
    c-k..c-1 are the matrix of multiplication by X^(c-k), so one batched
    product with columns k..k+m-1 gives columns c..c+m-1, m <= c - k:
    about log2(columns) products.
    """
    k, C = B.shape[1], B.shape[2]
    while c < C:
        m = min(c - k, C - c)
        B[:, :, c:c + m] = linalg.float_matmul_mod(B[:, :, c - k:c], B[:, :, k:k + m], p)
        c += m


@functools.lru_cache(maxsize=256, typed=True)
def _check_prime_memo(p: int) -> int:
    """fppoly.check_prime; a raise is not cached, so only passed primes are kept."""
    return fppoly.check_prime(p)


def _is_irreducible_gf2(f: list[int]) -> bool:
    """Ben-Or's test for f over GF(2), monic of degree n >= 2 with f(0) = 1."""
    n = len(f) - 1
    F = int("".join(map(str, reversed(f))), 2)   # bit i: coefficient of X^i
    y = 2                                          # X
    for _ in range(n // 2):
        y = int(format(y, "b"), 4)                 # y^2: bit i moves to bit 2i
        d = y.bit_length() - 1 - n
        while d >= 0:
            y ^= F << d
            d = y.bit_length() - 1 - n
        a, b = F, y ^ 2                            # gcd(f, X^(2^k) - X)
        while b:
            lb = b.bit_length()
            d = a.bit_length() - lb
            while d >= 0:
                a ^= b << d
                d = a.bit_length() - lb
            a, b = b, a
        if a != 1:
            return False
    return True


def random_irreducible(p: int, n: int, seed: int = 0) -> list[int]:
    """Deterministic (given seed) monic irreducible of degree n over GF(p);
    an n that ExtField would refuse is refused before the first draw.

    rng is random.Random(f"{p}:{n}:{seed}").  Candidates are
    [c_0, ..., c_(n-1), 1] with c_i the values of successive
    rng.randrange(p) calls, drawn in blocks of Mersenne Twister words by
    _candidates: 5-13 us per candidate against 17-78 us for a randrange
    loop at n = 24-117 (one thread of a 2-vCPU x86-64 host).  Those with
    c_0 = 0 are skipped, every other one is tested by one call to
    is_irreducible, in draw order, and the first accepted is returned:
    about n (1 - 1/p) tests on average.  At n = 1 the first candidate is
    returned.  The screen's table for degree n (see is_irreducible) is
    prepared before the first draw, so its one-time build is not part of
    any candidate's test.
    """
    fppoly.check_prime(p)
    if n < 1:
        raise ValueError("degree must be >= 1")
    limits.check_dense_matrices(p, n)
    rng = random.Random(f"{p}:{n}:{seed}")
    if n == 1:
        return [rng.randrange(p), 1]
    K = _screen_degree(p, n)
    if K:
        _screen_table(p, K, n + 1)
    for f in _candidates(rng, p, n):
        if f[0] and is_irreducible(f, p):
            return f


# Words of one block draw: the first block holds 2n, each next one twice the
# last, up to this many (16 KB).
_MAX_BLOCK_WORDS = 1 << 12


def _candidates(rng: random.Random, p: int, n: int):
    """The candidates [c_0, ..., c_(n-1), 1], c_i the values of rng.randrange(p), without end.

    randrange(p) calls getrandbits(k), k = p.bit_length() <= 31, until the
    value is below p, and getrandbits(k) is the top k bits of one 32-bit
    Mersenne Twister word.  getrandbits(32 B) returns the next B words,
    least significant first, so one call, the words' top k bits and a < p
    mask give the same values as B calls of getrandbits(k).  The generator
    is the caller's own, so values drawn past the last candidate used
    change nothing.
    """
    shift = 32 - p.bit_length()
    words = 2 * n
    values = np.empty(0, dtype=np.uint32)
    while True:
        block = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                              dtype="<u4") >> shift
        values = np.concatenate([values, block[block < p]])
        k = len(values) // n
        for row in values[:k * n].reshape(k, n):
            f = row.tolist()
            f.append(1)
            yield f
        values = values[k * n:]
        words = min(2 * words, _MAX_BLOCK_WORDS)


# -- integer factorization helpers ---------------------------------------------


def _prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


def factorize(n: int) -> dict[int, int]:
    """Factorization by trial division with a Pollard-rho fallback.

    Rho spends at most limits.RHO_MAX_STEPS steps over the whole call; when
    they run out, ValueError names the cofactor left unfactored.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 100000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    rest = [n] if n > 1 else []     # odd parts still to factor, the next one last
    steps = limits.RHO_MAX_STEPS
    while rest:
        m = rest.pop()
        if fppoly.is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _pollard_rho(m, steps)
        if d is None:
            raise ValueError(f"Pollard rho spent RHO_MAX_STEPS={limits.RHO_MAX_STEPS} steps "
                             f"and left the cofactor {math.prod(rest) * m} unfactored")
        rest += [m // d, d]
    return out


def group_order_factors(p: int, a: int) -> dict[int, int]:
    """factorize(p^a - 1), the order of GF(p^a)^*; a ValueError names p and a."""
    try:
        return factorize(p ** a - 1)
    except ValueError as exc:
        raise ValueError(f"factoring p^a - 1 for p={p}, a={a}: {exc}") from exc


def _pollard_rho(n: int, steps: int) -> tuple[int | None, int]:
    """(d, steps left): a proper divisor d of the odd composite n by Floyd's cycle
    search on x^2 + c, c = 1, 2, ..., or (None, 0) once `steps` steps are spent."""
    c = 0
    while steps:
        c += 1
        x = y = 2
        d = 1
        while d == 1 and steps:
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d, steps
    return None, 0


# -- field-level operations -----------------------------------------------------


def frobenius_coords(f: ExtField, C: np.ndarray, k: int) -> np.ndarray:
    """sigma^k: x -> x^(p^k) on the coordinate vector C, or on each column of C.

    k mod n products with the field's Frobenius matrix; no power of it is
    stored, since decoration and embedding apply sigma itself (k = 1) and a
    cache of F^k would only hold matrices they never read.  C itself is
    returned when k is a multiple of n.
    """
    for _ in range(k % f.n):
        C = linalg.matmul_mod(f.frobenius_matrix, C, f.p)
    return C


def frobenius(x: FFElem, k: int = 1) -> FFElem:
    """x^(p^k), k taken mod n: frobenius_coords on the coordinates of x."""
    f = x.field
    vec = frobenius_coords(f, np.array(x.vec, dtype=np.int64), k)
    return FFElem(f, tuple(vec.tolist()))


def minimal_polynomial(x: FFElem) -> list[int]:
    """Monic minimal polynomial of x over GF(p), by Berlekamp-Massey
    (minimal_polynomial_and_powers)."""
    return minimal_polynomial_and_powers(x)[0]


def minimal_polynomial_and_powers(x: FFElem) -> tuple[list[int], np.ndarray]:
    """The minimal polynomial Q of x and the n x 2n Krylov matrix 1, x, ..., x^(2n-1).

    The sequence is row 0 of that matrix (F.powers, O(log n) products in
    linalg.krylov's float64 tier): the constant coordinates of the powers
    of x (Wiedemann 1986; Shoup 1999).  Every polynomial Q with Q(x) = 0
    annihilates it, so its minimal polynomial divides the irreducible
    minimal polynomial of x; it starts with 1, the constant coordinate of
    x^0, so it is not constant, and the two are equal.  Berlekamp-Massey
    finds it from 2n terms in O(n^2); at p = 2 each term is a few operations
    on n-bit integers, with no numpy call.  Q(x) = 0, read off columns
    0..deg Q of the same matrix, is asserted.  The matrix is returned for
    callers that keep some of its powers (standardize.decorate at level 1).
    """
    f = x.field
    p, n = f.p, f.n
    K = f.powers(x, 2 * n)
    Q = _berlekamp_massey(K[0], p)
    if linalg.matmul_mod(K[:, :len(Q)], np.array(Q, dtype=np.int64), p).any():
        raise AssertionError("Berlekamp-Massey polynomial does not vanish at x")
    return Q, K


def _berlekamp_massey(s: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of a sequence of residues of linear complexity <= len(s)/2.

    Massey (1969): C is the connection polynomial, s_k + sum_i C_i s_(k-i) = 0
    for L <= k < len(s), and B the one before the last length change.
    Returns the reversal X^L C(1/X), ascending.  p = 2 runs on packed bits
    (_berlekamp_massey_gf2), other p on numpy vectors (_berlekamp_massey_loop).
    """
    if p == 2:
        return _berlekamp_massey_gf2(s)
    return _berlekamp_massey_loop(s, p)


def _berlekamp_massey_gf2(s: np.ndarray) -> list[int]:
    """_berlekamp_massey at p = 2 with C, B and the reversed prefix of s as Python integers.

    Bit i of C is C_i and bit i of R is s_(k-i), so a discrepancy is the
    parity of C & R and an update, with d = 1, is C ^= B << m: no numpy call
    per term.
    """
    C = B = 1
    R = L = 0
    m = 1
    for k, bit in enumerate(s.tolist()):
        R = R << 1 | bit
        if not (C & R).bit_count() & 1:
            m += 1
        elif 2 * L <= k:
            C, B, L, m = C ^ B << m, C, k + 1 - L, 1
        else:
            C ^= B << m
            m += 1
    return [C >> i & 1 for i in range(L, -1, -1)]


def _berlekamp_massey_loop(s: np.ndarray, p: int) -> list[int]:
    """_berlekamp_massey at any p.  L stays below h = len(s)/2 + 1, so each
    discrepancy is one dot product of h terms (linalg.matmul_mod) against a
    window of the reversed sequence."""
    N = len(s)
    h = N // 2 + 1
    r = np.zeros(N + h, dtype=np.int64)
    r[:N] = s[::-1]                     # r[N-1-k+i] = s[k-i], 0 for i > k
    C = np.zeros(N + 1, dtype=np.int64)
    C[0] = 1
    B = C.copy()
    L, LB, m, b_inv = 0, 0, 1, 1
    for k in range(N):
        d = int(linalg.matmul_mod(C[:h], r[N - 1 - k:N - 1 - k + h], p))
        if d == 0:
            m += 1
            continue
        T = C.copy() if 2 * L <= k else None
        C[m:m + LB + 1] = (C[m:m + LB + 1] - (d * b_inv % p) * B[:LB + 1]) % p
        if T is None:
            m += 1
        else:
            B, LB, L, b_inv, m = T, L, k + 1 - L, pow(d, -1, p), 1
    return C[L::-1].tolist()


def _order_factors(f: ExtField) -> dict[int, int]:
    """The factorization of p^n - 1, computed once per field."""
    if f._order_factors is None:
        f._order_factors = group_order_factors(f.p, f.n)
    return f._order_factors


def discrete_log(x: FFElem, base: FFElem) -> int:
    """k with base^k = x, 0 <= k < N = p^n - 1, by Pohlig-Hellman (1978).

    For each prime power q^e exactly dividing N, h = x^(N/q^e) lies in the
    subgroup of order q^e generated by g_q = base^(N/q^e), and its log to g_q,
    e base-q digits, comes from _subgroup_log; the residues mod q^e are
    combined by the Chinese remainder theorem.  k is unique mod N, so the
    answer is that of a search over the whole group.

    base must be primitive (order N).  The per-base tables (g_q, the baby
    steps of gamma_q = base^(N/q) and its giant step, the CRT coefficients)
    are built on the first call with that base and cached on the field
    (ExtField._dlog_tables, keyed by the coordinates of base); the build
    reads primitivity off the gamma_q, since base is primitive iff none is 1.
    After it, a call costs about sum over q of log2 N + 3 e log2(e) log2(q)
    + e sqrt(q) products: 54 per log at p = 257 (N = 2^8) and 163 at
    p = 65537 (2^16), against 102 and 493 one digit at a time.  A field
    whose full group would need more than limits.BSGS_MAX_STEPS baby steps
    is still refused before anything is built.  A zero x raises
    ZeroDivisionError, a base of another field FieldMismatch, and a base
    that is not primitive ValueError.
    """
    if x.is_zero():
        raise ZeroDivisionError("discrete log of zero")
    f = x.field
    base = x._check(base)
    N = f.order() - 1
    if N <= 1:
        return 0
    limits.check_discrete_log(f.p, f.n)
    k = 0
    for q, e, qe, g, table, m, giant, crt in _dlog_tables(f, base):
        k += _subgroup_log(x ** (N // qe), g, q, e, (table, m, giant)) * crt
    return k % N


def _subgroup_log(h: FFElem, g: FFElem, q: int, e: int, steps: tuple) -> int:
    """d < q^e with g^d = h, for g of order q^e and h in its subgroup, by halving the digits.

    With f = floor(e/2), the low f base-q digits of d are the log of
    h^(q^(e-f)) to g^(q^(e-f)), of order q^f, and the high e - f digits the
    log of h g^(-low) to g^(q^f), of order q^(e-f).  One digit (e = 1) is
    baby-step giant-step in the subgroup of order q, generated by
    gamma = g^(q^(e-1)) at every depth: steps = (the baby steps
    {gamma^j: j} for j < m = ceil(sqrt(q)), m, the giant step gamma^m), and
    the digit is j - t m mod q for the first t <= m at which h gamma^(t m) is
    some gamma^j (m^2 >= q, so every residue is reached).  Each of the
    ceil(log2 e) levels of the halving raises to powers below q^e, about
    3 e log2 q products per level, so the e digits cost O(e log e log q)
    products against O(e^2 log q) one digit at a time.
    """
    if e == 1:
        table, m, giant = steps
        y = h
        for t in range(m + 1):
            j = table.get(y.vec)
            if j is not None:
                return (j - t * m) % q
            y = y * giant
        raise AssertionError("discrete log digit not found in a subgroup of prime order")
    f = e // 2
    low = _subgroup_log(h ** q ** (e - f), g ** q ** (e - f) if f > 1 else None, q, f, steps)
    high = _subgroup_log(h * g ** (q ** e - low) if low else h,
                         g ** q ** f if e - f > 1 else None, q, e - f, steps)
    return low + q ** f * high


def _dlog_tables(f: ExtField, base: FFElem) -> list[tuple]:
    """Pohlig-Hellman tables of a primitive base of f, built once per base.

    One entry per prime q with q^e exactly dividing N = p^n - 1:
    (q, e, q^e, g_q = base^(N/q^e), the baby-step table {gamma_q^j: j} for
    j < m = ceil(sqrt(q)) with gamma_q = g_q^(q^(e-1)) = base^(N/q), m, the
    giant step gamma_q^m (the baby loop's last product), the CRT coefficient
    of q^e mod N).  Everything is a power of base, with no inversion.
    Raises ValueError when some gamma_q is 1 (or base is zero): then base is
    not primitive, and nothing is cached.
    """
    tables = f._dlog_tables.get(base.vec)
    if tables is not None:
        return tables
    if base.is_zero():
        raise ValueError("discrete_log base must be primitive")
    N = f.order() - 1
    one = f.one()
    prime_powers = []
    for q, e in _order_factors(f).items():
        qe = q ** e
        g = base ** (N // qe)
        gamma = g ** q ** (e - 1) if e > 1 else g
        if gamma == one:
            raise ValueError("discrete_log base must be primitive")
        prime_powers.append((q, e, qe, g, gamma))
    tables = []
    for q, e, qe, g, gamma in prime_powers:
        m = math.isqrt(q - 1) + 1
        table, cur = {}, one
        for j in range(m):
            table[cur.vec] = j
            cur = cur * gamma
        cofactor = N // qe
        crt = cofactor * pow(cofactor, -1, qe) % N
        tables.append((q, e, qe, g, table, m, cur, crt))
    f._dlog_tables[base.vec] = tables
    return tables


def nth_root(c: FFElem, ell: int) -> FFElem:
    """Deterministic l-th root: among all x with x^ell = c, the one of smallest
    discrete log to the class of X, which must be primitive.

    k = discrete_log(c, X) by Pohlig-Hellman on the tables of X cached on the
    field (ExtField._dlog_tables, built on the field's first call).  With
    N = p^n - 1 and g = gcd(ell, N), a root exists iff g | k, the roots are
    X^(j + i N/g) for 0 <= i < g with j = (k/g) (ell/g)^-1 mod N/g, and X^j
    is returned.  Cost after the build: that of discrete_log, plus one power
    for X^j.  Raises ValueError when no root exists, which signals a broken
    Kummer constant upstream in this library's main use.
    """
    if ell < 1:
        raise ValueError("root order must be >= 1")
    if c.is_zero():
        raise ZeroDivisionError("l-th root of zero")
    f = c.field
    base = f.gen()
    N = f.order() - 1
    if N <= 1:
        return c
    k = discrete_log(c, base)
    g = math.gcd(ell, N)
    if k % g:
        raise ValueError(f"element has no {ell}-th root (solvability condition fails)")
    j = (k // g) * pow(ell // g, -1, N // g) % (N // g)
    return base ** j
