"""Explicit extension fields GF(p^n) = GF(p)[X]/(f) and their elements.

A field keeps two n x n matrices: the reduction matrix of its modulus
(fppoly's reduction kernel), so a product of elements is one convolve plus
one mat-vec and the matrix of multiplication by an element is one matrix
product (fppoly.mul_matrix), and the matrix F of the Frobenius x -> x^p in
the power basis, the Krylov matrix (linalg.krylov, O(log n) products in its
float64 tier) of multiplication by X^p.  sigma^k is applied on demand as k
mod n products with F (frobenius_coords), for field elements and for the
tensor-algebra operators alike; no power of F is stored.  Also provides
minimal polynomials (Berlekamp-Massey on the constant coordinates of 1, x,
..., x^(2n-1), O(n^2) beyond that Krylov matrix), primitivity,
Pohlig-Hellman discrete logarithms (baby-step giant-step in the subgroup of
each prime order q dividing p^n - 1, on tables cached per field and base)
and deterministic l-th root extraction.

Irreducibility over GF(2) is Ben-Or's test on f packed into one Python int
(bit i is the coefficient of X^i): at most floor(n/2) squarings and
shift-XOR gcds, stopping at the first nonconstant gcd, with no matrix.  At
odd p (is_irreducible) three screens run before Rabin's test, cheapest
first: for p <= ROOT_SCREEN_MAX_P, a root in GF(p), found by one p x (n+1)
product with a per-prime table of powers; Ben-Or's gcds with X^q - X for
q = p^k <= n, each on f folded mod X^q - X in O(n); then X^(p^n) and the
X^(p^(n/q)) from floor(log2 n) squarings of the Frobenius matrix and a few
mat-vecs.  random_irreducible draws its candidates in blocks of Mersenne
Twister words, the values randrange(p) would give (_candidates).
"""

from __future__ import annotations

import functools
import math
import random

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
        if isinstance(coeffs, FFElem):
            if coeffs.field is not self:
                raise FieldMismatch("element belongs to a different field")
            return coeffs
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
        return fppoly.mul_matrix(x.vec, self.reduction, self.p)

    def powers(self, x: "FFElem", k: int) -> np.ndarray:
        """n x k matrix whose columns are the coordinates of 1, x, ..., x^(k-1).

        For k <= 2 the columns are 1 and x themselves, with no multiplication
        matrix; otherwise the Krylov matrix of multiplication by x.
        """
        if k <= 2:
            cols = np.zeros((self.n, k), dtype=np.int64)
            if k:
                cols[0, 0] = 1
            if k == 2:
                cols[:, 1] = np.array(x.vec, dtype=np.int64) % self.p
            return cols
        return linalg.krylov(self.mul_matrix(x), self.one().vec, k, self.p)

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
        R = self.field.reduction
        prod = fppoly.mulmod(np.array(self.vec, dtype=R.dtype),
                             np.array(other.vec, dtype=R.dtype), R, self.field.p)
        return FFElem(self.field, tuple(prod.tolist()))

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


def frobenius_matrix(f: list[int], p: int, R: np.ndarray | None = None) -> np.ndarray:
    """n x n matrix of y -> y^p on GF(p)[X]/(f), f monic: columns X^(p i) mod f.

    One powmod for X^p through the reduction matrix R of f (built here if
    not given), one product for the matrix of multiplication by X^p
    (fppoly.mul_matrix), then the columns are its Krylov iterates of 1.
    """
    n = fppoly.degree(f)
    if R is None:
        R = fppoly.reduction_matrix(f, p)
    mul_xp = fppoly.mul_matrix(fppoly.powmod([0, 1], p, f, p, R), R, p)
    return linalg.krylov(mul_xp, [1] + [0] * (n - 1), n, p)


# The root screen evaluates f at every a in GF(p) as one product with a table
# of a^i mod p, p (n + 1) multiply-adds, where a rejected Rabin test costs
# O(n^3) in O(log n) products.  Expected search cost with the screen against
# without it, one thread of a 2-vCPU x86-64 host, n = 2-32: 1.4-2.4x lower
# at p = 1021 and 4093, 1.2-1.4x lower at p = 8191, 1.1-2.4x higher at
# p = 16381 and 32749.  The table, one per prime, is capped at
# ROOT_TABLE_MAX_ENTRIES (1 MB in float64), which at p = 65521 would leave
# n = 1.
ROOT_SCREEN_MAX_P = 8192
ROOT_TABLE_MAX_ENTRIES = 1 << 17
_root_tables: dict[int, np.ndarray] = {}


def is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test on bit-packed GF(2)[X] at p = 2; at odd p, a root
    screen and Ben-Or's small-degree gcds, then Rabin's test on the
    Frobenius iterates of X.

    p = 2 (Ben-Or 1981): f is one Python int, bit i the coefficient of X^i.
    For k = 1 .. floor(n/2), X^(2^k) mod f is the square of the previous
    iterate (its bits spread, then reduced by shift-XOR against f), and a
    nonconstant gcd(X^(2^k) - X, f), by a shift-XOR Euclid, rejects f.  A
    reducible f has an irreducible factor of degree k <= n/2, which divides
    X^(2^k) - X, so the test is complete.  Cost: at most floor(n/2)
    squarings and gcds of O(n) shift-XOR steps each, no matrix; a random
    reducible f stops at small k (Gao and Panario 2003).

    Odd p.  Root screen: for p <= ROOT_SCREEN_MAX_P and p (n + 1) <=
    ROOT_TABLE_MAX_ENTRIES, f is evaluated at every a in GF(p) as one
    float64 product V f, p (n + 1) multiply-adds, with the cached table
    V[a, i] = a^i mod p (one per prime, grown to n + 1 columns); a root is
    a linear factor, so f is reducible.  About 1 - 1/e = 63 % of random
    candidates have one at large p, 70 % at p = 3.  Ben-Or screen: for
    each q = p^k <= n not covered by the root screen (q >= p^2 when it
    ran), a nonconstant gcd(X^q - X, f) exposes an irreducible factor of
    degree dividing k < n, so f is reducible.  Since X^q = X mod X^q - X,
    f mod (X^q - X) is an O(n) fold of the coefficient of each X^i, i >= q,
    onto X^(1 + (i-1) mod (q-1)), so the gcd runs on degree < q instead of
    dividing f by X^q - X in O((n - q) q).  The survivors go through
    Rabin's test: f is irreducible iff X^(p^n) = X mod f and, for every
    maximal proper divisor n/q of n, gcd(X^(p^(n/q)) - X, f) is constant.
    With F the Frobenius matrix (frobenius_matrix, on a reduction matrix of
    f built once), X^(p^e) = F^e X (_frobenius_orbit): in fppoly.blas_dtype's
    float64 tier from the floor(log2 n) squarings F^(2^j), then one mat-vec
    per set bit of e; otherwise (p near 2^31) from the n + 1 Krylov iterates
    of X, n mat-vecs.  X^(p^n) is checked first, then one gcd per prime
    factor of n.  A rejected test at p = 65521 thus costs the reduction
    matrix, X^p (about log2(p/2n) squarings mod f), the Frobenius matrix
    (O(log n) products) and floor(log2 n) more products.  Rabin's test
    alone is complete, so no screen changes the verdict.

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
    screened = p <= ROOT_SCREEN_MAX_P and p * (n + 1) <= ROOT_TABLE_MAX_ENTRIES
    if screened and _has_root(f, p):
        return False
    q = p * p if screened else p
    while q <= n:
        g = fppoly.gcd(fppoly.sub(fppoly.monomial(q, p), [0, 1], p), _fold(f, q, p), p)
        if fppoly.degree(g) > 0:
            return False
        q *= p
    x_vec = np.zeros(n, dtype=np.int64)
    x_vec[1] = 1
    frob = _frobenius_orbit(frobenius_matrix(f, p, fppoly.reduction_matrix(f, p)), x_vec, p)
    if not np.array_equal(frob(n), x_vec):
        return False
    for q in _prime_factors(n):
        g = fppoly.trim(((frob(n // q) - x_vec) % p).tolist())
        if not g:
            return False
        if fppoly.degree(fppoly.gcd(g, f, p)) > 0:
            return False
    return True


def _has_root(f: list[int], p: int) -> bool:
    """Whether f has a root in GF(p): one product with the table V[a, i] = a^i mod p.

    The table of p is rebuilt with n + 1 columns when a wider one is needed.
    """
    n = len(f) - 1
    V = _root_tables.get(p)
    if V is None or V.shape[1] <= n:
        V = _root_tables[p] = _power_table(p, n + 1)
    values = V[:, :n + 1] @ np.array(f, dtype=np.float64)
    return not (values.astype(np.int64) % p).all()


def _power_table(p: int, cols: int) -> np.ndarray:
    """The p x cols table a^i mod p, by doubling, in float64.

    fppoly.blas_dtype(cols, p) is float64 within the root screen's bounds
    (cols (p-1)^2 < 2^17 p < 2^30), so V f is exact.
    """
    a = np.arange(p, dtype=np.float64)
    V = np.ones((p, cols))
    k = 1
    while k < cols:
        m = min(k, cols - k)
        ak = linalg.float_mod(V[:, k - 1] * a, p)                     # a^k
        V[:, k:k + m] = linalg.float_mod(V[:, :m] * ak[:, None], p)   # a^(k+j) = a^j a^k
        k += m
    return V


def _fold(f: list[int], q: int, p: int) -> list[int]:
    """f mod (X^q - X): X^i = X^(1 + (i-1) mod (q-1)) for i >= 1, one pass over f."""
    w = q - 1
    c = np.zeros(-(-(len(f) - 1) // w) * w, dtype=np.int64)
    c[:len(f) - 1] = f[1:]
    return fppoly.trim([f[0]] + (c.reshape(-1, w).sum(axis=0) % p).tolist())


def _frobenius_orbit(F: np.ndarray, x: np.ndarray, p: int):
    """e -> F^e x for 0 <= e <= n, F the n x n Frobenius matrix.

    In fppoly.blas_dtype's float64 tier: the floor(log2 n) squarings
    F^(2^j), kept in float64 and reduced by linalg.float_mod, then one
    mat-vec per set bit of e.  Otherwise the n + 1 Krylov iterates of x
    (linalg.krylov's mat-vec loop), which cost less than n^3-sized products
    in int64 or Python integers.
    """
    n = len(x)
    if fppoly.blas_dtype(n, p) is not np.float64:
        K = linalg.krylov(F, x, n + 1, p)
        return lambda e: K[:, e]
    squares = [F.astype(np.float64)]
    while 1 << len(squares) <= n:
        squares.append(linalg.float_mod(squares[-1] @ squares[-1], p))

    def power(e: int) -> np.ndarray:
        v = x.astype(np.float64)
        for j, S in enumerate(squares):
            if e >> j & 1:
                v = linalg.float_mod(S @ v, p)
        return v.astype(np.int64)
    return power


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
    returned.
    """
    fppoly.check_prime(p)
    if n < 1:
        raise ValueError("degree must be >= 1")
    limits.check_dense_matrices(p, n)
    rng = random.Random(f"{p}:{n}:{seed}")
    if n == 1:
        return [rng.randrange(p), 1]
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
    """Factorization by trial division with a Pollard-rho fallback."""
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
    if n > 1:
        _factor_rho(n, out)
    return out


def _factor_rho(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if fppoly.is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_rho(d, out)
    _factor_rho(n // d, out)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


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
    """Monic minimal polynomial of x over GF(p), by Berlekamp-Massey.

    The sequence is row 0 of the Krylov matrix 1, x, ..., x^(2n-1)
    (F.powers, O(log n) products in linalg.krylov's float64 tier): the
    constant coordinates of the powers of x (Wiedemann 1986; Shoup 1999).
    Every polynomial Q with Q(x) = 0 annihilates it, so its minimal
    polynomial divides the irreducible minimal polynomial of x; it starts
    with 1, the constant coordinate of x^0, so it is not constant, and the
    two are equal.  Berlekamp-Massey finds it from 2n terms in O(n^2).
    Q(x) = 0, read off columns 0..deg Q of the same matrix, is asserted.
    """
    f = x.field
    p, n = f.p, f.n
    K = f.powers(x, 2 * n)
    Q = _berlekamp_massey(K[0], p)
    if linalg.matmul_mod(K[:, :len(Q)], np.array(Q, dtype=np.int64), p).any():
        raise AssertionError("Berlekamp-Massey polynomial does not vanish at x")
    return Q


def _berlekamp_massey(s: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of a sequence of residues of linear complexity <= len(s)/2.

    Massey (1969): C is the connection polynomial, s_k + sum_i C_i s_(k-i) = 0
    for L <= k < len(s), and B the one before the last length change.  L
    stays below h = len(s)/2 + 1, so each discrepancy is one dot product of h
    terms, in fppoly.word_dtype, against a window of the reversed sequence.
    Returns the reversal X^L C(1/X), ascending.
    """
    N = len(s)
    h = N // 2 + 1
    dtype = fppoly.word_dtype(h, p)
    r = np.zeros(N + h, dtype=dtype)
    r[:N] = s[::-1]                     # r[N-1-k+i] = s[k-i], 0 for i > k
    C = np.zeros(N + 1, dtype=dtype)
    C[0] = 1
    B = C.copy()
    L, LB, m, b_inv = 0, 0, 1, 1
    for k in range(N):
        d = int(C[:h] @ r[N - 1 - k:N - 1 - k + h]) % p
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
        f._order_factors = factorize(f.order() - 1)
    return f._order_factors


def multiplicative_order(x: FFElem) -> int:
    """Exact order in the multiplicative group, via factoring p^n - 1."""
    if x.is_zero():
        raise ZeroDivisionError("zero has no multiplicative order")
    f = x.field
    order = f.order() - 1
    for q in _order_factors(f):
        while order % q == 0 and (x ** (order // q)) == f.one():
            order //= q
    return order


def is_primitive(x: FFElem) -> bool:
    return not x.is_zero() and multiplicative_order(x) == x.field.order() - 1


def discrete_log(x: FFElem, base: FFElem) -> int:
    """k with base^k = x, 0 <= k < N = p^n - 1, by Pohlig-Hellman (1978).

    For each prime power q^e exactly dividing N, h = x^(N/q^e) lies in the
    subgroup of order q^e generated by g_q = base^(N/q^e); its e base-q
    digits are found one at a time, each by baby-step giant-step in the
    subgroup of order q generated by gamma_q = base^(N/q): with
    m = ceil(sqrt(q)), digit d is j - t m mod q for the first t <= m at which
    y gamma_q^(t m) is some gamma_q^j, j < m (m^2 >= q, so every residue is
    reached).  The residues mod q^e are combined by the Chinese remainder
    theorem.  k is unique mod N, so the answer is that of a search over the
    whole group.

    base must be primitive (order N).  The per-base tables (g_q, the baby
    steps of gamma_q and its giant step, the CRT coefficients) are built on
    the first call with that base and cached on the field
    (ExtField._dlog_tables, keyed by the coordinates of base); the build
    reads primitivity off the gamma_q, since base is primitive iff none is 1.
    After it, a call costs about sum over q of e log2 N + sqrt(q) products.
    A field whose full group would need more than limits.BSGS_MAX_STEPS baby
    steps is still refused before anything is built.  A zero x raises
    ZeroDivisionError, a base of another field FieldMismatch, and a base that
    is not primitive ValueError.
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
        h = x ** (N // qe)
        k_q = 0
        for i in range(e):
            # (h g^(-k_q))^(q^(e-1-i)) = gamma_q^(digit i)
            y = h * g ** (qe - k_q) if k_q else h
            if i < e - 1:
                y = y ** q ** (e - 1 - i)
            for t in range(m + 1):
                j = table.get(y.vec)
                if j is not None:
                    break
                y = y * giant
            else:
                raise AssertionError("discrete log digit not found in a subgroup of prime order")
            k_q += (j - t * m) % q * q ** i     # y gamma_q^(t m) = gamma_q^j
        k += k_q * crt
    return k % N


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
    is returned.  Cost after the build: about sum over q^e || N of
    e log2 N + sqrt(q) products, plus one power for X^j.  Raises ValueError
    when no root exists, which signals a broken Kummer constant upstream in
    this library's main use.
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
