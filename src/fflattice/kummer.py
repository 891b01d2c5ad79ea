"""Kummer algebras A_l = GF(p^l) (x) K_l and their Hilbert-90 theory.

K_l = GF(p)(zeta_l) is the Conway field of level a, the cyclotomic entry's
K itself.  Elements are l-by-a coefficient matrices over GF(p): entry (i, j)
is the coefficient of X^i (x) Y^j, where X generates the left field GF(p^l)
and Y the Conway field, so row i is a scalar in K_l's own coordinates and
zeta acts by its multiplication matrix Z.  The two one-sided Frobenius
operators, the Hilbert-90 solver, Kummer constants, scalar norms and
first-coefficient projections all live here.

Hilbert 90 is solved by a Lagrange resolvent (Allombert 2002; Brieulle, De
Feo, Doliskani, Flori and Schost 2019): sum_i sigma^i(x) (x) zeta^(-i) solves
(sigma (x) 1) alpha = (1 (x) zeta) alpha for every x, so one Krylov matrix of
the Frobenius (l mat-vecs) and one l x l by l x a product give a solution in
O(l^3 + l^2 a) word operations, with no linear system to solve.

Powers (the Kummer constant alpha^l, alpha_m^(m/l) in an embedding) use that
the p-th power map is the automorphism sigma (x) sigma: x^e walks the base-p
digits of e, with floor(log_p e) applications of sigma (x) sigma, each
O(l^2 a + l a^2), plus one product per nonzero digit beyond the first and
the binary square-and-multiply of the digit powers x^d, d < p.  Every
product (kalg_mul) is one convolution of length N = l(2a-1), by Kronecker
substitution, then two reduction-kernel products.  From N = 512 on, at the
small p where linalg's rounding bound holds, the convolution takes the FFT
route in O(N log N); below it is direct, about 4 l^2 a^2 multiply-adds.  At
p = 2 a product takes 0.22 ms at l = 117 (a = 12), 0.70 ms at l = 341 and
3.6 ms at l = 1023 (a = 10), against 1.2, 7.2 and 70 ms by the direct
correlation (one thread of a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import numpy as np

from . import fppoly, linalg, extfield
from .cyclotomic import CycloLattice
from .extfield import ExtField, FFElem


class AlgebraMismatch(ValueError):
    pass


class NotScalar(ValueError):
    """The element is not of the form 1 (x) s when it should be."""


class KummerAlg:
    """The tensor algebra GF(p^l) (x) K_l.

    The left factor is GF(p)[X]/(f) for a caller-supplied or generated
    irreducible f of degree l; the scalar factor is K_l, the Conway field of
    the cyclotomic entry, with zeta_l = entry.zeta.  Immutable after
    construction.
    """

    def __init__(self, lattice: CycloLattice, ell: int, defining_poly: list[int] | None = None,
                 seed: int = 0):
        p = lattice.p
        if ell < 1:
            raise ValueError("degree must be >= 1")
        if ell % p == 0:
            raise ValueError(f"degree {ell} is divisible by the characteristic {p}")
        self.p = p
        self.ell = ell
        self.lattice = lattice
        self.entry = lattice.entry(ell)
        self.a = self.entry.level
        self.scalar = self.entry.K
        if defining_poly is None:   # drawn polynomials were just tested; supplied ones are checked
            self.left = ExtField(p, extfield.random_irreducible(p, ell, seed), check=False)
        else:
            n = fppoly.degree(fppoly.trim([c % p for c in defining_poly]))
            if n != ell:    # before ExtField, whose irreducibility test costs O(n^3)
                raise ValueError(f"defining polynomial degree {n} does not match l = {ell}")
            self.left = ExtField(p, defining_poly)
        self._zeta_mul = self.scalar.mul_matrix(self.entry.zeta)

    # -- element constructors ------------------------------------------------------

    def _residues(self, coeffs) -> np.ndarray:
        """coeffs mod p as int64; integers of any size are reduced before the conversion."""
        return np.asarray(np.asarray(coeffs, dtype=object) % self.p, dtype=np.int64)

    def element(self, coeffs) -> "KummerElem":
        C = self._residues(coeffs)
        if C.shape != (self.ell, self.a):
            raise ValueError(f"coefficient matrix must be {self.ell} x {self.a}")
        return KummerElem(self, C)

    def zero(self) -> "KummerElem":
        return KummerElem(self, np.zeros((self.ell, self.a), dtype=np.int64))

    def one(self) -> "KummerElem":
        C = np.zeros((self.ell, self.a), dtype=np.int64)
        C[0, 0] = 1
        return KummerElem(self, C)

    def _scalar_coords(self, s) -> np.ndarray:
        """The coordinates of s in K_l, as from_scalar and scalar_mul take it."""
        if isinstance(s, FFElem):
            if s.field != self.scalar:
                raise AlgebraMismatch("scalar does not live in K_l")
            return np.array(s.vec, dtype=np.int64)
        if isinstance(s, (int, np.integer)):
            svec = np.zeros(self.a, dtype=np.int64)
            svec[0] = int(s) % self.p
            return svec
        svec = self._residues(s)
        if svec.shape != (self.a,):
            raise ValueError(f"scalar coordinate vector must have length {self.a}")
        return svec

    def from_scalar(self, s) -> "KummerElem":
        """1 (x) s, where s is an element of K_l, an integer (the scalar
        s * 1) or a coordinate vector of length a in K_l's basis."""
        C = np.zeros((self.ell, self.a), dtype=np.int64)
        C[0] = self._scalar_coords(s)
        return KummerElem(self, C)

    def __repr__(self):
        return f"KummerAlg(p={self.p}, l={self.ell}, level={self.a})"


class KummerElem:
    """Element of a KummerAlg; immutable by convention (coeffs never mutated).

    coeffs is an l x a int64 array of residues in [0, p), so a column or row
    of it is a field element's coordinate vector as it stands.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: KummerAlg, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other: "KummerElem") -> None:
        if not isinstance(other, KummerElem) or other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different Kummer algebras")

    def __add__(self, other):
        self._check(other)
        return KummerElem(self.algebra, (self.coeffs + other.coeffs) % self.algebra.p)

    def __sub__(self, other):
        self._check(other)
        return KummerElem(self.algebra, (self.coeffs - other.coeffs) % self.algebra.p)

    def __neg__(self):
        return KummerElem(self.algebra, (-self.coeffs) % self.algebra.p)

    def __mul__(self, other):
        self._check(other)
        return kalg_mul(self, other)

    def __pow__(self, e: int):
        """x^e from the base-p digits of e, most significant first.

        x^e = phi(x^(e div p)) x^(e mod p), where phi(y) = y^p is the ring
        automorphism sigma (x) sigma: frob_left then frob_right, two matrix
        products of O(l^2 a + l a^2).  The cost is floor(log_p e) applications
        of phi, one kalg_mul per nonzero digit beyond the first, and the
        squarings of the digit powers x^d, d < p, which are binary
        square-and-multiply.  For e < p that is the whole computation.
        """
        if e < 0:
            raise ValueError("negative powers not supported on algebra elements")
        digits = []
        while e:
            e, d = divmod(e, self.algebra.p)
            digits.append(d)
        if not digits:
            return self.algebra.one()
        result = None
        for d in reversed(digits):
            if result is not None:
                result = frob_right(frob_left(result))
            if not d:
                continue
            power, base = None, self
            while True:
                if d & 1:
                    power = base if power is None else power * base
                d >>= 1
                if not d:
                    break
                base = base * base
            result = power if result is None else result * power
        return result

    def __eq__(self, other):
        return (isinstance(other, KummerElem) and other.algebra is self.algebra
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def scalar_mul(self, s) -> "KummerElem":
        """Multiplication by 1 (x) s."""
        alg = self.algebra
        M = fppoly.mul_matrix(alg._scalar_coords(s), alg.scalar.reduction, alg.p)
        return KummerElem(alg, linalg.matmul_mod(self.coeffs, M.T, alg.p))

    def scalar_value(self) -> FFElem:
        """For elements 1 (x) s, the scalar s as an element of K_l."""
        if self.coeffs[1:].any():
            raise NotScalar("element has nonzero coefficients of positive X-degree")
        return FFElem(self.algebra.scalar, tuple(self.coeffs[0].tolist()))

    def __repr__(self):
        return f"KummerElem({self.coeffs.tolist()})"


def kalg_mul(u: KummerElem, v: KummerElem) -> KummerElem:
    """Bivariate product, reduced mod f in X and mod the Conway polynomial in Y.

    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4): u and v, padded to l x (2a-1) and flattened row by row,
    make one linalg.convolve_mod of length l(2a-1).  Entry (i, j) lands at
    i(2a-1) + j, and every column sum j + k <= 2a-2 stays inside its row, so
    the first (2l-1)(2a-1) entries, reshaped, are the unreduced (2l-1) x
    (2a-1) product with no carries between rows.  linalg's Overflow policy
    picks the accumulator and, for N = l(2a-1) >= 512 at small p, the FFT
    route: O(N log N), where the padding costs about 2x.  A direct
    convolution does about 4 l^2 a^2 multiply-adds, (2a-1)^2 / a^2 times
    those of the unpadded product.  Then one
    reduction-kernel product with the left field's matrix reduces the rows
    (X^l, ..., X^(2l-2)) and one with K_l's the columns.
    """
    alg = u.algebra
    p, ell, a = alg.p, alg.ell, alg.a
    w = 2 * a - 1
    A = np.zeros((ell, w), dtype=np.int64)
    B = np.zeros((ell, w), dtype=np.int64)
    A[:, :a] = u.coeffs
    B[:, :a] = v.coeffs
    C = linalg.convolve_mod(A.reshape(-1), B.reshape(-1), p)[:(2 * ell - 1) * w]
    C = fppoly.reduce(C.reshape(2 * ell - 1, w), alg.left.reduction, p)
    C = fppoly.reduce(C.T, alg.scalar.reduction, p).T
    return KummerElem(alg, C)


def frob_left(u: KummerElem, k: int = 1) -> KummerElem:
    """(sigma^k (x) 1): Frobenius on the left field, columnwise (extfield.frobenius_coords)."""
    alg = u.algebra
    return KummerElem(alg, extfield.frobenius_coords(alg.left, u.coeffs, k))


def frob_right(u: KummerElem, k: int = 1) -> KummerElem:
    """(1 (x) sigma^k): Frobenius on K_l, rowwise (extfield.frobenius_coords)."""
    alg = u.algebra
    return KummerElem(alg, extfield.frobenius_coords(alg.scalar, u.coeffs.T, k).T)


def solve_h90(alg: KummerAlg) -> KummerElem:
    """The canonical nonzero solution of (sigma (x) 1)(alpha) = (1 (x) zeta) alpha.

    alpha is the Lagrange resolvent sum_i sigma^i(X^j) (x) zeta^(-i) for the
    first j that makes it nonzero.  Each j tried costs l Frobenius mat-vecs
    (the Krylov matrix of X^j) and one l x l by l x a product.  For l > 1 the
    search starts at j = 1: X^0 is fixed by sigma, so its resolvent is
    1 (x) sum_i zeta^(-i), and the l-th roots of unity sum to zero.  j = 1
    usually suffices (the resolvent map is GF(p)-linear and nonzero).  The
    solutions form a line over the scalar field K_l; the returned
    representative is normalized so that its first nonzero left-coordinate
    scalar equals 1, making the output deterministic.
    Raises ArithmeticError when the result fails the equation, which means
    zeta is not a primitive l-th root of unity (corrupted inputs).
    """
    p, ell, a = alg.p, alg.ell, alg.a
    F, Z = alg.left.frobenius_matrix, alg._zeta_mul
    zeta_powers = linalg.krylov(Z, [1] + [0] * (a - 1), ell, p)   # a x l
    W = zeta_powers[:, [(-i) % ell for i in range(ell)]].T        # row i: zeta^(-i)
    for j in range(ell > 1, ell):
        x = np.zeros(ell, dtype=np.int64)                         # X^j
        x[j] = 1
        C = linalg.matmul_mod(linalg.krylov(F, x, ell, p), W, p)
        if C.any():
            break
    if not C.any() or not np.array_equal(linalg.matmul_mod(F, C, p),
                                         linalg.matmul_mod(C, Z.T, p)):
        raise ArithmeticError(
            f"Hilbert-90 resolvent fails (sigma (x) 1) alpha = (1 (x) zeta) alpha at "
            f"p={p}, l={ell}, level {a}; inputs are corrupted or gcd(l, p) != 1")
    i = int(np.flatnonzero(C.any(axis=1))[0])
    s = FFElem(alg.scalar, tuple(C[i].tolist()))
    return KummerElem(alg, C).scalar_mul(s.inverse())


def kummer_constant(alpha: KummerElem) -> FFElem:
    """The scalar a_l with alpha^l = 1 (x) a_l, as an element of K_l.

    Raises NotScalar when alpha^l is not a pure scalar, i.e. alpha is not a
    Hilbert-90 solution.
    """
    power = alpha ** alpha.algebra.ell
    c = power.scalar_value()
    if c.is_zero():
        raise NotScalar("Kummer constant is zero; alpha is not invertible")
    return c


def scalar_norm(gamma: KummerElem, b: int, a: int) -> KummerElem:
    """Product of the (1 (x) sigma^(ja)) conjugates for 0 <= j < b/a.

    Each conjugate is the one before it under 1 (x) sigma^a (frob_right),
    so the b/a - 1 conjugates beyond gamma cost b - a Frobenius products.
    Requires a | b | level and gamma invariant under 1 (x) sigma^b; the
    result is invariant under 1 (x) sigma^a (asserted).
    """
    alg = gamma.algebra
    if b % a or alg.a % b:
        raise ValueError(f"need a | b | level, got a={a}, b={b}, level={alg.a}")
    if frob_right(gamma, b) != gamma:
        raise ValueError("element is not invariant under 1 (x) sigma^b")
    out = conj = gamma
    for _ in range(b // a - 1):
        conj = frob_right(conj, a)
        out = out * conj
    if frob_right(out, a) != out:
        raise AssertionError("scalar norm image is not invariant under 1 (x) sigma^a")
    return out


def project_first(beta: KummerElem, ell_sub: int) -> FFElem:
    """First coefficient y_0 of beta = sum y_i (x) eta^i, eta = zeta^(l/l_sub).

    With d the level of l_sub and (G, I, S) the lattice's cached level pair
    (d, a), the rows of beta read in K_d's Conway coordinates are
    Y = S beta_I, for the l rows at once, and beta lies in
    GF(p^l) (x) GF(p)(eta) exactly when G Y = beta; for d = a, G = S = I
    and Y is beta itself.  Raises ValueError otherwise.  The embedding of
    K_d sends zeta_(l_sub) to eta, so y_0 is the zeta^0 coordinate of Y in
    K_d: zeta0_row of the cyclotomic entry of l_sub, times Y.
    No elimination runs per call.  For l_sub = l, y_0 is the first
    coordinate s of a Hilbert-90 solution, which decorate reads here, and
    the whole projection is one 1 x a by a x l product.
    """
    alg = beta.algebra
    p, ell, lattice = alg.p, alg.ell, alg.lattice
    if ell % ell_sub:
        raise ValueError(f"{ell_sub} does not divide the algebra root order {ell}")
    sub = lattice.entry(ell_sub)
    Y = beta.coeffs.T
    if sub.level < alg.a:
        pair = lattice.level_pair(sub.level, alg.a)
        Y = linalg.matmul_mod(pair.inverse, Y[pair.rows], p)
        if not np.array_equal(linalg.matmul_mod(pair.matrix, Y, p), beta.coeffs.T):
            raise ValueError("element lies outside the requested subalgebra")
    return FFElem(alg.left, tuple(linalg.matmul_mod(sub.zeta0_row, Y, p).tolist()))
