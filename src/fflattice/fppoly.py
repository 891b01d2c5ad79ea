"""Dense univariate polynomial arithmetic over a prime field GF(p).

Polynomials are plain Python lists of integers in [0, p), ascending degree,
with no trailing zeros; [] is the zero polynomial and its degree is -1.
The modulus p travels as an explicit argument.  All arithmetic is exact.

Reduction kernel.  For f monic of degree n, reduction_matrix(f, p) is the
n x n int64 matrix R whose column i is X^(n+i) mod f.  A coefficient array c
of at most 2n residues reduces as c[:n] + R c[n:] mod p (reduce), so a
product modulo f is one convolution plus one mat-vec (mulmod), and the
matrix of multiplication by a is one matrix product, the Toeplitz matrix of
a reduced the same way (mul_matrix).  powmod runs left to right: R's last
column, X^(2n-1), lets a multiplication by a base of degree <= 1 ride on
the squaring's reduction.  compose_mod, ExtField products and the
Kummer-algebra product reduce this way too; divrem remains for gcd, xgcd
and invmod.  Every product is linalg.convolve_mod or linalg.matmul_mod,
which keep sums exact at every p (see the Overflow policy in linalg).
"""

from __future__ import annotations

import numpy as np

from . import linalg

# p must fit a machine word with room for 64-bit accumulation
MAX_PRIME = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Validate a field characteristic; returns p."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"characteristic must be an integer >= 2, got {p!r}")
    if p >= MAX_PRIME:
        raise ValueError(f"characteristic {p} exceeds the machine-word bound {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(a: list[int]) -> int:
    return len(a) - 1


def constant(c: int, p: int) -> list[int]:
    c %= p
    return [c] if c else []


def monomial(n: int, p: int) -> list[int]:
    return [0] * n + [1]


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return trim(out)


def scale(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return trim([x * c % p for x in a])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Product of two polynomials; one linalg.convolve_mod."""
    if not a or not b:
        return []
    return trim(linalg.convolve_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                                    p).tolist())


def reduction_matrix(f: list[int], p: int) -> np.ndarray:
    """The n x n matrix whose column i is X^(n+i) mod f, f monic of degree n >= 1.

    Built by doubling: once columns 0..k-1 are known, column k + j is X^k
    times column j, a shift plus R[:, :k] times its top k entries, so
    log2(n) matrix products (linalg.matmul_add_mod) fill it.  It is int64 at
    every p.  Any other f raises ValueError: -f[:n] is X^n mod f only when
    f is monic.
    """
    n = degree(f)
    if n < 1 or f[-1] != 1:
        raise ValueError(f"reduction matrix needs a monic polynomial of degree >= 1, got {f}")
    R = np.zeros((n, n), dtype=np.int64)
    R[:, 0] = [(-c) % p for c in f[:n]]     # X^n mod f
    k = 1
    while k < n:
        m = min(k, n - k)
        V = R[:, :m]
        R[k:, k:k + m] = V[:n - k]
        R[:, k:k + m] = linalg.matmul_add_mod(R[:, k:k + m], R[:, :k], V[n - k:], p)
        k += m
    return R


def reduce(c: np.ndarray, R: np.ndarray, p: int) -> np.ndarray:
    """c mod f along axis 0, for at most 2n rows of residues; R = reduction_matrix(f, p).

    c[:n] + R c[n:] in one linalg.matmul_add_mod, so one reduction mod p.
    """
    n = R.shape[0]
    if len(c) <= n:
        return c
    return linalg.matmul_add_mod(c[:n], R[:, :len(c) - n], c[n:], p)


def mulmod(a: np.ndarray, b: np.ndarray, R: np.ndarray, p: int) -> np.ndarray:
    """a b mod f for int64 residue arrays of length <= n: one convolution, one mat-vec."""
    return reduce(linalg.convolve_mod(a, b, p), R, p)


def mul_matrix(a, R: np.ndarray, p: int) -> np.ndarray:
    """n x n int64 matrix of b -> a b mod f, for residues a of length <= n.

    R = reduction_matrix(f, p).  Column j of the product before reduction is a shifted by j: the
    (2n-1) x n Toeplitz matrix T of a.  Reduced as T[:n] + R T[n:], it is
    one linalg.matmul_add_mod.
    """
    n = R.shape[0]
    W = np.zeros((n, 2 * n), dtype=np.int64)
    W[:, :len(a)] = a
    # column j of T is n zeros after column j - 1's copy of a: W's rows end to end
    T = W.reshape(-1)[:n * (2 * n - 1)].reshape(n, 2 * n - 1).T
    return linalg.matmul_add_mod(T[:n], R[:, :n - 1], T[n:], p)


def divrem(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder with deg r < deg b.  b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    r = list(a)
    db = degree(b)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if r[i]:
            c = r[i] * inv_lead % p
            q[i - db] = c
            for j, y in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * y) % p
    return trim(q), trim(r)


def mod(a: list[int], b: list[int], p: int) -> list[int]:
    return divrem(a, b, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended gcd: returns (g, u, v) monic with u*a + v*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divrem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        raise ValueError("xgcd(0, 0) is undefined")
    c = pow(r0[-1], -1, p)
    return scale(r0, c, p), scale(s0, c, p), scale(t0, c, p)


def invmod(a: list[int], m: list[int], p: int) -> list[int]:
    """Inverse of a modulo m; a must be coprime to m."""
    g, u, _ = xgcd(a, m, p)
    if degree(g) != 0:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return mod(u, m, p)


def powmod(a: list[int], e: int, m: list[int], p: int,
           R: np.ndarray | None = None) -> list[int]:
    """a^e mod m, left to right over the bits of e; e is an arbitrary-precision integer >= 0.

    Every product goes through the reduction kernel: R = reduction_matrix(m, p)
    when given, else built up front from m made monic, which changes no
    remainder (one mod m is one mod c m for a unit c).  A base
    of degree <= 1 multiplies the unreduced square (degree <= 2n - 1, within
    R's last column), so each bit of e costs one reduction.  For the base X
    the leading bits of e, as long as they read k < 2n, give X^k directly:
    a monomial, or column k - n of R; after them a bit b costs one square s,
    and X^b s mod m is one reduction (linalg.matmul_add_mod), so the shift
    by X needs no product of its own.  A constant base c gives c^e
    mod p by integer powering, with no product mod m.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if R is None:
        m = monic(trim(list(m)), p)
        R = reduction_matrix(m, p)
    n = degree(m)
    a = mod(a, m, p) if len(a) > n else a
    if not a:
        return [] if e else [1]
    if len(a) == 1:
        return trim([pow(int(a[0]), e, p)])
    if e == 0:
        return [1]
    base = np.array(a, dtype=np.int64)
    bits = bin(e)[3:]           # the bits after the leading one
    acc = base
    if a == [0, 1]:
        k = 1
        while bits and 2 * k + int(bits[0]) < 2 * n:
            k, bits = 2 * k + int(bits[0]), bits[1:]
        if k < n:
            acc = np.zeros(k + 1, dtype=base.dtype)
            acc[k] = 1
        else:
            acc = R[:, k - n]
            for bit in bits:    # k >= n: X^b times the square, one reduction
                c = linalg.convolve_mod(acc, acc, p)
                if bit == "1":  # X c: the low n coefficients of c shifted up by one
                    low = np.zeros(n, dtype=np.int64)
                    low[1:] = c[:n - 1]
                    acc = linalg.matmul_add_mod(low, R, c[n - 1:], p)
                else:
                    acc = reduce(c, R, p)
            return trim(acc.tolist())
    for bit in bits:
        c = linalg.convolve_mod(acc, acc, p)
        if bit == "1":
            if len(a) > 2:
                c = reduce(c, R, p)
            c = linalg.convolve_mod(c, base, p)
        acc = reduce(c, R, p)
    return trim(acc.tolist())


def compose_mod(f: list[int], g: list[int], m: list[int], p: int,
                R: np.ndarray | None = None) -> list[int]:
    """f(g) mod m by Horner, g reduced mod m: deg f products through the reduction kernel.

    R = reduction_matrix(m, p) when given, else built up front from m made
    monic, as in powmod.
    """
    if not f:
        return []
    if not g:
        return constant(f[0], p)
    if R is None:
        R = reduction_matrix(monic(trim(list(m)), p), p)
    x = np.array(g, dtype=np.int64)
    acc = np.array(f[-1:], dtype=np.int64)
    for c in reversed(f[:-1]):
        acc = reduce(linalg.convolve_mod(acc, x, p), R, p)
        acc[0] = (acc[0] + c) % p
    return trim(acc.tolist())


def exact_div(a: int, b: int) -> int:
    """Integer division that must be exact; a remainder signals an upstream bug."""
    if b == 0:
        raise ZeroDivisionError("exact_div by zero")
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def to_string(a: list[int]) -> str:
    """Human-readable sparse form, descending monomials, e.g. 'x^15+x+1'."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            coef = "" if c == 1 else str(c)
            if i == 1:
                parts.append(f"{coef}x")
            else:
                parts.append(f"{coef}x^{i}")
    return "+".join(parts)
