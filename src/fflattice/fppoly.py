"""Dense univariate polynomial arithmetic over a prime field GF(p).

Polynomials are plain Python lists of integers in [0, p), ascending degree,
with no trailing zeros; [] is the zero polynomial and its degree is -1.
The modulus p travels as an explicit argument.  All arithmetic is exact.

Reduction kernel.  For f monic of degree n, reduction_matrix(f, p) is the
n x (n-1) matrix R whose column i is X^(n+i) mod f.  A coefficient array c
of at most 2n - 1 residues reduces as c[:n] + R c[n:] mod p (reduce), so a
product modulo f is one np.convolve plus one mat-vec (mulmod).  powmod,
compose_mod, ExtField products and the Kummer-algebra product all reduce
this way; divrem remains for gcd, xgcd and invmod.

Overflow policy.  word_dtype(terms, p) is the one rule for exact sums of
products of residues: int64 when terms (p-1)^2 < 2^62, else object (Python
integers).  A convolution of two length-k arrays sums k products, R c[n:]
sums n - 1 products plus a residue, a matrix product sums its inner
dimension; mul, the reduction kernel, linalg.matmul_mod and kummer.kalg_mul
all take their dtype from it.
"""

from __future__ import annotations

import numpy as np

# p must fit a machine word with room for 64-bit accumulation
MAX_PRIME = 1 << 31


class ModulusMismatch(ValueError):
    pass


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


def word_dtype(terms: int, p: int):
    """int64 when a sum of `terms` products of residues mod p fits 62 bits, else object."""
    return np.int64 if terms * (p - 1) * (p - 1) < (1 << 62) else object


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Product of two polynomials; one np.convolve."""
    if not a or not b:
        return []
    dtype = word_dtype(min(len(a), len(b)), p)
    out = np.convolve(np.array(a, dtype=dtype), np.array(b, dtype=dtype)) % p
    return trim(out.tolist())


def reduction_matrix(f: list[int], p: int) -> np.ndarray:
    """The n x (n-1) matrix whose column i is X^(n+i) mod f, f monic of degree n >= 1.

    Built by doubling: once columns 0..k-1 are known, column k + j is X^k
    times column j, a shift plus R[:, :k] times its top k entries, so
    log2(n) blocks of matrix products fill it.  The dtype is
    word_dtype(n, p), the one reduce and mulmod compute in.
    """
    n = degree(f)
    R = np.zeros((n, n - 1), dtype=word_dtype(n, p))
    if n > 1:
        R[:, 0] = [(-c) % p for c in f[:n]]     # X^n mod f
    k = 1
    while k < n - 1:
        m = min(k, n - 1 - k)
        V = R[:, :m]
        R[k:, k:k + m] = V[:n - k]
        R[:, k:k + m] = (R[:, k:k + m] + R[:, :k] @ V[n - k:]) % p
        k += m
    return R


def reduce(c: np.ndarray, R: np.ndarray, p: int) -> np.ndarray:
    """c mod f along axis 0, for at most 2n - 1 rows of residues; R = reduction_matrix(f, p)."""
    n = R.shape[0]
    if len(c) <= n:
        return c
    return (c[:n] + R[:, :len(c) - n] @ c[n:]) % p


def mulmod(a: np.ndarray, b: np.ndarray, R: np.ndarray, p: int) -> np.ndarray:
    """a b mod f for residue arrays of length <= n in R's dtype: one convolve, one mat-vec."""
    return reduce(np.convolve(a, b) % p, R, p)


def _mulmod_lazy(a, b, m, p, R):
    """(a b mod m, R), building R = reduction_matrix(m, p) only once a product reaches deg m."""
    c = np.convolve(a, b) % p
    if len(c) < len(m):
        return c, R
    if R is None:
        R = reduction_matrix(m, p)
    return reduce(c, R, p), R


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
    """a^e mod m by square-and-multiply; e is an arbitrary-precision integer >= 0.

    Every product goes through the reduction kernel: R = reduction_matrix(m, p)
    when given, else built once a product first reaches degree deg m.
    """
    if e < 0:
        raise ValueError("negative exponent")
    n = degree(m)
    if n < 1:
        raise ValueError("modulus must have degree >= 1")
    a = mod(a, m, p) if len(a) > n else a
    if not a:
        return [] if e else [1]
    base = np.array(a, dtype=word_dtype(n, p))
    result = None
    while e:
        if e & 1:
            result = base if result is None else _mulmod_lazy(result, base, m, p, R)[0]
        e >>= 1
        if e:
            base, R = _mulmod_lazy(base, base, m, p, R)
    return [1] if result is None else trim(result.tolist())


def compose_mod(f: list[int], g: list[int], m: list[int], p: int,
                R: np.ndarray | None = None) -> list[int]:
    """f(g) mod m by Horner, g reduced mod m: deg f products through the reduction kernel.

    R = reduction_matrix(m, p) when given, else built on first need as in powmod.
    """
    if not f:
        return []
    if not g:
        return constant(f[0], p)
    dtype = word_dtype(degree(m), p)
    x = np.array(g, dtype=dtype)
    acc = np.array(f[-1:], dtype=dtype)
    for c in reversed(f[:-1]):
        acc, R = _mulmod_lazy(acc, x, m, p, R)
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
