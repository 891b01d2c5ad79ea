"""Exact linear algebra over GF(p), and the one exact product kernel.

Matrices are numpy int64 arrays with entries reduced mod p.  Gaussian
elimination is fully deterministic (first nonzero pivot, reduced row
echelon form) so that downstream canonical choices are reproducible.  At
p = 2 rref packs each row into one Python integer, bit j for column j, so
a pivot step is one XOR of the pivot row into each row that has its bit
(word-parallel rows, as in M4RI: Albrecht and Bard 2010), with no numpy call;
other p take one numpy row update per pivot.  The reduced row echelon form
is unique, so both give the same R and pivots.

Overflow policy.  Every residue array at rest is int64, at every p < 2^31,
and every product of residue arrays in the library is one of five calls:
matmul_mod (mat-vecs, matrix and batched products), matmul_add_mod (C0 +
A B, the reductions mod f, with one remainder), convolve_mod (polynomial
products), float_matmul_mod (chains that keep float64 operands: krylov's
doubling, PowerOrbit's squarings, extfield's screen) and traces_mod
(tr(A B) for each A of a stack).  Each entry sums `terms` products of
residues (the inner dimension, plus one for C0's term; the shorter
convolution factor; all n m of a trace), and _accumulator picks the dtype
that holds such sums exactly: float64 when terms (p-1)^2 < 2^53, where every partial
sum is an integer below 2^53 and no summation order a BLAS chooses can
change a bit; int64 when terms (p-1)^2 < 2^62, a bit below int64's 2^63;
else Python integers (object), from terms = 2 on at p = 2^31 - 1.
matmul_mod and convolve_mod take the float64 tier only for a matrix-matrix
product or a convolution of at least BLAS_MIN_WORK multiply-adds, where it
beats int64 despite the conversions.  Results are int64 (float64 for
float_matmul_mod) whatever the accumulator, so no caller sees the tier, and
the dtype of an input (int64, or object holding residues) never decides it.

In the float64 tier a convolution whose shorter factor has at least
FFT_MIN_LENGTH entries may take an FFT route: rfft of both factors at a
transform length N = 2^i 3^j 5^k >= k + m - 1, their product, irfft, each
entry rounded to the nearest integer, int64, % p.  The rounded value is the
exact sum when the rounding error is below 1/2.  Percival (2003; Brent and
Zimmermann, Modern Computer Arithmetic, 3.3.2) bounds the error of an FFT
product of x and y at a transform length 2^d by
|x| |y| ((1 + e)^(3d) (1 + e sqrt 5)^(3d+1) (1 + b)^(3d) - 1), with e = 2^-53,
|.| the l2 norm and b the relative error of the twiddle factors.  Here
|x| |y| <= sqrt(k m) (p-1)^2; the depth d counts each radix-3 pass as 2
levels and each radix-5 pass as 3, as if the pass were the radix-2 levels
of the next power of two; one more factor (1 + e) covers the division by a
length that is not a power of two.  numpy's pocketfft computes its twiddles
in double from tables of sines and cosines; b = 4e is assumed of them.  The
route is taken only where this bound is below 1/4, twice below 1/2: at
k = m = 512 that is every p <= 141283, at k = m = 2691 every p <= 50441.
On all-(p-1) factors at those largest p the observed error was 0.004 to
0.005, some 60 times below the bound.  numpy loads numpy.fft on its first
use, so only a process that takes the route pays for it.

Every change of basis goes through left_inverse, one rref of [W^T | I_d]
for a basis W of full column rank: the zeta-power basis of each
cyclotomic entry (for the row reading the zeta^0 coordinate), the power
bases B_l of the standard generators, the Conway embedding of each
level pair (read by every projection) and the section of an embedding
matrix.  At p = 2 each of these runs on packed rows: B_341^(-1) of the
p = 2, l = 341 field takes 13 ms instead of 0.33-0.43 s (one thread of a
2-vCPU x86-64 host).
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Products with fewer multiply-adds than this are faster in int64 than through
# the float64 conversions BLAS needs: at 16^3 a matrix product ties (3.5 vs
# 3.0 us), and a convolution at two factors of 64 (5.9 vs 6.0 us), one thread
# of a 2-vCPU x86-64 host, OpenBLAS.
BLAS_MIN_WORK = 4096


@functools.lru_cache(maxsize=None)
def _accumulator(terms: int, p: int):
    """float64, int64 or object: the dtype exact for sums of `terms` products of residues mod p."""
    bound = terms * (p - 1) * (p - 1)
    return np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 62 else object


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact A B mod p of residue arrays: mat-vec, matrix or batched product, int64 result.

    The accumulator follows the inner dimension (see Overflow policy).
    """
    acc = _accumulator(A.shape[-1], p)
    if acc is np.float64:
        if B.ndim == 2 and A.size * B.shape[-1] >= BLAS_MIN_WORK:
            return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
    elif acc is object:
        return np.asarray((A.astype(object, copy=False) @ B.astype(object)) % p, dtype=np.int64)
    C = np.remainder(A @ B, p)      # an object dot product gives a Python int
    return C.astype(np.int64) if C.dtype.hasobject else C


def matmul_add_mod(C0: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact C0 + A B mod p of residue arrays, C0 shaped like A B, int64 result: one reduction.

    A residue of C0 is below (p-1)^2 for p >= 2, one more term in each sum, so
    the accumulator follows the inner dimension plus one (see Overflow policy).
    matmul_mod stays apart so that a mat-vec pays for no addend.
    """
    acc = _accumulator(A.shape[-1] + 1, p)
    if acc is np.float64:
        if B.ndim == 2 and A.size * B.shape[-1] >= BLAS_MIN_WORK:
            C = A.astype(np.float64) @ B.astype(np.float64)
            C += C0.astype(np.float64, copy=False)
            return C.astype(np.int64) % p
    elif acc is object:
        return np.asarray((C0.astype(object) + A.astype(object) @ B.astype(object)) % p,
                          dtype=np.int64)
    C = np.remainder(C0 + A @ B, p)
    return C.astype(np.int64) if C.dtype.hasobject else C


def traces_mod(As: np.ndarray, B: np.ndarray, p: int) -> list[int]:
    """tr(A B) mod p for each n x m matrix A of the stack As (k x n x m) and an m x n B.

    tr(A B) is the sum over i, j of A_ij B_ji, one pass over A and B with no
    matrix product: the k traces are one product of As, each A flattened, with
    B^T flattened.  Each sums n m products, so the accumulator follows n m (see
    Overflow policy).
    """
    acc = _accumulator(B.size, p)
    X, y = As.reshape(len(As), -1), B.T.ravel()
    if acc is object:   # through int64, so that float64 residues become Python integers
        X, y = X.astype(np.int64), y.astype(np.int64)
    t = X.astype(acc, copy=False) @ y.astype(acc, copy=False)
    return [int(x) % p for x in t.tolist()]


# The FFT route beats np.correlate from two factors of this length: 34 against
# 41 us at 512, 151 against 788 us at 2691, one thread of a 2-vCPU x86-64
# host.  At 384 the correlation is faster, 25 against 31 us.
FFT_MIN_LENGTH = 512
# Unit roundoff of float64 and the relative error assumed of pocketfft's
# twiddle factors (see Overflow policy).
_EPS = 2.0 ** -53
_TWIDDLE_ERROR = 4 * _EPS


def _smooth_length(n: int) -> int:
    """The least 2^i 3^j 5^k >= n; for two 2691-entry factors 5400, not 8192: 151 against 198 us."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f = f5
        while f < best:
            best = min(best, f << (-(-n // f) - 1).bit_length())
            f *= 3
        f5 *= 5
    return best


@functools.lru_cache(maxsize=None)
def _fft_length(k: int, m: int, p: int) -> int:
    """The FFT transform length for factors of k and m residues mod p, or 0 where the
    rounding bound (see Overflow policy) is not below 1/4."""
    n = _smooth_length(k + m - 1)
    depth, rest = 0, n
    for radix, levels in ((2, 1), (3, 2), (5, 3)):
        while rest % radix == 0:
            rest //= radix
            depth += levels
    growth = math.expm1((3 * depth + 1) * (math.log1p(_EPS) + math.log1p(math.sqrt(5) * _EPS))
                       + 3 * depth * math.log1p(_TWIDDLE_ERROR))
    return n if math.sqrt(k * m) * (p - 1) ** 2 * growth < 0.25 else 0


def convolve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact full convolution of two nonempty residue vectors mod p, int64 result.

    An entry sums at most min(len(a), len(b)) products (see Overflow policy).
    The direct convolution is np.correlate with b reversed, the same sums at
    half the call overhead of np.convolve (1.6 against 3.3 us at 24 terms,
    one thread of a 2-vCPU x86-64 host).  Long factors take the FFT route
    where its rounding bound holds, with one forward transform when b is a.
    """
    k, m = len(a), len(b)
    short = k if k < m else m
    acc = _accumulator(short, p)
    if acc is np.float64:
        n = _fft_length(k, m, p) if short >= FFT_MIN_LENGTH else 0
        if n:
            fa = np.fft.rfft(a.astype(np.float64), n)
            fa *= fa if b is a else np.fft.rfft(b.astype(np.float64), n)
            c = np.fft.irfft(fa, n)[:k + m - 1]
            return np.rint(c, out=c).astype(np.int64) % p
        if k * m >= BLAS_MIN_WORK:
            return np.correlate(a.astype(np.float64), b[::-1].astype(np.float64),
                                "full").astype(np.int64) % p
    elif acc is object:
        return (np.correlate(a.astype(object), b[::-1].astype(object), "full") % p).astype(np.int64)
    c = np.correlate(a, b[::-1], "full") % p
    return c.astype(np.int64) if c.dtype.hasobject else c


# Below this many entries a float64 product reduces faster through int64 % p
# than by the four passes of the float64 floor.  n x n squarings through
# float_matmul_mod, int64 % p against the floor (best of 9 x 2000, one thread
# of a 2-vCPU x86-64 host, p = 3 and 65521): they tie at n = 13-15 (169-225
# entries, 3.3-3.6 us), and the floor is faster at 16 (3.5 against 3.6-3.8
# us), 24 (4.6 against 5.6 us) and 32 (5.8 against 8.4 us).
FLOAT_MOD_MIN_ENTRIES = 256


def float_matmul_mod(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """Exact X Y mod p of float64 residue arrays, float64 result, for chains that stay in float64.

    Residues are below 2^31, so float64 holds them exactly, and in the
    float64 tier C = X Y holds integers below 2^53.  From
    FLOAT_MOD_MIN_ENTRIES entries up, C mod p is C - floor(C/p) p with one
    IEEE division: a non-integer C/p lies at least 1/p below the next
    integer and fl(C/p) within half an ulp of it, less than 1/p as C < 2^53,
    so the floor is exact.  Fewer entries go through int64 % p; past the
    float64 tier the product is matmul_mod's.
    """
    if _accumulator(X.shape[-1], p) is not np.float64:
        return matmul_mod(X.astype(np.int64), Y.astype(np.int64), p).astype(np.float64)
    C = X @ Y
    if C.size < FLOAT_MOD_MIN_ENTRIES:
        return (C.astype(np.int64) % p).astype(np.float64)
    q = C / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(C, q, out=q)


def krylov(M: np.ndarray, v, k: int, p: int) -> np.ndarray:
    """The n x k int64 matrix with columns v, Mv, ..., M^(k-1) v, M an n x n residue matrix.

    In the float64 tier (see Overflow policy), for k >= 16 and 2k >= n, by
    doubling (Keller-Gehrig 1985): columns j..2j-1 are M^j times columns
    0..j-1 and M^(2j) = (M^j)^2, so about 2 log2(k) BLAS products.
    Otherwise k - 1 mat-vecs, the only way at p near 2^31.  The crossover
    was measured on one thread of a 2-vCPU x86-64 host: doubling ties the
    loop at k = 12-16 for n <= 48 and at k = n/2 for n = 117, 256 and 511.
    """
    cur = np.asarray(v, dtype=np.int64) % p
    n = cur.shape[0]
    if k >= max(16, n / 2) and _accumulator(n, p) is np.float64:
        K = np.empty((n, k), dtype=np.float64)
        K[:, 0] = cur
        P = M.astype(np.float64)
        j = 1
        while True:
            m = min(j, k - j)
            K[:, j:j + m] = float_matmul_mod(P, K[:, :m], p)
            j += m
            if j == k:
                return K.astype(np.int64)
            P = float_matmul_mod(P, P, p)
    K = np.empty((n, k), dtype=np.int64)
    if _accumulator(n, p) is object:
        M = M.astype(object)    # cast once, not on every mat-vec
    for i in range(k):
        K[:, i] = cur
        if i + 1 < k:
            cur = matmul_mod(M, cur, p)
    return K


class PowerOrbit:
    """M^e v for 0 <= e <= n and traces tr(M^k) mod p, for residues M (n x n) and v (n).

    In the float64 tier (see Overflow policy) the squares M^(2^j),
    j <= floor(log2 n), are computed in float64 as they are first needed and
    kept in one stack after the identity; M^e v is one mat-vec per set bit of
    e, and tr(M^k) one pass over two matrices of the stack (traces_mod) when k
    has at most two set bits, after the product of the others when it has
    more.  Otherwise M^e v is read off the n + 1 Krylov iterates of v
    (krylov's mat-vec loop), built on first use, which cost less than
    n^3-sized products in int64 or Python integers, and only tr(M) is known.
    """

    def __init__(self, M: np.ndarray, v: np.ndarray, p: int):
        self.M, self.v, self.p = M, v, p
        self._squaring = _accumulator(len(v), p) is np.float64
        self._stack = None
        self._iterates = None

    def _square(self, j: int) -> np.ndarray:
        """M^(2^j), float64; the stack is allocated on first use."""
        if self._stack is None:
            n = len(self.v)
            self._stack = np.empty((n.bit_length() + 1, n, n))    # I, then M^(2^j) at j + 1
            self._stack[0] = np.eye(n)
            self._stack[1] = self.M
            self._held = 2
        Q = self._stack
        while self._held <= j + 1:
            Q[self._held] = float_matmul_mod(Q[self._held - 1], Q[self._held - 1], self.p)
            self._held += 1
        return Q[j + 1]

    def trace(self, k: int) -> int | None:
        """tr(M^k) mod p for 1 <= k <= n; None for k > 1 outside the float64 tier."""
        if k == 1:
            return int(self.M.trace()) % self.p
        if not self._squaring:
            return None
        bits = [j for j in range(k.bit_length()) if k >> j & 1]
        S = self._square(bits.pop())
        P = self._square(bits[0]) if bits else self._stack[0]
        for j in bits[1:]:
            P = float_matmul_mod(P, self._square(j), self.p)
        return traces_mod(P[None], S, self.p)[0]

    def traces(self, skip: int):
        """(k, tr(M^k) mod p) for skip < k < n, in the order squaring reaches them.

        k = 1 first, from M alone; then, after each square S = M^(2^j), k = 2^j
        and k = 2^j + 2^i for i < j, one traces_mod of S against the identity
        and the squares before it.  Outside the float64 tier only k = 1.  A
        caller that stops iterating stops the squaring.
        """
        n = len(self.v)
        if skip < 1 < n:
            yield 1, self.trace(1)
        if not self._squaring:
            return
        j = 1
        while 1 << j < n:
            S = self._square(j)
            # row r of the stack gives k = 2^j for r = 0, 2^j + 2^(r-1) after it
            ks = [1 << j] + [(1 << j) + (1 << i) for i in range(j)]
            rows = [r for r, k in enumerate(ks) if skip < k < n]
            if rows:
                t = traces_mod(self._stack[rows[0]:rows[-1] + 1], S, self.p)
                yield from zip(ks[rows[0]:rows[-1] + 1], t)
            j += 1

    def __call__(self, e: int) -> np.ndarray:
        """M^e v, int64."""
        if not self._squaring:
            if self._iterates is None:
                self._iterates = krylov(self.M, self.v, len(self.v) + 1, self.p)
            return self._iterates[:, e]
        w = self.v.astype(np.float64)
        for j in range(e.bit_length()):
            if e >> j & 1:
                w = float_matmul_mod(self._square(j), w, self.p)
        return w.astype(np.int64)


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).  p = 2 runs on packed rows."""
    if p == 2:
        return _rref_gf2(M)
    return _rref_loop(M, p)


def _rref_loop(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """rref by one numpy row update per pivot, at any p."""
    R = (np.array(M, dtype=np.int64) % p).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), -1, p)
        R[r] = R[r] * inv % p
        col = R[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            R[mask] = (R[mask] - np.outer(col[mask], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def _rref_gf2(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """rref over GF(2) with each row one Python integer, bit j holding column j.

    A pivot is one XOR of the pivot row into each other row that has its
    bit, with no numpy call; the rows are packed and unpacked once.
    """
    bits = (np.array(M, dtype=np.int64) % 2).astype(np.uint8)
    rows, cols = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="little")
    w = packed.shape[1]
    data = packed.tobytes()
    R = [int.from_bytes(data[i * w:i * w + w], "little") for i in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        bit = 1 << c
        for i in range(r, rows):
            if R[i] & bit:
                break
        else:
            continue
        row = R[i]
        R[i] = R[r]
        R = [x ^ row if x & bit else x for x in R]
        R[r] = row
        pivots.append(c)
        r += 1
    packed = np.frombuffer(b"".join(x.to_bytes(w, "little") for x in R), dtype=np.uint8)
    out = np.unpackbits(packed.reshape(rows, w), axis=1, count=cols, bitorder="little")
    return out.astype(np.int64), pivots


def left_inverse(W: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """(I, A): d independent rows I of the m x d matrix W and A = W_I^(-1).

    One rref of [W^T | I_d].  Its row operations, an invertible d x d T,
    give [T W^T | T]; when W has rank d the d pivots are columns of W^T,
    the rows I of W, and T W_I^T = I_d, so T = A^T.  A square W has
    I = 0, ..., d - 1 and A = W^(-1).  Any y = W x has y_I = W_I x, so
    A y_I = x.  A pivot in the I_d block means dependent columns: ValueError.
    """
    m, d = W.shape
    R, rows = rref(np.hstack([W.T, np.eye(d, dtype=np.int64)]), p)
    if rows and rows[-1] >= m:
        raise ValueError(f"the {m} x {d} matrix has dependent columns")
    return rows, R[:, m:].T.copy()
