"""Exact linear algebra mod p, cross-checked against an independent
pure-Python Gaussian elimination oracle, the solve oracle and object-dtype
products."""

import decimal
import functools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fflattice import extfield, fppoly, kummer, linalg
from fflattice.lattice import default_lattice
from oracles import InconsistentSystem, solve

PRIMES = [2, 3, 5, 97]


def rand_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def oracle_rank(M, p):
    # independent plain-list elimination, no numpy
    A = [list(map(int, row)) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if A[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        A[rank] = [(v * inv) % p for v in A[rank]]
        for r in range(rows):
            if r != rank and A[r][c] % p:
                f = A[r][c]
                A[r] = [(A[r][j] - f * A[rank][j]) % p for j in range(cols)]
        rank += 1
    return rank


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_oracle(p):
    rng = random.Random(p)
    for _ in range(60):
        M = rand_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8), p)
        assert len(linalg.rref(M, p)[1]) == oracle_rank(M, p)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_round_trip(p):
    rng = random.Random(200 + p)
    for _ in range(60):
        n = rng.randrange(1, 8)
        M = rand_matrix(rng, n, n, p)
        x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        b = linalg.matmul_mod(M, x, p)
        y = solve(M, b, p)
        assert (linalg.matmul_mod(M, y, p) == b % p).all()


def test_solve_inconsistent():
    M = np.array([[1, 0], [0, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    with pytest.raises(InconsistentSystem):
        solve(M, b, 5)


def full_rank_matrix(rng, m, d, p, zero_rows=0):
    """A random m x d matrix of rank d, with zero_rows of its rows zero."""
    while True:
        W = rand_matrix(rng, m, d, p)
        W[rng.sample(range(m), zero_rows)] = 0
        if len(linalg.rref(W, p)[1]) == d:
            return W


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_left_inverse_matches_solve_oracle(p):
    # square, tall, d = 1 and with zero rows: A W_I = I, A is the oracle's
    # W_I^(-1), and A y_I is the oracle's solution of W x = y for y = W x
    rng = random.Random(p % 1000 + 7)
    shapes = [(1, 1), (5, 5), (8, 8), (6, 2), (9, 4), (4, 1), (7, 1)]
    for m, d, zero_rows in [(m, d, 0) for m, d in shapes] + [(6, 3, 3), (5, 1, 4)]:
        W = full_rank_matrix(rng, m, d, p, zero_rows)
        rows, A = linalg.left_inverse(W, p)
        assert len(rows) == d and rows == sorted(set(rows)) and rows[-1] < m
        assert linalg.matmul_mod(A, W[rows], p).tolist() == np.eye(d).tolist(), (m, d)
        assert A.tolist() == solve(W[rows], np.eye(d, dtype=np.int64), p).tolist()
        if m == d:
            assert rows == list(range(d))
        x = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        y = linalg.matmul_mod(W, x, p)
        assert linalg.matmul_mod(A, y[rows], p).tolist() == x.tolist() == solve(W, y, p).tolist()


@pytest.mark.parametrize("p", [2, 5, 2 ** 31 - 1])
def test_left_inverse_rejects_dependent_columns(p):
    rng = random.Random(p % 1000 + 8)
    W = rand_matrix(rng, 6, 3, p)
    W[:, 2] = (2 * W[:, 0] + W[:, 1]) % p
    for dependent in (W, np.zeros((4, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
                      rand_matrix(rng, 2, 3, p)):
        with pytest.raises(ValueError, match="dependent columns"):
            linalg.left_inverse(dependent, p)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rows=st.integers(0, 40), cols=st.integers(0, 90), rank=st.integers(0, 40),
       zero_cols=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
@example(rows=0, cols=5, rank=0, zero_cols=0, seed=0)
@example(rows=5, cols=0, rank=0, zero_cols=0, seed=0)
@example(rows=1, cols=1, rank=1, zero_cols=0, seed=1)
@example(rows=3, cols=70, rank=3, zero_cols=0, seed=2)     # one word and a bit more
def test_packed_rref_matches_loop(rows, cols, rank, zero_cols, seed):
    # p = 2 runs on packed rows; the numpy loop is the oracle: wide, tall,
    # rank at most `rank` (a product through a rows x rank matrix), residues
    # outside 0..1 on full-rank draws, and up to zero_cols all-zero columns
    rng = np.random.default_rng(seed)
    if rank < min(rows, cols):
        M = rng.integers(0, 2, (rows, rank)) @ rng.integers(0, 2, (rank, cols)) % 2
    else:
        M = rng.integers(-3, 4, (rows, cols))
    if cols:
        M[:, rng.integers(0, cols, zero_cols)] = 0
    R, pivots = linalg.rref(M, 2)
    R_loop, pivots_loop = linalg._rref_loop(M, 2)
    assert R.dtype == np.int64 and R.shape == M.shape
    assert R.tolist() == R_loop.tolist() and pivots == pivots_loop


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=st.integers(1, 80), d=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_left_inverse_rejects_dependent_columns_at_p2(m, d, seed):
    # one column a sum of the ones before it (the zero sum included), on packed rows
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 2, (m, d))
    j = int(rng.integers(1, d))
    W[:, j] = W[:, :j] @ rng.integers(0, 2, j) % 2
    with pytest.raises(ValueError, match="dependent columns"):
        linalg.left_inverse(W, 2)


def test_determinism():
    rng = random.Random(7)
    M = rand_matrix(rng, 6, 9, 3)
    R1, piv1 = linalg.rref(M, 3)
    R2, piv2 = linalg.rref(M.copy(), 3)
    assert (R1 == R2).all() and piv1 == piv2


@pytest.mark.parametrize("p", PRIMES + [2 ** 31 - 1])
def test_krylov_columns_are_matrix_powers(p):
    rng = random.Random(p)
    M = rand_matrix(rng, 6, 6, p)
    v = rand_matrix(rng, 6, 1, p)[:, 0]
    K = linalg.krylov(M, v, 8, p)
    assert K.shape == (6, 8)
    P = np.eye(6, dtype=np.int64)   # M^i, by iterated products
    for i in range(8):
        assert (K[:, i] == linalg.matmul_mod(P, v, p)).all()
        P = linalg.matmul_mod(P, M, p)


# -- the overflow policy: tiers and their boundaries ------------------------------------


def test_word_dtype_boundary():
    # one policy, three tiers: sums of products in float64 while terms (p-1)^2 < 2^53,
    # int64 while terms (p-1)^2 < 2^62, int64 digits of the second factor (None) beyond
    p = 2 ** 31 - 1
    tier = linalg._accumulator
    assert tier(1, p) is np.int64
    assert tier(2, p) is None
    assert tier(1 << 62, 2) is None
    assert tier((1 << 62) - 1, 2) is np.int64
    assert tier((1 << 53) - 1, 2) is np.float64
    assert tier(1 << 53, 2) is np.int64
    q = 65521   # largep: float64 up to an inner dimension of 2^53 // 65520^2 = 2098176
    assert tier(2098176, q) is np.float64
    assert tier(2098177, q) is np.int64
    big = [p - 1, p - 2, p - 3]
    assert fppoly.mul(big, big, p) == schoolbook(big, big, p)


def schoolbook(a, b, p):
    """The product of two coefficient lists in Python integers, reduced mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += int(x) * int(y)
    return [c % p for c in out]


def product_oracle(A, B, p):
    """A B mod p in Python integers, A 2-D and B 1-D or 2-D."""
    A = [[int(x) for x in row] for row in A]
    if B.ndim == 1:
        return [sum(x * int(y) for x, y in zip(row, B)) % p for row in A]
    cols = [[int(x) for x in col] for col in B.T]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in A]


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("p", [3, 65521, 268435009, 2 ** 31 - 1])
def test_kernels_return_int64_residues_at_every_tier(p, dtype):
    # mat-vecs, small and BLAS-sized products and convolutions, at p whose inner
    # dimensions 1, 2, 16 and 80 fall in float64, int64 and int64 digits
    rng = random.Random(p % 1000 + 31)
    for inner in (1, 2, 16, 80):
        A = rand_matrix(rng, 80, inner, p)
        for B in (rand_matrix(rng, inner, 1, p)[:, 0], rand_matrix(rng, inner, 3, p),
                  rand_matrix(rng, inner, 80, p)):
            got = linalg.matmul_mod(A.astype(dtype), B.astype(dtype), p)
            assert got.dtype == np.int64 and got.tolist() == product_oracle(A, B, p), inner
            got = linalg.float_matmul_mod(A.astype(np.float64), B.astype(np.float64), p)
            assert got.dtype == np.float64 and got.astype(np.int64).tolist() == got.tolist()
            assert got.tolist() == product_oracle(A, B, p), inner
            C0 = rand_matrix(rng, 80, 1 if B.ndim == 1 else B.shape[1], p)
            C0 = C0[:, 0] if B.ndim == 1 else C0
            got = linalg.matmul_add_mod(C0.astype(dtype), A.astype(dtype), B.astype(dtype), p)
            want = (np.array(product_oracle(A, B, p), dtype=object) + C0.astype(object)) % p
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), inner
        for a, b in [(A[:, 0], A[:inner, -1]), (A[:, 0], A[:, -1])]:
            got = linalg.convolve_mod(a.astype(dtype), b.astype(dtype), p)
            assert got.dtype == np.int64 and got.tolist() == schoolbook(a, b, p), inner
        got = linalg.matmul_mod(A[0].astype(dtype), A[1].astype(dtype), p)     # a dot product
        assert got.dtype == np.int64 and int(got) == product_oracle(A[:1], A[1], p)[0]
    # reduce, mulmod and mul_matrix on a reduction matrix, int64 at every p
    f = extfield.random_irreducible(p, 3, 0)
    R = fppoly.reduction_matrix(f, p)
    assert R.dtype == np.int64
    T = rand_matrix(rng, 3, 3, p)
    got = linalg.matmul_mod(R[:, :1].astype(dtype), T[2:].astype(dtype), p)
    assert got.dtype == np.int64 and got.tolist() == product_oracle(R[:, :1], T[2:], p)
    x, y = T[0].astype(dtype), T[1].astype(dtype)
    want = fppoly.mod(schoolbook(T[0], T[1], p), f, p)
    M = fppoly.mul_matrix(T[0], R, p)
    assert M.dtype == np.int64
    for got in (fppoly.reduce(np.array(schoolbook(x, y, p)), R, p),
                fppoly.mulmod(x, y, R, p), linalg.matmul_mod(M, T[1], p)):
        assert got.dtype == np.int64 and fppoly.trim(got.tolist()) == want


def tier_prime(terms, bits=53, step=1):
    """The largest prime p = 1 mod step with terms (p-1)^2 < 2^bits."""
    p = math.isqrt(((1 << bits) - 1) // terms) + 1
    while terms * (p - 1) ** 2 >= 1 << bits or (p - 1) % step or not fppoly.is_prime(p):
        p -= 1
    return p


def prime_above(terms, bits, step=1):
    """The smallest prime p = 1 mod step with terms (p-1)^2 >= 2^bits."""
    p = tier_prime(terms, bits, step) + step
    while not fppoly.is_prime(p):
        p += step
    return p


def object_krylov(M, v, k, p):
    M = np.asarray(M).astype(object)
    cur = np.asarray(v).astype(object) % p
    cols = []
    for _ in range(k):
        cols.append(cur)
        cur = (M @ cur) % p
    return np.array(cols, dtype=np.int64).T


def check_matmul_boundary(terms, bits):
    p = tier_prime(terms, bits)
    assert bits == 53 and terms * (p - 1) ** 2 < 1 << 53 <= (terms + 1) * (p - 1) ** 2
    rng = random.Random(terms)
    for n, tier in [(terms, np.float64), (terms + 1, np.int64)]:
        assert linalg._accumulator(n, p) is tier
        full = np.full((n, n), p - 1, dtype=np.int64)     # every sum is n (p-1)^2, the largest
        mixed = np.array([[p - 1 - rng.randrange(2) for _ in range(n)] for _ in range(n)],
                         dtype=np.int64)                 # odd sums too
        for A in (full, mixed):
            want = ((A.astype(object) @ A.astype(object)) % p).astype(np.int64)
            assert np.array_equal(linalg.matmul_mod(A, A, p), want)
            assert np.array_equal(linalg.krylov(A, A[0], n, p), object_krylov(A, A[0], n, p))
            if tier is np.int64 and A is mixed:
                # one term past the tier, float64 rounds: the boundary is where it must be
                assert not np.array_equal(
                    (A.astype(np.float64) @ A.astype(np.float64)).astype(np.int64) % p, want)
            # C0 + A B: C0 is one more term, so the tier changes one inner dimension earlier
            inner = n - 1
            C0 = A[:, :n]
            assert linalg._accumulator(inner + 1, p) is tier
            want = ((C0.astype(object) + A[:, :inner].astype(object) @ A[:inner].astype(object))
                    % p).astype(np.int64)
            assert np.array_equal(linalg.matmul_add_mod(C0, A[:, :inner], A[:inner], p), want)


def check_convolution_boundary(terms, bits):
    # a factor of `terms` entries against one long enough for BLAS_MIN_WORK, so the
    # float64 tier is taken where it holds, at the primes on either side of the bound
    long = linalg.BLAS_MIN_WORK // terms + 1
    for p in (tier_prime(terms, bits), prime_above(terms, bits)):
        inside = terms * (p - 1) ** 2 < 1 << bits
        rng = random.Random(p)
        for a, b in [(np.full(terms, p - 1), np.full(long, p - 1)),
                     (np.array([p - 1 - rng.randrange(2) for _ in range(terms)]),
                      np.array([p - 1 - rng.randrange(2) for _ in range(long)]))]:
            want = schoolbook(a, b, p)
            assert linalg.convolve_mod(a, b, p).tolist() == want, (p, inside)
            if bits == 53 and not inside:
                assert np.convolve(a.astype(np.float64),
                                   b.astype(np.float64)).astype(np.int64).tolist() != want


def check_kalg_mul_boundary(ell, bits):
    # level 1 (p = 1 mod l): kalg_mul is the product mod f, one convolution of l terms
    # per entry; f = X^l - c, c a non-square, is irreducible as l is a power of 2
    for p in (tier_prime(ell, bits, ell), prime_above(ell, bits, ell)):
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        f = [p - c] + [0] * (ell - 1) + [1]
        alg = kummer.KummerAlg(default_lattice(p), ell, f)
        assert alg.a == 1
        rng = random.Random(p)
        full = [[p - 1]] * ell
        mixed = [[p - 1 - rng.randrange(2)] for _ in range(ell)]
        for u, v in [(full, full), (mixed, full), (mixed, mixed)]:
            got = kummer.kalg_mul(alg.element(u), alg.element(v)).coeffs
            want = fppoly.mod(schoolbook([x for x, in u], [x for x, in v], p), f, p)
            assert got.dtype == np.int64 and fppoly.trim(got[:, 0].tolist()) == want, p


TIER_CASES = [pytest.param(check_matmul_boundary, t, 53, id=str(t)) for t in (16, 64, 100)] + [
    pytest.param(check, t, bits, id=f"{name}-{t}-2^{bits}")
    for check, name, t, bits in [
        (check_convolution_boundary, "convolve", 16, 53),
        (check_convolution_boundary, "convolve", 100, 53),
        (check_convolution_boundary, "convolve", 2, 62),
        (check_convolution_boundary, "convolve", 100, 62),
        (check_kalg_mul_boundary, "kalg_mul", 64, 53),
        (check_kalg_mul_boundary, "kalg_mul", 64, 62)]]


@pytest.mark.parametrize("check, terms, bits", TIER_CASES)
def test_float64_tier_boundary(check, terms, bits):
    check(terms, bits)


def trace_oracle(A, B, p):
    """tr(A B) mod p in Python integers."""
    n, m = A.shape
    return sum(int(A[i, j]) * int(B[j, i]) for i in range(n) for j in range(m)) % p


@pytest.mark.parametrize("n, m", [(4, 4), (8, 8), (6, 10)])
def test_traces_mod_on_both_sides_of_each_tier(n, m):
    # one sum of n m products per trace: float64 while n m (p-1)^2 < 2^53, int64
    # while < 2^62, each product reduced before the sum beyond, at the primes just
    # inside and outside each bound and at p = 2^31 - 1
    terms = n * m
    primes = [tier_prime(terms, 53), prime_above(terms, 53), tier_prime(terms, 62),
              prime_above(terms, 62), 2 ** 31 - 1]
    assert [linalg._accumulator(terms, p) for p in primes] == [
        np.float64, np.int64, np.int64, None, None]
    for p in primes:
        rng = random.Random(p + terms)
        stack = np.array([np.full((n, m), p - 1)] + [rand_matrix(rng, n, m, p) for _ in range(2)]
                         + [[[p - 1 - rng.randrange(2) for _ in range(m)] for _ in range(n)]])
        for B in (np.full((m, n), p - 1), rand_matrix(rng, m, n, p)):
            for dtype in (np.int64, np.float64, object):
                got = linalg.traces_mod(stack.astype(dtype), B.astype(dtype), p)
                assert got == [trace_oracle(A, B, p) for A in stack], (p, dtype)


@pytest.mark.parametrize("terms", [2, 3, 16, 100])
def test_digit_tier_matches_object_oracles(terms):
    # past int64 the second factor goes in w-bit digits: at the primes just inside
    # and outside terms (p-1)^2 < 2^62, and at p = 2^31 - 1, on all-(p-1) factors
    # (every sum the largest) and on random ones
    big = 2 ** 31 - 1
    primes = [tier_prime(terms, 62), prime_above(terms, 62), big]
    assert [linalg._accumulator(terms, p) for p in primes] == [np.int64, None, None]
    for p in primes:
        rng = random.Random(p + terms)
        for A, B in [(np.full((3, terms), p - 1), np.full((terms, 4), p - 1)),
                     (rand_matrix(rng, 3, terms, p), rand_matrix(rng, terms, 4, p))]:
            assert linalg.matmul_mod(A, B, p).tolist() == product_oracle(A, B, p), p
            assert linalg.matmul_mod(A, B[:, 0], p).tolist() == product_oracle(A, B[:, 0], p)
            # C0 is one more term: the inner dimension terms - 1 takes the same tier
            C0 = B[:3, :4] if terms >= 3 else np.full((3, 4), p - 1)
            want = (np.array(product_oracle(A[:, 1:], B[1:], p), dtype=object) + C0) % p
            assert linalg.matmul_add_mod(C0, A[:, 1:], B[1:], p).tolist() == want.tolist(), p
            a, b = A[0], np.concatenate([B[:, 0], B[:, 1], B[:, 2]])   # terms, 3 terms entries
            assert linalg.convolve_mod(a, b, p).tolist() == schoolbook(a, b, p), p
            assert linalg.traces_mod(A[:, None, :], B[:, :1], p) == [
                trace_oracle(X[None], B[:, :1], p) for X in A], p


def test_digit_tier_past_2_16_terms():
    # at p = 2^31 - 1 from 2^16 terms on a w-bit digit holds fewer than 16 bits, so
    # residues take three digits, not two
    p, terms = 2 ** 31 - 1, 70000
    assert 63 - (terms * (p - 1)).bit_length() < 16
    rng = random.Random(terms)
    A = np.array([np.full(terms, p - 1), rand_matrix(rng, 1, terms, p)[0]])
    B = A.T[:, ::-1].copy()
    assert linalg.matmul_mod(A, B, p).tolist() == product_oracle(A, B, p)


def matrix_powers_oracle(M, k, p):
    """M^1, ..., M^k mod p in Python integers."""
    P, out = M.astype(object), []
    for _ in range(k):
        out.append(P)
        P = (P @ M.astype(object)) % p
    return out


@pytest.mark.parametrize("p", [3, 65521, tier_prime(32), prime_above(32, 53), 2 ** 31 - 1])
@pytest.mark.parametrize("n", [2, 5, 16, 17, 32])
def test_power_orbit_matches_oracles(p, n):
    # M^e v for every e <= n; tr(M^k) for k < n as squaring reaches it (k = 1, then
    # 2^j and 2^j + 2^i, i < j) and on demand for any k <= n, in every tier
    rng = random.Random(7 * n + p % 1000)
    M = rand_matrix(rng, n, n, p)
    v = rand_matrix(rng, n, 1, p)[:, 0]
    powers = matrix_powers_oracle(M, n, p)
    want = [int(np.trace(P)) % p for P in powers]      # want[k - 1] = tr(M^k)
    orbit = linalg.PowerOrbit(M, v, p)
    for skip in (0, 1, 3):
        got = list(linalg.PowerOrbit(M, v, p).traces(skip))
        ks = [k for k in range(skip + 1, n) if bin(k).count("1") <= 2]
        assert sorted(k for k, _ in got) == ks, (skip, got)
        assert all(t == want[k - 1] for k, t in got), skip
    for k in range(1, n + 1):
        assert orbit.trace(k) == want[k - 1], k
    cur = v.astype(object)
    for e in range(n + 1):
        assert orbit(e).dtype == np.int64 and orbit(e).tolist() == cur.tolist(), e
        cur = (M.astype(object) @ cur) % p


def test_power_orbit_squares_only_as_its_traces_are_read(monkeypatch):
    # an early exit stops the squaring: tr(M) needs none, 2^j and 2^j + 2^i the j-th
    p, n = 65521, 40
    rng = random.Random(41)
    M = rand_matrix(rng, n, n, p)
    calls = []
    square = linalg.float_matmul_mod
    monkeypatch.setattr(linalg, "float_matmul_mod",
                        lambda X, Y, q: calls.append(1) or square(X, Y, q))
    traces = linalg.PowerOrbit(M, rand_matrix(rng, n, 1, p)[:, 0], p).traces(0)
    assert next(traces)[0] == 1 and not calls
    for j, ks in [(1, [2, 3]), (2, [4, 5, 6]), (3, [8, 9, 10, 12])]:
        assert [next(traces)[0] for _ in ks] == ks and len(calls) == j


@pytest.mark.parametrize("p", [2, 3, 257, 65521, tier_prime(16), tier_prime(100)])
def test_float_mod_is_exact_below_2_53(p):
    # the largest values of the float64 tier, multiples of p and their neighbours,
    # where a floor of the rounded quotient would be off by one if it could be;
    # reduced whole (the division) and in pieces below FLOAT_MOD_MIN_ENTRIES (int64 %),
    # each as the product of a column by 1 through float_matmul_mod
    rng = random.Random(p)
    top = (1 << 53) - 1
    values = [top - k for k in range(300)] + [rng.randrange(1 << 53) for _ in range(600)]
    for k in [top // p - rng.randrange(1000) for _ in range(200)] + list(range(1, 200)):
        values += [k * p - 1, k * p, k * p + 1]
    values = [v for v in values if 0 <= v <= top]
    assert len(values) >= 2 * linalg.FLOAT_MOD_MIN_ENTRIES
    C = np.array(values, dtype=np.float64)
    assert C.astype(np.int64).tolist() == values
    pieces = [C] + np.array_split(C, len(values) // 100)
    assert max(len(c) for c in pieces[1:]) < linalg.FLOAT_MOD_MIN_ENTRIES
    one = np.ones((1, 1))
    got = [linalg.float_matmul_mod(c[:, None], one, p)[:, 0] for c in pieces]
    assert all(r.dtype == np.float64 for r in got) and C.astype(np.int64).tolist() == values
    want = [v % p for v in values]
    assert got[0].astype(np.int64).tolist() == want
    assert np.concatenate(got[1:]).astype(np.int64).tolist() == want


def kronecker_oracle(a, b, p):
    """The full convolution mod p from one Python-integer product: entry i of a
    packed at byte i w, w bytes wide enough that no sum carries into the next."""
    k, m = len(a), len(b)
    w = (min(k, m) * (p - 1) ** 2).bit_length() // 8 + 1

    def pack(v):
        return int.from_bytes(b"".join(int(x).to_bytes(w, "little") for x in v), "little")

    buf = (pack(a) * pack(b)).to_bytes(w * (k + m - 1), "little")
    return [int.from_bytes(buf[i * w:(i + 1) * w], "little") % p for i in range(k + m - 1)]


@functools.lru_cache(maxsize=None)
def fft_bound_oracle(k, m, p):
    """(N, bound): the least N = 2^i 3^j 5^l >= k + m - 1 found by enumeration, and
    Percival's bound at depth i + 2 j + 3 l in 60-digit decimals, as linalg's
    Overflow policy states it (twiddle error 4e, one more (1 + e) for 1/N)."""
    L = k + m - 1
    N, depth = min((2 ** i * 3 ** j * 5 ** l, i + 2 * j + 3 * l)
                   for i in range(L.bit_length() + 1) for j in range(20) for l in range(14)
                   if 2 ** i * 3 ** j * 5 ** l >= L)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e = decimal.Decimal(2) ** -53
        sqrt5 = decimal.Decimal(5).sqrt()
        growth = ((1 + e) ** (3 * depth + 1) * (1 + sqrt5 * e) ** (3 * depth + 1)
                  * (1 + 4 * e) ** (3 * depth) - 1)
        return N, decimal.Decimal(k * m).sqrt() * (p - 1) ** 2 * growth


def largest_fft_prime(k, m):
    """The largest prime at which factors of k and m entries take the FFT route."""
    lo, hi = 2, 1 << 31
    while hi - lo > 1:
        mid = (lo + hi) // 2
        inside = fft_bound_oracle(k, m, mid)[1] < decimal.Decimal("0.25")
        lo, hi = (mid, hi) if inside else (lo, mid)
    while not fppoly.is_prime(lo):
        lo -= 1
    return lo


def routed_convolution(a, b, p):
    """(convolve_mod(a, b, p), whether it took the FFT route)."""
    with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as spy:
        c = linalg.convolve_mod(a, b, p)
    return c, spy.called


@pytest.mark.parametrize("k, m", [(512, 512), (600, 2000), (2691, 2691)])
def test_fft_route_at_the_largest_prime_its_bound_admits(k, m):
    # all-(p-1) factors maximize every sum and both l2 norms: at the largest prime the
    # bound admits the route is taken and exact, squarings (b is a) included; at the
    # next prime np.correlate takes over, and the two paths agree on random factors
    p = largest_fft_prime(k, m)
    q = next(q for q in range(p + 1, 2 * p) if fppoly.is_prime(q))
    assert linalg._fft_length(k, m, p) == fft_bound_oracle(k, m, p)[0]
    assert linalg._fft_length(k, m, q) == 0
    rng = np.random.default_rng(k + m)
    for r in (p, q):
        full = np.full(k, r - 1, dtype=np.int64)
        c, routed = routed_convolution(full, np.full(m, r - 1, dtype=np.int64), r)
        assert routed == (r == p) and c.dtype == np.int64
        assert c.tolist() == kronecker_oracle(full, np.full(m, r - 1), r)
        if k == m:
            c, routed = routed_convolution(full, full, r)
            assert routed == (r == p) and c.tolist() == kronecker_oracle(full, full, r)
        a, b = rng.integers(0, r, k), rng.integers(0, r, m)
        c, routed = routed_convolution(a, b, r)
        with mock.patch.object(linalg, "FFT_MIN_LENGTH", 1 << 62):
            direct, never = routed_convolution(a, b, r)
        assert routed == (r == p) and not never
        assert c.tolist() == direct.tolist() == kronecker_oracle(a, b, r)


@pytest.mark.parametrize("p", [2, 3])
def test_fft_route_starts_at_its_threshold(p):
    # one entry short of FFT_MIN_LENGTH in either factor keeps np.correlate
    n = linalg.FFT_MIN_LENGTH
    rng = np.random.default_rng(p)
    for k, m, want in [(n - 1, n - 1, False), (n - 1, 4 * n, False), (n, n, True),
                       (4 * n, n, True)]:
        a, b = rng.integers(0, p, k), rng.integers(0, p, m)
        c, routed = routed_convolution(a, b, p)
        assert routed == want and c.tolist() == kronecker_oracle(a, b, p), (k, m)


def test_fft_route_bound_matches_its_statement():
    # the cached transform length against the bound recomputed by enumeration in
    # decimals, over lengths and primes on both sides of 1/4
    assert (largest_fft_prime(512, 512), largest_fft_prime(2691, 2691)) == (141283, 50441)
    for k, m in [(512, 512), (512, 3000), (1000, 1000), (2691, 2691), (5000, 7000)]:
        edge = largest_fft_prime(k, m)
        for p in (2, 3, 257, 65521, edge, edge + 2, 1048573, 2 ** 31 - 1):
            N, bound = fft_bound_oracle(k, m, p)
            assert linalg._fft_length(k, m, p) == (N if bound < decimal.Decimal("0.25") else 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 1100), m=st.integers(480, 1100),
       p=st.sampled_from([2, 3, 5, 257, 65521, 141283, 141307, 1048573]),
       full=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_convolve_mod_matches_python_integers(k, m, p, full, seed):
    # random or all-(p-1) factors on both sides of the threshold and of the bound
    # (p = 141283 is the largest prime the bound admits at 512 x 512, 1048573 far
    # above it): exact, and routed exactly where both hold
    rng = np.random.default_rng(seed)
    a = np.full(k, p - 1) if full else rng.integers(0, p, k)
    b = np.full(m, p - 1) if full else rng.integers(0, p, m)
    c, routed = routed_convolution(a, b, p)
    assert c.tolist() == kronecker_oracle(a, b, p)
    assert routed == (min(k, m) >= linalg.FFT_MIN_LENGTH
                      and fft_bound_oracle(k, m, p)[1] < decimal.Decimal("0.25"))
