"""Exact linear algebra mod p, cross-checked against an independent
pure-Python Gaussian elimination oracle, the solve oracle and object-dtype
products."""

import math
import random

import numpy as np
import pytest

from fflattice import fppoly, linalg
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


# -- the float64 BLAS tier at its 2^53 boundary ----------------------------------------


def object_krylov(M, v, k, p):
    M = np.asarray(M).astype(object)
    cur = np.asarray(v).astype(object) % p
    cols = []
    for _ in range(k):
        cols.append(cur)
        cur = (M @ cur) % p
    return np.array(cols, dtype=np.int64).T


def tier_prime(terms):
    """The largest prime p with terms (p-1)^2 < 2^53."""
    p = math.isqrt(((1 << 53) - 1) // terms) + 1
    while terms * (p - 1) ** 2 >= 1 << 53 or not fppoly.is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("terms", [16, 64, 100])
def test_float64_tier_boundary(terms):
    p = tier_prime(terms)
    assert terms * (p - 1) ** 2 < 1 << 53 <= (terms + 1) * (p - 1) ** 2
    rng = random.Random(terms)
    for n, tier in [(terms, np.float64), (terms + 1, np.int64)]:
        assert fppoly.blas_dtype(n, p) is tier
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


@pytest.mark.parametrize("p", [2, 3, 257, 65521, tier_prime(16), tier_prime(100)])
def test_float_mod_is_exact_below_2_53(p):
    # the largest values of the float64 tier, multiples of p and their neighbours,
    # where a floor of the rounded quotient would be off by one if it could be;
    # reduced whole (the division) and in pieces below FLOAT_MOD_MIN_ENTRIES (int64 %)
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
    got = [linalg.float_mod(c, p) for c in pieces]
    assert all(r.dtype == np.float64 for r in got) and C.astype(np.int64).tolist() == values
    want = [v % p for v in values]
    assert got[0].astype(np.int64).tolist() == want
    assert np.concatenate(got[1:]).astype(np.int64).tolist() == want
