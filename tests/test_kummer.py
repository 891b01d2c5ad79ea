"""Kummer algebras and Hilbert-90 solutions.

Multiplication is cross-checked against an independent bivariate oracle
(plain dict-based polynomial arithmetic), and the structural theorems are
exercised: the H90 property, the Kummer constant, conjugate solutions,
the scalar norm, projection and the solution decorate keeps.  Powers,
which step through the Frobenius, are checked against square-and-multiply.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fflattice import fppoly, kummer, linalg, standardize
from fflattice.cli import _valid_degrees
from fflattice.extfield import FFElem
from fflattice.kummer import KummerAlg, solve_h90, kummer_constant
from fflattice.lattice import StdLattice, default_lattice
from oracles import recover_alpha_oracle, solve
from test_extfield import square_matrices
from test_golden import DEGREES as GOLDEN_DEGREES


@functools.cache
def cached_algebra(p, ell):
    return KummerAlg(default_lattice(p), ell)


def oracle_mul(u, v):
    """Independent product: expand in (X, Y), reduce mod f(X) then mod h(Y),
    h the Conway polynomial of K_l."""
    alg = u.algebra
    p = alg.p
    f = alg.left.modulus
    h = alg.scalar.modulus
    d = {}
    U, V = u.coeffs, v.coeffs
    for i in range(alg.ell):
        for j in range(alg.a):
            if not U[i, j]:
                continue
            for k in range(alg.ell):
                for l in range(alg.a):
                    if V[k, l]:
                        key = (i + k, j + l)
                        d[key] = (d.get(key, 0) + int(U[i, j]) * int(V[k, l])) % p
    # reduce X-degree with X^ell = -(low part of f)
    xmax = max((i for (i, _) in d), default=0)
    for i in range(xmax, alg.ell - 1, -1):
        for j in [jj for (ii, jj) in list(d) if ii == i]:
            c = d.pop((i, j), 0)
            if c:
                for t in range(alg.ell):
                    r = (-f[t]) % p
                    if r:
                        key = (i - alg.ell + t, j)
                        d[key] = (d.get(key, 0) + c * r) % p
    ymax = max((j for (_, j) in d), default=0)
    for j in range(ymax, alg.a - 1, -1):
        for i in [ii for (ii, jj) in list(d) if jj == j]:
            c = d.pop((i, j), 0)
            if c:
                for t in range(alg.a):
                    r = (-h[t]) % p
                    if r:
                        key = (i, j - alg.a + t)
                        d[key] = (d.get(key, 0) + c * r) % p
    C = np.zeros((alg.ell, alg.a), dtype=np.int64)
    for (i, j), c in d.items():
        C[i, j] = c % p
    return alg.element(C)


def test_multiplication_matches_oracle():
    L = default_lattice(2)
    alg = KummerAlg(L, 3)  # 3 x 2 coefficient matrices
    rng = random.Random(32)
    for _ in range(60):
        u = alg.element([[rng.randrange(2) for _ in range(alg.a)] for _ in range(3)])
        v = alg.element([[rng.randrange(2) for _ in range(alg.a)] for _ in range(3)])
        assert u * v == oracle_mul(u, v)


def test_multiplication_matches_oracle_p3():
    L = default_lattice(3)
    alg = KummerAlg(L, 4)
    rng = random.Random(34)
    for _ in range(30):
        u = alg.element([[rng.randrange(3) for _ in range(alg.a)] for _ in range(4)])
        v = alg.element([[rng.randrange(3) for _ in range(alg.a)] for _ in range(4)])
        assert u * v == oracle_mul(u, v)


def test_algebra_ring_axioms():
    L = default_lattice(2)
    alg = KummerAlg(L, 5)
    rng = random.Random(25)
    for _ in range(30):
        u = alg.element(np.array([[rng.randrange(2) for _ in range(alg.a)] for _ in range(5)]))
        v = alg.element(np.array([[rng.randrange(2) for _ in range(alg.a)] for _ in range(5)]))
        w = alg.element(np.array([[rng.randrange(2) for _ in range(alg.a)] for _ in range(5)]))
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w
        assert (u * v) * w == u * (v * w)
        assert u * alg.one() == u


def test_h90_property():
    for p, degrees in [(2, (1, 3, 5, 9)), (3, (2, 4, 8)), (5, (2, 6))]:
        L = default_lattice(p)
        for ell in degrees:
            alg = KummerAlg(L, ell)
            alpha = solve_h90(alg)
            assert not alpha.is_zero()
            zeta = alg.entry.zeta
            assert kummer.frob_left(alpha) == alpha.scalar_mul(zeta)


def test_kummer_constant_is_scalar_and_invertible():
    L = default_lattice(2)
    alg = KummerAlg(L, 9)
    alpha = solve_h90(alg)
    a = kummer_constant(alpha)
    assert a != a.field.zero()
    # alpha^ell = 1 (x) a exactly
    assert alpha ** 9 == alg.from_scalar(a)


def test_powers_of_alpha_property():
    # alpha^k solves H90 for eta = zeta^k
    L = default_lattice(2)
    alg = KummerAlg(L, 5)
    alpha = solve_h90(alg)
    for k in (2, 3):
        beta = alpha ** k
        assert kummer.frob_left(beta) == beta.scalar_mul(alg.entry.zeta ** k)


def test_solution_line_is_one_dimensional():
    # any two solutions differ by a scalar: alpha' * alpha^(l-1) is 1 (x) s
    L = default_lattice(3)
    alg = KummerAlg(L, 4)
    alpha = solve_h90(alg)
    a = kummer_constant(alpha)
    # alpha inverse = (1 (x) a^{-1}) alpha^{l-1}
    inv = (alpha ** 3).scalar_mul(a.inverse())
    assert alpha * inv == alg.one()


def test_conjugate_solutions_scalar_ratio():
    # (1 (x) sigma) alpha solves H90 for eta = zeta^p, hence is a scalar
    # multiple of alpha^p
    L = default_lattice(2)
    alg = KummerAlg(L, 5)
    p = alg.p
    alpha = solve_h90(alg)
    a = kummer_constant(alpha)
    conj = kummer.frob_right(alpha)
    inv_alpha_p = (alpha ** (alg.ell - p)).scalar_mul(a.inverse())
    ratio = conj * inv_alpha_p
    s = ratio.scalar_value()  # raises NotScalar on failure
    assert not alg.from_scalar(s).is_zero()


def test_basis_independence_of_constant_order():
    # the multiplicative order of the Kummer constant is representation
    # independent for standard solutions (spot check with two seeds)
    from fflattice import standardize
    L = default_lattice(2)
    d1 = standardize.decorate(7, L, seed=1)
    d2 = standardize.decorate(7, L, seed=2)
    assert d1.P == d2.P


def test_scalar_norm_properties():
    L = default_lattice(2)
    b, a = 4, 2
    ell = 2 ** b - 1
    alg = KummerAlg(L, ell)
    alpha = solve_h90(alg)
    n = kummer.scalar_norm(alpha, b, a)
    # the norm is invariant under sigma^a on the right
    assert kummer.frob_right(n, a) == n
    rng = random.Random(15)
    u = alg.element(np.array([[rng.randrange(2) for _ in range(alg.a)] for _ in range(ell)]))
    v = alg.element(np.array([[rng.randrange(2) for _ in range(alg.a)] for _ in range(ell)]))
    assert kummer.scalar_norm(u * v, b, a) == kummer.scalar_norm(u, b, a) * kummer.scalar_norm(v, b, a)
    # norm commutes with sigma (x) 1
    assert kummer.scalar_norm(kummer.frob_left(u), b, a) == kummer.frob_left(kummer.scalar_norm(u, b, a))


def _level(p, ell):
    return next(a for a in range(1, ell + 1) if (p ** a - 1) % ell == 0)


def _projection_cases():
    """Reachable (p, l, l_sub), l_sub a proper divisor of l, by the level d of
    l_sub against the level a of l.  (105, 35) and (45, 1) at p = 2 have
    l a > 512; at p = 257 and 65521, d = 1 < a = 2."""
    orders = {2: (15, 45, 105), 3: (20, 26), 5: (31, 56), 257: (6,), 65521: (32,)}
    cases = {"d = 1": [], "1 < d < a": [], "d = a": []}
    for p, ells in orders.items():
        for ell in ells:
            a = _level(p, ell)
            for ell_sub in (k for k in range(1, ell) if ell % k == 0):
                d = _level(p, ell_sub)
                kind = "d = 1" if d == 1 else "d = a" if d == a else "1 < d < a"
                cases[kind].append((p, ell, ell_sub))
    return cases


PROJECTION_CASES = _projection_cases()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(cases=st.tuples(*(st.sampled_from(c) for c in PROJECTION_CASES.values())),
       seed=st.integers(0, 2 ** 32 - 1))
def test_project_first_matches_oracle(cases, seed):
    # beta = sum_i y_i (x) eta^i from random left-field y_i projects to y_0,
    # eta = zeta^(l/l_sub) built in K_l's own arithmetic; one case of each kind
    rng = random.Random(seed)
    for p, ell, ell_sub in cases:
        alg = cached_algebra(p, ell)
        d = alg.lattice.level(ell_sub)
        eta = alg.entry.zeta ** (ell // ell_sub)
        ys = [alg.left.random_element(rng) for _ in range(d)]
        C = sum(np.outer(y.vec, (eta ** i).vec) for i, y in enumerate(ys))
        beta = alg.element(C)
        assert kummer.project_first(beta, ell_sub) == ys[0], (p, ell, ell_sub)
        if d < alg.a:
            # zeta generates the whole scalar field, so y (x) zeta is outside GF(p)(eta)
            y = alg.left.gen()
            outside = beta + alg.element(np.outer(y.vec, alg.entry.zeta.vec))
            with pytest.raises(ValueError, match="outside the requested subalgebra"):
                kummer.project_first(outside, ell_sub)


def test_projection_cases_cover_every_kind():
    assert all(PROJECTION_CASES.values())
    assert (2, 105, 35) in PROJECTION_CASES["d = a"] and (2, 45, 1) in PROJECTION_CASES["d = 1"]
    with pytest.raises(ValueError, match="does not divide"):
        kummer.project_first(KummerAlg(default_lattice(2), 15).one(), 4)


def counted_left_inverse(monkeypatch):
    """Record the shape of every linalg.left_inverse call from here on."""
    calls = []
    left_inverse = linalg.left_inverse
    monkeypatch.setattr(linalg, "left_inverse",
                        lambda W, p: calls.append(W.shape) or left_inverse(W, p))
    return calls


def test_projection_eliminates_once_per_level_pair(monkeypatch):
    # p = 2: l_sub = 3 (d = 2) and 9, 21 (d = 6) inside l = 63 (a = 6) and
    # l = 45 (a = 12); l_sub = 1 (d = 1) and 5 (d = 4) inside l = 15 (a = 4)
    L = default_lattice(2)
    algs = {ell: KummerAlg(L, ell) for ell in (15, 45, 63)}
    for ell_sub in (1, 3, 5, 9, 21):
        L.entry(ell_sub)
    calls = counted_left_inverse(monkeypatch)
    rng = random.Random(63)
    for _ in range(2):
        for ell, ell_sub in [(63, 3), (63, 9), (63, 21), (45, 3), (45, 9), (15, 1), (15, 5)]:
            alg = algs[ell]
            y = alg.left.random_element(rng)
            beta = alg.element(np.outer(y.vec, alg.scalar.one().vec))    # y (x) 1
            assert kummer.project_first(beta, ell_sub) == y, (ell, ell_sub)
    # one a x d elimination for each of (d, a) = (1, 4), (2, 6), (2, 12), (6, 12);
    # (63, 9), (63, 21) and (15, 5) are d = a and run none
    assert sorted(calls) == [(4, 1), (6, 2), (12, 2), (12, 6)]
    assert sorted(L._pairs) == [(1, 4), (2, 6), (2, 12), (6, 12)]


def test_standard_embed_eliminates_nothing_once_cached(monkeypatch):
    # 1 -> 15 shares the level pair (1, 4) with 1 -> 5, and 5 -> 15 is d = a:
    # once B_1^(-1), B_5^(-1) and that level pair are cached, standard_embed
    # runs no left_inverse
    ref, lat = StdLattice(2), StdLattice(2)
    for ell in (1, 5, 15):
        ref.add_field(ell)
        lat.add_field(ell)
    want = {ell: ref.get_embedding(ell, 15) for ell in (1, 5)}
    lat.get_embedding(1, 5)
    lat.field(5).basis_inverse()
    calls = counted_left_inverse(monkeypatch)
    for ell in (1, 5):
        desc = standardize.standard_embed(lat.field(ell), lat.field(15), lat.lattice)
        assert desc == want[ell] and np.array_equal(desc.matrix, want[ell].matrix)
    assert not calls


@functools.cache
def reachable_degrees(p):
    """Degrees l <= 40 that decorate within the library's limits at p."""
    return _valid_degrees(p, 40, default_lattice(p))


def check_decorated_alpha(dec, L):
    """decorate's alpha against the oracle rebuilt from s, and the Hilbert-90,
    standard-constant and projection identities."""
    alg, alpha, ell = dec.algebra, dec.alpha, dec.ell
    assert np.array_equal(alpha.coeffs, recover_alpha_oracle(alg, dec.s))
    assert kummer.frob_left(alpha) == alpha.scalar_mul(alg.entry.zeta)
    assert alpha ** ell == alg.from_scalar(L.lattice.standard_constant(ell))
    assert kummer.project_first(alpha, ell) == dec.s


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=st.sampled_from([2, 3, 5, 7, 257]).flatmap(
    lambda p: st.sampled_from(reachable_degrees(p)).map(lambda ell: (p, ell))))
def test_decorated_alpha_property(case):
    p, ell = case
    L = StdLattice(p)
    check_decorated_alpha(L.add_field(ell), L)


@pytest.mark.parametrize("p, degrees", [(2, GOLDEN_DEGREES[2]), (3, GOLDEN_DEGREES[3]),
                                        (257, (3, 8)), (2, (19, 57, 117))])
def test_recover_alpha_matches_oracle(p, degrees):
    # the oracle rebuilds decorate's alpha from s at levels up to 18, and s
    # is the zeta^0 coordinate of alpha, solved for here
    L = StdLattice(p)
    for ell in degrees:
        dec = L.add_field(ell)
        alg = dec.algebra
        check_decorated_alpha(dec, L)
        P = alg.scalar.powers(alg.entry.zeta, alg.a)
        assert solve(P, dec.alpha.coeffs.T, p)[0].tolist() == list(dec.s.vec), (p, ell)


def test_from_left_from_scalar_commute():
    L = default_lattice(2)
    alg = KummerAlg(L, 3)
    rng = random.Random(3)
    x = alg.left.random_element(rng)
    s = alg.scalar.random_element(rng)
    C = np.zeros((alg.ell, alg.a), dtype=np.int64)
    C[:, 0] = x.vec
    x1 = alg.element(C)                                    # x (x) 1
    u = x1 * alg.from_scalar(s)
    v = alg.from_scalar(s) * x1
    assert u == v
    assert u == alg.element(linalg.matmul_mod(alg.left.mul_matrix(x),
                                              alg.from_scalar(s).coeffs, alg.p))


def test_scalar_mul_is_the_product_by_from_scalar():
    # every form of scalar: an element of K_l, an integer and a coordinate
    # vector; the same errors from both
    alg = KummerAlg(default_lattice(2), 5)
    rng = random.Random(5)
    x = random_element(alg, rng)
    for s in (alg.scalar.random_element(rng), alg.entry.zeta, 3, np.int64(1), [1, 0, 1, 1]):
        assert x.scalar_mul(s) == x * alg.from_scalar(s), s
    for wrong, error in ((default_lattice(2).entry(7).zeta, kummer.AlgebraMismatch),
                         ([1, 0], ValueError)):
        for convert in (alg.from_scalar, x.scalar_mul):
            with pytest.raises(error):
                convert(wrong)


def test_degenerate_level_one():
    # l = 1: the algebra is just GF(p), alpha is a nonzero constant
    L = default_lattice(2)
    alg = KummerAlg(L, 1)
    alpha = solve_h90(alg)
    assert alpha ** 1 == alg.from_scalar(kummer_constant(alpha))


def kernel(M, p):
    """Basis of the right kernel {v : Mv = 0}, in reduced echelon form.

    Each basis vector has a 1 in its own free column and zeros in the other
    free columns; vectors are ordered by ascending free column.  The output
    is deterministic for equal input.
    """
    M = np.asarray(M, dtype=np.int64) % p
    rows, cols = M.shape
    R, pivots = linalg._rref_loop(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r, f]) % p
        basis.append(v)
    return basis


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_kernel_annihilation_and_nullity(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        M = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                     dtype=np.int64)
        K = kernel(M, p)
        assert len(K) == cols - len(linalg._rref_loop(M, p)[1])
        for v in K:
            assert not (linalg.matmul_mod(M, v, p) % p).any()
        if K:
            assert len(linalg._rref_loop(np.array(K), p)[1]) == len(K)  # independent


def test_kernel_determinism():
    rng = random.Random(7)
    M = np.array([[rng.randrange(3) for _ in range(9)] for _ in range(6)], dtype=np.int64)
    K1 = kernel(M, 3)
    K2 = kernel(M.copy(), 3)
    assert all((a == b).all() for a, b in zip(K1, K2)) and len(K1) == len(K2)


def kernel_h90(alg):
    """Oracle: the normalized Hilbert-90 solution from a dense kernel.

    Solves (F (x) I - I (x) Z) vec(alpha) = 0 on the row-major vec of the
    l x a coefficient matrix, takes the first kernel basis vector and scales
    its first nonzero row to 1, as solve_h90 does.
    """
    p, ell, a = alg.p, alg.ell, alg.a
    F = alg.left.frobenius_matrix
    Z = alg.scalar.mul_matrix(alg.entry.zeta)
    M = (np.kron(F, np.eye(a, dtype=np.int64)) - np.kron(np.eye(ell, dtype=np.int64), Z)) % p
    basis = kernel(M, p)
    assert len(basis) == a
    C = basis[0].reshape(ell, a)
    i = next(i for i in range(ell) if C[i].any())
    s = alg.scalar.element(list(C[i]))
    return kummer.KummerElem(alg, C).scalar_mul(s.inverse())


@pytest.mark.parametrize("p, ell", [(2, 1), (2, 15), (2, 21), (2, 45), (2, 63),
                                    (3, 8), (3, 13), (3, 20),
                                    (5, 6), (5, 12), (5, 31)])
def test_resolvent_matches_kernel_oracle(p, ell):
    alg = KummerAlg(default_lattice(p), ell)
    alpha = solve_h90(alg)
    assert np.array_equal(alpha.coeffs, kernel_h90(alg).coeffs)


def left_sigma(u):
    """sigma (x) 1 by powering: each column, a left-field element, to the p-th power."""
    alg = u.algebra
    return alg.element(np.array([(alg.left.element(u.coeffs[:, j]) ** alg.p).vec
                                 for j in range(alg.a)]).T)


def right_sigma(u):
    """1 (x) sigma by powering: each row, a scalar-field element, to the p-th power."""
    alg = u.algebra
    return alg.element([(FFElem(alg.scalar, tuple(row.tolist())) ** alg.p).vec
                        for row in u.coeffs])


@pytest.mark.parametrize("p, ell", [(2, 15), (2, 7), (3, 8), (3, 13), (5, 12), (5, 1),
                                    (257, 3), (257, 6)])
def test_frobenius_powers_are_single_applications(p, ell):
    alg = KummerAlg(default_lattice(p), ell)
    u = random_element(alg, random.Random(p * ell))
    for frob, sigma, d in ((kummer.frob_left, left_sigma, alg.ell),
                           (kummer.frob_right, right_sigma, alg.a)):
        want, k = u, 0
        for target in sorted({0, 1, 2, d - 1, d, d + 1}):
            while k < target:
                want, k = sigma(want), k + 1
            assert frob(u, k) == want, (frob.__name__, k)


@pytest.mark.parametrize("p, ell", [(p, ell) for p in (2, 3, 65521) for ell in (1, 5, 48)
                                    if ell % p] + [(2 ** 31 - 1, 1), (2 ** 31 - 1, 3)])
def test_frobenius_keeps_two_square_matrices_per_field(p, ell):
    alg = KummerAlg(default_lattice(p), ell)
    u = random_element(alg, random.Random(ell))
    for frob, d in ((kummer.frob_left, alg.ell), (kummer.frob_right, alg.a)):
        for k in (0, 1, 2, d - 1, d, d + 1):
            frob(u, k)
            assert square_matrices(alg.left) == square_matrices(alg.scalar) == 2


def test_solve_h90_rejects_wrong_root_of_unity(monkeypatch):
    # l = 5 and l = 15 share level 4 at p = 2; zeta_15 is not a 5th root of unity
    L = default_lattice(2)
    alg, alg15 = KummerAlg(L, 5), KummerAlg(L, 15)
    assert alg.a == alg15.a == 4
    for name in ("entry", "scalar", "_zeta_mul"):
        monkeypatch.setattr(alg, name, getattr(alg15, name))
    with pytest.raises(ArithmeticError, match=r"p=2, l=5, level 4"):
        solve_h90(alg)


def divrem_reference_mul(u, v):
    """Schoolbook bivariate product, then each column (a polynomial in X) reduced
    mod f and each row (a polynomial in Y) reduced mod the Conway polynomial of
    K_l with fppoly.divrem."""
    alg = u.algebra
    p, ell, a = alg.p, alg.ell, alg.a
    U, V = u.coeffs.tolist(), v.coeffs.tolist()
    full = [[0] * (2 * a - 1) for _ in range(2 * ell - 1)]
    for i in range(ell):
        for j in range(a):
            if U[i][j]:
                for k in range(ell):
                    for l in range(a):
                        full[i + k][j + l] += U[i][j] * V[k][l]
    cols = [fppoly.divrem(fppoly.trim([row[j] % p for row in full]), alg.left.modulus, p)[1]
            for j in range(2 * a - 1)]
    C = np.zeros((ell, a), dtype=np.int64)
    for i in range(ell):
        row = fppoly.trim([c[i] if i < len(c) else 0 for c in cols])
        red = fppoly.divrem(row, alg.scalar.modulus, p)[1]
        C[i, :len(red)] = red
    return C


def column_convolution_oracle(u, v):
    """The product as a^2 column convolutions: column j of u against column k
    of v adds into column j + k of the (2l-1) x (2a-1) product, then the rows
    and the columns are reduced with the two fields' reduction kernels.  The
    reference for kalg_mul's single Kronecker convolution."""
    alg = u.algebra
    p, ell, a = alg.p, alg.ell, alg.a
    A, B = u.coeffs.astype(object), v.coeffs.astype(object)    # Python integers, whatever p
    C = np.zeros((2 * ell - 1, 2 * a - 1), dtype=object)
    for j in range(a):
        for k in range(a):
            C[:, j + k] += np.convolve(A[:, j], B[:, k])
    C = fppoly.reduce((C % p).astype(np.int64), alg.left.reduction, p)
    C = fppoly.reduce(C.T, alg.scalar.reduction, p).T
    return C.astype(np.int64)


def random_element(alg, rng):
    return alg.element([[rng.randrange(alg.p) for _ in range(alg.a)] for _ in range(alg.ell)])


@pytest.mark.parametrize("p, degrees", [
    (2, (3, 9, 21, 45)),          # levels 2, 6, 6, 12
    (3, (4, 13, 20)),             # levels 2, 3, 4
    (65521, (1, 5, 48)),          # level 1, int64
    (2 ** 31 - 1, (1, 3, 7)),     # level 1; int64 at l = 1, int64 digits from l = 2
    (2, (19, 57, 117)),           # levels 18, 18, 12
    (5, (21, 56)),                # level 6
    (257, (43,)),                 # level 2
])
def test_kalg_mul_matches_divrem_reference(p, degrees):
    L = default_lattice(p)
    rng = random.Random(9000 + p % 1000)
    for ell in degrees:
        alg = KummerAlg(L, ell)
        for _ in range(3):
            u, v = random_element(alg, rng), random_element(alg, rng)
            prod = kummer.kalg_mul(u, v)
            assert prod.coeffs.dtype == np.int64
            assert np.array_equal(prod.coeffs, divrem_reference_mul(u, v))


@pytest.mark.parametrize("p", sorted(GOLDEN_DEGREES))
def test_kalg_mul_matches_column_convolution_oracle(p):
    rng = random.Random(9100 + p % 1000)
    for ell in GOLDEN_DEGREES[p]:
        alg = cached_algebra(p, ell)
        for _ in range(20):
            u, v = random_element(alg, rng), random_element(alg, rng)
            assert np.array_equal(kummer.kalg_mul(u, v).coeffs,
                                  column_convolution_oracle(u, v)), (p, ell)


@pytest.mark.parametrize("c", [2 ** 64, -2 ** 70, 3 * 2 ** 63 + 1])
def test_constructors_reduce_big_integers(c):
    # the same coefficients through ExtField.element, which reduces Python ints mod p
    alg = cached_algebra(3, 4)
    x = alg.element([[c, -c]] + [[c + 1, 0]] * 3)
    for j, col in enumerate(([c] + [c + 1] * 3, [-c, 0, 0, 0])):
        assert x.coeffs[:, j].tolist() == list(alg.left.element(col).vec)
    assert alg.from_scalar([c, -c]).coeffs[0].tolist() == list(alg.scalar.element([c, -c]).vec)
    assert not alg.from_scalar([c, -c]).coeffs[1:].any()


@pytest.mark.parametrize("p, ell", [(3, 4), (2, 7)])     # levels 2 and 3
@pytest.mark.parametrize("c", [2, -1, 2 ** 64, np.int64(5)])
def test_from_scalar_puts_an_integer_at_coordinate_zero(p, ell, c):
    # an integer c is the scalar c * 1 (x) 1, not c in every coordinate
    alg = cached_algebra(p, ell)
    assert alg.a > 1
    x = alg.from_scalar(c)
    assert x == alg.one().scalar_mul(c) == alg.from_scalar([c] + [0] * (alg.a - 1))
    assert x.coeffs[0, 0] == int(c) % p
    assert not x.coeffs[0, 1:].any() and not x.coeffs[1:].any()
    for wrong in ([c], [c] * (alg.a + 1)):
        with pytest.raises(ValueError):
            alg.from_scalar(wrong)


def square_multiply_oracle(x, e):
    """x^e by binary square-and-multiply through kalg_mul: the reference for
    KummerElem.__pow__, which steps through the base-p digits of e instead."""
    if e < 0:
        raise ValueError("negative powers not supported on algebra elements")
    result = x.algebra.one()
    base = x
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


# Small algebras for each prime, levels above 1 where the Conway table reaches;
# at p = 2^31 - 1 every product from l = 2 on takes int64 digits.
POWER_DEGREES = {2: (3, 5, 9), 3: (2, 4, 13), 5: (3, 6, 13), 257: (3, 6),
                 65521: (5, 12), 2 ** 31 - 1: (3, 7)}


@pytest.mark.parametrize("p", sorted(POWER_DEGREES))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(index=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
       a=st.integers(1, 3), k=st.integers(1, 3), big=st.integers(0, 2 ** 100 - 1))
def test_power_matches_square_multiply_oracle(p, index, seed, a, k, big):
    degrees = POWER_DEGREES[p]
    ell = degrees[index % len(degrees)]
    alg = cached_algebra(p, ell)
    rng = random.Random(seed)
    x = alg.element([[rng.randrange(p) for _ in range(alg.a)] for _ in range(ell)])
    b = a * k
    for e in (0, 1, 2, p - 1, p, p + 1, p ** 2, ell, (p ** b - 1) // (p ** a - 1), big):
        assert x ** e == square_multiply_oracle(x, e), e
    assert x ** p == kummer.frob_right(kummer.frob_left(x))


def test_negative_power_rejected():
    alg = KummerAlg(default_lattice(3), 4)
    x = solve_h90(alg)
    for e in (-1, -3):
        with pytest.raises(ValueError, match="negative powers"):
            x ** e


def test_decorate_product_count(monkeypatch):
    # at p = 2 every squaring in alpha^117 is a Frobenius: one product per
    # nonzero binary digit of 117 = 1110101_2 beyond the first, for each of
    # the two Kummer constants decorate computes
    calls = []
    mul = kummer.kalg_mul

    def counted(u, v):
        calls.append(1)
        return mul(u, v)

    monkeypatch.setattr(kummer, "kalg_mul", counted)
    standardize.decorate(117, default_lattice(2))
    assert 0 < len(calls) <= 8
