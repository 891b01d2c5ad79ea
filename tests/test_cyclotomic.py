"""Cyclotomic lattice: exact root orders, compatible embeddings, and the
standard Kummer constants."""

import random
import sys
import threading
import time

import numpy as np
import pytest

from fflattice import fppoly, extfield, linalg, standardize
from fflattice.kummer import project_first
from fflattice.lattice import StdLattice, default_lattice
from oracles import InconsistentSystem, multiplicative_order, solve

# the degree sets of tests/data/golden_dumps.txt
GOLDEN_DEGREES = {
    2: [1, 3, 5, 7, 9, 15, 21, 45, 63],
    3: [1, 2, 4, 5, 8, 10, 20, 40],
    5: [1, 2, 3, 4, 6, 12, 24],
    257: [1, 2, 3, 4, 6, 12, 24],
    65521: [1, 2, 3, 6, 12, 24, 48],
}


def test_zeta_order_exact():
    L = default_lattice(2)
    for ell in (1, 3, 5, 7, 9, 15, 21):
        e = L.entry(ell)
        assert multiplicative_order(e.zeta) == ell
        assert fppoly.degree(extfield.minimal_polynomial(e.zeta)) == e.level


def test_levels():
    L2 = default_lattice(2)
    assert [L2.level(l) for l in (1, 3, 5, 7, 9, 15)] == [1, 2, 4, 3, 6, 4]
    L3 = default_lattice(3)
    assert L3.level(2) == 1 and L3.level(8) == 2
    with pytest.raises(ValueError):
        L2.level(6)  # divisible by the characteristic


def test_embedding_sends_zeta_to_power():
    L = default_lattice(2)
    for (ell, m) in [(3, 15), (5, 15), (1, 7), (3, 9), (7, 21)]:
        img = L.embed(ell, m, L.entry(ell).zeta)
        assert img == L.entry(m).zeta ** (m // ell)
    with pytest.raises(extfield.FieldMismatch):     # K_1 = GF(2), K_7 = GF(2^3)
        L.embed(1, 7, L.entry(7).zeta)


def test_embedding_is_homomorphism():
    L = default_lattice(3)
    ell, m = 4, 8
    rng = random.Random(48)
    K = L.entry(ell).K
    for _ in range(40):
        x = K.random_element(rng)
        y = K.random_element(rng)
        assert L.embed(ell, m, x * y) == L.embed(ell, m, x) * L.embed(ell, m, y)
        assert L.embed(ell, m, x + y) == L.embed(ell, m, x) + L.embed(ell, m, y)


def embed_oracle(L, ell, m, x):
    """sum_i c_i eta^i in field arithmetic, c the zeta_l-power coordinates of x
    (solved for), eta = zeta_m^(m/l)."""
    src, dst = L.entry(ell), L.entry(m)
    eta = dst.zeta ** (m // ell)
    coords = solve(src.K.powers(src.zeta, src.level), np.array(x.vec, dtype=np.int64), L.p)
    out, cur = dst.K.zero(), dst.K.one()
    for c in coords:
        out = out + cur * int(c)
        cur = cur * eta
    return out


@pytest.mark.parametrize("p", [2, 3, 257, 65521])
def test_embedding_matches_field_arithmetic_oracle(p):
    L = default_lattice(p)
    degrees = GOLDEN_DEGREES[p]
    rng = random.Random(p)
    for ell in degrees:
        for m in (m for m in degrees if m % ell == 0):
            x = L.entry(ell).K.random_element(rng)
            y = L.embed(ell, m, x)
            assert y == embed_oracle(L, ell, m, x), (ell, m)
            assert all(type(c) is int for c in y.vec)


@pytest.mark.parametrize("p, d, a", [(2, 1, 4), (2, 2, 12), (2, 6, 12), (3, 2, 6),
                                     (257, 1, 2), (65521, 1, 2), (5, 3, 3)])
def test_level_pair_is_the_conway_embedding(p, d, a):
    # G's columns are the powers of g = X_a^((p^a-1)/(p^d-1)), and S inverts
    # its rows I; d = a is the identity with no elimination
    L = default_lattice(p)
    pair = L.level_pair(d, a)
    K = L.conway_field(a)
    g = K.gen() ** ((p ** a - 1) // (p ** d - 1))
    assert np.array_equal(pair.matrix, K.powers(g, d))
    assert np.array_equal(linalg.matmul_mod(pair.inverse, pair.matrix[pair.rows], p),
                          np.eye(d, dtype=np.int64))
    assert L.level_pair(d, a) is pair
    with pytest.raises(ValueError, match="does not divide"):
        L.level_pair(5, 12)


def test_threads_see_only_complete_level_pairs(monkeypatch):
    # a slow elimination widens the race between threads filling the same
    # pairs; each gets the one stored record, and every record is complete
    L = default_lattice(2)
    left_inverse = linalg.left_inverse

    def slow(W, q):
        time.sleep(0.005)
        return left_inverse(W, q)

    monkeypatch.setattr(linalg, "left_inverse", slow)
    pairs = [(1, 4), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12), (12, 12)]
    barrier = threading.Barrier(4, timeout=60)
    seen = [[] for _ in range(4)]

    def work(k):
        barrier.wait()
        for d, a in pairs[k:] + pairs[:k]:
            seen[k].append(((d, a), L.level_pair(d, a)))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(s) == len(pairs) for s in seen)
    for (d, a), pair in (item for s in seen for item in s):
        assert L.level_pair(d, a) is pair
        assert pair.matrix.shape == (a, d) and len(pair.rows) == d
        assert np.array_equal(linalg.matmul_mod(pair.inverse, pair.matrix[pair.rows], 2),
                              np.eye(d, dtype=np.int64))


def test_embed_reads_the_cached_level_pair(monkeypatch):
    # embed multiplies by the stored G (levels 3 -> 6 at p = 2): no power of
    # X_b, no Krylov matrix and no elimination after the first call
    L = default_lattice(2)
    x = L.entry(7).K.random_element(random.Random(7))
    want = L.embed(7, 63, x)
    assert want == embed_oracle(L, 7, 63, x)
    monkeypatch.setattr(extfield.FFElem, "__pow__", lambda *args: pytest.fail("power"))
    monkeypatch.setattr(linalg, "krylov", lambda *args: pytest.fail("Krylov matrix"))
    monkeypatch.setattr(linalg, "left_inverse", lambda *args: pytest.fail("elimination"))
    for _ in range(3):
        assert L.embed(7, 63, x) == want


def test_embedding_transitivity():
    L = default_lattice(2)
    z3 = L.entry(3).zeta
    via = L.embed(15, 45, L.embed(3, 15, z3))
    direct = L.embed(3, 45, z3)
    assert via == direct


def pullback(L, ell, m, y):
    """Oracle: the preimage of y under iota_{l,m}, by solving y against the
    powers of zeta_m^(m/l) in K_m; raises InconsistentSystem off the image."""
    src, dst = L.entry(ell), L.entry(m)
    eta = dst.zeta ** (m // ell)
    W = linalg.krylov(dst.K.mul_matrix(eta), dst.K.one().vec, src.level, L.p)
    coords = solve(W, np.array(y.vec, dtype=np.int64), L.p)
    out, cur = src.K.zero(), src.K.one()
    for c in coords:
        out = out + cur * int(c)
        cur = cur * src.zeta
    return out


def test_pullback_oracle():
    L = default_lattice(2)
    z = L.entry(5).zeta
    assert pullback(L, 5, 15, L.embed(5, 15, z)) == z
    # zeta_15 is not in the image of K_3 -> K_15 (level 2 vs level 4)
    with pytest.raises(InconsistentSystem):
        pullback(L, 3, 15, L.entry(15).zeta)


def test_constants_match_pullback():
    # abar_l and kappa_{l,m} pull back powers of zeta_(p^a-1) from the
    # complete order of the same level; the closed forms X^a and X^(-q) must
    # agree with the pullback for every divisor pair of the golden degree sets
    for p, degrees in GOLDEN_DEGREES.items():
        L = default_lattice(p)
        for ell in degrees:
            a = L.level(ell)
            N = p ** a - 1
            assert L.standard_constant(ell) == pullback(L, ell, N, L.entry(N).zeta ** a), (p, ell)
            for m in degrees:
                if m % ell:
                    continue
                b = L.level(m)
                N = p ** b - 1
                E = (b - a) * p ** (b + a) - b * p ** b + a * p ** a
                q = fppoly.exact_div(E, (p ** a - 1) * ell)
                expected = pullback(L, m, N, L.entry(N).zeta ** ((-q) % N))
                assert standardize.kappa_constant(ell, m, L) == expected, (p, ell, m)


def test_entry_eliminates_once(monkeypatch):
    # an entry keeps only the row that reads the zeta^0 coordinate: one power
    # basis of zeta (ExtField.powers, whichever route it takes: at level 4 its
    # products, at level 12 the Krylov matrix of multiplication by zeta, not
    # its transpose) and one elimination of that basis
    for p, ell in ((5, 13), (2, 117)):
        L = default_lattice(p)
        K = L.conway_field(L.level(ell))
        calls = []
        krylov, left_inverse = linalg.krylov, linalg.left_inverse
        monkeypatch.setattr(linalg, "krylov",
                            lambda M, v, k, q: calls.append(("krylov", M)) or krylov(M, v, k, q))
        monkeypatch.setattr(linalg, "left_inverse",
                            lambda W, q: calls.append(("left_inverse", W)) or left_inverse(W, q))
        e = L.entry(ell)
        monkeypatch.undo()
        powers = K.powers(e.zeta, e.level)
        if e.level < 6:
            assert [name for name, _ in calls] == ["left_inverse"]
        else:
            assert [name for name, _ in calls] == ["krylov", "left_inverse"]
            assert np.array_equal(calls[0][1], K.mul_matrix(e.zeta))
        assert np.array_equal(calls[-1][1], powers)
        assert e.zeta0_row.shape == (e.level,)
        assert linalg.matmul_mod(e.zeta0_row, powers, p).tolist() == [1] + [0] * (e.level - 1)
        assert L.entry(ell) is e


@pytest.mark.parametrize("p, ell", [(2, 21), (5, 13)])
def test_projection_at_the_root_order_reads_the_entry(monkeypatch, p, ell):
    # zeta0_row reads the zeta^0 coordinate in the zeta-power basis, and
    # decorate's projection at l_sub = l multiplies by it with no elimination
    # of its own
    dec = StdLattice(p).add_field(ell)
    e = dec.algebra.entry
    powers = e.K.powers(e.zeta, e.level)
    assert linalg.matmul_mod(e.zeta0_row, powers, p).tolist() == [1] + [0] * (e.level - 1)
    calls = []
    left_inverse = linalg.left_inverse

    def counted(W, q):
        calls.append(1)
        return left_inverse(W, q)

    monkeypatch.setattr(linalg, "left_inverse", counted)
    assert project_first(dec.alpha, ell) == dec.s
    assert not calls


def test_standard_constant_p3_l2():
    # level(2) = 1 over GF(3): K_2 = GF(3), zeta_2 = 2, and the standard
    # constant is iota^{-1}(zeta_2^1) = 2
    L = default_lattice(3)
    abar = L.standard_constant(2)
    assert abar.field.n == 1
    assert list(abar.vec) == [2]


def test_standard_constant_complete_level():
    # for ell = p^a - 1 the embedding is the identity: abar = zeta^a
    L = default_lattice(2)
    for a in (2, 3, 4):
        ell = 2 ** a - 1
        e = L.entry(ell)
        assert L.standard_constant(ell) == e.zeta ** a


def test_standard_constant_in_scalar_subfield():
    # abar_l lives in K_l and has order dividing l * something finite; spot
    # check that (alpha^l = 1 (x) abar) is consistent at the constant level:
    # abar_l^((p^a-1)/l) relates to zeta; here just check membership by order
    L = default_lattice(2)
    abar = L.standard_constant(5)
    assert abar.field == L.entry(5).K
