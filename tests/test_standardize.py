"""Decoration and standard embeddings: golden standard polynomials,
representation independence, the closed-form kappa constant, and the
norm key identity."""

import copy
import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fflattice import fppoly, extfield, kummer, linalg, standardize
from fflattice.cli import _valid_degrees
from fflattice.extfield import ExtField, FFElem
from fflattice.lattice import StdLattice, default_lattice
from oracles import kummer_embedding

# the first ten standard polynomials for p = 2, ascending coefficients
GOLDEN_P2 = {
    1: [1, 1],
    3: [1, 1, 0, 1],
    5: [1, 0, 0, 1, 0, 1],
    7: [1, 1, 0, 0, 0, 0, 0, 1],
    9: [1, 0, 1, 0, 1, 0, 0, 1, 0, 1],
    11: [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1],
    13: [1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1],
    15: [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    17: [1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1],
    19: [1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1],
}


def test_standard_polynomials_p2():
    L = default_lattice(2)
    for ell, want in GOLDEN_P2.items():
        assert standardize.standard_polynomial(ell, L) == want, f"l = {ell}"


def test_standard_polynomial_p3_degree2():
    # brute force oracle: over GF(9) = GF(3)[Y]/C_2 with zeta_2 = -1 and
    # abar_2 = 2, the standard solutions of x^2 = 2 with sigma(x) = -x pin
    # down s up to conjugacy, so P_2 = x^2 + 1 (= x^2 - 2 would need 2
    # to be a square; minimal polynomial of a square root of 2 = -1)
    L = default_lattice(3)
    assert standardize.standard_polynomial(2, L) == [1, 0, 1]


def test_standard_polynomial_p3_degree2_oracle():
    # independent check: s^2 = abar_2 = -1 in GF(9), so its minimal
    # polynomial over GF(3) must be x^2 + 1
    L = default_lattice(3)
    d = standardize.decorate(2, L)
    assert d.s * d.s == d.field.one() * 2  # s^2 = 2 = -1 mod 3
    assert d.P == [1, 0, 1]


def test_uniqueness_across_representations():
    cases = [(2, 7), (2, 9), (2, 15), (3, 4), (3, 8), (5, 6), (7, 4)]
    for p, ell in cases:
        L = default_lattice(p)
        polys = {tuple(standardize.standard_polynomial(ell, L, seed=s)) for s in (0, 1, 2)}
        assert len(polys) == 1, f"P_{ell} over GF({p}) depends on the representation"


def test_decorated_generator_generates():
    for p, ell in [(2, 9), (3, 4), (5, 6)]:
        L = default_lattice(p)
        d = standardize.decorate(ell, L)
        assert fppoly.degree(extfield.minimal_polynomial(d.s)) == ell
        assert d.level == L.level(ell)


def test_alpha_recovery_consistent():
    L = default_lattice(2)
    d1 = standardize.decorate(9, L)
    d2 = standardize.decorate(9, L, defining_poly=d1.field.modulus)
    # two decorations over one modulus keep the same alpha (different
    # algebra instances, so compare coefficient matrices), whose first
    # coordinate is s
    assert (d1.alpha.coeffs == d2.alpha.coeffs).all()
    for d in (d1, d2):
        assert kummer.project_first(d.alpha, d.ell) == d.s


def test_kappa_examples():
    L = default_lattice(2)
    # kappa_{3,15} = zeta_15^7
    k = standardize.kappa_constant(3, 15, L)
    assert k == L.entry(15).zeta ** 7
    # equal levels give kappa = 1: level(5) = level(15) = 4
    assert L.level(5) == L.level(15)
    k2 = standardize.kappa_constant(5, 15, L)
    assert k2 == L.entry(15).K.one()
    # identity embedding
    assert standardize.kappa_constant(15, 15, L) == L.entry(15).K.one()


def test_constants_build_no_complete_entry():
    # abar_l and kappa_{l,m} are powers of the Conway generator: decorating
    # and embedding build cyclotomic entries for l and m only, not for the
    # complete orders p^a - 1 (8 and 80 here)
    L = default_lattice(3)
    src = standardize.decorate(4, L)
    dst = standardize.decorate(20, L)
    standardize.standard_embed(src, dst, L)
    assert sorted(L._cache) == [4, 20]


def test_standard_embedding_image():
    L = default_lattice(2)
    src = standardize.decorate(3, L)
    dst = standardize.decorate(15, L)
    desc = standardize.standard_embed(src, dst, L)
    assert extfield.minimal_polynomial(desc.s_image) == src.P


def test_standard_embed_rejects_a_wrong_image(monkeypatch):
    # the root check P_l(t) = 0 is live: t + 1 is not a root of P_3 = x^3 + x + 1
    L = default_lattice(2)
    src = standardize.decorate(3, L)
    dst = standardize.decorate(15, L)
    project = kummer.project_first
    monkeypatch.setattr(kummer, "project_first", lambda beta, ell: project(beta, ell) + 1)
    with pytest.raises(AssertionError, match="not a root of P_l"):
        standardize.standard_embed(src, dst, L)


@pytest.mark.parametrize("p, degrees", [(2, (3, 9, 15)), (3, (4, 13, 20)), (5, (6, 21))])
def test_prime_field_embedding_takes_the_kummer_constant(monkeypatch, p, degrees):
    # for l = 1, alpha_m^m = 1 (x) abar_m: standard_embed powers nothing in
    # the algebra, and its image is the one the power gives, s_1 as a
    # constant of GF(p^m)
    L = default_lattice(p)
    src = standardize.decorate(1, L)
    for m in degrees:
        ref = standardize.decorate(m, L)
        beta = (ref.alpha ** m).scalar_mul(standardize.kappa_constant(1, m, L))
        want = kummer.project_first(beta, 1)
        dst = standardize.decorate(m, L)
        calls = []
        monkeypatch.setattr(kummer.KummerElem, "__pow__", lambda *args: calls.append(args))
        desc = standardize.standard_embed(src, dst, L)
        monkeypatch.undo()
        assert not calls, m
        assert desc.s_image == want, m
        assert desc.s_image.vec == src.s.vec + (0,) * (m - 1), m


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@pytest.mark.parametrize("p, m", [(2, 105), (5, 56)])
def test_alpha_powers_kept_per_target(p, m):
    # every embedding into GF(p^m) from l > 1 reads alpha_m^(m/l) from one
    # chain on the target, kept for the proper divisors m/l of m and never
    # for l = 1 (the Kummer constant) or l = m (alpha_m itself)
    L = StdLattice(p)
    for ell in divisors(m):
        L.add_field(ell)
    dst = L.field(m)
    for ell in reversed(divisors(m)):
        L.get_embedding(ell, m)
    kept = {m // ell for ell in divisors(m) if 1 < ell < m}
    assert set(dst._alpha_powers) == kept and len(kept) == len(divisors(m)) - 2
    assert dst.alpha_power(1) is dst.alpha
    for ell in divisors(m)[1:]:
        e = m // ell
        assert dst.alpha_power(e) == dst.alpha ** e, ell
        assert e == 1 or dst.alpha_power(e) is dst._alpha_powers[e]


@pytest.mark.parametrize("p, m", [(2, 105), (5, 56)])
def test_alpha_chain_takes_fewer_products(monkeypatch, p, m):
    # the Kummer products of every embedding into GF(p^m), against those of
    # alpha_m^(m/l) from scratch for each pair
    L = StdLattice(p)
    for ell in divisors(m):
        L.add_field(ell)
    dst = L.field(m)
    calls = []
    kalg_mul = kummer.kalg_mul
    monkeypatch.setattr(kummer, "kalg_mul", lambda u, v: calls.append(1) or kalg_mul(u, v))
    for ell in divisors(m)[:-1]:
        L.get_embedding(ell, m)
    chained = len(calls)
    calls.clear()
    for ell in divisors(m)[1:-1]:
        dst.alpha ** (m // ell)
    assert chained < len(calls)


def test_target_embedding_builds_no_target_matrix(monkeypatch):
    # 13 -> 117 at p = 2 needs 1, t, ..., t^13 in GF(2^117): 12 products, and
    # no 117 x 117 matrix of multiplication by t or its Krylov matrix
    L = default_lattice(2)
    src = standardize.decorate(13, L)
    dst = standardize.decorate(117, L)
    src.basis_inverse()
    calls = []
    mul_matrix, krylov = fppoly.mul_matrix, linalg.krylov
    monkeypatch.setattr(fppoly, "mul_matrix",
                        lambda a, R, q: calls.append(R.shape) or mul_matrix(a, R, q))
    monkeypatch.setattr(linalg, "krylov",
                        lambda M, v, k, q: calls.append(M.shape) or krylov(M, v, k, q))
    desc = standardize.standard_embed(src, dst, L)
    monkeypatch.undo()
    assert (117, 117) not in calls
    assert extfield.minimal_polynomial(desc.s_image) == src.P


def test_standard_embed_returns_embedding_matrix():
    # E = [1, t, ..., t^(l-1)] B_l^(-1): E B_l is the image powers, E s_l = t
    L = default_lattice(3)
    src = standardize.decorate(4, L)
    dst = standardize.decorate(20, L)
    desc = standardize.standard_embed(src, dst, L)
    E, t = desc.matrix, desc.s_image
    assert E.shape == (20, 4)
    B = src.field.powers(src.s, 4)
    assert np.array_equal(linalg.matmul_mod(E, B, 3), dst.field.powers(t, 4))
    assert linalg.matmul_mod(E, np.array(src.s.vec), 3).tolist() == list(t.vec)
    assert src.basis_inverse() is src.basis_inverse()
    assert desc == standardize.EmbeddingDesc(4, 20, t)   # E is not compared


def test_embed_exponent_divisibility():
    # the exponent E / ((p^a - 1) l) must divide exactly for many pairs
    for p in (2, 3, 5):
        L = default_lattice(p)
        pairs = [(1, 2), (2, 4), (1, 4)] if p != 2 else [(1, 3), (3, 9), (5, 15), (3, 15), (7, 21)]
        for (ell, m) in pairs:
            standardize.kappa_constant(ell, m, L)  # raises on inexact division


def test_baseline_embedding():
    L = default_lattice(2)
    F3 = ExtField(2, extfield.random_irreducible(2, 3, seed=7))
    F15 = ExtField(2, extfield.random_irreducible(2, 15, seed=7))
    s, t = standardize.baseline_embed(F3, F15, L)
    assert extfield.minimal_polynomial(s) == extfield.minimal_polynomial(t)
    assert fppoly.degree(extfield.minimal_polynomial(s)) == 3


@functools.cache
def reachable_pairs(p):
    """(l, m), 1 < l < m <= 40, l | m, both degrees reachable at p."""
    degrees = _valid_degrees(p, 40, default_lattice(p))
    return [(ell, m) for m in degrees for ell in degrees if 1 < ell < m and m % ell == 0]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=st.sampled_from([2, 3, 5, 65521]).flatmap(
    lambda p: st.sampled_from(reachable_pairs(p)).map(lambda lm: (p, *lm))))
def test_standard_embedding_is_baseline_up_to_frobenius(case):
    # two embeddings GF(p^l) -> GF(p^m) differ by an automorphism of GF(p^l),
    # so the baseline image t of s is a Frobenius conjugate of its standard
    # image
    p, ell, m = case
    L = StdLattice(p)
    for n in (ell, m):
        L.add_field(n)
    s, t = standardize.baseline_embed(L.field(ell).field, L.field(m).field, L.lattice)
    image = L.embed_eval(ell, m, s)
    assert t in [extfield.frobenius(image, k) for k in range(ell)]


LEVEL_ONE_PRIMES = [3, 5, 7, 13, 257, 65521, 268435009]


@functools.cache
def level_one_lattice(p):
    return StdLattice(p)


def level_one_field(p, n):
    """The decorated GF(p^n), n | p - 1, decorated once per (p, n)."""
    return level_one_lattice(p).add_field(n)


@functools.cache
def level_one_pairs(p):
    """(l, m), l | m | p - 1, m <= 48: every field of level 1."""
    degrees = [m for m in range(1, 49) if (p - 1) % m == 0]
    return [(ell, m) for m in degrees for ell in degrees if m % ell == 0]


def cold(dec):
    """A copy of a decorated field without the caches built on demand; the
    powers that decorate kept at level 1 stay."""
    return dataclasses.replace(dec)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=st.sampled_from(LEVEL_ONE_PRIMES).flatmap(
    lambda p: st.sampled_from(level_one_pairs(p)).map(lambda lm: (p, *lm))))
def test_level_one_closed_form_is_the_kummer_route(case):
    # t = s_m^(m/l) (kappa_{l,m} = 1 for l and m of one level) and B_l^(-1)
    # from the trace-dual basis give the t and E of the general Kummer route
    p, ell, m = case
    lattice = level_one_lattice(p).lattice
    assert standardize.kappa_constant(ell, m, lattice) == 1
    src, dst = level_one_field(p, ell), level_one_field(p, m)
    t, E = kummer_embedding(src, dst, lattice)
    desc = standardize.standard_embed(cold(src), cold(dst), lattice)
    assert desc.s_image == t and np.array_equal(desc.matrix, E)


@pytest.mark.parametrize("p, ell", [(3, 2), (5, 4), (7, 6), (13, 12), (257, 32), (65521, 1),
                                    (65521, 48), (268435009, 36)])
def test_level_one_basis_inverse_is_the_left_inverse(p, ell):
    dec = cold(level_one_field(p, ell))
    want = linalg.left_inverse(dec.field.powers(dec.s, ell), p)[1]
    assert np.array_equal(dec.basis_inverse(), want)


def test_level_one_decoration_checks_the_standard_polynomial(monkeypatch):
    # the closed forms hold for P_l = X^l - abar_l only, so decorate checks
    # its Berlekamp-Massey P_l against the standard constant before it keeps
    # the powers that the embeddings into and out of the field read
    helper = extfield.minimal_polynomial_and_powers

    def wrong(x):
        P, K = helper(x)
        return P[:-2] + [1, 1], K

    monkeypatch.setattr(extfield, "minimal_polynomial_and_powers", wrong)
    with pytest.raises(AssertionError, match=r"P_6 is not X\^6 - abar_6"):
        standardize.decorate(6, level_one_lattice(13).lattice)


# the degree sets of the largep benchmark workload
LARGEP_DEGREES = {
    65521: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18, 20, 21, 24, 26, 28, 30, 35,
            36, 39, 40, 42, 45, 48],
    257: [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 43, 48],
}


@pytest.mark.parametrize("p, degrees", [*LARGEP_DEGREES.items(), (2, [1, 3, 5, 15]),
                                        (3, [1, 2, 4, 5, 20]), (5, [1, 2, 3, 4, 6])])
def test_level_one_fields_keep_their_first_powers(p, degrees):
    # decorate keeps 1, s, ..., s^l of its minimal polynomial's Krylov
    # matrix at level 1 and nothing above; they are neither compared,
    # printed nor serialized
    L = StdLattice(p)
    for ell in degrees:
        dec = L.add_field(ell)
        if dec.level > 1:
            assert dec.powers is None, ell
            continue
        assert np.array_equal(dec.powers, dec.field.powers(dec.s, ell + 1)), ell
        # copied as perfbench copies fields, sharing the cyclotomic lattice
        twin = copy.deepcopy(dec, {id(L.lattice): L.lattice})
        assert np.array_equal(twin.powers, dec.powers), ell
        bare = dataclasses.replace(dec, powers=None)
        assert bare == dec and repr(bare) == repr(dec), ell
    assert any(dec.level == 1 for dec in L.fields.values())
    stored, text = L.stored_coefficients(), L.dumps()
    bare = StdLattice(p, L.lattice)
    bare.fields.update({ell: dataclasses.replace(dec, powers=None)
                        for ell, dec in L.fields.items()})
    assert bare.stored_coefficients() == stored and bare.dumps() == text
    reloaded = StdLattice.loads(text)
    for ell, dec in L.fields.items():
        assert (reloaded.field(ell).powers is None) == (dec.powers is None), ell
        if dec.powers is not None:
            assert np.array_equal(reloaded.field(ell).powers, dec.powers), ell


@pytest.mark.parametrize("p, degrees", [(2, (3, 15, 105)), (3, (4, 20)), (5, (6, 52))])
def test_prime_field_and_identity_closed_forms_above_level_one(p, degrees):
    # s_1 |-> s_1 with E = e_0, and s_m |-> s_m with E = I, against the
    # Kummer route
    L = StdLattice(p)
    one = L.add_field(1)
    for m in degrees:
        dst = L.add_field(m)
        assert dst.level > 1
        for src in (one, dst):
            desc = standardize.standard_embed(src, dst, L.lattice)
            t, E = kummer_embedding(src, dst, L.lattice)
            assert desc.s_image == t and np.array_equal(desc.matrix, E), (src.ell, m)


def count_calls(monkeypatch, targets):
    calls = []
    for module, name in targets:
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    return calls


def test_level_one_pair_makes_no_kummer_product_projection_or_elimination(monkeypatch):
    # 1 -> 48 maps s_1 to itself, 3 -> 48 and 8 -> 48 read 1, t, ..., t^l
    # off the powers of s_48 that decoration kept; B_3^(-1) and B_8^(-1)
    # are closed forms
    L = StdLattice(65521)
    for n in (1, 3, 8, 48):
        L.add_field(n)
    stored = L.stored_coefficients()
    calls = count_calls(monkeypatch, [(kummer, "kalg_mul"), (kummer, "project_first"),
                                      (linalg, "left_inverse")])
    L.get_embedding(1, 48)
    L.get_embedding(3, 48)
    L.get_embedding(8, 48)
    monkeypatch.undo()
    assert not calls
    assert L.stored_coefficients() == stored      # caches in memory only
    assert StdLattice.loads(L.dumps()).dumps() == L.dumps()
    for ell in (1, 3, 8):
        t, E = kummer_embedding(L.field(ell), L.field(48), L.lattice)
        desc = L.get_embedding(ell, 48)
        assert desc.s_image == t and np.array_equal(desc.matrix, E), ell


def test_sparse_level_one_embeddings_build_no_large_matrix(monkeypatch):
    # one embedding into a large level-1 target builds no m x m matrix:
    # 4 -> 180 and 2 -> 360 read their 5 and 3 powers off the target's
    # kept powers
    p = 65521
    L = StdLattice(p)
    for n in (2, 4):
        L.add_field(n)
    for m in (180, 360):    # over P_m = X^m - abar_m, to skip the irreducible search
        abar = L.lattice.standard_constant(m).vec[0]
        L.add_field(m, [(-abar) % p] + [0] * (m - 1) + [1])
    shapes = []
    krylov, mul_matrix = linalg.krylov, fppoly.mul_matrix
    monkeypatch.setattr(linalg, "krylov",
                        lambda M, v, k, q: shapes.append(M.shape) or krylov(M, v, k, q))
    monkeypatch.setattr(fppoly, "mul_matrix",
                        lambda a, R, q: shapes.append(R.shape) or mul_matrix(a, R, q))
    for ell, m in [(4, 180), (2, 360)]:
        L.get_embedding(ell, m)
    monkeypatch.undo()
    assert not [shape for shape in shapes if shape[0] >= 180]
    for ell, m in [(4, 180), (2, 360)]:
        t, E = kummer_embedding(L.field(ell), L.field(m), L.lattice)
        desc = L.get_embedding(ell, m)
        assert desc.s_image == t and np.array_equal(desc.matrix, E), (ell, m)


@pytest.mark.parametrize("p, ell, m", [(65521, 12, 48), (65521, 45, 90), (257, 4, 32)])
def test_level_one_embedding_takes_no_power(monkeypatch, p, ell, m):
    # the powers of t = s_m^(m/l) and B_l are slices of the kept powers, and
    # B_l^(-1) is a closed form: no power, Krylov matrix or elimination
    L = StdLattice(p)
    for n in (ell, m):
        L.add_field(n)
    calls = count_calls(monkeypatch, [(ExtField, "powers"), (FFElem, "__pow__"),
                                      (fppoly, "powmod"), (linalg, "krylov"),
                                      (linalg, "left_inverse")])
    desc = L.get_embedding(ell, m)
    monkeypatch.undo()
    assert not calls
    t, E = kummer_embedding(L.field(ell), L.field(m), L.lattice)
    assert desc.s_image == t and np.array_equal(desc.matrix, E)


def test_key_identity():
    for p, a, b in [(2, 1, 2), (2, 2, 4), (3, 1, 2), (5, 1, 2)]:
        L = default_lattice(p)
        assert standardize.verify_key_identity(a, b, L), (p, a, b)


def test_key_identity_rejects_oversize():
    L = default_lattice(2)
    with pytest.raises(ValueError):
        standardize.verify_key_identity(1, 30, L)


def test_decorate_at_largest_prime_is_exact():
    # p = 2^31 - 1: coefficient products reach 2^62, so int64 arithmetic must
    # not wrap anywhere on the decoration path (warnings turn overflow into errors)
    import time
    import warnings
    p = 2 ** 31 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ell in (3, 7, 9):
            t0 = time.perf_counter()
            L = StdLattice(p)
            d = L.add_field(ell)
            alpha = d.alpha
            alg = d.algebra
            assert d.P == [p - 7] + [0] * (ell - 1) + [1]   # x^l - 7, 7 the primitive root
            assert kummer.frob_left(alpha) == alpha.scalar_mul(alg.entry.zeta)
            assert alpha ** ell == alg.from_scalar(L.lattice.standard_constant(ell))
            assert time.perf_counter() - t0 < 20


@pytest.mark.parametrize("p", [2, 3])
def test_decorations_carry_the_standard_constant(p):
    # decorate checks a'_l kappa^l = abar_l in K_l; here the full power alpha^l
    from test_golden import DEGREES
    L = StdLattice(p)
    for ell in DEGREES[p]:
        d = L.add_field(ell)
        assert d.alpha ** ell == d.algebra.from_scalar(L.lattice.standard_constant(ell)), ell


def test_level_two_at_largest_prime_fails_in_bounded_time():
    # p = 2^31 - 1, l = 4 has level 2: the Conway search finds C_2 at once, but
    # a baby-step table for GF(p^2) would need p entries, so the l-th root is refused
    import time
    p = 2 ** 31 - 1
    t0 = time.perf_counter()
    L = StdLattice(p)
    with pytest.raises(ValueError, match=f"p={p}, n=2 needs m={p} baby steps"):
        L.add_field(4)
    assert L.lattice.table.get(2) == [7, p - 3, 1]
    assert time.perf_counter() - t0 < 5
