"""Polynomial arithmetic over GF(p): ring axioms against seeded random data
and an independent schoolbook multiplication oracle."""

import random

import numpy as np
import pytest

from fflattice import fppoly

PRIMES = [2, 3, 5, 7]


def rand_poly(rng, p, max_deg):
    return fppoly.trim([rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))])


def schoolbook_mul(f, g, p):
    # independent oracle: plain double loop, no numpy
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return fppoly.trim(out)


@pytest.mark.parametrize("p", PRIMES)
def test_ring_axioms(p):
    rng = random.Random(1000 + p)
    for _ in range(300):
        f = rand_poly(rng, p, 12)
        g = rand_poly(rng, p, 12)
        h = rand_poly(rng, p, 12)
        assert fppoly.add(f, g, p) == fppoly.add(g, f, p)
        assert fppoly.mul(f, g, p) == fppoly.mul(g, f, p)
        lhs = fppoly.mul(f, fppoly.add(g, h, p), p)
        rhs = fppoly.add(fppoly.mul(f, g, p), fppoly.mul(f, h, p), p)
        assert lhs == rhs
        assert fppoly.mul(fppoly.mul(f, g, p), h, p) == fppoly.mul(f, fppoly.mul(g, h, p), p)
        assert fppoly.add(f, fppoly.scale(f, -1, p), p) == []
        assert fppoly.sub(f, g, p) == fppoly.add(f, fppoly.scale(g, -1, p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_mul_matches_schoolbook(p):
    rng = random.Random(2000 + p)
    for _ in range(200):
        f = rand_poly(rng, p, 20)
        g = rand_poly(rng, p, 20)
        assert fppoly.mul(f, g, p) == schoolbook_mul(f, g, p)


@pytest.mark.parametrize("p", PRIMES)
def test_divrem_round_trip(p):
    rng = random.Random(3000 + p)
    for _ in range(200):
        f = rand_poly(rng, p, 15)
        g = rand_poly(rng, p, 8)
        if not g:
            continue
        q, r = fppoly.divrem(f, g, p)
        assert fppoly.degree(r) < fppoly.degree(g) or r == []
        assert fppoly.add(fppoly.mul(q, g, p), r, p) == f


def test_xgcd_bezout():
    rng = random.Random(4000)
    for p in PRIMES:
        for _ in range(100):
            f = rand_poly(rng, p, 10)
            g = rand_poly(rng, p, 10)
            if not f and not g:
                continue
            d, u, v = fppoly.xgcd(f, g, p)
            got = fppoly.add(fppoly.mul(u, f, p), fppoly.mul(v, g, p), p)
            assert got == d
            if f:
                assert fppoly.mod(f, d, p) == []
            if g:
                assert fppoly.mod(g, d, p) == []


def test_invmod_and_powmod():
    rng = random.Random(5000)
    m = [1, 1, 0, 1]  # x^3 + x + 1, irreducible over GF(2)
    p = 2
    for _ in range(50):
        f = rand_poly(rng, p, 2)
        if not f:
            continue
        inv = fppoly.invmod(f, m, p)
        assert fppoly.mod(fppoly.mul(f, inv, p), m, p) == [1]
    # powmod vs repeated multiplication
    x = [0, 1]
    acc = [1]
    for k in range(10):
        assert fppoly.powmod(x, k, m, p) == acc
        acc = fppoly.mod(fppoly.mul(acc, x, p), m, p)


def test_exact_div():
    assert fppoly.exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        fppoly.exact_div(13, 4)


def test_to_string_golden():
    assert fppoly.to_string([1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]) == "x^15+x+1"
    assert fppoly.to_string([1, 1]) == "x+1"
    assert fppoly.to_string([2, 0, 1]) == "x^2+2"
    assert fppoly.to_string([]) == "0"


# -- the reduction kernel against schoolbook products and divrem ------------------

KERNEL_PRIMES = [2, 3, 65521, 2 ** 31 - 1]


def kernel_moduli(p, rng):
    """Monic moduli of degree 1, 2 (either side of the int64/object boundary at
    p = 2^31 - 1) and ten random degrees up to 60, random coefficients."""
    for n in [1, 2] + rng.sample(range(3, 61), 10):
        yield [rng.randrange(p) for _ in range(n)] + [1]


def oracle_powmod(a, e, m, p):
    acc = [1]
    for bit in bin(e)[2:]:
        acc = fppoly.mod(schoolbook_mul(acc, acc, p), m, p)
        if bit == "1":
            acc = fppoly.mod(schoolbook_mul(acc, a, p), m, p)
    return acc


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_powmod_matches_divrem_oracle(p):
    rng = random.Random(6000 + p % 1000)
    for m in kernel_moduli(p, rng):
        n = fppoly.degree(m)
        R = fppoly.reduction_matrix(m, p)
        assert R.shape == (n, n)     # X^n .. X^(2n-1): a square times a linear base
        assert R.dtype == np.int64     # at every p, the object tier included
        for i in range(n):
            assert fppoly.trim([int(c) for c in R[:, i]]) == fppoly.mod(
                fppoly.monomial(n + i, p), m, p)
        # both sides of the leading bits read off R for the base X, and large e
        exponents = sorted({0, 1, 2, n - 1, n, 2 * n - 1, 2 * n, p, p * p,
                            rng.randrange(1 << 12)})
        for a in ([0, 1], rand_poly(rng, p, 2 * n)):
            for e in exponents:
                want = oracle_powmod(fppoly.mod(a, m, p), e, m, p)
                assert fppoly.powmod(a, e, m, p) == want, (m, a, e)
                assert fppoly.powmod(a, e, m, p, R) == want, (m, a, e)


@pytest.mark.parametrize("p", [2, 65521, 2 ** 31 - 1])
def test_powmod_of_constants_matches_multiplied_out_products(p):
    # a constant base is powered as an integer mod p, with no product mod m;
    # the oracle multiplies out by schoolbook products and divrem
    rng = random.Random(6100 + p % 1000)
    for n in (1, 2, 12):
        m = [rng.randrange(p) for _ in range(n)] + [1]
        R = fppoly.reduction_matrix(m, p)
        for c in (0, 1, p - 1):
            for e in (0, 1, 2 ** 64 + 3):
                want = oracle_powmod(fppoly.trim([c]), e, m, p)
                assert fppoly.powmod(fppoly.trim([c]), e, m, p) == want, (m, c, e)
                assert fppoly.powmod([c], e, m, p, R) == want, (m, c, e)
                # a base of degree >= n that reduces to the constant c
                assert fppoly.powmod(fppoly.add(fppoly.trim([c]), m, p), e, m, p) == want


@pytest.mark.parametrize("p", [3, 5, 65521, 2 ** 31 - 1])
def test_non_monic_modulus_matches_divrem_oracle(p):
    # a remainder mod c m is one mod m for a unit c, so powmod and compose_mod
    # without R agree with divrem for a scaled modulus
    assert fppoly.powmod([1, 1], 4, [1, 1, 2], 3) == fppoly.mod(
        schoolbook_mul([1, 2, 1], [1, 2, 1], 3), [1, 1, 2], 3) == [1]
    assert fppoly.compose_mod([0, 0, 0, 1], [0, 1], [1, 0, 2], 3) == [0, 1]
    rng = random.Random(6200 + p % 1000)
    for n in (1, 2, 5, 12):
        monic_m = [rng.randrange(p) for _ in range(n)] + [1]
        for c in sorted({2, p - 1}):
            m = fppoly.scale(monic_m, c, p)
            for a in ([0, 1], rand_poly(rng, p, 2 * n)):
                for e in (0, 1, 2, n, 2 * n + 1, p + 3):
                    want = oracle_powmod(fppoly.mod(a, m, p), e, m, p)
                    assert fppoly.powmod(a, e, m, p) == want, (m, a, e)
            g = fppoly.mod(rand_poly(rng, p, 2 * n), m, p)
            f = rand_poly(rng, p, 6)
            want = []
            for coeff in reversed(f):
                want = fppoly.mod(fppoly.add(schoolbook_mul(want, g, p), [coeff], p), m, p)
            assert fppoly.compose_mod(f, g, m, p) == want, (m, f, g)


@pytest.mark.parametrize("f", [[1, 1, 2], [3, 4], [1], []])
def test_reduction_matrix_refuses_a_non_monic_or_constant_modulus(f):
    with pytest.raises(ValueError, match="monic"):
        fppoly.reduction_matrix(f, 5)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_field_products_match_divrem_oracle(p):
    from fflattice.extfield import ExtField

    rng = random.Random(7000 + p % 1000)
    for m in kernel_moduli(p, rng):
        F = ExtField(p, m, check=False)
        for _ in range(3):
            x, y = F.random_element(rng), F.random_element(rng)
            prod = x * y
            assert prod.poly() == fppoly.mod(schoolbook_mul(x.poly(), y.poly(), p), m, p)
            assert all(type(c) is int for c in prod.vec)
            assert (x ** 5).poly() == oracle_powmod(x.poly(), 5, m, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_compose_mod_matches_horner_oracle(p):
    rng = random.Random(8000 + p % 1000)
    for m in kernel_moduli(p, rng):
        g = fppoly.mod(rand_poly(rng, p, 60), m, p)
        f = rand_poly(rng, p, 8)
        want = []
        for c in reversed(f):
            want = fppoly.mod(fppoly.add(schoolbook_mul(want, g, p), [c], p), m, p)
        assert fppoly.compose_mod(f, g, m, p) == want
