"""Extension fields GF(p^n): field axioms, Frobenius vs direct powering,
minimal polynomials, orders and discrete logarithms."""

import copy
import functools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fflattice import fppoly, extfield, limits, linalg
from fflattice.extfield import ExtField
from oracles import is_primitive, multiplicative_order


def test_is_irreducible_examples():
    assert extfield.is_irreducible([1, 1, 1], 2)        # x^2+x+1
    assert not extfield.is_irreducible([1, 0, 1], 2)    # x^2+1 = (x+1)^2
    assert extfield.is_irreducible([1, 0, 1], 3)        # x^2+1 over GF(3)
    assert extfield.is_irreducible([1, 1, 0, 1], 2)     # x^3+x+1
    assert not extfield.is_irreducible([0, 1, 1], 5)    # divisible by x


def test_field_axioms_random():
    F = ExtField(3, [1, 0, 1])  # GF(9)
    rng = random.Random(9)
    for _ in range(200):
        a = F.random_element(rng)
        b = F.random_element(rng)
        c = F.random_element(rng)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if b != F.zero():
            assert (a / b) * b == a
        assert a - a == F.zero()


def test_frobenius_matches_powering():
    rng = random.Random(11)
    for p, mod in [(2, [1, 1, 0, 0, 1]), (5, [1, 1, 0, 1]), (7, [3, 1])]:
        F = ExtField(p, mod)
        for _ in range(40):
            x = F.random_element(rng)
            for k in range(F.n + 1):
                assert extfield.frobenius(x, k) == x ** (p ** k)


def square_matrices(F):
    """The number of distinct n x n arrays a field holds, inside its dicts, lists and tuples too."""
    found, todo = set(), list(vars(F).values())
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray):
            if v.shape == (F.n, F.n):
                found.add(id(v))
        elif isinstance(v, dict):
            todo += v.values()
        elif isinstance(v, (list, tuple)):
            todo += v
    return len(found)


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 65521) for n in (1, 5, 48)]
                         + [(2 ** 31 - 1, 1), (2 ** 31 - 1, 5)])
def test_frobenius_keeps_two_square_matrices(p, n):
    # the reduction and Frobenius matrices; sigma^k stores no power of F
    F = ExtField(p, extfield.random_irreducible(p, n), check=False)
    assert square_matrices(F) == 2
    x = F.random_element(random.Random(n))
    for k in (0, 1, 2, n - 1, n, n + 1):
        assert extfield.frobenius(x, k) == x ** (p ** (k % n))
        assert square_matrices(F) == 2


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_powers_match_krylov(p):
    # k <= 2 takes the columns 1 and x as they are, k = 3 one product; the
    # result is the Krylov matrix of multiplication by x to the bit, dtype and
    # layout included
    rng = random.Random(p % 1000 + 2)
    for n in (1, 2, 7):
        F = ExtField(p, extfield.random_irreducible(p, n), check=False)
        for x in [F.zero(), F.one(), F.gen(), F.random_element(rng)]:
            for k in (0, 1, 2, 3):
                got = F.powers(x, k)
                want = linalg.krylov(F.mul_matrix(x), F.one().vec, k, p)
                assert got.dtype == want.dtype == np.int64 and got.shape == (n, k)
                assert got.flags.c_contiguous and np.array_equal(got, want), (n, x, k)


def krylov_powers(F, x, k):
    """The matrix route of ExtField.powers: the Krylov matrix of multiplication by x."""
    return linalg.krylov(F.mul_matrix(x), F.one().vec, k, F.p)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 65521, 2 ** 31 - 1]), n=st.integers(1, 72),
       k=st.integers(0, 15), seed=st.integers(0, 99), x_seed=st.integers(0, 2 ** 16))
@example(p=2, n=36, k=5, seed=0, x_seed=0)
@example(p=2, n=36, k=6, seed=0, x_seed=0)
@example(p=65521, n=72, k=11, seed=0, x_seed=0)
@example(p=65521, n=72, k=12, seed=0, x_seed=0)
def test_powers_routes_agree(p, n, k, seed, x_seed):
    # below 6 k < max(36, n) the powers come by products, from there on by
    # the Krylov matrix (the examples: the last k of one route and the first
    # of the other); every p reaches one tier of convolve_mod: float64 (2, 3),
    # int64 (65521) and object (2^31 - 1, at n <= 12)
    if p > 2 ** 30:
        n = n % 12 + 1
    F = ExtField(p, extfield.random_irreducible(p, n, seed=seed), check=False)
    x = F.random_element(random.Random(x_seed))
    got = F.powers(x, k)
    assert got.dtype == np.int64 and got.shape == (n, k) and got.flags.c_contiguous
    assert np.array_equal(got, krylov_powers(F, x, k))


@pytest.mark.parametrize("p, n", [(2, 36), (3, 60), (65521, 60), (2 ** 31 - 1, 12)])
def test_powers_switch_at_the_crossover(monkeypatch, p, n):
    # the largest k of the products route builds no n x n matrix, the next
    # one builds exactly one, and both give the Krylov matrix
    F = ExtField(p, extfield.random_irreducible(p, n), check=False)
    x = F.random_element(random.Random(n))
    last = -(-max(36, n) // 6) - 1
    mul_matrix, calls = fppoly.mul_matrix, []
    monkeypatch.setattr(fppoly, "mul_matrix", lambda *args: calls.append(1) or mul_matrix(*args))
    below, above = F.powers(x, last), F.powers(x, last + 1)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(below, krylov_powers(F, x, last))
    assert np.array_equal(above, krylov_powers(F, x, last + 1))


def test_powers_and_mul_matrix_reject_other_fields():
    # an element of another modulus of the same degree, or of another degree,
    # is refused by both routes of powers and by mul_matrix; an equal field
    # that is another object is accepted, as in FFElem arithmetic
    F = ExtField(5, extfield.random_irreducible(5, 6, seed=1))
    G = ExtField(5, extfield.random_irreducible(5, 6, seed=2))
    H = ExtField(5, extfield.random_irreducible(5, 4, seed=1))
    assert G != F
    rng = random.Random(56)
    for y in (G.random_element(rng), H.random_element(rng)):
        for k in (0, 3, 12):
            with pytest.raises(extfield.FieldMismatch):
                F.powers(y, k)
        with pytest.raises(extfield.FieldMismatch):
            F.mul_matrix(y)
    twin = copy.deepcopy(F)
    x = twin.random_element(rng)
    assert np.array_equal(F.powers(x, 12), twin.powers(x, 12))
    assert np.array_equal(F.mul_matrix(x), twin.mul_matrix(x))


def test_element_takes_elements_of_equal_fields():
    # ExtField.element follows the rule of FFElem arithmetic: an element of
    # an equal field (a deep copy) is taken as this field's, another raises
    F = ExtField(5, [2, 0, 1])
    twin = copy.deepcopy(F)
    x = F.element(twin.gen())
    assert x == F.gen() and x.field is F
    y = F.gen()
    assert F.element(y) is y
    with pytest.raises(extfield.FieldMismatch):
        F.element(ExtField(5, [3, 0, 1]).gen())


def test_elements_of_equal_fields_combine():
    # the identity check comes first; an equal field that is another object
    # still combines and compares equal, and another modulus still raises
    F = ExtField(5, [2, 0, 1])
    twin = copy.deepcopy(F)
    assert twin is not F and twin == F
    rng = random.Random(52)
    a, b = F.random_element(rng), F.random_element(rng)
    b2 = twin.element(list(b.vec))
    assert a * b2 == a * b and a + b2 == a + b and a - b2 == a - b
    assert b2 == b and b == b2 and a / b2 == a / b
    other = ExtField(5, [3, 0, 1])
    with pytest.raises(extfield.FieldMismatch):
        a * other.element(list(b.vec))
    assert a != other.element(list(a.vec))


def test_elements_of_one_field_skip_field_equality(monkeypatch):
    F = ExtField(3, [1, 0, 1])
    a, b = F.gen(), F.one()
    monkeypatch.setattr(ExtField, "__eq__", lambda self, other: pytest.fail("compared fields"))
    assert a * b == a and a + b != a and (a - b) + b == a


def test_minimal_polynomial():
    F = ExtField(2, [1, 1, 0, 0, 1])  # GF(16), x^4+x+1
    g = F.gen()
    assert extfield.minimal_polynomial(g) == [1, 1, 0, 0, 1]
    assert extfield.minimal_polynomial(F.one()) == [1, 1]  # x+1
    # element of the GF(4) subfield has degree-2 minimal polynomial
    y = g ** 5
    h = extfield.minimal_polynomial(y)
    assert fppoly.degree(h) == 2
    acc = F.zero()
    for c in reversed(h):
        acc = acc * y + F.one() * c
    assert acc == F.zero()


def test_multiplicative_order():
    F = ExtField(2, [1, 1, 0, 1])  # GF(8)
    g = F.gen()
    assert multiplicative_order(g) == 7
    assert is_primitive(g)
    assert multiplicative_order(F.one()) == 1


def test_discrete_log_round_trip():
    from fflattice.conway import parse_table
    from fflattice.conway_data import CONWAY_TABLE_TEXT
    # the degree-3 Conway polynomial over GF(3) is primitive by definition
    F = ExtField(3, parse_table(CONWAY_TABLE_TEXT, p=3, validate=False).get(3))
    g = F.gen()
    assert is_primitive(g)
    rng = random.Random(26)
    for _ in range(30):
        k = rng.randrange(26)
        assert extfield.discrete_log(g ** k, g) == k


def test_nth_root_round_trip():
    F = ExtField(2, [1, 1, 0, 0, 1])  # GF(16)
    g = F.gen()
    for ell in (1, 3, 5):
        for k in range(0, 15, ell):
            c = g ** k
            r = extfield.nth_root(c, ell)
            assert r ** ell == c


def test_nth_root_deterministic():
    F = ExtField(2, [1, 1, 0, 0, 1])
    g = F.gen()
    c = g ** 6
    assert extfield.nth_root(c, 3) == extfield.nth_root(c, 3)


def test_random_irreducible_deterministic():
    f1 = extfield.random_irreducible(2, 10, seed=4)
    f2 = extfield.random_irreducible(2, 10, seed=4)
    f3 = extfield.random_irreducible(2, 10, seed=5)
    assert f1 == f2
    assert extfield.is_irreducible(f1, 2)
    assert extfield.is_irreducible(f3, 2)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 2 ** 31 + 11])
def test_random_irreducible_rejects_non_primes(p):
    # checked before the first draw; unchecked, p = 1 and 9 draw forever and p = 4 fails in monic
    with pytest.raises(ValueError):
        extfield.random_irreducible(p, 3)
    with pytest.raises(ValueError):
        extfield.random_irreducible(p, 1)


def test_factorize():
    assert extfield.factorize(1) == {}
    assert extfield.factorize(12) == {2: 2, 3: 1}
    assert extfield.factorize(2 ** 9 - 1) == {7: 1, 73: 1}
    assert extfield.factorize(3 ** 6 - 1) == {2: 3, 7: 1, 13: 1}


def test_factorize_splits_past_trial_division_by_rho():
    # both primes lie above the trial-division bound; rho splits their product in 477 steps
    assert extfield.factorize(12 * 1000003 * 1000033) == {2: 2, 3: 1, 1000003: 1, 1000033: 1}


def test_factorize_stops_when_the_rho_budget_is_spent(monkeypatch):
    # the budget covers the whole call; once spent, ValueError names the cofactor
    # left unfactored, and group_order_factors names p and a as well
    monkeypatch.setattr(limits, "RHO_MAX_STEPS", 100)
    with pytest.raises(ValueError, match=f"RHO_MAX_STEPS=100 steps and left the cofactor "
                                         f"{1000003 * 1000033} unfactored"):
        extfield.factorize(12 * 1000003 * 1000033)
    with pytest.raises(ValueError, match=r"p\^a - 1 for p=2147483647, a=10: Pollard rho"):
        extfield.group_order_factors(2 ** 31 - 1, 10)
    assert extfield.group_order_factors(3, 6) == {2: 3, 7: 1, 13: 1}


def test_degree_one_field():
    F = ExtField(7, [3, 1])  # GF(7) presented as GF(7)[x]/(x+3)
    g = F.gen()
    assert g == F.element([4])  # the root of x+3 is -3 = 4
    assert extfield.minimal_polynomial(g) == [3, 1]


def _monic_polynomials(p, n):
    for k in range(p ** n):
        yield [(k // p ** i) % p for i in range(n)] + [1]


@pytest.mark.parametrize("p, max_n", [(2, 16), (3, 5), (5, 3)])
def test_irreducible_count_matches_gauss(p, max_n):
    # (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles of degree n
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
              9: 0, 10: 1, 11: -1, 12: 0, 13: -1, 14: 1, 15: 1, 16: 0}
    for n in range(1, max_n + 1):
        gauss = sum(mobius[d] * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        found = sum(extfield.is_irreducible(f, p) for f in _monic_polynomials(p, n))
        assert found == gauss, (p, n)


def _frobenius_orbit_size(x):
    y, k = extfield.frobenius(x, 1), 1
    while y != x:
        y, k = extfield.frobenius(y, 1), k + 1
    return k


def _check_minimal_polynomial(x):
    h = extfield.minimal_polynomial(x)
    p = x.field.p
    acc = x.field.zero()
    for c in reversed(h):
        acc = acc * x + c
    assert acc == x.field.zero()
    assert h[-1] == 1 and extfield.is_irreducible(h, p)
    assert fppoly.degree(h) == _frobenius_orbit_size(x)


def test_minimal_polynomial_properties_random():
    rng = random.Random(77)
    for p, n in [(2, 12), (3, 8), (5, 6), (65521, 4)]:
        F = ExtField(p, extfield.random_irreducible(p, n, seed=3))
        for _ in range(10):
            _check_minimal_polynomial(F.random_element(rng))


def minpoly_oracle(x):
    """minimal_polynomial as it ran before Berlekamp-Massey: one rref of the
    n x (n+1) Krylov matrix 1, x, ..., x^n by the numpy row-update loop; the
    first power that depends on the lower ones gives the polynomial."""
    f = x.field
    p, n = f.p, f.n
    R, pivots = linalg._rref_loop(f.powers(x, n + 1), p)
    d = len(pivots)
    return [(-int(c)) % p for c in R[:d, d]] + [1]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 4), (2, 12), (2, 60), (3, 8), (5, 6),
                                  (7, 1), (65521, 4), (2 ** 31 - 1, 1), (2 ** 31 - 1, 4)])
def test_minimal_polynomial_matches_oracle(p, n):
    rng = random.Random(31 * p + n)
    F = ExtField(p, extfield.random_irreducible(p, n, seed=1))
    xs = [F.zero(), F.one(), F.gen()] + [F.random_element(rng) for _ in range(8)]
    for d in range(1, n):
        if n % d == 0:   # norms to the subfield GF(p^d): minimal polynomials of degree <= d
            xs += [F.random_element(rng) ** ((F.order() - 1) // (p ** d - 1)) for _ in range(3)]
    degrees = set()
    for x in xs:
        h = extfield.minimal_polynomial(x)
        assert h == minpoly_oracle(x), (p, n, x)
        degrees.add(fppoly.degree(h))
    assert n in degrees and (n == 1 or min(degrees) < n)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1), norm=st.booleans())
@example(n=1, seed=0, norm=False)
@example(n=2, seed=0, norm=False)
@example(n=2, seed=1, norm=True)
def test_packed_berlekamp_massey_matches_loop(n, seed, norm):
    # at p = 2 Berlekamp-Massey runs on integers; the numpy loop is the oracle,
    # on minimal_polynomial's sequence for x and for a norm of x to a subfield
    # (a lower linear complexity)
    rng = random.Random(seed)
    F = ExtField(2, extfield.random_irreducible(2, n, seed=seed))
    x = F.random_element(rng)
    if norm:
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        x = x ** ((F.order() - 1) // (2 ** d - 1))
    s = F.powers(x, 2 * n)[0]
    assert extfield._berlekamp_massey(s, 2) == extfield._berlekamp_massey_loop(s, 2)


@pytest.mark.parametrize("f, p", [([1, 1, 1], 9), ([1, 1, 1], 4), ([1, 0, 0, 1], 15)])
def test_is_irreducible_rejects_non_primes(f, p):
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        extfield.is_irreducible(f, p)


def test_minimal_polynomial_properties_subfields():
    from fflattice.lattice import StdLattice
    L = StdLattice(2)
    for ell in (3, 5, 15):
        L.add_field(ell)
    rng = random.Random(15)
    for ell in (3, 5):
        for _ in range(6):
            x = L.field(ell).field.random_element(rng)
            y = L.embed_eval(ell, 15, x)
            _check_minimal_polynomial(y)
            assert extfield.minimal_polynomial(y) == extfield.minimal_polynomial(x)


# -- the screens in front of Rabin's test ----------------------------------------


def krylov_oracle(M, v, k, p):
    """Columns v, Mv, ..., M^(k-1) v by k - 1 mat-vecs, exact by a bound of its own:
    int64 while no sum of len(v) products of residues reaches 2^63, else Python integers."""
    dtype = np.int64 if len(v) * (p - 1) ** 2 < 1 << 63 else object
    M = np.asarray(M).astype(dtype)
    cur = np.asarray(v).astype(dtype) % p
    K = np.empty((len(v), k), dtype=np.int64)
    for i in range(k):
        K[:, i] = cur
        cur = (M @ cur) % p
    return K


def companion_oracle(f, p):
    """n x n matrix of multiplication by X modulo f, f monic of degree n."""
    n = fppoly.degree(f)
    C = np.zeros((n, n), dtype=np.int64)
    C[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    C[:, -1] = [(-c) % p for c in f[:n]]
    return C


def mul_matrix_oracle(x, f, p):
    """Matrix of multiplication by x modulo f: Krylov columns of the companion matrix."""
    n = fppoly.degree(f)
    return krylov_oracle(companion_oracle(f, p), list(x) + [0] * (n - len(x)), n, p)


def frobenius_oracle(f, p):
    """Frobenius matrix of GF(p)[X]/(f) as built before the reduction-kernel matrices:
    X^p by square-and-multiply through divrem, then two companion-matrix Krylov passes."""
    n = fppoly.degree(f)
    xp, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = fppoly.mod(fppoly.mul(xp, base, p), f, p)
        base = fppoly.mod(fppoly.mul(base, base, p), f, p)
        e >>= 1
    return krylov_oracle(mul_matrix_oracle(xp, f, p), [1] + [0] * (n - 1), n, p)


def rabin_oracle(f, p):
    """Rabin's test alone: is_irreducible as it ran before the Ben-Or screen,
    on the oracle Frobenius matrix and Krylov loop."""
    n = fppoly.degree(f)
    if n == 1:
        return True
    if f[0] == 0:
        return False
    f = fppoly.monic(f, p)
    x_vec = np.zeros(n, dtype=np.int64)
    x_vec[1] = 1
    iterates = krylov_oracle(frobenius_oracle(f, p), x_vec, n + 1, p)
    if not np.array_equal(iterates[:, n], x_vec):
        return False
    for q in extfield._prime_factors(n):
        g = fppoly.trim(((iterates[:, n // q] - x_vec) % p).tolist())
        if not g or fppoly.degree(fppoly.gcd(g, f, p)) > 0:
            return False
    return True


# -- the matrix kernels against the oracles above -----------------------------------

MATRIX_PRIMES = [2, 3, 5, 7, 257, 65521, 2 ** 31 - 1]
MATRIX_DEGREES = [1, 2, 3, 16, 17, 48, 120]


@pytest.mark.parametrize("p", MATRIX_PRIMES)
@pytest.mark.parametrize("n", MATRIX_DEGREES)
def test_matrix_kernels_match_oracles(p, n):
    # F is read off the reduction matrix from n = p (p - 1) on, else built by Krylov:
    # at p = 2, 3, 5 and 7 the degrees here fall on both sides of that rule
    rng = random.Random(9100 + n + p % 1000)
    f = [rng.randrange(p) for _ in range(n)] + [1]
    F = ExtField(p, f, check=False)
    assert np.array_equal(F.frobenius_matrix, frobenius_oracle(f, p))
    assert np.array_equal(extfield.frobenius_matrix(f, p), F.frobenius_matrix)
    for x in (F.gen(), F.random_element(rng)):
        assert np.array_equal(F.mul_matrix(x), mul_matrix_oracle(x.vec, f, p))
    # Krylov lengths on both sides of the loop/doubling crossover (k = 16, k = n/2)
    M = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
    v = [rng.randrange(p) for _ in range(n)]
    lengths = sorted({1, 2, 15, 16, 17, n // 2, (n + 1) // 2, n // 2 + 1, n, n + 1} - {0})
    want = krylov_oracle(M, v, max(lengths), p)
    for k in lengths:
        assert np.array_equal(linalg.krylov(M, v, k, p), want[:, :k]), k


@pytest.fixture
def rabin_calls(monkeypatch):
    """Counts the Frobenius matrices built, one per candidate that reaches Rabin's test."""
    calls = []
    build = extfield.frobenius_matrix

    def counted(f, p, R=None):
        calls.append((tuple(f), p))
        return build(f, p, R)

    monkeypatch.setattr(extfield, "frobenius_matrix", counted)
    return calls


def _verdict(f, p, rabin_calls):
    """(is_irreducible(f, p), whether that call reached Rabin's test)."""
    before = len(rabin_calls)
    return extfield.is_irreducible(f, p), len(rabin_calls) > before


def _past_screen(p, n, d):
    """Whether a reducible f of degree n whose least irreducible factor has degree d
    reaches Rabin's test: at odd p the screen divides by every irreducible of degree
    <= K = extfield._screen_degree(p, n); p = 2 builds no Frobenius matrix."""
    return p != 2 and d > extfield._screen_degree(p, n)


def _irreducible(p, d, seed):
    g = extfield.random_irreducible(p, d, seed)
    assert rabin_oracle(g, p) and g[0] != 0
    return g


@pytest.mark.parametrize("p, max_n", [(2, 10), (3, 6), (7, 3)])
def test_screened_test_matches_rabin_exhaustive(p, max_n):
    for n in range(1, max_n + 1):
        for f in _monic_polynomials(p, n):
            assert extfield.is_irreducible(f, p) == rabin_oracle(f, p), (p, f)


def test_screened_test_matches_rabin_random():
    # 65521: Rabin's test on float64 squarings of the Frobenius matrix; 2^31 - 1: on the
    # Krylov iterates in object dtype; 1021: a screen of degree-1 blocks only, p above every n
    rng = random.Random(5301)
    for p in (2, 3, 5, 7, 257, 65521, 2 ** 31 - 1, 1021):
        for _ in range(16 if p > 1 << 30 else 40):
            n = rng.randrange(2, 65)
            f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            assert extfield.is_irreducible(f, p) == rabin_oracle(f, p), (p, f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 200), seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(["random", "product", "square"]))
def test_packed_gf2_test_matches_rabin(n, seed, kind):
    # a product with a factor of degree floor(n/2), or a square, is rejected only
    # at Ben-Or's last step, k = floor(n/2)
    def factor(d, seed):
        return [1, 1] if d == 1 else _irreducible(2, d, seed)

    if kind == "random":
        rng = random.Random(seed)
        f = [1] + [rng.randrange(2) for _ in range(n - 1)] + [1]
    elif kind == "product":
        f = fppoly.mul(factor(n // 2, seed), factor(n - n // 2, seed + 1), 2)
    else:
        g = factor(n // 2, seed)
        f = fppoly.mul(g, g, 2)
    assert extfield.is_irreducible(f, 2) == rabin_oracle(f, 2), f


def test_screen_catches_small_factors(rabin_calls):
    # g irreducible of degree d <= K (d <= n/2 at p = 2, where Ben-Or's test runs):
    # the screen rejects g*h before Rabin's test
    rng = random.Random(5302)
    for p, n, d in [(2, 2, 1), (2, 8, 3), (2, 40, 5), (2, 64, 6), (3, 9, 2), (3, 30, 3),
                    (3, 30, 7), (3, 56, 6), (5, 25, 2), (5, 60, 2), (5, 56, 4), (7, 7, 1),
                    (7, 49, 2), (7, 48, 3), (31, 40, 2)]:
        assert not _past_screen(p, n, d)
        for seed in range(3):
            g = _irreducible(p, d, seed) if d > 1 else [rng.randrange(1, p), 1]
            h = [rng.randrange(p) for _ in range(n - d)] + [1]
            f = fppoly.mul(g, h, p)
            assert _verdict(f, p, rabin_calls) == (False, False), (p, g, h)
            assert not rabin_oracle(f, p)


def test_rabin_catches_large_factors(rabin_calls):
    # g*h with deg g = d <= deg h: the screen rejects it when d <= K, else passes it on
    # and Rabin's test rejects it; at p = 2 Ben-Or's test on the packed polynomial
    # rejects it with no Frobenius matrix
    cases = [(2, 20, 5), (2, 40, 6), (2, 64, 7), (3, 10, 3), (3, 30, 4), (3, 40, 8),
             (3, 56, 7), (5, 8, 2), (5, 56, 5), (7, 6, 2), (7, 48, 4), (31, 40, 3),
             (257, 10, 3)]
    assert {_past_screen(p, n, d) for p, n, d in cases if p != 2} == {False, True}
    for p, n, d in cases:
        for seed in range(2):
            f = fppoly.mul(_irreducible(p, d, seed), _irreducible(p, n - d, seed), p)
            assert _verdict(f, p, rabin_calls) == (False, _past_screen(p, n, d)), (p, f)
            assert not rabin_oracle(f, p)


def test_squares_are_reducible(rabin_calls):
    # past the screen at odd p when d > K; p = 2 builds no Frobenius matrix
    cases = [(2, 3), (2, 5), (2, 16), (3, 2), (3, 7), (3, 8), (5, 3), (5, 6), (257, 4)]
    assert {_past_screen(p, 2 * d, d) for p, d in cases if p != 2} == {False, True}
    for p, d in cases:
        g = _irreducible(p, d, 1)
        f = fppoly.mul(g, g, p)
        assert _verdict(f, p, rabin_calls) == (False, _past_screen(p, 2 * d, d)), (p, g)
        assert not rabin_oracle(f, p)


def test_equal_degree_products_reach_rabin_gcd(rabin_calls):
    # X^(p^n) = X holds modulo g*h when deg g, deg h divide n: past the screen
    # (least degree > K) only the gcd step of Rabin's test can reject these; at
    # p = 2 Ben-Or's gcd at k = deg g rejects them with no Frobenius matrix
    cases = [(2, (4, 4)), (2, (6, 6)), (2, (8, 8)), (3, (3, 3)), (3, (5, 5)), (3, (8, 8)),
             (5, (2, 2)), (5, (2, 4, 6)), (5, (6, 6)), (7, (5, 5)), (257, (3, 3))]
    assert {_past_screen(p, sum(ds), min(ds)) for p, ds in cases if p != 2} == {False, True}
    for p, degrees in cases:
        factors = [_irreducible(p, d, seed) for seed, d in enumerate(degrees)]
        assert len({tuple(g) for g in factors}) == len(factors)
        f = [1]
        for g in factors:
            f = fppoly.mul(f, g, p)
        past = _past_screen(p, sum(degrees), min(degrees))
        assert _verdict(f, p, rabin_calls) == (False, past), (p, degrees)
        assert not rabin_oracle(f, p)


# -- Rabin's test read off Frobenius traces ---------------------------------------


def _distinct_factor_traces(factors, n, p):
    """tr(F^k) mod p for k = 1 .. 2n by the criterion: the sum of deg g over the
    distinct irreducible g | f with deg g | k."""
    degrees = [len(g) - 1 for g in {tuple(g) for g in factors}]
    return [sum(d for d in degrees if k % d == 0) % p for k in range(1, 2 * n + 1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 7, 31, 257, 65521]),
       parts=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, 3)),
                      min_size=1, max_size=3))
def test_frobenius_traces_count_distinct_factor_degrees(p, parts):
    # f = prod g_i^(e_i), repeated factors and equal g_i included: tr(F^k) mod p is the
    # sum of the degrees of the distinct g_i whose degree divides k, for k = 1 .. 2n
    factors, f = [], [1]
    for d, e, seed in parts:
        g = [(seed + 1) % p, 1] if d == 1 else _irreducible(p, d, seed)
        factors.append(g)
        for _ in range(e):
            f = fppoly.mul(f, g, p)
    n = fppoly.degree(f)
    want = _distinct_factor_traces(factors, n, p)
    F = extfield.frobenius_matrix(f, p)
    P = np.eye(n, dtype=np.int64)
    for k in range(1, 2 * n + 1):
        P = (P @ F) % p     # n (p-1)^2 < 2^63 for every f drawn here
        assert int(np.trace(P)) % p == want[k - 1], (p, f, k)
    x_vec = np.zeros(n, dtype=np.int64)
    x_vec[min(1, n - 1)] = 1
    orbit = linalg.PowerOrbit(F, x_vec, p)
    for k, t in orbit.traces(0):
        assert t == want[k - 1], (p, f, k)
    assert [orbit.trace(k) for k in range(1, n + 1)] == want[:n]


@pytest.mark.parametrize("p, n", [(7, 6), (31, 30), (5, 5), (7, 7), (7, 8)])
def test_trace_verdict_matches_rabin_across_n_equals_p(monkeypatch, p, n):
    # Rabin's test with no screen (K = 0): below p the traces decide, with no gcd; from
    # n = p on the gcds remain, behind the same early exits
    calls = _rabin_gcds(monkeypatch)
    rng = random.Random(5306 + 100 * p + n)
    candidates = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)] + [1]
                  for _ in range(60)]
    # reducible products that pass X^(p^n) = X: distinct factors of degrees dividing n
    for degrees in ([1] * (p - 1) if n == p - 1 else [], [n // 2, n - n // 2], [1, n - 1],
                    [1] * (n % 2) + [2] * (n // 2)):
        if degrees:
            seeds = {}
            f = [1]
            for d in degrees:
                seeds[d] = seeds.get(d, 0) + 1
                g = [p - seeds[d], 1] if d == 1 else _irreducible(p, d, 10 * seeds[d])
                f = fppoly.mul(f, g, p)
            candidates.append(f)
    candidates += [_irreducible(p, n, seed) for seed in range(3)]
    verdicts, gcds = set(), 0
    for f in candidates:
        want = rabin_oracle(f, p)
        before = len(calls)
        assert extfield._rabin(fppoly.monic(f, p), p, 0) == want, (p, f)
        gcds += len(calls) - before
        verdicts.add(want)
    assert verdicts == {True, False}
    assert (gcds > 0) == (n >= p), gcds


@pytest.mark.parametrize("p, d", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_gcds_catch_what_traces_mod_p_cannot_at_n_ge_p(monkeypatch, p, d):
    # p distinct irreducibles of degree d: tr(F^k) is p d = 0 mod p for d | k and else
    # 0, for every k, so only a gcd sees that f, of degree n = p d >= p, is reducible
    calls = _rabin_gcds(monkeypatch)
    factors, seed = set(), 0
    while len(factors) < p:
        factors.add(tuple(_irreducible(p, d, seed)))
        seed += 1
    f = [1]
    for g in factors:
        f = fppoly.mul(f, list(g), p)
    n = fppoly.degree(f)
    F = extfield.frobenius_matrix(f, p)
    P = np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        P = (P @ F) % p
        assert int(np.trace(P)) % p == 0, k
    assert not extfield._rabin(f, p, 0) and calls
    assert not rabin_oracle(f, p)


@pytest.mark.parametrize("p, n, d, squares", [(65521, 24, 1, 0), (65521, 24, 2, 1),
                                              (65521, 24, 3, 1), (65521, 48, 5, 2),
                                              (257, 24, 2, 1), (257, 24, 3, 1)])
def test_early_exit_at_the_first_square_that_reaches_a_factor(monkeypatch, p, n, d, squares):
    # g h with deg g = d the least factor degree: tr(F^k) for the first k > K that d
    # divides (k = 1, then 2^j and 2^j + 2^i as the squares F^(2^j) arrive) rejects it,
    # with no square for a root and no square past the one that reaches k
    held = []
    square = linalg.PowerOrbit._square
    monkeypatch.setattr(linalg.PowerOrbit, "_square",
                        lambda self, j: held.append(j) or square(self, j))
    K = extfield._screen_degree(p, n)
    assert K < d
    for seed in range(2):
        g = [p - 1 - seed, 1] if d == 1 else _irreducible(p, d, seed)
        f = fppoly.mul(g, _irreducible(p, n - d, seed + 5), p)
        held.clear()
        assert not extfield._rabin(fppoly.monic(f, p), p, K)
        assert max(held, default=0) == squares, (p, d, held)


@pytest.mark.parametrize("p, n", [(3, 4), (5, 8), (257, 4), (257, 16), (65521, 4),
                                  (65521, 32), (65521, 64)])
def test_irreducible_of_two_power_degree_passes_every_exit(p, n):
    # every early exit asks k < n; tr(F^n) = n, not 0 mod p > n, would reject it
    g = _irreducible(p, n, 3)
    F = extfield.frobenius_matrix(g, p)
    x_vec = np.zeros(n, dtype=np.int64)
    x_vec[1] = 1
    orbit = linalg.PowerOrbit(F, x_vec, p)
    assert all(k < n and t == 0 for k, t in orbit.traces(0))
    assert orbit.trace(n) == n % p
    assert extfield._rabin(g, p, 0)


# -- the screen's edges, its table and the block draws ---------------------------


def _rootless(p, d, seed):
    """A product of irreducible quadratics (and one cubic for odd d >= 3): degree d, no root."""
    f = _irreducible(p, 3, seed) if d % 2 else [1]
    for i in range(d // 2 - (d % 2)):
        f = fppoly.mul(f, _irreducible(p, 2, seed + 1 + i), p)
    return f


def test_one_linear_factor_stops_at_the_root_screen(rabin_calls):
    # (X - a) times a cofactor with no root: the screen's degree-1 blocks reject it
    # before Rabin's test while p <= ROOT_SCREEN_MAX_P = 8192 and p (n + 1) <=
    # ROOT_TABLE_MAX_ENTRIES = 2^17, and Rabin's test rejects it just past either bound
    rng = random.Random(5303)
    for p, n, past_a_bound in [(7, 5, False), (257, 48, False), (1021, 127, False),
                               (1021, 128, True), (8191, 15, False), (8191, 16, True),
                               (8209, 4, True)]:
        a = rng.randrange(1, p)
        f = fppoly.mul([p - a, 1], _rootless(p, n - 1, n), p)
        assert past_a_bound == _past_screen(p, n, 1)
        assert _verdict(f, p, rabin_calls) == (False, past_a_bound), (p, n)


def test_folded_gcd_finds_a_quadratic_factor_without_a_root(rabin_calls):
    # no root and an irreducible quadratic factor: the screen's degree-2 blocks reject
    # f before Rabin's test wherever K >= 2
    for p, n in [(3, 9), (3, 20), (5, 25), (5, 33), (7, 49), (31, 40)]:
        assert not _past_screen(p, n, 2)
        for seed in range(2):
            f = fppoly.mul(_irreducible(p, 2, seed), _irreducible(p, n - 2, seed), p)
            assert _verdict(f, p, rabin_calls) == (False, False), (p, n, seed)
            assert not rabin_oracle(f, p)


def _rabin_gcds(monkeypatch):
    """The moduli of the fppoly.gcd calls made from here on."""
    calls = []
    gcd = fppoly.gcd
    monkeypatch.setattr(fppoly, "gcd", lambda a, b, q: calls.append(q) or gcd(a, b, q))
    return calls


@pytest.mark.parametrize("p, n, steps", [(3, 52, 1), (3, 56, 2), (5, 31, 0), (5, 36, 2),
                                         (7, 48, 2), (257, 10, 2), (65521, 12, 2)])
def test_rabin_runs_the_gcds_the_screen_leaves(monkeypatch, p, n, steps):
    # an irreducible f reaches every step of Rabin's test, one per prime q | n with
    # n/q > K: a factor of degree dividing n/q <= K fails the screen first.  At n >= p
    # each step is a gcd; at n < p it is the trace of F^(n/q), and no gcd runs
    K = extfield._screen_degree(p, n)
    assert steps == sum(n // q > K for q in extfield._prime_factors(n))
    f = _irreducible(p, n, 0)
    calls = _rabin_gcds(monkeypatch)
    assert extfield.is_irreducible(f, p) and len(calls) == (steps if n >= p else 0)


@pytest.mark.parametrize("p, n", [(3, 20), (3, 56), (5, 24), (5, 56), (7, 12), (7, 48)])
def test_factors_on_both_sides_of_the_screen_degree(rabin_calls, p, n):
    # g*h, deg g <= deg h: the screen rejects it at deg g = K and passes it on to
    # Rabin's test at deg g = K + 1
    K = extfield._screen_degree(p, n)
    assert 0 < K and 2 * K + 2 <= n
    for d, past in [(K, False), (K + 1, True)]:
        for seed in range(2):
            f = fppoly.mul(_irreducible(p, d, seed), _irreducible(p, n - d, seed + 2), p)
            assert _verdict(f, p, rabin_calls) == (False, past), (p, n, d, seed)
            assert not rabin_oracle(f, p)


@pytest.mark.parametrize("p", [3, 5, 7, 31, 1021, 8191])
def test_screen_is_complete_up_to_twice_its_degree_plus_one(rabin_calls, p):
    # at n = 2K + 1 the screen alone decides every candidate; at n = 2K + 2 its
    # survivors go through Rabin's test
    n = max(n for n in range(2, 100) if n <= 2 * extfield._screen_degree(p, n) + 1)
    K = extfield._screen_degree(p, n)
    assert n == 2 * K + 1 and extfield._screen_degree(p, n + 1) == K
    rng = random.Random(5304 + p)
    for m, rabin in [(n, False), (n + 1, True)]:
        found = set()
        for _ in range(60):
            f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m - 1)] + [1]
            verdict, reached = _verdict(f, p, rabin_calls)
            assert verdict == rabin_oracle(f, p), (p, f)
            assert reached <= rabin, (p, f)
            found.add((verdict, reached))
        assert (True, rabin) in found, (p, m)


@pytest.mark.parametrize("p, n", [(3, 14), (3, 56), (5, 11), (5, 56), (7, 9), (31, 6)])
def test_screen_table_holds_every_irreducible_of_each_degree(p, n):
    # degree k holds (1/k) sum over d | k of mu(d) p^(k/d) blocks (Gauss), each the
    # powers X^i mod g of a distinct monic irreducible g
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1}
    K = extfield._screen_degree(p, n)
    T, row_ends, block_ends, starts = extfield._screen_table(p, K, n + 1)
    assert T.shape[1] >= n + 1 and T.nbytes <= 8 * extfield.ROOT_TABLE_MAX_ENTRIES
    rng = random.Random(5305)
    for k in range(1, K + 1):
        gauss = sum(mobius[d] * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        blocks = T[row_ends[k - 1]:row_ends[k]].reshape(-1, k, T.shape[1]).astype(np.int64)
        assert len(blocks) == block_ends[k] - block_ends[k - 1] == gauss, (p, k)
        assert list(starts[block_ends[k - 1]:block_ends[k]]) == list(range(row_ends[k - 1], row_ends[k], k))
        moduli = [[(-int(c)) % p for c in B[:, k]] + [1] for B in blocks]   # X^k mod g = -(g - X^k)
        assert len({tuple(g) for g in moduli}) == gauss
        for i in rng.sample(range(gauss), min(gauss, 8)):
            g = moduli[i]
            assert rabin_oracle(g, p), (p, g)
            for j in range(n + 1):
                want = fppoly.mod(fppoly.monomial(j, p), g, p)
                assert list(blocks[i][:, j]) == want + [0] * (k - len(want)), (p, g, j)


def _drawn_by_randrange(p, n, seed, count):
    """The candidates as random_irreducible drew them with one randrange call per coefficient."""
    rng = random.Random(f"{p}:{n}:{seed}")
    return [[rng.randrange(p) for _ in range(n)] + [1] for _ in range(count)]


def _search_by_randrange(p, n, seed):
    """random_irreducible with randrange draws: (the accepted f, the candidates it tested)."""
    rng = random.Random(f"{p}:{n}:{seed}")
    if n == 1:
        return [rng.randrange(p), 1], []
    tested = []
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if f[0]:
            tested.append(f)
            if extfield.is_irreducible(f, p):
                return f, tested


@pytest.mark.parametrize("p", [2, 3, 5, 257, 65521, 2 ** 31 - 1])
@pytest.mark.parametrize("n", [1, 2, 48, 117])
def test_block_draws_match_randrange(p, n):
    # the getrandbits word layout the block draws rely on; the stream holds the
    # candidates with c_0 = 0 too (about half of them at p = 2), which the search skips
    for seed in range(3):
        blocks = extfield._candidates(random.Random(f"{p}:{n}:{seed}"), p, n)
        assert [next(blocks) for _ in range(20)] == _drawn_by_randrange(p, n, seed, 20)
        if n <= 2 or p == 2 or (n <= 48 and p < 1 << 30):
            assert extfield.random_irreducible(p, n, seed) == _search_by_randrange(p, n, seed)[0]


@pytest.mark.parametrize("p, n", [(2, 30), (5, 12), (257, 16), (65521, 12)])
def test_search_tests_each_nonskipped_candidate_once(monkeypatch, p, n):
    # perfbench's SearchLedger charges a search at one is_irreducible call per
    # candidate with c_0 != 0, drawn uniformly: every screen runs inside that call
    want = [_search_by_randrange(p, n, seed) for seed in range(2)]
    tested = []
    test = extfield.is_irreducible

    def counted(f, q):
        tested.append(list(f))
        return test(f, q)

    monkeypatch.setattr(extfield, "is_irreducible", counted)
    for seed, (f, candidates) in enumerate(want):
        tested.clear()
        assert extfield.random_irreducible(p, n, seed) == f
        assert tested == candidates


def _encode(f, p):
    return sum(c * p ** i for i, c in enumerate(f))


@pytest.mark.parametrize("p, n, seed, code", [
    (2, 105, 0, 0x3e97ea27240ee1d0d691a16e1a1),
    (2, 117, 0, 0x34d216254be8dcf195c82612c5f987),
    (3, 56, 0, 0x237a385f5abd8bad27ee3ec),
    (5, 56, 7, 0x49a70ea7659f95ebf77d8533479208ac3),
    (3, 56, 1, 0x33be7281e15fa94eace60c6),
    (3, 100, 0, 0x866e9f3e34e8f3440adfad22d361e7849ec644e0),
    (3, 100, 1, 0x84e53009b616b88c28b59841ac674e78d37a960a),
    (5, 56, 0, 0x6cd1e549090f04d095e9449c03211b927),
    (5, 56, 1, 0x4f6572462954635c3d576609cb4e1637a),
    (5, 96, 0, 0x9127e68dbe460d94f32fb6be5cffd2dab743251d0dff1aa58e969c2f),
    (5, 96, 1, 0xc7c4ad1a3e20157627323a9d4ed9f39ef3e205a6865efe06ea0bd7f6),
    (7, 48, 0, 0x790c07b1f722964a4ccba4d6d71e895a26),
    (7, 48, 1, 0x97d0eee64a1da310c13440fde158014b9d),
    (31, 40, 0, 0x6ea3d1d30f99f4051ca4997084244244842858f70f86372706),
    (31, 40, 1, 0x6db3815f195e683d0b80750596a281210e646f95ee69c95c61),
    (257, 43, 0, int("24a3045192b57bdd622037e9704b1a608d5984f784dc205ed3a947f103c3875807684eab"
                     "2b53bd8245c6aa9", 16)),
    (257, 43, 1, int("1d58f573395411e8d5b1eace653fe25a740ce7277ef323f7dd6c8244ab868cab386611a1"
                     "ea66f67b9a3a3a1", 16)),
    (257, 48, 0, int("261278cccf24359777fd7e2aa57badeecb2133c5c4227510cab6041c2b0bd64b549ba2f1"
                     "0a8e7395a4645c22ee62f1794", 16)),
    (257, 48, 1, int("1e696b647ab15fb023ae6385aa84f0492183c5672a0b35532709ee81e8af0ff4c48b3a60"
                     "b9536fd4376cc18f5c70a95e2", 16)),
    (65521, 36, 0, int(
        "11aa8991f470921539b004193367e01657f89deb8e5602c2c4a66ba18a5486f9b73eef88b56c25c912cb"
        "25d1b3c069e6bc771b0b36749ec7dcef535d48239cffba996d783a439c2b3", 16)),
    (65521, 36, 1, int(
        "198f813a7333cf00bb637d45d9f6150e7511b470bf056feb6fe7749220e46f470d2eaa4ba8fc84519870"
        "335a7e8ef01006d11cfc234d7ade573f9a4b77e121ab340a21cf552beb17c", 16)),
    (65521, 96, 0, int(
        "1d35e90f29211839354f9eb9e614c96c8728cda91e628bdf5675838c0b4b3789e58824c9ad393eb6de1a"
        "64ef1357250fba970517cd78529ac659ba2b6c31f3fbad4ce85fa559be97b67d913c1b53254f762ada51"
        "572c371a61af9d7b30af1dedaaea44e24e970b4f7adee5caf4dc5de4eab906242a9cbcf6b18ba7be4faf"
        "32d98336612134e2d46fc3da38efdff4ef9e7c4ead2986871e39b6c2d2f986fb0f1342d168688ac66fc2"
        "274524ab3f9b9e960af89fe05f0d24f677d50b2dffa98a4bc", 16)),
    (65521, 96, 1, int(
        "174abe4ae608f044d67cea4db25c3528144a6711f3a12fcc50907cabd22ca496a9902804a43ac6ac632b"
        "ceb2fad8656ee42c5595bf88706e8a0005d91253df1a6485e3a636eeffbbd04125c148c2eab8e1156218"
        "7775012e15b95c6e50613165cd02699d294c515e3091e8cc0faaeeec94c02c6f70234166fcf16eb02167"
        "37417f2dec4d9b02f322a56379fa01a0993b49cee44d9882503bad427a610ed72f24050f06d99b7a4d39"
        "1e26d62b1cfaef109ae626e84fcd8817a85369d392449b314", 16)),
], ids=["2-105-0", "2-117-0", "3-56-0", "5-56-7", "3-56-1", "3-100-0", "3-100-1", "5-56-0",
        "5-56-1", "5-96-0", "5-96-1", "7-48-0", "7-48-1", "31-40-0", "31-40-1", "257-43-0",
        "257-43-1", "257-48-0", "257-48-1", "65521-36-0", "65521-36-1", "65521-96-0",
        "65521-96-1"])
def test_random_irreducible_pinned(p, n, seed, code):
    # neither the screen nor the trace criterion changes a verdict, so the search
    # accepts the same candidate
    f = extfield.random_irreducible(p, n, seed)
    assert len(f) == n + 1 and _encode(f, p) == code


def test_untrimmed_and_zero_moduli():
    # a trailing zero coefficient is trimmed before the modulus is made monic
    F = ExtField(2, [1, 1, 1, 0])
    assert F.modulus == [1, 1, 1] and F.n == 2
    assert ExtField(5, [3, 1, 5]).modulus == [3, 1]
    assert extfield.is_irreducible([1, 1, 0], 2)
    assert not extfield.is_irreducible([1, 0, 1, 0], 2)
    for p, f in [(5, [0, 0]), (5, [5, 10]), (2, [])]:
        with pytest.raises(ValueError, match="degree >= 1"):
            ExtField(p, f)
        with pytest.raises(ValueError, match="degree >= 1"):
            extfield.is_irreducible(f, p)
    from fflattice.lattice import StdLattice
    L = StdLattice(2)
    with pytest.raises(ValueError, match="does not match"):
        L.add_field(3, [1, 1, 1, 0])
    dec = L.add_field(3)
    assert L.add_field(3, dec.field.modulus + [0]) is dec


# -- discrete logarithms and l-th roots against the whole-group search -----------


def bsgs_oracle(x, base):
    """k with base^k = x by baby-step giant-step over the whole group GF(p^n)^*
    (ceil(sqrt(p^n - 1)) baby steps), for a primitive base."""
    f = x.field
    N = f.order() - 1
    if N <= 1:
        return 0
    m = math.isqrt(N - 1) + 1
    table = {}
    cur = f.one()
    for j in range(m):
        table.setdefault(cur.vec, j)
        cur = cur * base
    giant = base.inverse() ** m
    gamma = x
    for i in range(m + 1):
        j = table.get(gamma.vec)
        if j is not None:
            return (i * m + j) % N
        gamma = gamma * giant
    raise ValueError("discrete log not found; base is not a generator")


def digit_log_oracle(x, base):
    """discrete_log as it ran one base-q digit at a time: digit i is the log of
    (h g^(-k))^(q^(e-1-i)) to gamma_q, with h g^(-k) raised afresh for every digit."""
    f = x.field
    N = f.order() - 1
    k = 0
    for q, e, qe, g, table, m, giant, crt in extfield._dlog_tables(f, base):
        h = x ** (N // qe)
        k_q = 0
        for i in range(e):
            y = h * g ** (qe - k_q) if k_q else h
            if i < e - 1:
                y = y ** q ** (e - 1 - i)
            for t in range(m + 1):
                j = table.get(y.vec)
                if j is not None:
                    break
                y = y * giant
            k_q += (j - t * m) % q * q ** i
        k += k_q * crt
    return k % N


@pytest.mark.parametrize("p", [257, 65537])
def test_halved_digits_match_the_digit_oracle(p):
    # p - 1 = 2^8 and 2^16: one prime power with e = 8 and 16 digits; 3 is primitive
    F = ExtField(p, [p - 3, 1])
    X = F.gen()
    assert X == F.element(3)
    rng = random.Random(p)
    xs = list(_nonzero_elements(F)) if p < 1000 else [F.element(rng.randrange(1, p))
                                                     for _ in range(200)]
    for x in xs:
        k = extfield.discrete_log(x, X)
        assert k == digit_log_oracle(x, X) and X ** k == x, x


@functools.lru_cache(maxsize=None)
def _conway_field(p, a):
    from fflattice.lattice import default_lattice
    return ExtField(p, default_lattice(p).table.get(a))


def _nonzero_elements(F):
    for code in range(1, F.order()):
        yield F.element([code // F.p ** i % F.p for i in range(F.n)])


@pytest.mark.parametrize("p, a", [(7, 1), (2, 4), (2, 6), (2, 8), (3, 3), (5, 2)],
                         ids=["7", "2^4", "2^6", "2^8", "3^3", "5^2"])
def test_discrete_log_matches_bsgs_oracle_exhaustive(p, a):
    # 63 = 3^2 * 7 has a two-digit prime power, 255 = 3 * 5 * 17 three primes
    F = _conway_field(p, a)
    X = F.gen()
    for x in _nonzero_elements(F):
        assert extfield.discrete_log(x, X) == bsgs_oracle(x, X), x


@pytest.mark.parametrize("p, a", [(2, 4), (3, 2)], ids=["2^4", "3^2"])
def test_nth_root_is_smallest_log_root_exhaustive(p, a):
    F = _conway_field(p, a)
    X = F.gen()
    N = F.order() - 1
    for ell in range(2, 7):
        for c in _nonzero_elements(F):
            roots = [t for t in range(N) if (X ** t) ** ell == c]
            if roots:
                assert extfield.nth_root(c, ell) == X ** roots[0], (ell, c)
            else:
                with pytest.raises(ValueError, match="no .*-th root"):
                    extfield.nth_root(c, ell)


@pytest.mark.parametrize("p, a", [(65521, 1), (257, 2), (2 ** 31 - 1, 1)],
                         ids=["65521", "257^2", "2^31-1"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_discrete_log_at_large_primes(p, a, data):
    # N = 2^4 3^2 5 7 13, 2^9 3 43 and 2 3^2 7 11 31 151 331
    F = _conway_field(p, a)
    X = F.gen()
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=a, max_size=a)
                       .filter(any))
    x = F.element(coeffs)
    k = extfield.discrete_log(x, X)
    assert 0 <= k < F.order() - 1
    assert X ** k == x


def test_discrete_log_error_paths_and_cache_keyed_by_base():
    F = ExtField(2, [1, 1, 1, 1, 1])       # X has order 5 mod X^4 + X^3 + X^2 + X + 1
    X = F.gen()
    assert multiplicative_order(X) == 5
    prim = next(y for y in _nonzero_elements(F) if is_primitive(y))
    x = F.element([1, 1, 0, 1])
    with pytest.raises(ZeroDivisionError):
        extfield.discrete_log(F.zero(), prim)
    other = _conway_field(2, 4).gen()
    with pytest.raises(extfield.FieldMismatch):
        extfield.discrete_log(x, other)
    assert not F._dlog_tables
    # primitive base first, then the non-primitive one
    k = extfield.discrete_log(x, prim)
    assert k == bsgs_oracle(x, prim) and prim ** k == x
    with pytest.raises(ValueError, match="discrete_log base must be primitive"):
        extfield.discrete_log(x, X)
    with pytest.raises(ValueError, match="discrete_log base must be primitive"):
        extfield.discrete_log(x, F.zero())
    assert list(F._dlog_tables) == [prim.vec]
    # the other order, in a fresh field
    G = ExtField(2, [1, 1, 1, 1, 1])
    y = G.element(x.vec)
    with pytest.raises(ValueError, match="discrete_log base must be primitive"):
        extfield.discrete_log(y, G.gen())
    assert not G._dlog_tables
    assert extfield.discrete_log(y, G.element(prim.vec)) == k
    with pytest.raises(ValueError, match="discrete_log base must be primitive"):
        extfield.discrete_log(y, G.gen())
    assert list(G._dlog_tables) == [prim.vec]


def test_discrete_log_tables_shared_by_threads():
    # threads that find the tables missing each build them; every build stores
    # the same tables, so every log is right and one entry per base remains
    import sys
    import threading

    F = ExtField(2, _conway_field(2, 6).modulus)
    X = F.gen()
    want = {x.vec: bsgs_oracle(x, X) for x in _nonzero_elements(F)}
    got, errors = [], []

    def work():
        try:
            got.append({x.vec: extfield.discrete_log(x, X) for x in _nonzero_elements(F)})
        except Exception as exc:   # reported below: a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert got == [want] * 6
    assert list(F._dlog_tables) == [X.vec]
