"""Conway polynomial search and table handling.

The brute-force search for small degrees must reproduce the embedded table
bit-exactly, and every embedded entry must pass irreducibility, primitivity
and norm-compatibility validation.
"""

import time

import pytest

from fflattice import fppoly, extfield
from fflattice.conway import (ConwayTable, ConwayUnavailable, conway_search,
                              parse_table, _is_primitive_poly,
                              _norm_compatible, _word_to_poly)
from fflattice.conway_data import CONWAY_TABLE_TEXT
from oracles import dump_table, is_primitive


def search_up_to(p, amax):
    known = {}
    for a in range(1, amax + 1):
        known[a] = conway_search(p, a, known, work_bound=50_000_000)
    return known


def test_search_matches_embedded_table_p2():
    table = parse_table(CONWAY_TABLE_TEXT, p=2, validate=False)
    found = search_up_to(2, 8)
    for a, f in found.items():
        assert f == table.get(a), f"degree {a} mismatch"


def test_search_matches_embedded_table_p3():
    table = parse_table(CONWAY_TABLE_TEXT, p=3, validate=False)
    found = search_up_to(3, 6)
    for a, f in found.items():
        assert f == table.get(a), f"degree {a} mismatch"


def test_known_small_values():
    # published values, independent of our own search
    assert search_up_to(2, 2) == {1: [1, 1], 2: [1, 1, 1]}
    t3 = search_up_to(3, 2)
    assert t3[1] == [1, 1]          # x + 1 (root 2, the smallest primitive root)
    assert t3[2] == [2, 2, 1]       # x^2 + 2x + 2
    assert search_up_to(5, 1)[1] == [3, 1]
    assert search_up_to(7, 1)[1] == [4, 1]


def test_embedded_table_validates():
    # full validation (irreducible, primitive, norm compatible) on load
    for p in (2, 3, 5, 7):
        table = parse_table(CONWAY_TABLE_TEXT, p=p, validate=True)
        assert table.canonical
        assert table.degrees()[0] == 1


def test_norm_compatibility_explicit():
    table = parse_table(CONWAY_TABLE_TEXT, p=2, validate=False)
    c2, c4 = table.get(2), table.get(4)
    # C_2(x^5) = 0 mod C_4 since (2^4-1)/(2^2-1) = 5
    x5 = fppoly.powmod([0, 1], 5, c4, 2)
    val = fppoly.trim(fppoly.add(fppoly.mod(fppoly.mul(x5, x5, 2), c4, 2),
                                 fppoly.add(x5, [1], 2), 2))
    assert val == []


def test_work_bound_exhaustion():
    with pytest.raises(ConwayUnavailable):
        ConwayTable(2, work_bound=1000).get(64)


def test_pseudo_search_differs_in_convention():
    t = ConwayTable(3, pseudo=True)
    f = t.get(2)
    assert not t.canonical
    assert extfield.is_irreducible(f, 3)
    F = extfield.ExtField(3, f)
    assert is_primitive(F.gen())


def test_table_round_trip():
    table = parse_table(CONWAY_TABLE_TEXT, p=3, validate=False)
    text = dump_table(table)
    again = parse_table(text, validate=False)
    assert again.degrees() == table.degrees()
    for a in table.degrees():
        assert again.get(a) == table.get(a)


def test_loader_rejects_bad_entries():
    with pytest.raises(ValueError):
        parse_table("2 2 1 0 1\n", validate=True)   # x^2+1 is reducible over GF(2)
    with pytest.raises(ValueError):
        parse_table("2 2 1 1\n", validate=False)    # wrong coefficient count
    with pytest.raises(ValueError):
        parse_table("# only comments\n", validate=False)


def test_validated_table_fails_in_bounded_time():
    # primitivity needs the primes of p^10 - 1 at p = 2^31 - 1: rho splits off two
    # primes near 2^25 and 2^31 and leaves a 178-bit cofactor with two prime factors
    # above 2^64, where limits.RHO_MAX_STEPS ends the search
    f = extfield.random_irreducible(2 ** 31 - 1, 10, 0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"p=2147483647, a=10: .* cofactor \d+ unfactored"):
        parse_table("2147483647 10 " + " ".join(map(str, f)) + "\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("p", [5, 7])
def test_primitive_predicate_matches_extfield(p):
    # the search's predicate (p^a - 1 factored once, one powmod per prime) against
    # ExtField's multiplicative order, on every monic irreducible of degree 2 and 3
    from itertools import product

    for a in (2, 3):
        primes = sorted(extfield.factorize(p ** a - 1))
        seen = set()
        for low in product(range(p), repeat=a):
            f = list(low) + [1]
            if not extfield.is_irreducible(f, p):
                continue
            want = is_primitive(extfield.ExtField(p, f).gen())
            assert _is_primitive_poly(f, p, primes, fppoly.reduction_matrix(f, p)) == want, f
            seen.add(want)
        assert seen == {True, False}
    assert not _is_primitive_poly([0, 1], p, list(extfield.factorize(p - 1)),   # X = 0 mod X
                                  fppoly.reduction_matrix([0, 1], p))


# -- the search over the norm-fixed candidates ------------------------------------


def exhaustive_search_oracle(p, a, known, pseudo=False):
    """conway_search as it ran before the norm pruning: every monic candidate
    in enumeration order, no work bound."""
    divisors = {d: f for d, f in known.items() if d < a and a % d == 0}
    order_primes = list(extfield.factorize(p ** a - 1))
    for index in range(p ** a):
        word = []
        v = index
        for _ in range(a):
            word.append(v % p)
            v //= p
        word.reverse()
        if pseudo:
            cand = word[::-1] + [1]
        else:
            cand = _word_to_poly(word, a, p)
        if cand[0] == 0:
            continue
        if not extfield.is_irreducible(cand, p):
            continue
        R = fppoly.reduction_matrix(cand, p)
        if (_is_primitive_poly(cand, p, order_primes, R)
                and _norm_compatible(cand, a, divisors, p, R)):
            return cand
    raise ConwayUnavailable(f"no Conway polynomial found for p={p}, a={a}")


ORACLE_LEVELS = {2: 13, 3: 8, 5: 5, 7: 4, 11: 3, 13: 3, 17: 3, 31: 2, 101: 2, 257: 3}


@pytest.mark.parametrize("pseudo", [False, True])
@pytest.mark.parametrize("p", sorted(ORACLE_LEVELS))
def test_search_matches_exhaustive_oracle(p, pseudo):
    known = {}
    for a in range(1, ORACLE_LEVELS[p] + 1):
        want = exhaustive_search_oracle(p, a, known, pseudo)
        assert conway_search(p, a, known, work_bound=10 ** 12, pseudo=pseudo) == want, (p, a)
        known[a] = want


def test_search_at_65521():
    # the exhaustive search took minutes for a = 2 and 3; these are its outputs
    known = {}
    for a, want in ((1, [65504, 1]), (2, [17, 65518, 1]), (3, [65504, 1, 0, 1])):
        known[a] = conway_search(65521, a, known)
        assert known[a] == want


def test_search_visits_only_the_norm_fixed_candidates(monkeypatch):
    # C_1 = X - 3 fixes f(0) = 3 at a = 2, so 7 candidates are tested (1539 exhaustively)
    calls = []
    test = extfield.is_irreducible

    def counted(f, q):
        calls.append(tuple(f))
        return test(f, q)

    monkeypatch.setattr(extfield, "is_irreducible", counted)
    assert conway_search(257, 2, {1: [254, 1]}) == [3, 251, 1]
    assert 0 < len(calls) <= 7 and all(f[0] == 3 for f in calls)
    monkeypatch.setattr(extfield, "is_irreducible", test)
    # the work bound is spent at a*a = 4 units per candidate visited
    with pytest.raises(ConwayUnavailable):
        conway_search(257, 2, {1: [254, 1]}, work_bound=27)
    assert conway_search(257, 2, {1: [254, 1]}, work_bound=28) == [3, 251, 1]
