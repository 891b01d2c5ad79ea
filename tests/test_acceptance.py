"""Acceptance gate: the nine binding criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; each criterion is also a hard assertion.
"""

import io
import random
import time
from contextlib import redirect_stdout

import pytest

from fflattice import extfield, kummer, standardize
from fflattice.cli import main as cli_main, _valid_degrees
from fflattice.conway import conway_search, parse_table
from fflattice.conway_data import CONWAY_TABLE_TEXT
from fflattice.kummer import KummerAlg
from fflattice.lattice import StdLattice, default_lattice

TABLE1_P2 = {
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

_CYCLO = {}
_REGISTRY = {}


def cyclo(p):
    if p not in _CYCLO:
        _CYCLO[p] = default_lattice(p)
    return _CYCLO[p]


def registry(p, max_degree):
    key = (p, max_degree)
    if key not in _REGISTRY:
        L = StdLattice(p, cyclo(p))
        for ell in _valid_degrees(p, max_degree, L.lattice):
            L.add_field(ell)
        _REGISTRY[key] = L
    return _REGISTRY[key]


def report(num, ok, msg):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    L = cyclo(2)
    bad = [ell for ell, want in TABLE1_P2.items()
           if standardize.standard_polynomial(ell, L) != want]
    elapsed = time.perf_counter() - t0
    report(1, not bad and elapsed <= 60,
           f"ten standard polynomials for p=2 bit-exact in {elapsed:.2f}s "
           f"(limit 60s){'; mismatches: ' + str(bad) if bad else ''}")


def test_criterion_2_standardness_suite():
    failures = []
    checked = 0
    for p in (2, 3, 5):
        L = cyclo(p)
        for ell in _valid_degrees(p, 40, L):
            d = standardize.decorate(ell, L)
            alpha = d.alpha
            alg = d.algebra
            zeta = alg.entry.zeta
            h90_ok = kummer.frob_left(alpha) == alpha.scalar_mul(zeta)
            abar = L.standard_constant(ell)
            const_ok = alpha ** ell == alg.from_scalar(abar)
            checked += 1
            if not (h90_ok and const_ok):
                failures.append((p, ell))
    report(2, not failures,
           f"H90 and standard-constant identities bit-exact for {checked} "
           f"(p, l) cases{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_3_compatibility_triangles():
    t0 = time.perf_counter()
    total, failures = 0, []
    for p in (2, 3, 5):
        rep = registry(p, 60).verify()
        total += len(rep.triples)
        failures += [(p,) + f for f in rep.failures]
    elapsed = time.perf_counter() - t0
    report(3, not failures and elapsed <= 300,
           f"{total} triangles over p in (2,3,5), degrees <= 60, all exact in "
           f"{elapsed:.1f}s (limit 300s)"
           f"{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_4_uniqueness():
    pairs = [(2, l) for l in (1, 3, 5, 7, 9, 11, 15, 21)] + \
            [(3, l) for l in (1, 2, 4, 5, 8, 13)] + \
            [(5, l) for l in (2, 4, 6, 12)] + [(7, 2), (7, 4)]
    assert len(pairs) == 20
    failures = []
    for p, ell in pairs:
        L = cyclo(p)
        f1 = extfield.random_irreducible(p, ell, seed=11)
        f2 = f1
        for seed in range(12, 40):
            f2 = extfield.random_irreducible(p, ell, seed=seed)
            if f2 != f1:
                break
        assert f1 != f2, (p, ell)
        P1 = standardize.decorate(ell, L, defining_poly=f1).P
        P2 = standardize.decorate(ell, L, defining_poly=f2).P
        if P1 != P2:
            failures.append((p, ell))
    report(4, not failures,
           f"P_l identical under two representations for 20 (p, l) pairs"
           f"{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_5_level_equal_kappa():
    # collect 10 divisor pairs with equal levels across small primes
    pairs = []
    for p in (2, 3, 5, 7):
        L = cyclo(p)
        for m in range(2, 64):
            if m % p == 0:
                continue
            for ell in range(1, m):
                if m % ell or ell % p == 0:
                    continue
                if L.level(ell) == L.level(m) and L.level(m) <= 6:
                    pairs.append((p, ell, m))
        if len(pairs) >= 10:
            break
    pairs = pairs[:10]
    assert len(pairs) == 10
    failures = []
    for p, ell, m in pairs:
        L = cyclo(p)
        k = standardize.kappa_constant(ell, m, L)
        if k != L.entry(m).K.one():
            failures.append((p, ell, m))
    report(5, not failures,
           f"kappa = 1 for 10 level-equal divisor pairs {pairs}"
           f"{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_6_key_identity():
    t0 = time.perf_counter()
    cases = [(2, 1, 2), (2, 2, 4), (3, 1, 2), (5, 1, 2)]
    failures = [c for c in cases
                if not standardize.verify_key_identity(c[1], c[2], cyclo(c[0]))]
    elapsed = time.perf_counter() - t0
    report(6, not failures and elapsed <= 30,
           f"norm key identity holds for {cases} in {elapsed:.2f}s (limit 30s)"
           f"{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_7_homomorphism_and_section():
    L = registry(2, 60)
    # make sure a spread of embeddings is cached
    for (ell, m) in [(1, 9), (3, 9), (3, 15), (5, 15), (3, 21), (7, 21),
                     (5, 45), (9, 45), (15, 45), (3, 33), (11, 33)]:
        L.get_embedding(ell, m)
    rng = random.Random(7)
    failures = []
    for (ell, m) in sorted(L.embeddings):
        F, G = L.field(ell).field, L.field(m).field
        for _ in range(100):
            x, y = F.random_element(rng), F.random_element(rng)
            if L.embed_eval(ell, m, x * y) != L.embed_eval(ell, m, x) * L.embed_eval(ell, m, y):
                failures.append(("mul", ell, m))
                break
            if L.embed_eval(ell, m, x + y) != L.embed_eval(ell, m, x) + L.embed_eval(ell, m, y):
                failures.append(("add", ell, m))
                break
            if L.section_eval(ell, m, L.embed_eval(ell, m, x)) != x:
                failures.append(("section", ell, m))
                break
        if ell == m:
            continue
        rejected = 0
        attempts = 0
        while rejected < 10 and attempts < 1000:
            z = G.random_element(rng)
            attempts += 1
            got = L.section_eval(ell, m, z)
            if got is None:
                rejected += 1
            elif L.embed_eval(ell, m, got) != z:
                failures.append(("bad-section", ell, m))
                break
        if rejected < 10:
            failures.append(("too-few-rejections", ell, m))
    report(7, not failures,
           f"homomorphism/section properties on {len(L.embeddings)} cached "
           f"embeddings, 100 random pairs each, 10 rejections each"
           f"{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_8_conway_search_agreement():
    failures = []
    for p, amax in [(2, 8), (3, 6)]:
        table = parse_table(CONWAY_TABLE_TEXT, p=p, validate=False)
        known = {}
        for a in range(1, amax + 1):
            known[a] = conway_search(p, a, known, work_bound=50_000_000)
            if known[a] != table.get(a):
                failures.append((p, a))
    report(8, not failures,
           "brute-forced Conway polynomials (p=2 a<=8, p=3 a<=6) match the "
           f"embedded table{'; failures: ' + str(failures) if failures else ''}")


def test_criterion_9_bench_trend_report():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["bench", "-p", "3", "--max", "100"])
    out = buf.getvalue()
    rows = out.strip().splitlines()
    ok = code == 0 and rows[0] == "l,level,decorate_seconds,embed_seconds" and len(rows) > 1
    # report-only l^2 trend inspection, no formal assertion on timings
    data = [(int(r.split(",")[0]), float(r.split(",")[2])) for r in rows[1:]]
    big = [t for (l, t) in data if l > 50]
    small = [t for (l, t) in data if l <= 10]
    trend = ""
    if big and small:
        trend = (f"; trend (report only): mean decorate {sum(small)/len(small):.4f}s "
                 f"for l<=10 vs {sum(big)/len(big):.4f}s for l>50")
    report(9, ok,
           f"bench p=3 completed for all {len(rows) - 1} valid l <= 100{trend}")
