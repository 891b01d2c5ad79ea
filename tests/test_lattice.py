"""StdLattice registry: incrementality, embedding caching, section behavior,
triangle verification, serialization round-trip, and storage linearity."""

import functools
import random
import sys
import threading

import numpy as np
import pytest

from fflattice import extfield, linalg, standardize
from fflattice.lattice import StdLattice
from oracles import InconsistentSystem, solve


def build(p, degrees):
    L = StdLattice(p)
    for ell in degrees:
        L.add_field(ell)
    return L


def test_add_field_idempotent():
    L = build(2, [3])
    d1 = L.field(3)
    d2 = L.add_field(3)
    assert d1 is d2
    # registering the same degree with a different irreducible is an error
    other = [1, 1, 0, 1] if d1.field.modulus != [1, 1, 0, 1] else [1, 0, 1, 1]
    with pytest.raises(ValueError):
        L.add_field(3, other)
    with pytest.raises(ValueError):
        L.add_field(4)  # divisible by the characteristic
    with pytest.raises(KeyError):
        L.field(5)


def test_supplied_polynomial_degree_checked_before_its_field(monkeypatch):
    # a supplied f of the wrong degree is refused by its degree, irreducible
    # (degree 5) or not (x^6 + x^5, with a leading coefficient p that trims
    # away), before any irreducibility test
    quintic = extfield.random_irreducible(3, 5, 0)
    calls = []
    is_irreducible = extfield.is_irreducible
    monkeypatch.setattr(extfield, "is_irreducible",
                        lambda *args: calls.append(args) or is_irreducible(*args))
    L = StdLattice(3)
    for f, n in ((quintic, 5), ([0] * 5 + [1, 1, 3], 6)):
        with pytest.raises(ValueError, match=f"degree {n} does not match l = 4"):
            L.add_field(4, f)
    assert not calls
    assert not L.fields


def test_incrementality():
    # adding a new degree never changes existing decorations
    L = build(2, [1, 3, 5])
    snap = {ell: (L.field(ell).s, tuple(L.field(ell).P)) for ell in (1, 3, 5)}
    L.add_field(15)
    L.add_field(9)
    for ell, (s, P) in snap.items():
        assert L.field(ell).s == s
        assert tuple(L.field(ell).P) == P


def test_embedding_cache(monkeypatch):
    L = build(2, [3, 15])
    embed = standardize.standard_embed
    calls = []
    monkeypatch.setattr(standardize, "standard_embed",
                        lambda *args: calls.append(args) or embed(*args))
    desc = L.get_embedding(3, 15)
    assert L.get_embedding(3, 15) is desc
    L.embed_eval(3, 15, L.field(3).s)
    L.section_eval(3, 15, L.field(15).s)
    assert len(calls) == 1


@pytest.mark.parametrize("p, m", [(2, 105), (65521, 48)])
def test_identity_embedding_builds_nothing(monkeypatch, p, m):
    # GF(p^m) -> GF(p^m) is s_m |-> s_m with E = I, at level 12 and at
    # level 1: no Krylov matrix and no elimination
    L = build(p, [m])
    calls = []
    for name in ("krylov", "left_inverse"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    desc = L.get_embedding(m, m)
    monkeypatch.undo()
    assert not calls
    assert desc.s_image == L.field(m).s
    assert np.array_equal(desc.matrix, np.eye(m, dtype=np.int64))
    x = L.field(m).field.random_element(random.Random(m))
    assert L.embed_eval(m, m, x) == x and L.section_eval(m, m, x) == x


def test_basis_inverse_cached_per_source_degree(monkeypatch):
    L = build(2, [3, 9, 15, 45])
    stored = L.stored_coefficients()
    left_inverse = linalg.left_inverse
    calls = []
    monkeypatch.setattr(linalg, "left_inverse",
                        lambda W, p: calls.append(W.shape) or left_inverse(W, p))
    for ell, m in [(3, 9), (3, 15), (3, 45), (9, 45)]:
        L.get_embedding(ell, m)
    # B_3 and B_9 once each; each level pair (d, a) = (2, 6), (2, 4), (2, 12),
    # (6, 12) of a projection adds its a x d Conway basis once
    assert sorted(shape for shape in calls if shape[0] == shape[1]) == [(3, 3), (9, 9)]
    assert len(calls) == 2 + 4
    src = L.field(3)
    B = src.field.powers(src.s, 3)
    assert linalg.matmul_mod(B, src.basis_inverse(), 2).tolist() == np.eye(3).tolist()
    assert L.stored_coefficients() == stored   # a cache, not stored state


PAIR_DEGREES = {2: [1, 3, 5, 15, 45], 3: [1, 2, 4, 8, 20, 40], 5: [1, 2, 4, 12, 52]}


def divisor_pairs(degrees):
    return [(ell, m) for ell in degrees for m in degrees if ell < m and m % ell == 0]


def test_threads_share_one_lattice():
    # four threads (more than the cores CI has) embedding every pair on one
    # lattice and taking its section, with the powers of alpha, the basis
    # inverses and the sections cold and a short switch interval: every pair
    # lands once, with the matrices of one thread on a fresh lattice
    p, degrees = 3, PAIR_DEGREES[3]
    pairs = divisor_pairs(degrees)
    alone = build(p, degrees)
    for ell, m in pairs:
        alone.get_embedding(ell, m)
        alone.section_eval(ell, m, alone.field(m).s)
    L = build(p, degrees)
    barrier = threading.Barrier(4, timeout=60)
    errors = []

    def work(k):
        try:
            barrier.wait()
            for ell, m in pairs[k:] + pairs[:k]:
                L.get_embedding(ell, m)
                s = L.field(ell).s
                if L.section_eval(ell, m, L.embed_eval(ell, m, s)) != s:
                    errors.append((ell, m))
        except Exception as exc:   # surfaced below; a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert sorted(L.embeddings) == sorted(pairs)
    for pair in pairs:
        assert L.get_embedding(*pair) == alone.get_embedding(*pair)
        E, want_E = L.get_embedding(*pair).matrix, alone.get_embedding(*pair).matrix
        assert np.array_equal(E, want_E), pair
        section, want = L.embeddings[pair].section, alone.embeddings[pair].section
        assert np.array_equal(section.matrix, want.matrix) and section.rows == want.rows, pair

    # then four threads embedding every divisor of 40 into GF(3^40) at once,
    # on fresh fields: the kept powers alpha_40^(40/l) are the ones of one thread
    L = build(p, degrees + [5, 10])
    sources = [d for d in range(1, 41) if 40 % d == 0 and d in L.fields]
    barrier = threading.Barrier(4, timeout=60)

    def embed_into_40(k):
        try:
            barrier.wait()
            for ell in sources[k:] + sources[:k]:
                L.get_embedding(ell, 40)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=embed_into_40, args=(k,)) for k in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    alone = build(p, degrees + [5, 10])
    for ell in sources:
        assert L.get_embedding(ell, 40) == alone.get_embedding(ell, 40), ell
    kept, want = L.field(40)._alpha_powers, alone.field(40)._alpha_powers
    assert sorted(kept) == sorted(want) == [2, 4, 5, 8, 10, 20]
    assert all(np.array_equal(kept[e].coeffs, want[e].coeffs) for e in want)


def test_embedding_is_ring_homomorphism():
    L = build(3, [2, 8])
    F = L.field(2).field
    rng = random.Random(28)
    for _ in range(50):
        x, y = F.random_element(rng), F.random_element(rng)
        assert L.embed_eval(2, 8, x * y) == L.embed_eval(2, 8, x) * L.embed_eval(2, 8, y)
        assert L.embed_eval(2, 8, x + y) == L.embed_eval(2, 8, x) + L.embed_eval(2, 8, y)
    assert L.embed_eval(2, 8, F.one()) == L.field(8).field.one()


def test_section_round_trip_and_rejection():
    L = build(2, [5, 15])
    F5 = L.field(5).field
    rng = random.Random(515)
    for _ in range(30):
        x = F5.random_element(rng)
        y = L.embed_eval(5, 15, x)
        assert L.section_eval(5, 15, y) == x
    # elements outside the subfield are flagged with None
    rejected = 0
    for _ in range(30):
        z = L.field(15).field.random_element(rng)
        if L.section_eval(5, 15, z) is None:
            rejected += 1
    assert rejected > 0


def test_section_matches_linear_solve():
    # the cached left inverse agrees with solving E x = y from scratch,
    # including a source of degree 1 and sources that are not subfield images
    L = build(3, [1, 2, 4, 8])
    rng = random.Random(248)
    for ell, m in [(1, 4), (1, 8), (2, 8), (4, 8), (8, 8)]:
        E = L.get_embedding(ell, m).matrix
        F = L.field(m).field
        ys = [F.random_element(rng) for _ in range(20)]
        ys += [L.embed_eval(ell, m, L.field(ell).field.random_element(rng)) for _ in range(5)]
        for y in ys:
            got = L.section_eval(ell, m, y)
            try:
                x = solve(E, np.array(y.vec, dtype=np.int64), L.p)
            except InconsistentSystem:
                assert got is None, (ell, m, y)
            else:
                assert got is not None and list(got.vec) == list(x), (ell, m, y)


def test_section_built_on_first_use():
    # embeddings, verify() and a round trip through dumps build no section;
    # the first section_eval of a pair builds it, and later calls reuse it
    L = build(3, [1, 2, 4])
    L.get_embedding(2, 4)
    assert L.verify().all_passed
    L = StdLattice.loads(L.dumps())
    assert all(entry.section is None for entry in L.embeddings.values())
    x = L.field(2).field.gen()
    assert L.section_eval(2, 4, L.embed_eval(2, 4, x)) == x
    entry = L._embedding_entry(2, 4)
    section = entry.section
    E, Q, rows = entry.desc.matrix, section.matrix, section.rows
    assert Q.shape == (2 + 4, 2) and len(rows) == 2
    A = Q[:2]
    assert linalg.matmul_mod(A, E[rows], L.p).tolist() == np.eye(2).tolist()
    assert Q[2:].tolist() == linalg.matmul_mod(E, A, L.p).tolist()
    assert section.take(tuple(range(10, 14))) == tuple(10 + i for i in rows)
    assert L.section_eval(2, 4, L.field(4).field.gen()) is None
    assert entry.section is section
    assert all(e.section is None for key, e in L.embeddings.items() if key != (2, 4))


def solve_oracle_section(E, y, p):
    # the left inverse S of E from one solve, S y, and the test E S y = y
    S = solve(E.T, np.eye(E.shape[1], dtype=np.int64), p).T
    x = linalg.matmul_mod(S, np.array(y.vec, dtype=np.int64), p)
    if (linalg.matmul_mod(E, x, p) != np.array(y.vec, dtype=np.int64)).any():
        return None
    return x.tolist()


# l = 1, l = m and mid pairs in each prime tier
SECTION_DEGREES = {
    2: (1, 3, 15),
    3: (1, 2, 8),
    5: (1, 2, 4, 12),
    65521: (1, 4, 12),
    2 ** 31 - 1: (1, 3, 9),
}


@pytest.mark.parametrize("p", sorted(SECTION_DEGREES))
def test_section_matches_solve_oracle(p):
    # section_eval, read from l coordinates of y, agrees with the solved
    # left inverse on images, random targets and the generator, None included
    degrees = SECTION_DEGREES[p]
    L = build(p, degrees)
    rng = random.Random(p % 1000 + 19)
    for ell, m in [(ell, m) for ell in degrees for m in degrees if m % ell == 0]:
        E = L.get_embedding(ell, m).matrix
        S, T = L.field(ell).field, L.field(m).field
        ys = [L.embed_eval(ell, m, S.random_element(rng)) for _ in range(4)]
        ys += [T.random_element(rng) for _ in range(4)] + [T.gen(), T.zero(), T.one()]
        for y in ys:
            got = L.section_eval(ell, m, y)
            want = solve_oracle_section(E, y, p)
            assert (got if got is None else list(got.vec)) == want, (ell, m, y)
        assert L.section_eval(ell, m, T.gen()) is None or ell == m


# one lattice per prime tier: p = 2 and 3 (many levels), p = 65521 (int64
# mat-vecs) and p = 2^31 - 1 (object-dtype mat-vecs from l = 2 on)
EVAL_DEGREES = {
    2: (1, 3, 9, 15),
    3: (1, 2, 4, 8),
    65521: (1, 2, 4, 12, 48),
    2 ** 31 - 1: (1, 3, 9),
}


def assert_residue_tuple(z, field):
    # what ExtField.element builds: a full-length tuple of Python int residues
    assert z.field is field
    assert type(z.vec) is tuple and len(z.vec) == field.n
    assert all(type(v) is int and 0 <= v < field.p for v in z.vec)


@pytest.mark.parametrize("p", sorted(EVAL_DEGREES))
def test_eval_results_are_residue_tuples(p):
    # embed_eval and section_eval build their results from the reduced
    # product; those must equal, and hash like, ExtField.element of an oracle
    degrees = EVAL_DEGREES[p]
    L = build(p, degrees)
    rng = random.Random(p % 1000 + 15)
    for ell, m in [(ell, m) for ell in degrees for m in degrees if m % ell == 0]:
        src = L.field(ell)
        S, T = src.field, L.field(m).field
        E = L.get_embedding(ell, m).matrix
        B = S.powers(src.s, ell)
        t = L.get_embedding(ell, m).s_image
        xs = [S.zero(), S.one(), S.element([p - 1] * ell)]
        xs += [S.random_element(rng) for _ in range(4)]
        for x in xs:
            y = L.embed_eval(ell, m, x)
            assert_residue_tuple(y, T)
            want = T.element(list(linalg.matmul_mod(E, np.array(x.vec, dtype=np.int64), p)))
            assert y == want and hash(y) == hash(want), (ell, m, x)
            # independently: x = sum c_i s^i by a fresh solve, phi(x) = sum c_i t^i
            c = solve(B, np.array(x.vec, dtype=np.int64), p).tolist()
            assert y == sum((t ** i * ci for i, ci in enumerate(c)), T.zero()), (ell, m, x)
            back = L.section_eval(ell, m, y)
            assert_residue_tuple(back, S)
            assert back == x and hash(back) == hash(x), (ell, m, x)
        for z in [T.random_element(rng) for _ in range(4)]:
            got = L.section_eval(ell, m, z)
            try:
                sol = solve(E, np.array(z.vec, dtype=np.int64), p)
            except InconsistentSystem:
                assert got is None, (ell, m, z)
                continue
            assert_residue_tuple(got, S)
            want = S.element(list(sol))
            assert got == want and hash(got) == hash(want), (ell, m, z)
        if ell < m:
            assert L.section_eval(ell, m, T.gen()) is None


def counting(calls, name, fn):
    """fn, appending name to calls on each call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("p, ell, m", [(3, 2, 8), (65521, 4, 12), (2 ** 31 - 1, 3, 9)])
def test_warm_eval_call_counts(monkeypatch, p, ell, m):
    # once the pair is warm, embed_eval and section_eval are one mat-vec
    # each, with no left inverse, no rref and no ExtField.element re-validation
    L = build(p, [ell, m])
    x = L.field(ell).field.random_element(random.Random(p))
    y = L.embed_eval(ell, m, x)
    assert L.section_eval(ell, m, y) == x
    outside = L.field(m).field.gen()
    calls = []
    counted = functools.partial(counting, calls)
    monkeypatch.setattr(linalg, "matmul_mod", counted("matmul_mod", linalg.matmul_mod))
    monkeypatch.setattr(linalg, "left_inverse", counted("left_inverse", linalg.left_inverse))
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(extfield.ExtField, "element", counted("element", extfield.ExtField.element))
    assert L.embed_eval(ell, m, x) == y
    assert calls == ["matmul_mod"]
    for z, want in ((y, x), (outside, None)):
        calls.clear()
        assert L.section_eval(ell, m, z) == want
        assert calls == ["matmul_mod"]


@pytest.mark.parametrize("p, degrees", [(2, [1, 3, 5, 15, 21, 105]), (3, [1, 2, 4, 8])])
def test_p2_never_enters_the_numpy_loops(monkeypatch, p, degrees):
    # at p = 2 every elimination (entries, level pairs, B_l^(-1), sections) and
    # every Berlekamp-Massey runs on packed bits; at p = 3 the loops run
    calls = []
    counted = functools.partial(counting, calls)
    monkeypatch.setattr(linalg, "_rref_loop", counted("rref", linalg._rref_loop))
    monkeypatch.setattr(extfield, "_berlekamp_massey_loop",
                        counted("bm", extfield._berlekamp_massey_loop))
    L = build(p, degrees)
    assert L.verify().all_passed
    for ell, m in divisor_pairs(degrees):
        assert L.section_eval(ell, m, L.embed_eval(ell, m, L.field(ell).s)) == L.field(ell).s
    if p == 2:
        assert calls == []
    else:
        assert {"rref", "bm"} <= set(calls)


def test_add_field_tests_each_candidate_once(monkeypatch):
    # the polynomial the search accepted is not tested a second time when its
    # field is built; a supplied polynomial is still checked
    p, ell = 3, 20
    tested = []
    test = extfield.is_irreducible

    def counted(f, q):
        tested.append(tuple(f))
        return test(f, q)

    monkeypatch.setattr(extfield, "is_irreducible", counted)
    drawn = tuple(extfield.random_irreducible(p, ell, 0))
    candidates = list(tested)
    assert candidates[-1] == drawn and candidates.count(drawn) == 1
    tested.clear()
    dec = StdLattice(p).add_field(ell)
    assert tested == candidates
    assert tuple(dec.field.modulus) == drawn
    tested.clear()
    with pytest.raises(ValueError, match="reducible"):
        StdLattice(p).add_field(4, [1, 0, 2, 0, 1])   # (X^2 + 1)^2 over GF(3)
    assert tested == [(1, 0, 2, 0, 1)]


def test_identity_embedding():
    L = build(2, [7])
    assert L.embed_eval(7, 7, L.field(7).s) == L.field(7).s


def test_non_divisible_pair_rejected():
    L = build(2, [3, 5])
    with pytest.raises(ValueError):
        L.get_embedding(3, 5)


def test_unregistered_degree_zero_rejected():
    L = build(2, [3])
    for ell, m in [(0, 3), (3, 0), (0, 0)]:
        with pytest.raises(KeyError, match="degree 0 is not registered"):
            L.get_embedding(ell, m)


@pytest.mark.parametrize("p, ell", [(2, 0), (2, -2), (2, -1), (3, 0), (3, -3)])
def test_add_field_rejects_degree_below_one(p, ell):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        StdLattice(p).add_field(ell)


def test_verify_triangles():
    L = build(2, [1, 3, 5, 9, 15, 45])
    report = L.verify()
    assert report.all_passed
    # 1|3|9, 1|3|15, 1|5|15, 1|3|45, 1|5|45, 1|9|45, 1|15|45,
    # 3|9|45, 3|15|45, 5|15|45, 9|45 chains etc.
    assert len(report.triples) >= 10


def test_serialization_round_trip():
    L = build(3, [1, 2, 4, 8])
    L.get_embedding(1, 4)   # `1 4 t(4)` has 3 * 1 + 3 tokens, like a field line
    L.get_embedding(2, 8)
    L.get_embedding(4, 8)
    text = L.dumps()
    again = StdLattice.loads(text)
    assert again.dumps() == text
    assert again.degrees() == L.degrees()
    for ell in L.degrees():
        assert again.field(ell).P == L.field(ell).P
        assert again.field(ell).s == L.field(ell).s


def test_loader_rejects_tampered_data():
    L = build(2, [3])
    text = L.dumps()
    lines = text.splitlines()
    toks = lines[1].split()
    # flip one bit of the stored generator s
    toks[5] = str(1 - int(toks[5]))
    bad = lines[0] + "\n" + " ".join(toks) + "\n"
    with pytest.raises(ValueError):
        StdLattice.loads(bad)


def test_loader_rejects_malformed_records():
    for bad in ["2\nE\n", "2\nE 3\n", "2\n-1\n", "2\nE 0 3 1 0 0\n",
                "2\nE 1 3 1 0 0\n"]:      # last: degrees that were never registered
        with pytest.raises(ValueError):
            StdLattice.loads(bad)


def test_storage_linear_in_degree():
    L1 = build(2, [9])
    L2 = build(2, [19])
    # 3l + 2 coefficients per field (f, s, P with two leading-1 terms)
    assert L1.stored_coefficients() == 3 * 9 + 2
    assert L2.stored_coefficients() == 3 * 19 + 2


def test_field_mismatch_rejected():
    L = build(2, [3, 15])
    other = extfield.ExtField(2, [1, 1, 0, 1])
    with pytest.raises(extfield.FieldMismatch):
        L.embed_eval(3, 15, other.gen())


def test_serialization_round_trip_ambiguous_token_count():
    # the embedding record `1 4 t0..t3` has 3*1 + 3 tokens, like a field record
    L = build(3, [1, 4])
    L.get_embedding(1, 4)
    text = L.dumps()
    assert text.splitlines()[-1].startswith("E 1 4 ")
    again = StdLattice.loads(text)
    assert again.dumps() == text
    assert again.get_embedding(1, 4).s_image == L.get_embedding(1, 4).s_image


def test_loader_reads_untagged_embedding_records():
    L = build(3, [1, 2, 4, 8])
    L.get_embedding(1, 4)   # `1 4 t(4)` has 3 * 1 + 3 tokens, like a field line
    L.get_embedding(2, 8)
    L.get_embedding(4, 8)
    text = L.dumps()
    untagged = text.replace("\nE ", "\n")
    assert untagged != text
    assert StdLattice.loads(untagged).dumps() == text
