"""CLI: golden outputs, exit codes, and machine-format round-trips."""

import contextlib
import functools
import io
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fflattice import extfield, limits
from fflattice.cli import _valid_degrees, main
from fflattice.lattice import StdLattice, default_lattice


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stdpoly_golden(capsys):
    code, out, _ = run(capsys, "stdpoly", "-p", "2", "-l", "15")
    assert code == 0 and out.strip() == "x^15+x+1"
    code, out, _ = run(capsys, "stdpoly", "-p", "2", "-l", "1")
    assert code == 0 and out.strip() == "x+1"
    code, out, _ = run(capsys, "stdpoly", "-p", "2", "-l", "7")
    assert code == 0 and out.strip() == "x^7+x+1"


def test_stdpoly_machine_format(capsys):
    code, out, _ = run(capsys, "stdpoly", "-p", "3", "-l", "2", "--format", "machine")
    assert code == 0 and out.strip() == "1 0 1"


def test_stdpoly_bad_input(capsys):
    code, _, err = run(capsys, "stdpoly", "-p", "2", "-l", "2")
    assert code == 2 and err
    code, _, err = run(capsys, "stdpoly", "-p", "4", "-l", "3")
    assert code == 2  # 4 is not prime


def test_stdpoly_seed_independent(capsys):
    _, out1, _ = run(capsys, "stdpoly", "-p", "2", "-l", "9", "--seed", "1")
    _, out2, _ = run(capsys, "stdpoly", "-p", "2", "-l", "9", "--seed", "2")
    assert out1 == out2


def test_embed_identity(capsys):
    code, out, _ = run(capsys, "embed", "-p", "2", "-l", "3", "-m", "3", "--verify")
    assert code == 0
    assert "minimal polynomial of t == P_3" in out


def test_embed_verify(capsys):
    code, out, _ = run(capsys, "embed", "-p", "2", "-l", "3", "-m", "15", "--verify")
    assert code == 0
    assert "P_3 = x^3+x+1" in out
    assert "P_15 = x^15+x+1" in out
    assert "minimal polynomial of t == P_3" in out


def test_embed_non_divisible(capsys):
    code, _, err = run(capsys, "embed", "-p", "2", "-l", "3", "-m", "10")
    assert code == 2 and err  # 10 is even: p | m


@pytest.mark.parametrize("l, m", [("0", "3"), ("3", "0"), ("-3", "3"), ("0", "0")])
def test_embed_degree_below_one(capsys, l, m):
    code, _, err = run(capsys, "embed", "-p", "2", "-l", l, "-m", m)
    assert code == 2 and "degrees must be >= 1" in err


@functools.cache
def reachable_pairs(p):
    """(l, m), l | m <= 60, both degrees reachable at p (cli._valid_degrees)."""
    degrees = _valid_degrees(p, 60, default_lattice(p))
    return [(ell, m) for m in degrees for ell in degrees if m % ell == 0]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=st.sampled_from([2, 3, 5, 7, 257]).flatmap(
    lambda p: st.sampled_from(reachable_pairs(p)).map(lambda lm: (p, *lm))))
def test_embed_machine_round_trips_through_loader(case):
    p, ell, m = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["embed", "-p", str(p), "-l", str(ell), "-m", str(m), "--format", "machine"])
    out = out.getvalue()
    assert code == 0
    L = StdLattice.loads(out)
    assert L.dumps() == out
    # the registry uses the standard representation: f = P for both fields
    for n in (ell, m):
        assert L.field(n).field.modulus == L.field(n).P
    assert L.get_embedding(ell, m).s_image.field.modulus == L.field(m).P


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "-p", "2", "--max", "15")
    assert code == 0
    assert "0 failures" in out
    assert "FAIL" not in out


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "-p", "3", "--max", "1")
    assert code == 0
    assert "0 triangles checked" in out


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "-p", "3", "--max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,level,decorate_seconds,embed_seconds"
    degrees = [int(row.split(",")[0]) for row in lines[1:]]
    assert degrees == [1, 2, 4, 5, 7, 8]
    for row in lines[1:]:
        parts = row.split(",")
        assert len(parts) == 4
        float(parts[2])  # decorate_seconds parses


def test_conway_golden(capsys):
    code, out, _ = run(capsys, "conway", "-p", "2", "-a", "1")
    assert code == 0 and out.strip() == "x+1"
    code, out, _ = run(capsys, "conway", "-p", "3", "-a", "2", "--format", "machine")
    assert code == 0 and out.strip() == "3 2 2 2 1"
    code, out, _ = run(capsys, "conway", "-p", "65521", "-a", "2")
    assert code == 0 and out.strip() == "x^2+65518x+17"


def test_conway_work_bound(capsys):
    code, _, err = run(capsys, "conway", "-p", "2", "-a", "64")
    assert code == 3 and err


def test_conway_table_override(tmp_path, capsys):
    table = tmp_path / "conway.txt"
    table.write_text("2 1 1 1\n2 2 1 1 1\n2 3 1 1 0 1\n")
    code, out, _ = run(capsys, "conway", "-p", "2", "-a", "3",
                       "--conway-table", str(table))
    assert code == 0 and out.strip() == "x^3+x+1"
    code, _, err = run(capsys, "conway", "-p", "2", "-a", "3",
                       "--conway-table", str(tmp_path / "missing.txt"))
    assert code == 2


def test_conway_table_past_the_rho_budget_exits_2(tmp_path, capsys, monkeypatch):
    # validating the table factors p^10 - 1 at p = 2^31 - 1, which the rho budget
    # ends (test_conway times it at the full budget; a smaller one ends it sooner)
    monkeypatch.setattr(limits, "RHO_MAX_STEPS", 1000)
    table = tmp_path / "conway.txt"
    f = extfield.random_irreducible(2 ** 31 - 1, 10, 0)
    table.write_text("2147483647 10 " + " ".join(map(str, f)) + "\n")
    code, _, err = run(capsys, "conway", "-p", "2147483647", "-a", "1",
                       "--conway-table", str(table))
    assert code == 2 and "RHO_MAX_STEPS" in err and "a=10" in err


def test_machine_output_deterministic(capsys):
    args = ("embed", "-p", "2", "-l", "5", "-m", "15", "--format", "machine")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_embed_machine_round_trip_degree_one(capsys):
    code, out, _ = run(capsys, "embed", "-p", "3", "-l", "1", "-m", "4", "--format", "machine")
    assert code == 0
    assert StdLattice.loads(out).dumps() == out


def test_verify_prime_outside_table(capsys):
    # p = 257 has no tabulated Conway polynomials; levels 1 and 2 are searched
    code, out, _ = run(capsys, "verify", "-p", "257", "--max", "8")
    assert code == 0
    checked = int(out.strip().splitlines()[-1].split()[0])
    assert checked > 0 and "FAIL" not in out


def test_bench_prime_outside_table(capsys):
    code, out, _ = run(capsys, "bench", "-p", "65521", "--max", "8")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, 9))


def test_verify_unreachable_prime_exits_3(capsys):
    # 2^31 - 1 > the default work bound: not even level 1 can be searched
    code, out, err = run(capsys, "verify", "-p", "2147483647", "--max", "8")
    assert code == 3 and "p=2147483647" in err and not out


def test_stdpoly_level_two_at_largest_prime_exits_2(capsys):
    # the level-2 Conway entry is found, but its discrete log exceeds the baby-step bound
    code, out, err = run(capsys, "stdpoly", "-p", "2147483647", "-l", "4")
    assert code == 2 and "p=2147483647" in err and not out


@pytest.mark.parametrize("p, l, need", [("2", "262143", 549751619592),
                                        ("3", "6560", 344268800)])
def test_stdpoly_oversize_degree_exits_2_at_once(capsys, p, l, need):
    # refused by the dense-matrix limit before any search, draw or matrix
    tracemalloc.start()
    t0 = time.perf_counter()
    code, out, err = run(capsys, "stdpoly", "-p", p, "-l", l)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2 and not out and elapsed < 1 and peak < 2 ** 22
    assert f"p={p}, l={l} need {need} bytes" in err and "268435456" in err
