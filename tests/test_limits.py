"""Limits: each bound at its boundary, the reach the CLI derives from them,
and refusals that come before any Conway search, draw or matrix.

The boundary tests call the checks with bare integers and build nothing.
"""

import time

import pytest

from fflattice import extfield, limits, standardize
from fflattice.cli import _valid_degrees
from fflattice.conway import ConwayTable
from fflattice.lattice import default_lattice


def test_dense_matrix_bound_at_its_boundary():
    assert limits.dense_matrix_bytes(5792) <= limits.DENSE_MATRIX_MAX_BYTES
    assert limits.dense_matrix_bytes(5793) > limits.DENSE_MATRIX_MAX_BYTES
    limits.check_dense_matrices(2, 5792)
    with pytest.raises(ValueError, match=r"p=2, n=5793 need 268470792 bytes each, "
                                         r"more than DENSE_MATRIX_MAX_BYTES=268435456"):
        limits.check_dense_matrices(2, 5793)


def test_discrete_log_bound_at_its_boundary():
    # in GF(q^2) the baby steps are m = ceil(sqrt(q^2 - 1)) = q
    for q in (2 ** 17 - 1, 2 ** 17):
        assert limits.baby_steps(q, 2) == q
        limits.check_discrete_log(q, 2)
    q = 2 ** 17 + 1
    with pytest.raises(ValueError, match=f"p={q}, n=2 needs m={q} baby steps, "
                                         f"more than BSGS_MAX_STEPS={2 ** 17}"):
        limits.check_discrete_log(q, 2)
    assert limits.baby_steps(2, 1) == 0   # GF(2)^* is trivial


def test_complete_algebra_bound_at_its_boundary():
    limits.check_complete_algebra(2, 8)        # (2^8 - 1) 8 = 2040
    limits.check_complete_algebra(4097, 1)     # 4096
    for p, b, dim in [(4098, 1, 4097), (2, 9, 4599)]:
        with pytest.raises(ValueError, match=f"p={p}, b={b} has dimension {dim}, "
                                             f"more than COMPLETE_ALGEBRA_MAX_DIMENSION=4096"):
            limits.check_complete_algebra(p, b)


def test_conway_worst_case_at_its_boundary():
    # level 1: p - 1 candidates at 1 each; above: p^(a-1) candidates at a^2 each
    assert limits.conway_worst_case(257, 1) == 256
    assert limits.conway_worst_case(65521, 2) == 65521 * 4
    assert limits.conway_worst_case(257, 3) == 257 ** 2 * 9
    limits.check_conway_search(257, 1, 256)
    limits.check_conway_search(65521, 2, 65521 * 4)
    with pytest.raises(ValueError, match="p=257, a=1 may spend 256 work units, "
                                         "more than the work bound 255"):
        limits.check_conway_search(257, 1, 255)
    with pytest.raises(ValueError, match="p=65521, a=2"):
        limits.check_conway_search(65521, 2, 65521 * 4 - 1)


@pytest.mark.parametrize("p, top", [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2)])
def test_search_fits_its_worst_case(p, top):
    # conway_search charges conway_unit(a) per candidate, so a work bound of
    # conway_worst_case(p, a) never runs out, whatever the candidate's rank
    for a in range(1, top + 1):
        table = ConwayTable(p, work_bound=limits.conway_worst_case(p, a))
        assert len(table.get(a)) == a + 1, (p, a)


def test_reach_at_65521_includes_level_two():
    degrees = _valid_degrees(65521, 181, default_lattice(65521))
    assert 32 in degrees and 181 in degrees     # 32 | p^2 - 1, 181^2 | p + 1


def test_reach_leaves_out_levels_the_discrete_log_refuses():
    # p = 131111 > 2^17: level 2 needs p baby steps; 1, 2, 5, 7 divide p - 1
    assert _valid_degrees(131111, 8, default_lattice(131111)) == [1, 2, 5, 7]


def test_reach_of_tabulated_primes_is_pinned():
    want = {
        2: [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 27, 31, 33, 35, 39, 43, 45, 51, 57],
        3: [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 20, 22, 26, 28, 40, 52, 56],
        5: [1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 18, 21, 22, 24, 26, 28, 31, 36,
            39, 42, 44, 48, 52, 56],
    }
    for p, degrees in want.items():
        assert _valid_degrees(p, 60, default_lattice(p)) == degrees, p


def test_reach_asks_the_library_checks(monkeypatch):
    # with 15 x 15 matrices and 4 baby steps (levels <= 4 at p = 2), the CLI
    # leaves out l > 15 and l = 9, 11, 13 (levels 6, 10, 12)
    monkeypatch.setattr(limits, "DENSE_MATRIX_MAX_BYTES", limits.dense_matrix_bytes(15))
    monkeypatch.setattr(limits, "BSGS_MAX_STEPS", 4)
    assert _valid_degrees(2, 60, default_lattice(2)) == [1, 3, 5, 7, 15]


@pytest.mark.parametrize("p, ell, match", [
    (2, 262143, "p=2, l=262143 need 549751619592 bytes"),
    (3, 6560, "p=3, l=6560 need 344268800 bytes"),
    (2 ** 31 - 1, 4, f"p={2 ** 31 - 1}, n=2 needs m={2 ** 31 - 1} baby steps"),
])
def test_decorate_refuses_before_any_search(p, ell, match):
    lattice = default_lattice(p)
    levels = lattice.table.degrees()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        standardize.decorate(ell, lattice)
    assert time.perf_counter() - t0 < 1
    assert lattice.table.degrees() == levels     # no Conway search ran


def test_baseline_embed_refuses_before_any_search():
    p = 2 ** 31 - 1
    lattice = default_lattice(p)
    F1 = extfield.ExtField(p, [1, 1], check=False)
    F4 = extfield.ExtField(p, [3, 0, 0, 0, 1], check=False)
    with pytest.raises(ValueError, match="n=2 needs"):
        standardize.baseline_embed(F1, F4, lattice)
    assert lattice.table.degrees() == []


def test_fields_and_draws_refuse_oversize_degrees():
    with pytest.raises(ValueError, match="p=2, n=5793 need"):
        extfield.random_irreducible(2, 5793)
    with pytest.raises(ValueError, match="p=3, n=6000 need"):
        extfield.ExtField(3, [1] + [0] * 5999 + [1])
