"""Golden serialization: StdLattice.dumps() with every divisor-pair embedding.

tests/data/golden_dumps.txt pins the defining polynomial f, the standard
generator s and the standard polynomial P of every degree below, and the
image t of every standard embedding between them, byte for byte.  Any
refactor that must keep outputs bit-identical has to keep this file.

Regenerate (only when an output change is intended and explained):
    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from fflattice.lattice import StdLattice

GOLDEN = Path(__file__).parent / "data" / "golden_dumps.txt"

DEGREES = {
    2: [1, 3, 5, 7, 9, 15, 21, 45, 63],
    3: [1, 2, 4, 5, 8, 10, 20, 40],
    5: [1, 2, 3, 4, 6, 12, 24],
    257: [1, 2, 3, 4, 6, 12, 24],
    65521: [1, 2, 3, 6, 12, 24, 48],
}


def golden_text() -> str:
    out = []
    for p, degrees in DEGREES.items():
        L = StdLattice(p)
        for ell in degrees:
            L.add_field(ell)
        for ell in degrees:
            for m in degrees:
                if m > ell and m % ell == 0:
                    L.get_embedding(ell, m)
        out.append(L.dumps())
    return "".join(out)


def test_dumps_match_golden():
    assert golden_text() == GOLDEN.read_text()


# Scale points beyond the benchmark's degrees, p = 2: the seed-0 defining
# polynomial f and P_l, as bit codes (bit i is the coefficient of x^i).  They
# were computed with Rabin's test on the Frobenius iterates, so they cross-check
# the p = 2 path of extfield.is_irreducible against it at these sizes.
SCALE_POINTS = {
    255: (0xbc31d32d744dea6b97de98ee8fe1d5ad6b8e9af17cff9aaf5d803bb084fb8d19,
          0x8000000000000000000000000000000000000000000000000000000000008089),
    341: (0x3c4bffef59a36cf7a1b9a1124a6c7903e6e2fd8703c17ee2e9e193a28c2d5fcdc0453c84e57a3cf65f2759,
          0x20000022e022a0454067e00ae0cfe22f6bdadf4ba6e4972cfe92c74975200803e20abc1ca46c2173745085),
}


@pytest.mark.parametrize("ell", sorted(SCALE_POINTS))
def test_scale_points_at_p2(ell):
    dec = StdLattice(2).add_field(ell)
    codes = tuple(sum(c << i for i, c in enumerate(poly)) for poly in (dec.field.modulus, dec.P))
    assert codes == SCALE_POINTS[ell]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
