"""Golden serialization: StdLattice.dumps() with every divisor-pair embedding.

tests/data/golden_dumps.txt pins the defining polynomial f, the standard
generator s and the standard polynomial P of every degree below, and the
image t of every standard embedding between them, byte for byte.  Any
refactor that must keep outputs bit-identical has to keep this file.

Regenerate (only when an output change is intended and explained):
    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
