"""Incremental registry of compatibly embedded finite fields.

StdLattice decorates fields on demand, caches standard embeddings with their
evaluation matrices, evaluates embeddings and their sections, and can verify
the triangle (composition) identity over every registered divisibility chain.
Adding a field never touches existing entries; per-field persistent storage
(f, s, P) is linear in the degree.  Each pair keeps the embedding matrix E
that standard_embed returns with its description.  The per-degree caches it
uses live on the decorated fields, in memory only: B_l^(-1) on the source
(DecoratedField.basis_inverse, 8 l^2 bytes; in closed form at level 1), and
on the target the standard Hilbert-90 solution alpha_m that decorate kept
(DecoratedField.alpha, 8 m a bytes for the level a of m) and the powers
alpha_m^(m/l) that the embeddings into it read above level 1, one chain per
target (DecoratedField.alpha_power, at most d(m) - 2 more of 8 m a bytes),
so several sources share their Kummer products.  At level 1 the image is
t = s_m^(m/l) in closed form and reads nothing.  An embedding from GF(p)
and the identity of GF(p^m) need neither powers nor an inverse.  The
check P_l(t) = 0 and E take 1, t, ..., t^l by l - 1 products in GF(p^m)
for small l/m (ExtField.powers).  The projection reads the cyclotomic
lattice's per-level-pair record (CycloLattice.level_pair), so it runs no
elimination per pair, and kappa_{l,m} is kept there once per
(l, level(m)) (CycloLattice.kappa).

Evaluation is quadratic: embed_eval is one m x l mat-vec by E, and
section_eval is one (l + m) x l mat-vec on l coordinates of y.  Its matrix
is built once per pair from linalg.left_inverse of E: l independent rows I
of E, A = E_I^(-1) and Q = [A; E A], 8 l (l + m) bytes.  Any y = E x' has
y_I = E_I x', so A y_I is the preimage and y lies in the image exactly when
E A y_I = y.  Both build their result from the reduced product as it is,
with no second validation through ExtField.element.

Serialization is a portable text format: a header line `p`, then one line
per field `l f_coeffs s_coeffs P_coeffs`, then one line per cached embedding
`E l m t_coeffs`, all ascending decimal coefficients.  The `E` tag marks
embedding records; text without it (older output) still loads, field lines
being told from embedding lines by their token count, 3l + 3, and by a
degree l not registered yet (`1 4 t_coeffs` also has 3 * 1 + 3 tokens).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from . import fppoly, linalg, extfield, standardize
from .conway import ConwayTable, parse_table
from .cyclotomic import CycloLattice
from .extfield import ExtField, FFElem
from .standardize import DecoratedField, EmbeddingDesc


def default_lattice(p: int, work_bound: int = 2_000_000) -> CycloLattice:
    """Cyclotomic lattice backed by the embedded Conway table for p."""
    from .conway_data import CONWAY_TABLE_TEXT

    try:
        table = parse_table(CONWAY_TABLE_TEXT, p=p, validate=False, work_bound=work_bound)
    except ValueError:
        table = ConwayTable(p, work_bound=work_bound)
    return CycloLattice(table)


class _Section(NamedTuple):
    """What section_eval needs of a pair: Q = [A; E A] with A = E_I^(-1), and I."""

    matrix: np.ndarray       # (l + m) x l matrix Q
    rows: list[int]          # I: l independent rows of E
    take: Callable           # y.vec -> the tuple y_I


def _section(E: np.ndarray, p: int) -> _Section:
    ell = E.shape[1]
    rows, A = linalg.left_inverse(E, p)
    Q = np.vstack([A, linalg.matmul_mod(E, A, p)])
    # itemgetter of one index returns the entry itself, of a slice a tuple
    take = itemgetter(*rows) if ell > 1 else itemgetter(slice(rows[0], rows[0] + 1))
    return _Section(Q, rows, take)


@dataclass
class _EmbeddingEntry:
    desc: EmbeddingDesc      # s_image in GF(p^m) and the embedding matrix E
    source: ExtField         # GF(p^l)
    section: _Section | None = None   # built on first section_eval


@dataclass
class TriangleReport:
    """Outcome of verify(): one record per triple l | m | n."""

    triples: list
    failures: list

    @property
    def all_passed(self) -> bool:
        return not self.failures


class StdLattice:
    """Append-only collection of decorated fields with cached standard embeddings."""

    def __init__(self, p: int, lattice: CycloLattice | None = None):
        self.lattice = lattice if lattice is not None else default_lattice(p)
        if self.lattice.p != p:
            raise ValueError("cyclotomic lattice belongs to a different prime")
        self.p = p
        self.fields: dict[int, DecoratedField] = {}
        self.embeddings: dict[tuple[int, int], _EmbeddingEntry] = {}
        self._lock = threading.Lock()

    # -- registration -----------------------------------------------------------

    def add_field(self, ell: int, defining_poly: list[int] | None = None,
                  seed: int = 0) -> DecoratedField:
        """Decorate and register GF(p^l); idempotent per degree.

        A second call with a different defining polynomial is an error: one
        representation per degree per lattice.
        """
        if ell < 1:
            raise ValueError("degree must be >= 1")
        if ell % self.p == 0:
            raise ValueError(f"degree {ell} is divisible by the characteristic {self.p}")
        with self._lock:
            existing = self.fields.get(ell)
        if existing is not None:
            if defining_poly is not None:
                given = fppoly.monic(fppoly.trim([c % self.p for c in defining_poly]), self.p)
                if given != existing.field.modulus:
                    raise ValueError(f"degree {ell} already registered with a different polynomial")
            return existing
        dec = standardize.decorate(ell, self.lattice, defining_poly, seed=seed)
        with self._lock:
            return self.fields.setdefault(ell, dec)

    def degrees(self) -> list[int]:
        return sorted(self.fields)

    def field(self, ell: int) -> DecoratedField:
        if ell not in self.fields:
            raise KeyError(f"degree {ell} is not registered")
        return self.fields[ell]

    # -- embeddings ---------------------------------------------------------------

    def get_embedding(self, ell: int, m: int) -> EmbeddingDesc:
        return self._embedding_entry(ell, m).desc

    def _embedding_entry(self, ell: int, m: int) -> _EmbeddingEntry:
        # no lock to read: an entry is stored whole, by one setdefault
        cached = self.embeddings.get((ell, m))
        if cached is not None:
            return cached
        src = self.field(ell)
        dst = self.field(m)
        if m % ell:
            raise ValueError(f"{ell} does not divide {m}")
        entry = _EmbeddingEntry(standardize.standard_embed(src, dst, self.lattice), src.field)
        with self._lock:
            return self.embeddings.setdefault((ell, m), entry)

    def embed_eval(self, ell: int, m: int, x: FFElem) -> FFElem:
        """phi(x) for the standard embedding GF(p^l) -> GF(p^m).

        One m x l mat-vec by the cached embedding matrix.  The product is
        already reduced mod p and has m entries, so the result is built from
        it directly, with no second reduction.
        """
        entry = self._embedding_entry(ell, m)
        if x.field is not entry.source and x.field != entry.source:
            raise extfield.FieldMismatch("element does not live in the source field")
        desc = entry.desc
        vec = linalg.matmul_mod(desc.matrix, np.array(x.vec, dtype=np.int64), self.p)
        return FFElem(desc.s_image.field, tuple(vec.tolist()))

    def section_eval(self, ell: int, m: int, y: FFElem) -> FFElem | None:
        """The preimage x of y under E, or None when y is outside the subfield.

        The first call for a pair builds its _Section; every call is then one
        mat-vec, r = Q y_I, whose last m entries are compared with y as a
        tuple.  Like embed_eval, the result is built from the reduced product
        directly.
        """
        entry = self._embedding_entry(ell, m)
        target = entry.desc.s_image.field
        if y.field is not target and y.field != target:
            raise extfield.FieldMismatch("element does not live in the target field")
        section = entry.section
        if section is None:
            # racing threads build the same section
            section = entry.section = _section(entry.desc.matrix, self.p)
        r = linalg.matmul_mod(section.matrix, np.array(section.take(y.vec), dtype=np.int64),
                              self.p).tolist()
        if tuple(r[ell:]) != y.vec:
            return None
        return FFElem(entry.source, tuple(r[:ell]))

    # -- verification ----------------------------------------------------------------

    def verify(self) -> TriangleReport:
        """Check the triangle identity on every registered triple l | m | n."""
        degs = self.degrees()
        triples = []
        failures = []
        for i, ell in enumerate(degs):
            for m in degs[i + 1:]:
                if m % ell:
                    continue
                for n in degs:
                    if n <= m or n % m:
                        continue
                    s = self.field(ell).s
                    direct = self.embed_eval(ell, n, s)
                    composed = self.embed_eval(m, n, self.embed_eval(ell, m, s))
                    ok = direct == composed
                    triples.append((ell, m, n, ok))
                    if not ok:
                        failures.append((ell, m, n))
        return TriangleReport(triples, failures)

    # -- serialization ----------------------------------------------------------------

    def dumps(self) -> str:
        lines = [str(self.p)]
        for ell in self.degrees():
            d = self.fields[ell]
            f = " ".join(map(str, d.field.modulus))
            s = " ".join(map(str, list(d.s.vec)))
            P = " ".join(map(str, d.P))
            lines.append(f"{ell} {f} {s} {P}")
        for (ell, m) in sorted(self.embeddings):
            t = " ".join(map(str, list(self.embeddings[(ell, m)].desc.s_image.vec)))
            lines.append(f"E {ell} {m} {t}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str, lattice: CycloLattice | None = None) -> "StdLattice":
        """Parse and re-validate a serialized lattice.

        Field lines are re-decorated through the standard machinery, which
        re-checks every invariant (standardness of s, P equality); embedding
        lines are recomputed, which re-checks P_l(t) = 0, and compared.
        """
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty lattice serialization")
        p = int(lines[0])
        L = cls(p, lattice)
        i = 1
        # field lines: `l  f(l+1)  s(l)  P(l+1)` -> 3l + 3 tokens, no tag, new l
        while i < len(lines) and not lines[i].startswith("E"):
            toks = [int(t) for t in lines[i].split()]
            ell = toks[0]
            if ell < 1 or ell in L.fields or len(toks) != 3 * ell + 3:
                break
            f = toks[1:ell + 2]
            s_vec = toks[ell + 2:2 * ell + 2]
            P = toks[2 * ell + 2:]
            dec = L.add_field(ell, f)
            if list(dec.s.vec) != s_vec or dec.P != P:
                raise ValueError(f"stored decoration for degree {ell} fails re-validation")
            i += 1
        # embedding lines: `E l m t(m)`, or `l m t(m)` in untagged text
        for line in lines[i:]:
            toks = [int(t) for t in line.removeprefix("E").split()]
            if len(toks) < 2 or min(toks[:2]) < 1 or toks[1] % toks[0] or len(toks) != toks[1] + 2:
                raise ValueError(f"malformed embedding line: {line!r}")
            ell, m, t_vec = toks[0], toks[1], toks[2:]
            if ell not in L.fields or m not in L.fields:
                raise ValueError(f"embedding line names an unregistered degree: {line!r}")
            entry = L._embedding_entry(ell, m)
            if list(entry.desc.s_image.vec) != t_vec:
                raise ValueError(f"stored embedding {ell}->{m} fails re-validation")
        return L

    @classmethod
    def load(cls, path: str, lattice: CycloLattice | None = None) -> "StdLattice":
        with open(path) as fh:
            return cls.loads(fh.read(), lattice)

    def stored_coefficients(self) -> int:
        """Number of persistently stored GF(p) coefficients (storage-linearity check).

        What is held only in memory is not counted: the embedding matrices
        and their sections; on each decorated field its basis inverse
        B_l^(-1), its Hilbert-90 solution alpha, and for the embeddings into
        it the powers alpha^(l/k) above level 1 (at most d(l) - 2 of l a
        coefficients); and the CycloLattice's entries, level pairs and
        kappa constants.
        """
        return sum(len(d.field.modulus) + len(d.s.vec) + len(d.P) for d in self.fields.values())
