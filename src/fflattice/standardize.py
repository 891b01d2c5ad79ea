"""Decoration of finite fields and standard compatible embeddings.

decorate() normalizes an arbitrary Hilbert-90 solution to the standard one
(whose Kummer constant is the canonical cyclotomic pullback), yielding the
standard generator s_l and the standard defining polynomial P_l, and keeps
that solution alpha_l.
standard_embed() then computes the image t of s_l in a larger decorated
field GF(p^m), checks it by P_l(t) = 0 on the powers 1, t, ..., t^l, and
returns with t the embedding matrix, the first l columns of those powers
times B_l^(-1); the resulting embeddings compose compatibly across the
whole divisibility lattice.
- In general t is the projection of (1 (x) kappa_{l,m}) alpha_m^(m/l),
  with the closed-form constant kappa_{l,m} and the power alpha_m^(m/l)
  that the target keeps (one chain of them per target), and the powers of
  t are ExtField.powers: l - 1 products of O(m^2) for small l/m, with no
  m x m matrix.
- At level 1 (m | p - 1) the Kummer algebra is GF(p^m) itself: alpha_m =
  s_m and P_m = X^m - abar_m, and kappa_{l,m} = 1 because l and m share
  the level, so t = s_m^(m/l) in closed form.  Its powers t^i =
  s_m^((m/l) i) are read off the powers 1, s_m, ..., s_m^m that decorate
  keeps from the Krylov matrix of its minimal polynomial
  (DecoratedField.powers), with no product.  B_l^(-1) of a level-1 source
  needs no elimination: the trace-dual basis of the s_l^i is s_l^(-i)/l
  (DecoratedField.basis_inverse).
- A source GF(p) maps s_1 to the same constant, and GF(p^m) maps to
  itself by the identity, at any level, with no powers and no inverse.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fppoly, extfield, kummer, limits, linalg
from .cyclotomic import CycloLattice
from .extfield import ExtField, FFElem
from .fppoly import exact_div
from .kummer import KummerAlg, KummerElem


@dataclass
class DecoratedField:
    """A finite field GF(p^l) with its standard generator and polynomial.

    Only (f, s, P) are serialized, so persistent storage is linear in l.
    Everything else is held in memory:
    - alpha is the standard Hilbert-90 solution that decorate checked and
      projected to s (l a coefficients).
    - powers, at level 1 only (None above), is the l x (l + 1) matrix of
      1, s, ..., s^l: the first l + 1 columns of the Krylov matrix that
      decorate read P_l from (l (l + 1) coefficients).  The embeddings into
      this field read the powers of their images off it, and basis_inverse
      reads B_l off it.
    Built on first demand (racing threads store equal values):
    - alpha_power keeps the powers alpha^e that the embeddings into this
      field take above level 1: l a coefficients each, at most d(l) - 2 of
      them for the d(l) divisors of l.
    - basis_inverse() is B_l^(-1) for the power basis B_l = 1, s, ...,
      s^(l-1) (l^2 coefficients), for the embeddings out of this field: one
      l x l linalg.left_inverse, or at level 1 the closed form of the
      trace-dual basis.
    """

    ell: int
    field: ExtField
    s: FFElem
    P: list
    level: int
    algebra: KummerAlg
    alpha: KummerElem = dataclasses.field(compare=False, repr=False)
    powers: np.ndarray | None = dataclasses.field(default=None, compare=False, repr=False)
    _basis_inverse: np.ndarray | None = dataclasses.field(default=None, init=False,
                                                          compare=False, repr=False)
    _alpha_powers: dict = dataclasses.field(default_factory=dict, init=False,
                                            compare=False, repr=False)

    def alpha_power(self, e: int) -> KummerElem:
        """alpha^e for a divisor e < l of l, kept: (alpha^(e/q))^q, q the least prime of e.

        Each exponent is computed once per field, from the largest proper
        divisor of it, which is kept too; racing threads store equal values.
        """
        if e == 1:
            return self.alpha
        power = self._alpha_powers.get(e)
        if power is None:
            q = min(extfield.factorize(e))
            power = self._alpha_powers.setdefault(e, self.alpha_power(e // q) ** q)
        return power

    def basis_inverse(self) -> np.ndarray:
        """B_l^(-1), kept; at level 1 in closed form (_kummer_basis_inverse)."""
        if self._basis_inverse is None:
            if self.level == 1:
                self._basis_inverse = _kummer_basis_inverse(self)
            else:
                B = self.field.powers(self.s, self.ell)
                self._basis_inverse = linalg.left_inverse(B, self.field.p)[1]
        return self._basis_inverse


def _kummer_basis_inverse(dec: DecoratedField) -> np.ndarray:
    """B_l^(-1) at level 1, where P_l = X^l - abar_l, from the trace-dual basis.

    The conjugates of s are the s zeta^j, so Tr(s^k) = 0 for 0 < k < l and
    Tr(1) = l: the dual of s^0 is 1/l and that of s^i, 0 < i < l, is
    s^(l-i)/(l abar).  Coordinate i of y in the basis B_l is then the trace
    of y times that dual.  With H the l x l Hankel matrix of Tr(X^k),
    k <= 2l - 2, the rows of G = B^T H are the linear forms y -> Tr(s^r y),
    so row 0 of B_l^(-1) is G[0]/l and row i is G[l - i]/(l abar).
    Tr(X^k) is the trace of multiplication by X^k, whose column j is
    X^(k+j) mod f: a diagonal of [I | R | R R], R the reduction matrix
    (columns X^l, ..., X^(2l-1) mod f, and R R those of X^(2l), ...).
    B_l is the first l columns of the kept powers, and abar is read off
    P_l, which decorate checked against the standard constant.
    """
    ell, F = dec.ell, dec.field
    p = F.p
    abar = -dec.P[0] % p
    B = dec.powers[:, :ell]
    R = F.reduction
    W = np.hstack([np.eye(ell, dtype=np.int64), R, linalg.matmul_mod(R, R, p)])
    j = np.arange(ell)
    k = np.arange(2 * ell - 1)
    traces = W[j, k[:, None] + j].sum(axis=1) % p
    G = linalg.matmul_mod(B.T, traces[j[:, None] + j], p)
    inverse = np.empty_like(G)
    inverse[0] = G[0] * pow(ell, -1, p) % p
    inverse[1:] = G[:0:-1] * pow(ell * abar, -1, p) % p
    return inverse


@dataclass(frozen=True)
class EmbeddingDesc:
    """Description of a standard embedding: s_l maps to s_image in GF(p^m).

    standard_embed also sets matrix, the m x l matrix E of the embedding on
    GF(p)-coordinates: E = [1, t, ..., t^(l-1)] B_l^(-1), t = s_image.  It
    is derived from s_image and not compared.
    """

    source_degree: int
    target_degree: int
    s_image: FFElem
    matrix: np.ndarray | None = dataclasses.field(default=None, compare=False, repr=False)


def decorate(ell: int, lattice: CycloLattice, defining_poly: list[int] | None = None,
             seed: int = 0) -> DecoratedField:
    """Compute the standard generator and defining polynomial of GF(p^l).

    Steps: solve Hilbert 90 for zeta_l, rescale by an l-th root kappa of
    abar_l / a'_l so the Kummer constant becomes the standard one, project
    to the first tensor coordinate (kummer.project_first at l_sub = l, the
    projection standard_embed uses), and take its minimal polynomial.  The
    rescaled solution is checked in K_l, as a'_l kappa^l = abar_l: since
    (alpha' (1 (x) kappa))^l = (1 (x) a'_l)(1 (x) kappa^l), that is the
    statement alpha^l = 1 (x) abar_l without a second power in the algebra.
    At level 1 P_l is asserted to be X^l - abar_l, and the powers 1, s,
    ..., s^l of the minimal polynomial's Krylov matrix are kept
    (DecoratedField.powers) for the embeddings into and out of this field.

    A degree refused by limits.check_decoration raises ValueError before any
    Conway search or polynomial draw.
    """
    limits.check_decoration(lattice, ell)
    alg = KummerAlg(lattice, ell, defining_poly, seed=seed)
    abar = lattice.standard_constant(ell)
    alpha_prime = kummer.solve_h90(alg)
    a_prime = kummer.kummer_constant(alpha_prime)
    ratio = abar * a_prime.inverse()
    kappa = extfield.nth_root(ratio, ell)  # exists by construction; failure is a bug
    if a_prime * kappa ** ell != abar:
        raise AssertionError("standardized solution does not carry the standard constant")
    alpha = alpha_prime.scalar_mul(kappa)
    s = kummer.project_first(alpha, ell)
    P, K = extfield.minimal_polynomial_and_powers(s)
    if fppoly.degree(P) != ell:
        raise AssertionError("standard generator does not generate the field")
    powers = None
    if alg.a == 1:
        p = lattice.p
        if P != [-abar.vec[0] % p] + [0] * (ell - 1) + [1]:
            raise AssertionError(f"P_{ell} is not X^{ell} - abar_{ell} at level 1 (p = {p})")
        powers = K[:, :ell + 1].copy()
    return DecoratedField(ell, alg.left, s, P, alg.a, alg, alpha, powers)


def standard_polynomial(ell: int, lattice: CycloLattice, seed: int = 0) -> list[int]:
    """The standard defining polynomial P_l (independent of the seed)."""
    return decorate(ell, lattice, seed=seed).P


def kappa_constant(ell: int, m: int, lattice: CycloLattice) -> FFElem:
    """The closed-form embedding constant kappa_{l,m}, an element of K_m.

    It depends on m only through its level b, so the cyclotomic lattice
    keeps one per (l, b) (CycloLattice.kappa).
    """
    if m % ell:
        raise ValueError(f"{ell} does not divide {m}")
    return lattice.kappa(ell, lattice.level(m))


def standard_embed(src: DecoratedField, dst: DecoratedField,
                   lattice: CycloLattice) -> EmbeddingDesc:
    """Image of the standard generator s_l inside the decorated GF(p^m).

    Returns t with the embedding matrix [1, t, ..., t^(l-1)] B_l^(-1),
    B_l^(-1) built once per source field (DecoratedField.basis_inverse).
    - l = 1: t = s_1, a constant, and E = e_0.
    - l = m over the same field and generator: t = s_m and E = I.
    - Level 1 (m | p - 1): t = s_m^(m/l), as kappa_{l,m} = 1 for l and m
      of one level, and its powers 1, t, ..., t^l are every (m/l)-th column
      of the target's kept 1, s_m, ..., s_m^m (DecoratedField.powers): one
      slice, with no product.
    - Otherwise t = [ (1 (x) kappa_{l,m}) alpha_m^(m/l) ]_(zeta_m^(m/l)),
      with alpha_m^(m/l) read from the chain kept on the target
      (DecoratedField.alpha_power), and its powers 1, t, ..., t^l are
      ExtField.powers (l - 1 products for small l/m, with no m x m matrix).
    Beyond the first two cases P_l(t) = 0 is asserted on those powers;
    P_l is irreducible of degree l (decorate asserts the degree), so that is
    the same test as minimal polynomial of t = P_l.
    """
    ell, m = src.ell, dst.ell
    if m % ell:
        raise ValueError(f"{ell} does not divide {m}")
    if src.algebra.lattice is not lattice or dst.algebra.lattice is not lattice:
        raise ValueError("decorations come from a different cyclotomic lattice")
    if ell == 1:
        E = np.zeros((m, 1), dtype=np.int64)
        E[0, 0] = 1
        return EmbeddingDesc(1, m, dst.field.element(src.s.vec[0]), E)
    if ell == m and src.field == dst.field and src.s == dst.s:
        return EmbeddingDesc(m, m, dst.s, np.eye(m, dtype=np.int64))
    if dst.level == 1:
        T = dst.powers[:, ::m // ell]
        t = FFElem(dst.field, tuple(T[:, 1].tolist()))
    else:
        kappa = kappa_constant(ell, m, lattice)
        t = kummer.project_first(dst.alpha_power(m // ell).scalar_mul(kappa), ell)
        T = dst.field.powers(t, ell + 1)
    p = lattice.p
    if linalg.matmul_mod(T, np.array(src.P, dtype=np.int64), p).any():
        raise AssertionError("embedding image is not a root of P_l; "
                             "decorations are inconsistent")
    return EmbeddingDesc(ell, m, t, linalg.matmul_mod(T[:, :ell], src.basis_inverse(), p))


def baseline_embed(field_l: ExtField, field_m: ExtField,
                    lattice: CycloLattice) -> tuple[FFElem, FFElem]:
    """Baseline (non-standard) embedding from arbitrary Hilbert-90 solutions.

    Returns (s, t) such that s |-> t defines an embedding of field_l into
    field_m.  No decoration: the l-th root is extracted from the ratio of the
    two Kummer constants directly, in K_m: the limits of decorating GF(p^m)
    cover the pair and are checked first.
    """
    ell, m = field_l.n, field_m.n
    if m % ell:
        raise ValueError(f"{ell} does not divide {m}")
    limits.check_decoration(lattice, m)
    alg_l = KummerAlg(lattice, ell, field_l.modulus)
    alg_m = KummerAlg(lattice, m, field_m.modulus)
    alpha_l = kummer.solve_h90(alg_l)
    alpha_m = kummer.solve_h90(alg_m)
    a_l = kummer.kummer_constant(alpha_l)
    a_m = kummer.kummer_constant(alpha_m)
    ratio = lattice.embed(ell, m, a_l) * a_m.inverse()
    kappa = extfield.nth_root(ratio, ell)
    beta = (alpha_m ** (m // ell)).scalar_mul(kappa)
    s = kummer.project_first(alpha_l, ell)
    t = kummer.project_first(beta, ell)
    if extfield.minimal_polynomial(t) != extfield.minimal_polynomial(s):
        raise AssertionError("embedding image has the wrong minimal polynomial")
    return s, t


def verify_key_identity(a: int, b: int, lattice: CycloLattice) -> bool:
    """Self-test of the norm identity in the complete algebra of level b:

    alpha^((p^b-1)/(p^a-1)) = (1 (x) zeta)^e  N_{b/a}(alpha)
    with e = ((b-a) p^(b+a) - b p^b + a p^a) / (p^a - 1)^2.

    Complete algebras grow exponentially with the level, hence
    limits.check_complete_algebra on (p^b - 1) * b.
    """
    if b % a:
        raise ValueError(f"{a} does not divide {b}")
    p = lattice.p
    limits.check_complete_algebra(p, b)
    ell = p ** b - 1
    alg = KummerAlg(lattice, ell)
    alpha = kummer.solve_h90(alg)  # every nonzero solution is standard here
    e = exact_div((b - a) * p ** (b + a) - b * p ** b + a * p ** a, (p ** a - 1) ** 2)
    lhs = alpha ** ((p ** b - 1) // (p ** a - 1))
    zeta_e = alg.entry.zeta ** e
    rhs = kummer.scalar_norm(alpha, b, a).scalar_mul(zeta_e)
    return lhs == rhs
