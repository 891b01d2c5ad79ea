"""Conway polynomials: lookup tables, brute-force search, and file I/O.

The degree-a Conway polynomial over GF(p) is the lexicographically smallest
monic irreducible polynomial of degree a that is primitive and norm
compatible with the Conway polynomials of all proper divisor degrees:
C_a(X^((p^b-1)/(p^a-1))) = 0 mod C_b whenever a | b.

Lexicographic comparison follows the published table convention: the
polynomial x^n + c_{n-1} x^{n-1} + ... + c_0 is ranked by the word
(a_{n-1}, ..., a_0) where a_j = (-1)^(n-j) c_j mod p, compared left to right.

The search prunes with the norm of X (Heath and Loehr 2004).  For f
irreducible of degree a, X^((p^a-1)/(p-1)) mod f is the product of the roots,
(-1)^a f(0), so norm compatibility with C_1 = X - g holds only if
(-1)^a f(0) = g.  That fixes a_0 = g (c_0 = (-1)^a g in the pseudo order),
and a level-a search visits p^(a-1) candidates instead of p^a.

Table file format: one entry per line, `p a c_0 c_1 ... c_a` with ascending
decimal coefficients; lines starting with `#` are ignored.
"""

from __future__ import annotations

import threading

import numpy as np

from . import fppoly, extfield, limits


class ConwayUnavailable(LookupError):
    """Raised when a Conway polynomial is neither tabulated nor searchable
    within the configured work bound."""


def _word_to_poly(word: list[int], n: int, p: int) -> list[int]:
    # word = (a_{n-1}, ..., a_0); c_j = (-1)^(n-j) a_j mod p
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for idx, a in enumerate(word):
        j = n - 1 - idx
        coeffs[j] = (a if (n - j) % 2 == 0 else (-a) % p) if a else 0
    return coeffs


def _norm_compatible(cand: list[int], a: int, divisors: dict[int, list[int]], p: int,
                     R: np.ndarray) -> bool:
    """C_d(X^((p^a-1)/(p^d-1))) = 0 mod cand for every stored proper divisor d of a.

    R = fppoly.reduction_matrix(cand, p), built once per candidate by the caller.
    """
    for d, cd in divisors.items():
        if d != a and a % d == 0:
            e = (p ** a - 1) // (p ** d - 1)
            xe = fppoly.powmod([0, 1], e, cand, p, R)
            if fppoly.compose_mod(cd, xe, cand, p, R):
                return False
    return True


def _is_primitive_poly(f: list[int], p: int, order_primes: list[int], R: np.ndarray) -> bool:
    """Whether X generates (GF(p)[X]/(f))^*, for f irreducible of degree a.

    order_primes are the prime factors q of p^a - 1, factored once by the
    caller; X is primitive iff X != 0 and X^((p^a-1)/q) != 1 mod f for each.
    R = fppoly.reduction_matrix(f, p).
    """
    order = p ** fppoly.degree(f) - 1
    return f[0] != 0 and all(fppoly.powmod([0, 1], order // q, f, p, R) != [1]
                             for q in order_primes)


def conway_search(p: int, a: int, known: dict[int, list[int]], work_bound: int = 2_000_000,
                  pseudo: bool = False) -> list[int]:
    """Brute-force the Conway polynomial of degree a.

    `known` must contain the Conway polynomials of all proper divisors of a
    (callers recurse as needed).  For a > 1 only the candidates whose norm
    (-1)^a f(0) equals the root g of C_1 = X - g are visited: p^(a-1) of the
    p^a, in the same order, each still put through every check.  The work
    bound is spent at limits.conway_unit(a) = a^2 per candidate visited, as
    the search goes, not refused up front on its worst case; exceeding it
    raises ConwayUnavailable.

    With pseudo=True, candidates are enumerated in plain ascending
    coefficient order instead and the first primitive norm-compatible
    polynomial wins; the result is then generally not the Conway polynomial.
    """
    fppoly.check_prime(p)
    if a < 1:
        raise ValueError("degree must be >= 1")
    for d in range(1, a):
        if a % d == 0 and d not in known:
            raise ValueError(f"search for degree {a} requires the degree-{d} entry first")
    budget = work_bound // limits.conway_unit(a)
    divisors = {d: f for d, f in known.items() if d < a and a % d == 0}
    order_primes = list(extfield.group_order_factors(p, a))
    # The lowest digit of index is a_0 (Conway word) or c_0 (pseudo order),
    # and the d = 1 clause of norm compatibility fixes it: with C_1 = X - g,
    # the norm X^((p^a-1)/(p-1)) = (-1)^a f(0) mod f must equal g.
    first, step = 0, 1
    if a > 1:
        g = -known[1][0] % p
        first, step = ((-1) ** a * g % p if pseudo else g), p
    tested = 0
    for index in range(first, p ** a, step):
        word = []
        v = index
        for _ in range(a):
            word.append(v % p)
            v //= p
        word.reverse()
        if pseudo:
            # plain ascending coefficient order, no sign twist
            cand = [0] * (a + 1)
            cand[a] = 1
            for idx, w in enumerate(word):
                cand[a - 1 - idx] = w
        else:
            cand = _word_to_poly(word, a, p)
        if cand[0] == 0:
            continue  # divisible by X, never primitive
        tested += 1
        if tested > budget:
            raise ConwayUnavailable(
                f"Conway search for p={p}, a={a} exceeded the work bound; supply a table")
        if not extfield.is_irreducible(cand, p):
            continue
        R = fppoly.reduction_matrix(cand, p)
        if not _is_primitive_poly(cand, p, order_primes, R):
            continue
        if not _norm_compatible(cand, a, divisors, p, R):
            continue
        return cand
    raise ConwayUnavailable(f"no Conway polynomial found for p={p}, a={a}")


class ConwayTable:
    """Per-prime table of Conway polynomials with on-demand brute-force search.

    Append-only and lock-protected: concurrent readers are safe and an entry
    becomes visible only once complete.  `canonical` is False when any entry
    was produced by the relaxed (pseudo-Conway) search.
    """

    def __init__(self, p: int, polys: dict[int, list[int]] | None = None,
                 work_bound: int = 2_000_000, pseudo: bool = False, validate: bool = True):
        self.p = fppoly.check_prime(p)
        self.work_bound = work_bound
        self.pseudo = pseudo
        self.canonical = not pseudo
        self._polys: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        if polys:
            for a, f in sorted(polys.items()):
                f = [c % p for c in f]
                if fppoly.degree(f) != a or f[-1] != 1:
                    raise ValueError(f"table entry for degree {a} is not monic of degree {a}")
                if validate:
                    if not extfield.is_irreducible(f, p):
                        raise ValueError(f"table entry p={p} a={a} is reducible")
                    R = fppoly.reduction_matrix(f, p)
                    if not _is_primitive_poly(f, p, list(extfield.group_order_factors(p, a)), R):
                        raise ValueError(f"table entry p={p} a={a} is not primitive")
                    if not _norm_compatible(f, a, self._polys, p, R):
                        raise ValueError(f"table entry p={p} a={a} is not norm compatible")
                self._polys[a] = f

    def degrees(self) -> list[int]:
        return sorted(self._polys)

    def has(self, a: int) -> bool:
        return a in self._polys

    def get(self, a: int) -> list[int]:
        """Tabulated entry, or recursive brute-force search within the work bound."""
        with self._lock:
            return self._get_locked(a)

    def _get_locked(self, a: int) -> list[int]:
        if a in self._polys:
            return self._polys[a]
        for d in range(1, a):
            if a % d == 0:
                self._get_locked(d)
        f = conway_search(self.p, a, self._polys, self.work_bound, self.pseudo)
        if self.pseudo:
            self.canonical = False
        self._polys[a] = f
        return f


def load_table(path: str, p: int | None = None, validate: bool = True,
               work_bound: int = 2_000_000) -> ConwayTable:
    """Load a Conway table file (format in the module docstring).

    When p is given, entries for other primes are skipped.  Validation of
    irreducibility, primitivity and norm compatibility can be switched off
    for speed with validate=False.
    """
    with open(path) as fh:
        return parse_table(fh.read(), p=p, validate=validate, work_bound=work_bound)


def parse_table(text: str, p: int | None = None, validate: bool = True,
                work_bound: int = 2_000_000) -> ConwayTable:
    polys: dict[int, list[int]] = {}
    seen_p = p
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [int(t) for t in line.split()]
        if len(parts) < 3:
            raise ValueError(f"malformed Conway table line: {line!r}")
        lp, a, coeffs = parts[0], parts[1], parts[2:]
        if p is not None and lp != p:
            continue
        if seen_p is None:
            seen_p = lp
        if lp != seen_p:
            raise ValueError("table mixes primes; pass p= to select one")
        if len(coeffs) != a + 1:
            raise ValueError(f"degree-{a} entry carries {len(coeffs)} coefficients")
        polys[a] = coeffs
    if seen_p is None:
        raise ValueError("no usable entries in Conway table")
    return ConwayTable(seen_p, polys, validate=validate, work_bound=work_bound)

