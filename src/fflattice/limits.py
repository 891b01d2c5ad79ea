"""Every size the library refuses, stated once and checked before the work.

Each check raises ValueError naming its stage, p, the degree, the quantity
and the bound, in O(1) integer operations and without allocating.
conway_search spends its work bound and extfield.factorize its Pollard-rho
steps as they go.  conway_search stops at the first Conway polynomial, for
most (p, a) far below conway_worst_case, so only the CLI's reach of a prime
the Conway table does not cover asks check_conway_search.
"""

from __future__ import annotations

import math

# ExtField holds two n x n int64 matrices, the reduction and the Frobenius
# matrix, at every p: 8 n^2 bytes is the whole of each.
DENSE_MATRIX_MAX_BYTES = 2 ** 28          # n <= 5792
# Baby steps of one search over the whole group GF(p^n)^*: level 1 at
# p = 2^31 - 1 would take 46,341, level 2 about p, so level 2 is refused for
# p > 2^17.  extfield.discrete_log is Pohlig-Hellman, whose largest table,
# ceil(sqrt(q)) for the largest prime q dividing p^n - 1, is at most
# ceil(sqrt(p^n - 1)): the bound is unchanged and still holds, but is loose.
BSGS_MAX_STEPS = 2 ** 17
# Pollard-rho steps of one extfield.factorize, after trial division below 10^5
# (each step three squarings mod the cofactor and one gcd).  A prime factor q
# takes about sqrt(q) steps, so every q below about 2^34 is within reach.  A
# step costs 1.1 us on a 40-bit cofactor and 3.3 us on a 210-bit one (one
# thread of a 2-vCPU x86-64 host), so the budget runs out in under a second:
# p^10 - 1 at p = 2^31 - 1, whose cofactor has two prime factors above 2^64,
# fails in 0.9 s, where an unbounded rho ran past 40 s.
RHO_MAX_STEPS = 2 ** 18
# verify_key_identity's Kummer algebra of order p^b - 1 has dimension (p^b - 1) b.
COMPLETE_ALGEBRA_MAX_DIMENSION = 4096


def dense_matrix_bytes(n: int) -> int:
    return 8 * n * n


def baby_steps(p: int, n: int) -> int:
    """m = ceil(sqrt(p^n - 1)), the baby steps of a search over all of GF(p^n)^*."""
    N = p ** n - 1
    return math.isqrt(N - 1) + 1 if N > 1 else 0


def conway_unit(a: int) -> int:
    """Work bound conway_search charges per candidate of degree a."""
    return a * a


def conway_worst_case(p: int, a: int) -> int:
    """Work of a degree-a search that visits every candidate: p - 1 at level
    1, p^(a-1) above it (the norm fixes f(0))."""
    return (p - 1 if a == 1 else p ** (a - 1)) * conway_unit(a)


def check_dense_matrices(p: int, n: int, degree: str = "n") -> None:
    need = dense_matrix_bytes(n)
    if need > DENSE_MATRIX_MAX_BYTES:
        raise ValueError(f"dense matrices for p={p}, {degree}={n} need {need} bytes each, "
                         f"more than DENSE_MATRIX_MAX_BYTES={DENSE_MATRIX_MAX_BYTES}")


def check_discrete_log(p: int, n: int) -> None:
    m = baby_steps(p, n)
    if m > BSGS_MAX_STEPS:
        raise ValueError(f"discrete log for p={p}, n={n} needs m={m} baby steps, "
                         f"more than BSGS_MAX_STEPS={BSGS_MAX_STEPS}")


def check_complete_algebra(p: int, b: int) -> None:
    dim = (p ** b - 1) * b
    if dim > COMPLETE_ALGEBRA_MAX_DIMENSION:
        raise ValueError(f"complete algebra for p={p}, b={b} has dimension {dim}, "
                         f"more than COMPLETE_ALGEBRA_MAX_DIMENSION="
                         f"{COMPLETE_ALGEBRA_MAX_DIMENSION}")


def check_conway_search(p: int, a: int, work_bound: int) -> None:
    cost = conway_worst_case(p, a)
    if cost > work_bound:
        raise ValueError(f"Conway search for p={p}, a={a} may spend {cost} work units, "
                         f"more than the work bound {work_bound}")


def check_decoration(lattice, ell: int) -> None:
    """Decorating GF(p^l) over a CycloLattice: dense matrices of size l, then
    the discrete log in K_l = GF(p^level(l)), where the l-th root is taken.
    The level is computed only for an l that passed the first check."""
    check_dense_matrices(lattice.p, ell, "l")
    check_discrete_log(lattice.p, lattice.level(ell))
