"""Command-line interface for the standard finite-field lattice.

Subcommands:
  stdpoly  compute the standard defining polynomial P_l of GF(p^l)
  embed    image of the standard generator s_l in GF(p^m), over the
           standard representation GF(p)[x]/(P_m)
  verify   build the lattice of all valid degrees up to a bound and check
           that embeddings compose (triangle identity)
  bench    CSV timings for decoration and one fixed embedding per degree
  conway   look up or search a Conway polynomial (--pseudo relaxes the search)

Exit codes: 0 success, 1 verification failure, 2 invalid input or a size
refused by fflattice.limits (before any work), 3 missing or unreachable
Conway data.  `verify` and `bench` take the degrees up to --max that
_valid_degrees admits by the same limits.

Machine-format output is line oriented and deterministic for a fixed
(config, seed); `embed --format machine` emits the lattice serialization,
which loads back verbatim.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import fppoly, limits, standardize
from .conway import ConwayTable, ConwayUnavailable, load_table
from .cyclotomic import CycloLattice
from .lattice import StdLattice, default_lattice


def _cyclo(args) -> CycloLattice:
    if getattr(args, "conway_table", None):
        return CycloLattice(load_table(args.conway_table, p=args.p,
                                       work_bound=args.work_bound))
    return default_lattice(args.p, work_bound=args.work_bound)


def _poly_line(coeffs: list[int], fmt: str) -> str:
    if fmt == "machine":
        return " ".join(map(str, coeffs))
    return fppoly.to_string(coeffs)


def _standard_registry(p: int, degrees: list[int], cyclo: CycloLattice,
                       seed: int) -> StdLattice:
    """Registry whose field representations are the standard polynomials.

    Each degree is decorated twice: once over a seeded random polynomial to
    learn P_l, then over P_l itself so all printed coordinates live in
    GF(p)[x]/(P_l).
    """
    L = StdLattice(p, cyclo)
    for ell in degrees:
        P = standardize.standard_polynomial(ell, cyclo, seed=seed)
        L.add_field(ell, P, seed=seed)
    return L


def cmd_stdpoly(args) -> int:
    cyclo = _cyclo(args)
    P = standardize.standard_polynomial(args.l, cyclo, seed=args.seed)
    print(_poly_line(P, args.format))
    return 0


def cmd_embed(args) -> int:
    if args.l < 1 or args.m < 1:
        raise ValueError(f"degrees must be >= 1, got l={args.l}, m={args.m}")
    if args.m % args.l:
        raise ValueError(f"{args.l} does not divide {args.m}")
    cyclo = _cyclo(args)
    L = _standard_registry(args.p, sorted({args.l, args.m}), cyclo, args.seed)
    desc = L.get_embedding(args.l, args.m)
    t = desc.s_image
    P_l, P_m = L.field(args.l).P, L.field(args.m).P
    if args.format == "machine":
        sys.stdout.write(L.dumps())
    else:
        print(f"P_{args.l} = {fppoly.to_string(P_l)}")
        print(f"P_{args.m} = {fppoly.to_string(P_m)}")
        print(f"t = {' '.join(map(str, list(t.vec)))}  "
              f"(coefficients over GF({args.p})[x]/(P_{args.m}))")
    if args.verify:
        from . import extfield
        ok = extfield.minimal_polynomial(t) == P_l
        print(f"verify: minimal polynomial of t {'==' if ok else '!='} P_{args.l}")
        if not ok:
            return 1
    return 0


def _valid_degrees(p: int, max_degree: int, cyclo: CycloLattice) -> list[int]:
    """Degrees <= max coprime to p that decorate within the library's limits.

    A degree is admitted when it passes limits.check_decoration and its level
    a is at most the largest tabulated one or, for a prime the Conway table
    does not cover, the worst-case search at level a fits the work bound
    (limits.check_conway_search).  Raises ConwayUnavailable, naming the first
    refusal, when a degree above 1 was asked for and none is admitted.
    """
    table = cyclo.table
    top = max(table.degrees(), default=0)
    candidates = [ell for ell in range(1, max_degree + 1) if ell % p]
    out, refusal = [], None
    for ell in candidates:
        try:
            limits.check_decoration(cyclo, ell)
            a = cyclo.level(ell)
            if not top:
                limits.check_conway_search(p, a, table.work_bound)
        except ValueError as exc:
            refusal = refusal or exc
            continue
        if not top or a <= top:
            out.append(ell)
    if max(out, default=1) == 1 and max(candidates, default=1) > 1:
        reason = refusal or f"the Conway table stops at level {top}"
        raise ConwayUnavailable(
            f"no degree in 2..{max_degree} is reachable for p={p}: {reason}")
    return out


def cmd_verify(args) -> int:
    cyclo = _cyclo(args)
    L = StdLattice(args.p, cyclo)
    degrees = _valid_degrees(args.p, args.max, cyclo)
    for ell in degrees:
        L.add_field(ell, seed=args.seed)
    report = L.verify()
    for (ell, m, n, ok) in report.triples:
        print(f"triangle {ell} -> {m} -> {n}: {'PASS' if ok else 'FAIL'}")
    print(f"{len(report.triples)} triangles checked, "
          f"{len(report.failures)} failures")
    return 0 if report.all_passed else 1


def cmd_bench(args) -> int:
    cyclo = _cyclo(args)
    L = StdLattice(args.p, cyclo)
    degrees = _valid_degrees(args.p, args.max, cyclo)
    print("l,level,decorate_seconds,embed_seconds")
    ell0 = min((d for d in degrees if d > 1), default=None)
    for ell in degrees:
        t0 = time.perf_counter()
        L.add_field(ell, seed=args.seed)
        dec = time.perf_counter() - t0
        emb = ""
        if ell0 is not None and ell != ell0 and ell % ell0 == 0:
            t0 = time.perf_counter()
            L.get_embedding(ell0, ell)
            emb = f"{time.perf_counter() - t0:.6f}"
        print(f"{ell},{L.field(ell).level},{dec:.6f},{emb}")
    return 0


def cmd_conway(args) -> int:
    if getattr(args, "conway_table", None):
        table = load_table(args.conway_table, p=args.p, work_bound=args.work_bound)
    elif args.pseudo:
        table = ConwayTable(args.p, work_bound=args.work_bound, pseudo=True)
    else:
        table = default_lattice(args.p, work_bound=args.work_bound).table
    f = table.get(args.a)
    if args.format == "machine":
        print(f"{args.p} {args.a} {' '.join(map(str, f))}")
    else:
        print(fppoly.to_string(f))
    if not table.canonical:
        print("# non-canonical (pseudo-Conway) entry", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fflattice",
        description="standard lattices of compatibly embedded finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-p", type=int, required=True, help="characteristic (prime)")
        sp.add_argument("--conway-table", metavar="PATH",
                        help="Conway polynomial table file (overrides the embedded one)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for random defining polynomials")
        sp.add_argument("--format", choices=("human", "machine"), default="human")
        sp.add_argument("--work-bound", type=int, default=2_000_000,
                        help="budget for on-demand Conway searches")

    sp = sub.add_parser("stdpoly", help="standard defining polynomial of GF(p^l)")
    common(sp)
    sp.add_argument("-l", type=int, required=True)
    sp.set_defaults(func=cmd_stdpoly)

    sp = sub.add_parser("embed", help="standard embedding GF(p^l) -> GF(p^m)")
    common(sp)
    sp.add_argument("-l", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--verify", action="store_true",
                    help="recompute the minimal polynomial of the image")
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("verify", help="check triangle identities up to a degree bound")
    common(sp)
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="CSV timings for decoration and embedding")
    common(sp)
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("conway", help="Conway polynomial lookup or search")
    common(sp)
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("--pseudo", action="store_true",
                    help="relaxed search (first primitive norm-compatible polynomial)")
    sp.set_defaults(func=cmd_conway)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConwayUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
