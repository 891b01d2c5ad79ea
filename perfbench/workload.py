"""One fflattice workload in a fresh single-threaded process.

    python3 perfbench/workload.py MODE --workload NAME --seed N [--seconds S] [--trace-out PATH]

MODE is one of
  main    the four timed phases over the workload's (p, degree set):
          build (add_field per degree, cold caches), embed (get_embedding per
          divisor pair), check (verify() plus homomorphism and section checks
          on seeded random elements) and eval (a warm embed_eval/section_eval
          loop); embed, check and eval run in each of ROUNDS rounds, eval for
          S seconds in all, and later rounds repeat the slowest add_field cold;
  setup   the set-up alone (interpreter, import, Conway table parse), for
          setup_s samples;
  probes  the known-defect probes, each under its own time limit.

The process imports fflattice from the checkout's `src` and nowhere else,
turns numpy overflow warnings into errors, and prints one JSON line.
`run.py` starts these processes and turns their lines into metrics.
"""

from __future__ import annotations

import argparse
import bisect
import copy
import functools
import json
import random
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Degree sets are listed, not derived from the Conway table, so a change to
# the library cannot silently change a workload.
WORKLOADS = {
    # p = 2, l = 105 and 117 (level 12, Kummer algebras of dimension 1260 and
    # 1404) with their divisors: the two degrees that dominate
    # `fflattice bench -p 2 --max 120`, without the other reachable odd l <= 120,
    # whose ~17 s of the same work would not fit the run budget.
    "decorate-p2": {
        2: [1, 3, 5, 7, 9, 13, 15, 21, 35, 39, 105, 117],
    },
    # The acceptance triangle set of `fflattice verify -p {2,3,5} --max 60`.
    "verify-p235": {
        2: [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 27, 31, 33, 35, 39, 43, 45, 51, 57],
        3: [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 20, 22, 26, 28, 40, 52, 56],
        5: [1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 18, 21, 22, 24, 26, 28, 31, 36,
            39, 42, 44, 48, 52, 56],
    },
    # p = 65521: the level-1 degrees l | p - 1, l <= 48.  p = 257: the degrees
    # l <= 48 of level <= 2 (l | p^2 - 1); the first level-2 degree triggers
    # the on-demand Conway search at a = 2.
    "largep": {
        65521: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18, 20, 21, 24, 26, 28,
                30, 35, 36, 39, 40, 42, 45, 48],
        257: [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 43, 48],
    },
}

# Table 1 of the paper: the standard polynomials P_l for p = 2, l <= 19,
# ascending coefficients.  The committed reference must agree with it.
TABLE1_P2 = {
    1: [1, 1],
    3: [1, 1, 0, 1],
    5: [1, 0, 0, 1, 0, 1],
    7: [1, 1, 0, 0, 0, 0, 0, 1],
    9: [1, 0, 1, 0, 1, 0, 0, 1, 0, 1],
    11: [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1],
    13: [1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1],
    15: [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    17: [1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1],
    19: [1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1],
}

REFERENCE = HERE / "reference.json"
P31 = 2 ** 31 - 1
PROBE_SEED = 0

# Per-operation time limits, in seconds.
LIMIT_BUILD = 120.0
LIMIT_STEP = 60.0
LIMIT_EVAL = 10.0
LIMIT_PROBE = 10.0
# Rounds per run.  The host's speed drifts by up to 2x over tens of seconds,
# so the short phases (embed, check, eval) run once per round and their metrics
# average the rounds.  Later rounds embed again from a copy of the fields as
# the first round built them, except that a traced run's second round builds
# again, traced, and is compared with the untraced first one.
ROUNDS = 4
EVAL_ELEMENTS = 4          # seeded random elements per divisor pair
EVAL_CHUNK_S = 0.25
# Host-speed samples: one per SAMPLE_PERIOD_S of CPU time, inside operations
# too, except in a traced round, where they come at most one per
# SAMPLE_PERIOD_S between operations; an operation's time, less the samples
# inside it, is scaled by the samples within SAMPLE_WINDOW_S of it.
SAMPLE_PERIOD_S = 0.25
SAMPLE_WINDOW_S = 1.0
# Profiling ticks, TICKS_PER_SAMPLE per sample period, in every round: a tick
# whose innermost library frame holds a numpy array of BIG_ARRAY entries or
# more counts as big-array time, scaled by the big-array burst.
TICKS_PER_SAMPLE = 5
BIG_ARRAY = 1 << 16
LIB_DIR = str(SRC / "fflattice")
# Length of one calibration burst (three rounds of HostSpeed work) and of one
# big-array burst on the host the benchmark was tuned on, when it ran fast;
# timings are reported in seconds at that speed.
REF_BURST_S = 0.0025
REF_BIG_BURST_S = 0.0015
# Rejected candidates the search ledger tests itself for a search that
# rejected none.
REFILL_REJECTIONS = 4
# decorate_max_s is the median of the slowest add_field as built and of cold
# repeats of it (fresh lattice, another seed) at the start of the later
# untraced rounds, taking turns: as many as fit in REPEAT_BUDGET_S at the first
# one's speed, at most MAX_REPEATS.  One sample, timed once, spread by a
# quarter between runs of the same code.
REPEAT_BUDGET_S = 6.0
MAX_REPEATS = 6


def import_library():
    """Import fflattice from the checkout and arm the overflow policy."""
    warnings.filterwarnings("error", message="overflow encountered", category=RuntimeWarning)
    sys.path.insert(0, str(SRC))
    import fflattice
    if Path(fflattice.__file__).resolve().parent != SRC / "fflattice":
        raise SystemExit(f"fflattice imported from {fflattice.__file__}, not from {SRC}")
    return fflattice


def load_reference() -> dict[int, dict[int, list[int]]]:
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    return {int(p): {int(ell): P for ell, P in polys.items()} for p, polys in doc["P"].items()}


# -- operations under a time limit ----------------------------------------------


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("operation exceeded its time limit")


class Ops:
    """Runs operations under a time limit and counts them.

    An operation is one library call, or a few, on given inputs; its weight is
    the number of calls.  Run again in a later round it stays one operation,
    failed if it failed in any round, so the counts do not depend on speed.
    """

    def __init__(self, tracer=None):
        self.weights: dict[str, int] = {}
        self.failures: dict[str, str] = {}
        self.mismatches: set[str] = set()     # ran, but the output failed its check
        self.tracer = tracer
        signal.signal(signal.SIGALRM, _alarm)

    @property
    def attempted(self) -> int:
        return sum(self.weights.values())

    @property
    def failed(self) -> int:
        return sum(self.weights[label] for label in self.failures)

    def run(self, label: str, fn, limit: float, weight: int = 1) -> bool:
        """Run fn(), which returns False when its output fails a check."""
        self.weights[label] = weight
        if self.tracer:
            self.tracer.begin_op(label)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            ok, why = bool(fn()), "output failed its check"
            if not ok:
                self.mismatches.add(label)
        except Exception as exc:  # the run goes on; the failure is counted and reported
            ok, why = False, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.end = time.perf_counter()
            if self.tracer:
                self.tracer.end_op()
        if not ok:
            self.failures.setdefault(label, why)
        return ok

    def report(self) -> list[str]:
        return [f"{label}: {why}" for label, why in list(self.failures.items())[:20]]


# -- the irreducible-polynomial search at its expected length -----------------------


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def expected_rejections(p: int, n: int) -> float:
    """Mean number of reducible candidates before an irreducible one.

    Candidates are uniform monic degree-n polynomials with nonzero constant
    term, (p - 1) p^(n-1) of them; I_n of them are irreducible.
    """
    irreducible = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
    return ((p - 1) * p ** (n - 1) - irreducible) / irreducible


class SearchLedger:
    """Charges each random irreducible-polynomial search at its expected length.

    extfield.random_irreducible draws seeded candidates until
    extfield.is_irreducible accepts one.  The number of rejected candidates is
    geometric: its mean is fixed by (p, n), but its draw depends on the seed
    alone: between seeds the search time of one degree differs by 10x and more.
    The ledger times every rejected candidate of a search (less the host-speed
    bursts inside it) and, after the operation, books a correction of
        (expected rejections - observed rejections) * mean rejection time,
    so a timing plus its correction measures the code at the expected number
    of candidates.  When a search that expects more than one rejection
    rejected nothing, the mean comes from REFILL_REJECTIONS candidates of the
    ledger's own, tested after the operation; with refill off (a traced round,
    whose layers would count those tests) that search is left as measured.

    expected_rejections models today's search: uniform candidates, each
    tested by a call to extfield.is_irreducible.  A change to how candidates
    are drawn or screened must update it, or be compared on raw times (the
    run prints both).  When no search with more than one expected rejection
    records a rejection, the test no longer goes through that name: the
    ledger is inactive and the run reports raw times.
    """

    def __init__(self, extfield, host: "HostSpeed"):
        self.searches = 0
        self.candidates = 0
        self.expected = 0.0         # sum of expected rejections over the searches
        self.active = False
        self.refill = True
        self._pending: list[tuple[int, int, list[float]]] = []   # (p, n, rejection times)
        self._rejected: list[float] | None = None
        self._host = host
        search, test = extfield.random_irreducible, extfield.is_irreducible
        self._test = test

        @functools.wraps(search)
        def counted_search(p, n, seed=0):
            self._rejected = []
            try:
                f = search(p, n, seed)
            finally:
                rejected, self._rejected = self._rejected, None
            self._pending.append((p, n, rejected))
            return f

        @functools.wraps(test)
        def timed_test(f, p):
            if self._rejected is None:
                return test(f, p)
            t = time.perf_counter()
            ok = test(f, p)
            if not ok:
                self._rejected.append(self._since(t))
            return ok

        extfield.random_irreducible = counted_search
        extfield.is_irreducible = timed_test

    def _since(self, start: float) -> float:
        end = time.perf_counter()
        return end - start - self._host.burst_time(start, end)

    def _own_rejections(self, p: int, n: int) -> list[float]:
        """Times of REFILL_REJECTIONS rejected candidates drawn as the search draws them."""
        rng = random.Random(f"ledger:{p}:{n}")
        times = []
        while len(times) < REFILL_REJECTIONS:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            if f[0] == 0:
                continue
            t = time.perf_counter()
            if not self._test(f, p):
                times.append(self._since(t))
        return times

    def take(self) -> float:
        """The correction for the searches since the last call, in wall seconds."""
        correction = 0.0
        for p, n, rejected in self._pending:
            expected = expected_rejections(p, n)
            self.searches += 1
            self.candidates += len(rejected) + 1
            self.expected += expected
            self.active |= bool(rejected) and expected > 1
            times = rejected or (self._own_rejections(p, n)
                                 if expected > 1 and self.refill else [])
            if times:
                correction += (expected - len(rejected)) * sum(times) / len(times)
        self._pending.clear()
        return correction


# -- the host's speed ------------------------------------------------------------------


class HostSpeed:
    """How slowly the host runs now, as a factor against REF_BURST_S.

    The host's speed drifts by up to 2x over seconds to minutes: over three
    minutes a fixed loop ran 42 to 105 times a second.
    A burst of fixed pure-Python work and small-matrix numpy work (bound by
    the interpreter too) measures that drift; a wall time, less the bursts
    inside it, divided by the slowness around it is the time at the reference
    speed.  In one minute of interleaved half-second windows, eval rates of
    6-second blocks ranged +-19 %, their ratios to the burst rate +-3.5 %.
    Bursts run from a SIGPROF handler, so they also see drift inside an
    add_field that takes seconds.  The bursts do not touch the library, so a
    change to the library moves these times as it moves wall times.

    Row reduction of large matrices, which is memory-bound, drifts otherwise:
    over 150 s a fixed p = 2, l = 57 add_field had a quartile spread of 3 %
    in wall time while the burst's slowness spread 13 %.  So each sample also times a
    big-array burst (one elimination step on a 256 x 512 matrix), and the
    profiling ticks split each operation's time: the share of ticks that land
    in a library frame holding an array of BIG_ARRAY entries or more is scaled
    by the big-array slowness, the rest by the interpreter-bound one.
    """

    def __init__(self):
        import numpy as np
        rng = random.Random(0)
        self._p = 65521
        self._num = [rng.randrange(self._p) for _ in range(61)]
        self._den = [rng.randrange(self._p) for _ in range(30)] + [1]
        self._mat = np.array([[rng.randrange(1, self._p) for _ in range(48)] for _ in range(48)],
                             dtype=np.int64)
        self._big = np.array([[rng.randrange(2) for _ in range(512)] for _ in range(256)],
                             dtype=np.int64)
        self._np = np
        # (start, end, slowness, big-array slowness)
        self.samples: list[tuple[float, float, float, float]] = []
        self._ends: list[float] = []
        self._busy = False
        self._bursts = False
        self._ticks: list[float] = []       # times of the profiling ticks
        self._big_ticks: list[float] = []   # those in big-array library frames
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        now = time.perf_counter()
        while frame is not None and not frame.f_code.co_filename.startswith(LIB_DIR):
            frame = frame.f_back
        self._ticks.append(now)
        if frame is not None and any(isinstance(v, self._np.ndarray) and v.size >= BIG_ARRAY
                                     for v in frame.f_locals.values()):
            self._big_ticks.append(now)
        if self._bursts and len(self._ticks) % TICKS_PER_SAMPLE == 0:
            self.sample()

    def _work(self) -> None:
        p, num, den = self._p, list(self._num), self._den
        for i in range(len(num) - 1, len(den) - 2, -1):     # polynomial remainder
            c = num[i]
            for j, y in enumerate(den):
                num[i - len(den) + 1 + j] = (num[i - len(den) + 1 + j] - c * y) % p
        m = self._mat.copy()                                 # row reduction
        for c in range(m.shape[0]):
            m[c] = m[c] * pow(int(m[c, c]) or 1, -1, p) % p
            m[c + 1:] = (m[c + 1:] - self._np.outer(m[c + 1:, c], m[c])) % p

    def _big_work(self) -> None:
        m = self._big.copy()
        m[1:] = (m[1:] - self._np.outer(m[1:, 0], m[0])) % 2

    def sample(self) -> float:
        """Slowness now: the median of three short bursts, so that one burst
        stalled by a millisecond hiccup does not stand for seconds of work;
        likewise for big arrays."""
        self._busy = True
        try:
            bursts, big = [], []
            first = time.perf_counter()
            for _ in range(3):
                t = time.perf_counter()
                for _ in range(3):
                    self._work()
                bursts.append(time.perf_counter() - t)
                t = time.perf_counter()
                self._big_work()
                big.append(time.perf_counter() - t)
            slowness = statistics.median(bursts) / REF_BURST_S
            self.samples.append((first, time.perf_counter(), slowness,
                                 statistics.median(big) / REF_BIG_BURST_S))
            self._ends.append(self.samples[-1][1])
        finally:
            self._busy = False
        return slowness

    def inside(self, on: bool) -> None:
        """Tick, and sample every SAMPLE_PERIOD_S of CPU time inside operations
        too, or tick only."""
        self._bursts = on
        period = SAMPLE_PERIOD_S / TICKS_PER_SAMPLE
        signal.setitimer(signal.ITIMER_PROF, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def big_share(self) -> float:
        """Share of the ticks so far that fell in big-array work."""
        return len(self._big_ticks) / max(len(self._ticks), 1)

    def tick(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= SAMPLE_PERIOD_S:
            self.sample()

    def burst_time(self, start: float, end: float) -> float:
        """Time the samples took between start and end."""
        i = bisect.bisect_left(self._ends, start)
        return sum(max(min(e, end) - max(b, start), 0.0)
                   for b, e, _, _ in self.samples[i:bisect.bisect_right(self._ends, end) + 1])

    def at_speed(self, start: float, end: float, extra: float = 0.0) -> float:
        """Wall time end - start, less the samples inside it, plus extra, at
        the reference speed.

        The slowness is the median of the samples from SAMPLE_WINDOW_S before
        start to SAMPLE_WINDOW_S after end, and always of the last sample
        before start and the first after end; likewise the big-array
        slowness.  The ticks between start and end give the big-array share
        of the time; an interval without ticks counts as interpreter-bound.
        """
        ends = self._ends
        lo = max(min(bisect.bisect_left(ends, start - SAMPLE_WINDOW_S),
                     bisect.bisect_right(ends, start) - 1), 0)
        hi = max(bisect.bisect_right(ends, end + SAMPLE_WINDOW_S),
                 bisect.bisect_left(ends, end) + 1)
        slowness = statistics.median(s for _, _, s, _ in self.samples[lo:hi])
        big_slowness = statistics.median(s for _, _, _, s in self.samples[lo:hi])
        ticks = bisect.bisect_right(self._ticks, end) - bisect.bisect_left(self._ticks, start)
        big = (bisect.bisect_right(self._big_ticks, end)
               - bisect.bisect_left(self._big_ticks, start))
        big_share = big / ticks if ticks else 0.0
        return ((end - start - self.burst_time(start, end) + extra)
                * (big_share / big_slowness + (1 - big_share) / slowness))


# -- modes --------------------------------------------------------------------------


def _cache_keys():
    def frob_key(field, k):
        k %= field.n
        return None if k < 2 else (id(field), k)   # powers 0 and 1 are built eagerly
    return {
        "extfield.ExtField.frob_power": frob_key,
        "cyclotomic.CycloLattice.entry": lambda cyclo, ell: (id(cyclo), ell),
        "lattice.StdLattice._embedding_entry": lambda L, ell, m: (id(L), ell, m),
    }


def run_setup(args) -> dict:
    lib = import_library()
    for p in WORKLOADS[args.workload]:
        lib.lattice.default_lattice(p)
    ready = time.monotonic()
    return {"ready": ready, "slowness": HostSpeed().sample()}


def run_main(args) -> dict:
    spec = WORKLOADS[args.workload]
    seed = args.seed
    lib = import_library()
    cyclos = {p: lib.lattice.default_lattice(p) for p in spec}
    reference = load_reference()
    problems = [f"reference P_{ell} for p=2 differs from Table 1"
                for ell, P in TABLE1_P2.items() if reference[2].get(ell) != P]
    problems += [f"no reference P_{ell} for p={p}"
                 for p, degrees in spec.items() for ell in degrees
                 if ell not in reference.get(p, {})]
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
    ops = Ops(tracer)
    pairs = {p: [(ell, m) for i, ell in enumerate(d) for m in d[i + 1:] if m % ell == 0]
             for p, d in spec.items()}
    spec_of = {f"p={p} l={ell}": (p, ell) for p, degrees in spec.items() for ell in degrees}
    rng = random.Random(f"{args.workload}:{seed}")
    ready = time.monotonic()
    host = HostSpeed()
    slowness_at_ready = host.sample()
    ledger = SearchLedger(lib.extfield, host)
    host.inside(True)

    def timed(label, fn, limit, weight=1, extra=None):
        """Run one operation; return [start, end, extra seconds] for at_speed."""
        host.tick()
        ops.run(label, fn, limit, weight)
        return [ops.start, ops.end, extra() if extra else 0.0]

    def at_speed(intervals):
        host.sample()
        return [host.at_speed(*iv) for iv in intervals]

    rounds = []
    for rnd in range(ROUNDS):
        traced = tracer is not None and rnd == 1
        ledger.refill = not traced
        if traced:
            host.inside(False)     # no bursts inside the traced layers' times
            escaped = tracer.install([lib.fppoly, lib.linalg, lib.extfield, lib.conway,
                                      lib.cyclotomic, lib.kummer, lib.standardize,
                                      lib.lattice], keys=_cache_keys())
        decorate_s, raw_s, charge = {}, {}, None
        if rnd == 0 or traced:
            # build: a cold lattice per prime, add_field for every degree; the
            # random search is charged at its expected length
            if rnd:
                cyclos = {p: lib.lattice.default_lattice(p) for p in spec}
            lattices, intervals = {}, {}
            for p, degrees in spec.items():
                L = lattices[p] = lib.StdLattice(p, cyclos[p])
                for ell in degrees:
                    def decorate():
                        return L.add_field(ell, seed=seed).P == reference[p][ell]
                    intervals[f"p={p} l={ell}"] = timed(f"decorate p={p} l={ell}", decorate,
                                                        LIMIT_BUILD, extra=ledger.take)
            charge = sum(iv[2] for iv in intervals.values())
            decorate_s = dict(zip(intervals, at_speed(intervals.values())))
            raw_s = {k: host.at_speed(start, end) for k, (start, end, _) in intervals.items()}
            if rnd == 0:
                # later rounds embed again from the fields as built: embedding
                # caches state on them, and every round must start from the same
                first_build, first_build_raw = decorate_s, raw_s
                built_cyclos = cyclos
                built = {p: copy.deepcopy(L.fields, {id(cyclos[p]): cyclos[p]})
                         for p, L in lattices.items()}
                # the slowest add_field, charged while the ledger sees the search
                slowest = first_build if ledger.active else first_build_raw
                max_at = max(slowest, key=slowest.get)
                max_p, max_ell = spec_of[max_at]
                max_s, max_raw_s = [first_build[max_at]], [first_build_raw[max_at]]
                repeats = 0 if tracer else min(MAX_REPEATS,
                                               int(REPEAT_BUDGET_S / slowest[max_at]))
        else:
            for i in range(rnd - 1, repeats, ROUNDS - 1):
                cold = lib.StdLattice(max_p, lib.lattice.default_lattice(max_p))

                def redecorate():
                    return (cold.add_field(max_ell, seed=seed * (MAX_REPEATS + 1) + i + 1).P
                            == reference[max_p][max_ell])
                iv = timed(f"decorate {max_at}", redecorate, LIMIT_BUILD, extra=ledger.take)
                max_s += at_speed([iv])
                max_raw_s.append(host.at_speed(iv[0], iv[1]))
            lattices = {p: lib.StdLattice(p, built_cyclos[p]) for p in spec}
            for p, L in lattices.items():
                L.fields.update(copy.deepcopy(built[p], {id(built_cyclos[p]): built_cyclos[p]}))

        # embed: every divisor pair, evaluation matrices included
        embeds = [timed(f"embed p={p} {ell}->{m}",
                        lambda: L.get_embedding(ell, m).target_degree == m, LIMIT_STEP)
                  for p, L in lattices.items() for ell, m in pairs[p]]

        # check: triangle identities, homomorphism and section on random elements
        checks = []
        for p, L in lattices.items():
            checks.append(timed(f"verify p={p}", lambda: L.verify().all_passed, LIMIT_STEP))
            for ell, m in pairs[p]:
                def check():
                    src = L.field(ell).field
                    x, y = src.random_element(rng), src.random_element(rng)
                    phi_x = L.embed_eval(ell, m, x)
                    return (L.embed_eval(ell, m, x * y) == phi_x * L.embed_eval(ell, m, y)
                            and L.section_eval(ell, m, phi_x) == x)
                checks.append(timed(f"check p={p} {ell}->{m}", check, LIMIT_STEP, weight=4))
        embed_s, check_s = sum(at_speed(embeds)), sum(at_speed(checks))

        # eval: sweeps of embed_eval + section_eval, one element per pair, in
        # chunks of EVAL_CHUNK_S with a host-speed sample at each end, until the
        # round's share of the time is up and every element has been used
        sweeps = [[(L, ell, m, L.field(ell).field.random_element(rng),
                    f"eval p={p} {ell}->{m} x{j}")
                   for p, L in lattices.items() for ell, m in pairs[p]
                   if ell in L.fields and m in L.fields]
                  for j in range(EVAL_ELEMENTS)]
        host.sample()
        deadline = time.perf_counter() + args.seconds / ROUNDS
        chunk_rates = []
        k = chunk_evals = 0
        chunk_start = time.perf_counter()
        while sweeps[0]:
            for L, ell, m, x, label in sweeps[k % EVAL_ELEMENTS]:
                if ops.run(label, lambda: L.section_eval(ell, m, L.embed_eval(ell, m, x)) == x,
                           LIMIT_EVAL, weight=2):
                    chunk_evals += 2
            k += 1
            now = time.perf_counter()
            if now - chunk_start >= EVAL_CHUNK_S:
                host.sample()
                chunk_rates.append(chunk_evals / host.at_speed(chunk_start, now))
                chunk_evals, chunk_start = 0, time.perf_counter()
                if now >= deadline and k >= EVAL_ELEMENTS:
                    break
        if traced:
            tracer.uninstall()
            host.inside(True)
        rounds.append({
            "traced": traced,
            "build_s": sum(decorate_s.values()) if decorate_s else None,
            "search_charge_s": charge,
            "build_raw_s": sum(raw_s.values()) if raw_s else None,
            "embed_s": embed_s,
            "check_s": check_s,
            "eval_per_s": statistics.median(chunk_rates) if chunk_rates else 0.0,
            "eval_chunks": len(chunk_rates),
        })

    host.stop()

    def mean(key):
        """Mean over the untraced rounds that measured key."""
        return statistics.mean(r[key] for r in rounds if not r["traced"] and r[key] is not None)

    # Eval work of one round, for the totals: every element through every pair.
    eval_calls = 2 * EVAL_ELEMENTS * len(sweeps[0])
    rate = statistics.median(r["eval_per_s"] for r in rounds if not r["traced"])
    eval_pairs = sweeps[0]
    # Search-charged build times while the ledger sees the search, raw otherwise.
    build = "build_s" if ledger.active else "build_raw_s"
    max_samples = max_s if ledger.active else max_raw_s
    result = {
        "ready": ready,
        "slowness": slowness_at_ready,
        "correct": not problems and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": problems + ops.report(),
        "rounds": rounds,
        "build_s": mean(build),
        "decorate_max_s": statistics.median(max_samples),
        "build_raw_s": mean("build_raw_s"),
        "decorate_max_raw_s": statistics.median(max_raw_s),
        "decorate_max_at": max_at,
        "decorate_max_samples": max_samples,
        "embed_s": mean("embed_s"),
        "eval_per_s": rate,
        "eval_elements": {
            "pairs": len(eval_pairs),
            "mean_source_degree": sum(e[1] for e in eval_pairs) / max(len(eval_pairs), 1),
            "mean_target_degree": sum(e[2] for e in eval_pairs) / max(len(eval_pairs), 1),
        },
        "total_s": mean(build) + mean("embed_s") + mean("check_s")
        + (eval_calls / rate if rate else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_slowness": [s for _, _, s, _ in host.samples],
        "big_array_slowness": [s for _, _, _, s in host.samples],
        "big_array_share": host.big_share(),
        "searches": ledger.searches,
        "candidates": ledger.candidates,
        "expected_rejections": ledger.expected,
        "ledger_active": ledger.active,
        "decorate_s": first_build,
    }
    if tracer:
        def work(r):
            return r[build] + r["embed_s"] + r["check_s"] + eval_calls / r["eval_per_s"]
        result["overhead_frac"] = work(rounds[1]) / work(rounds[0]) - 1
        result["stats"] = tracer.summary()
        result["escaped"] = escaped
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        tracer.write(args.trace_out, {"workload": args.workload, "seed": seed})
    return result


def run_probes(args) -> dict:
    """Known defects, counted as operations: decorate at p = 2^31 - 1 for
    l in {3, 7}, and the dumps/loads round trip of the p = 3 lattice {1, 4}
    with its embedding 1 -> 4.

    The probes use the library's default seed 0, not the workload seed: at
    p = 2^31 - 1 whether l = 3 overflows depends on the seed, and a probe
    must give the same verdict on every run of the same code.
    """
    lib = import_library()
    ops = Ops()
    for ell in (3, 7):
        def decorate(ell=ell):
            L = lib.StdLattice(P31, lib.lattice.default_lattice(P31))
            P = L.add_field(ell, seed=PROBE_SEED).P
            return lib.fppoly.degree(P) == ell and P[-1] == 1
        ops.run(f"probe decorate p={P31} l={ell}", decorate, LIMIT_PROBE)

    def round_trip():
        L = lib.StdLattice(3)
        L.add_field(1, seed=PROBE_SEED)
        L.add_field(4, seed=PROBE_SEED)
        L.get_embedding(1, 4)
        text = L.dumps()
        return lib.StdLattice.loads(text).dumps() == text
    ops.run("probe round-trip p=3 {1,4} 1->4", round_trip, LIMIT_PROBE)
    return {"correct": not ops.mismatches, "attempted": ops.attempted, "failed": ops.failed,
            "failures": ops.report()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("main", "setup", "probes"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace-out", help="trace the library layers; write spans here")
    args = parser.parse_args()
    run = {"main": run_main, "setup": run_setup, "probes": run_probes}[args.mode]
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
