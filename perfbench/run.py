"""Outside-in benchmark of fflattice.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded process (`workload.py`) through the public API (StdLattice,
default_lattice), in four phases: build (add_field per degree, cold caches),
embed (get_embedding per divisor pair), check and eval (embed_eval +
section_eval).  Embed, check and eval run in each of four rounds, the later
ones from a copy of the fields as built, and eval takes S seconds in all.
Every output is checked: P_l against `reference.json` (itself checked against
Table 1 of the paper), verify().all_passed, phi(xy) = phi(x) phi(y) and
section_eval(embed_eval(x)) = x on seeded random elements.  The known-defect
probes run in a process of their own; they count in ops_failed_frac and in no
timing, and only a wrong answer from one of them, not a failure, is a
mismatch.

--trace 0 prints the end-to-end metrics:
  setup_s          process start to the first timed operation (interpreter,
                   import, Conway table parse); median of SETUP_SAMPLES starts
  build_s          build phase
  decorate_max_s   slowest single add_field; median of it as built and of up
                   to six cold repeats (fresh lattice, another seed)
  embed_s          embed phase, evaluation matrices included; mean of the rounds
  eval_per_s       embed_eval + section_eval calls per second; median of the
                   rounds, each the median of its quarter-second chunks
  total_s          build, one embed and one check phase, and one round's eval
                   work (every element through every pair) at eval_per_s
  peak_rss_mb      peak resident memory of the workload process
  ops_failed_frac  failed / attempted operations, probes included
All timings are seconds at a reference host speed (see workload.HostSpeed):
interpreter-bound time and big-array time are scaled by bursts of their own.
build_s, decorate_max_s and total_s charge each random irreducible-polynomial
search at its expected number of candidates (see workload.SearchLedger):
measured as is, their spread between seeds is the luck of the draw.  The run
prints the raw build times next to them, and reports the ledger inactive, and
the three metrics raw, when the search no longer goes through
extfield.is_irreducible.

--trace 1 builds again in the second round, traced (`tracer.py` wraps the
eight library modules from outside), and prints the per-layer metrics of that
round, in wall time, and trace.overhead_frac, its cost over the untraced
first round's for the same work.  Spans are written to perfbench/out/.

The last line of standard output is one JSON object.  The exit code is 0 when
every output checked out, 1 on a mismatch or a failed operation outside the
probes, 2 when the workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_LIMIT = 175.0          # seconds; a run must end within 180
SETUP_SAMPLES = 7

# Metric paths that name a cache rather than a function.
ALIASES = {"lattice.embedding_cache": "lattice.StdLattice._embedding_entry"}


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under kind
    ("end_to_end" or "per_layer"), in its order.  Per-layer names take the
    form <module>.<function>.<stat>; a function name without its class
    resolves to the one method of that name in the module."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    pass


class Runner:
    """Starts workload processes one at a time, all within RUN_LIMIT."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

    def __call__(self, mode: str, trace_out: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "workload.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds)]
        if trace_out:
            cmd += ["--trace-out", str(trace_out)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - spawned, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process did not finish within the run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["spawned"] = spawned
        return result


def _stat(stats: dict, metric: str) -> float:
    """Value of <module>.<function>.<stat> from the traced run's aggregates."""
    path, stat = metric.rsplit(".", 1)
    mod = path.split(".", 1)[0]
    if path == mod:                                   # <module>.self_s
        return sum(v[2] for k, v in stats.items() if k.startswith(mod + "."))
    key = ALIASES.get(path, path)
    if key not in stats:
        key = next((k for k in stats
                    if k.startswith(mod + ".") and k.endswith("." + path.split(".", 1)[1])), None)
    calls, incl, self_s, distinct = stats.get(key, (0, 0.0, 0.0, 0))   # gone from the library
    if stat == "calls":
        return calls
    if stat == "incl_s":
        return incl
    if stat == "self_s":
        return self_s
    if stat == "miss_ratio":
        return distinct / calls if calls else 0.0
    if stat == "hit_ratio":
        return 1 - distinct / calls if calls else 0.0
    raise KeyError(metric)


def per_layer(traced: dict, names) -> dict:
    stats = traced["stats"]
    values = {}
    for metric in names:
        if metric == "extfield.random_irreducible.yield":
            values[metric] = traced["searches"] / max(traced["candidates"], 1)
        elif metric == "trace.overhead_frac":
            values[metric] = traced["overhead_frac"]
        else:
            values[metric] = _stat(stats, metric)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="fflattice outside-in benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="eval time over all rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fflattice" / "__init__.py").is_file():
        print(f"error: no fflattice sources under {SRC}", file=sys.stderr)
        return 2
    run = Runner(args)
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            main_run = run("main", trace_out=trace_file)
            probes = run("probes")
            units = declared("per_layer")
            metrics = {m: (v, units[m]) for m, v in per_layer(main_run, units).items()}
        else:
            # set-up samples before and after the workload, so that they see
            # the host at more than one moment
            setups = [run("setup") for _ in range(SETUP_SAMPLES // 2)]
            main_run = run("main")
            setups += [main_run] + [run("setup") for _ in range(SETUP_SAMPLES // 2)]
            probes = run("probes")
            metrics = dict(main_run, setup_s=statistics.median(
                (r["ready"] - r["spawned"]) / r["slowness"] for r in setups))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = main_run["attempted"] + probes["attempted"]
    failed = main_run["failed"] + probes["failed"]
    if not args.trace:
        metrics["ops_failed_frac"] = failed / attempted
        metrics = {m: (metrics[m], u) for m, u in declared("end_to_end").items()}
    size = main_run["eval_elements"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"eval elements: {size['pairs']} divisor pairs l -> m, mean l "
          f"{size['mean_source_degree']:.1f}, mean m {size['mean_target_degree']:.1f}")
    for i, rnd in enumerate(main_run["rounds"]):
        build = ("fields copied from round 1" if rnd["build_s"] is None else
                 f"build {rnd['build_s']:.3f} s with the search charged at its expected "
                 f"length ({rnd['search_charge_s']:+.3f} s), {rnd['build_raw_s']:.3f} s raw")
        print(f"round {i + 1}{' (traced)' if rnd['traced'] else ''}: {build}, "
              f"embed {rnd['embed_s']:.3f} s, check {rnd['check_s']:.3f} s, "
              f"eval {rnd['eval_per_s']:.0f} calls/s over {rnd['eval_chunks']} chunks")
    for kind in ("host", "big_array"):
        slow = main_run[f"{kind}_slowness"]
        print(f"{kind.replace('_', '-')} slowness against the reference speed: median "
              f"{statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f} "
              f"over {len(slow)} samples")
    print(f"big-array share of the profiling ticks: {main_run['big_array_share']:.3f}")
    print(f"irreducible search: {main_run['searches']} searches, "
          f"{main_run['candidates'] - main_run['searches']} candidates rejected, "
          f"{main_run['expected_rejections']:.0f} expected for uniform candidates")
    if main_run["ledger_active"]:
        print(f"search-charged build: build_s {main_run['build_s']:.6g} s and decorate_max_s "
              f"{main_run['decorate_max_s']:.6g} s; raw {main_run['build_raw_s']:.6g} s and "
              f"{main_run['decorate_max_raw_s']:.6g} s")
    else:
        print("search ledger inactive: no search with more than one expected rejection "
              "rejected a candidate through extfield.is_irreducible; build_s, "
              "decorate_max_s and total_s are raw")
    print(f"slowest add_field: {main_run['decorate_max_at']}, as built and repeated cold: "
          + ", ".join(f"{t:.3f}" for t in main_run["decorate_max_samples"]) + " s")
    print(f"operations: {attempted} attempted, {failed} failed")
    for line in main_run["failures"] + probes["failures"]:
        print(f"  failed: {line}")
    if args.trace:
        print(f"spans: {main_run['spans']} kept, {main_run['spans_dropped']} dropped, "
              f"written to {trace_file}")
        for name in main_run["escaped"]:
            print(f"  not traced (bound by from-import): {name}")
    for name, (value, u) in metrics.items():
        print(f"{name:40s} {value:.6g} {u}")
    correct = main_run["correct"] and probes["correct"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
