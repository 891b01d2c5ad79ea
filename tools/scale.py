"""Scale benchmark of fflattice: one command, one JSON file.

    python3 tools/scale.py --out BENCH_1.json

It measures the checkout it lives in (its src/), from any working
directory, and changes nothing in it.  Every run of a workload is a fresh
Python process with one BLAS and OpenMP thread, and the REPEATS runs go
round robin over the workloads, so a drift of the host spreads over all of
them.
Children write and read their bytecode under a temporary pycache prefix
(PYTHONDONTWRITEBYTECODE is dropped for them), warmed by one untimed
import first, so every run imports from valid bytecode and none depends on
the checkout's __pycache__ or writes into it.

Workloads (WORKLOADS below):
  cli-*    the CLI runs of the north star, `fflattice bench` and `verify`,
           timed as whole processes from outside (interpreter start-up and
           import included);
  scale-*  add_field in degree order on one StdLattice, then, for
           p = 2 {341, 1023}, get_embedding(341, 1023) and its first
           section_eval, and for the level-1 point p = 65521 with every
           divisor of 360, get_embedding of every divisor pair (dense),
           then get_embedding(4, 180), (45, 180), (2, 360), (60, 360),
           (90, 360) and (180, 360) alone (sparse: each on a lattice of
           its own cold copies of its two fields, copied before the dense
           step); timed inside the process after the import, step by
           step.

The file holds
  env         commit (and whether tracked files differ from it), a sha256
              of the sources under src/ (paths and contents), Python,
              numpy, machine, CPU count, the CPUs this process may use and
              the BLAS threads given to the children;
  workload    what each workload runs;
  import_s    `import fflattice.cli` in a fresh process: median, IQR, runs;
  end_to_end  per workload the median and IQR of its runs in seconds, the
              runs, and for the scale points the median of each step.
The exit code is 1 when a run fails.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
DIVISORS_360 = [d for d in range(1, 361) if 360 % d == 0]

WORKLOADS = {
    "cli-bench-p2-120": ["bench", "-p", "2", "--max", "120"],
    "cli-bench-p3-100": ["bench", "-p", "3", "--max", "100"],
    "cli-verify-p2-60": ["verify", "-p", "2", "--max", "60"],
    "cli-verify-p3-60": ["verify", "-p", "3", "--max", "60"],
    "cli-verify-p5-60": ["verify", "-p", "5", "--max", "60"],
    # (p, degrees, the pair whose first section is timed, the pairs timed alone)
    "scale-p2-341-1023": (2, [341, 1023], (341, 1023), None),
    "scale-p2-2047": (2, [2047], None, None),
    "scale-p3-182-364": (3, [182, 364], None, None),
    "scale-p65521-96-181": (65521, [96, 181], None, None),
    "scale-p2147483647-31-151": (2 ** 31 - 1, [31, 151], None, None),
    "scale-p65521-360": (65521, DIVISORS_360, None,
                         [(4, 180), (45, 180), (2, 360), (60, 360), (90, 360), (180, 360)]),
}

THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def describe(name: str) -> str:
    spec = WORKLOADS[name]
    if name.startswith("cli-"):
        return "fflattice " + " ".join(spec)
    p, degrees, pair, alone = spec
    text = f"p = {p}: add_field({', '.join(map(str, degrees))})"
    if pair:
        text += f", get_embedding{pair} and its first section_eval"
    if alone:
        text += (", get_embedding of every divisor pair, then "
                 + " and ".join(f"get_embedding{pr}" for pr in alone) + " alone")
    return text


def child(name: str) -> dict:
    """One run inside a fresh process: the import, or one scale point step by step."""
    start = time.perf_counter()
    import fflattice.cli  # noqa: F401  (the import the CLI pays)
    from fflattice import StdLattice
    imported = time.perf_counter()
    if name == "import":
        return {"total_s": imported - start}
    p, degrees, pair, alone = WORKLOADS[name]
    steps = {}

    def step(label, fn):
        t = time.perf_counter()
        value = fn()
        steps[label] = time.perf_counter() - t
        return value

    L = StdLattice(p)
    for ell in degrees:
        step(f"add_field({ell})", lambda: L.add_field(ell))
    if pair:
        ell, m = pair
        step(f"get_embedding{pair}", lambda: L.get_embedding(ell, m))
        s = L.field(ell).s
        y = L.embed_eval(ell, m, s)
        if step(f"section_eval{pair}", lambda: L.section_eval(ell, m, y)) != s:
            raise AssertionError("the section does not invert the embedding")
    if alone:
        # cold copies of each pair's fields, sharing the cyclotomic lattice,
        # before any embedding
        cold = {pr: copy.deepcopy({n: L.fields[n] for n in pr}, {id(L.lattice): L.lattice})
                for pr in alone}
        pairs = [(ell, m) for m in degrees for ell in degrees if m % ell == 0]
        step(f"get_embedding x {len(pairs)} divisor pairs",
             lambda: [L.get_embedding(ell, m) for ell, m in pairs])
        for ell, m in alone:
            sparse = StdLattice(p, L.lattice)
            sparse.fields.update(cold[ell, m])
            desc = step(f"get_embedding{(ell, m)} alone", lambda: sparse.get_embedding(ell, m))
            if desc != L.get_embedding(ell, m):
                raise AssertionError("the cold copies embed differently")
    return {"total_s": time.perf_counter() - imported, "steps": steps}


def run_once(name: str, env: dict) -> dict:
    if name.startswith("cli-"):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "fflattice.cli", *WORKLOADS[name]], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        return {"total_s": time.perf_counter() - t}
    out = subprocess.run([sys.executable, __file__, "--child", name], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median_s": statistics.median(runs), "iqr_s": q3 - q1, "runs_s": runs}


def git(*args) -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def environment() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": git("rev-parse", "HEAD") or None,
            "tracked_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "blas_threads": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON here (default: standard output)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    with tempfile.TemporaryDirectory(prefix="fflattice-pycache-") as cache:
        src = str(ROOT / "src")
        env = dict(os.environ, **THREADS, PYTHONPYCACHEPREFIX=cache,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        run_once("import", env)     # untimed: fills the bytecode cache
        imports, runs = [], {name: [] for name in WORKLOADS}
        for r in range(REPEATS):
            imports.append(run_once("import", env)["total_s"])
            for name in WORKLOADS:
                runs[name].append(run_once(name, env))
                print(f"[{r + 1}/{REPEATS}] {name}: {runs[name][-1]['total_s']:.3f} s",
                      file=sys.stderr)
    end_to_end = {}
    for name, results in runs.items():
        end_to_end[name] = summary([res["total_s"] for res in results])
        if "steps" in results[0]:
            end_to_end[name]["steps_median_s"] = {
                label: statistics.median(res["steps"][label] for res in results)
                for label in results[0]["steps"]}
    report = {"env": environment(), "workload": {name: describe(name) for name in WORKLOADS},
              "import_s": summary(imports), "end_to_end": end_to_end}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
