"""Write reference.json: the standard polynomial P_l for every (p, l) a workload decorates.

    python3 perfbench/make_reference.py

P_l does not depend on the seed, so the file is made once, with seed 0, and
every benchmark run checks its own P_l against it.
"""

from __future__ import annotations

import json

from workload import REFERENCE, TABLE1_P2, WORKLOADS, import_library


def main() -> None:
    lib = import_library()
    degrees: dict[int, set[int]] = {}
    for spec in WORKLOADS.values():
        for p, ds in spec.items():
            degrees.setdefault(p, set()).update(ds)
    polys = {}
    for p in sorted(degrees):
        L = lib.StdLattice(p)
        polys[str(p)] = {str(ell): L.add_field(ell, seed=0).P for ell in sorted(degrees[p])}
        print(f"p={p}: {len(degrees[p])} degrees", flush=True)
    bad = [ell for ell, P in TABLE1_P2.items() if polys["2"].get(str(ell)) != P]
    if bad:
        raise SystemExit(f"P_l for p=2, l in {bad} differ from Table 1")
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": 0, "P": polys}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
