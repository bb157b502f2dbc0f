"""End-to-end reproduction: tables, orbit data, and the rho(3,7) = 20 proof.

Builds any missing artifacts, reruns every verification stage (the sweep
included, with no checkpoint), and writes a structured report.  On a shared
2-core Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31) it took
13.6-14.1 s from an empty artifact directory and 8.9-10.1 s with the
artifacts in place; the full matrix sweep is most of the pipeline.

Usage:
    python scripts/reproduce_all.py --artifacts artifacts --report report.json
"""

import argparse
import json
import os
import sys
import time

from rmcover.classify import NUM_CLASSES, fn_rep
from rmcover.field import agl_generators
from rmcover.nonlin import NlTable, build_nl_table
from rmcover.orbit import MatrixSet, all_orbit_lengths, bfs_orbit, coset_key
from rmcover.verify import prove_rho37


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--artifacts", default="artifacts")
    ap.add_argument("--report", default="report.json")
    ap.add_argument("--workers", type=int, default=1,
                    help="worker processes for the type-(6,10) sweep")
    args = ap.parse_args()
    os.makedirs(args.artifacts, exist_ok=True)
    command = "python scripts/reproduce_all.py " + " ".join(sys.argv[1:])

    tables = {}
    for i in range(NUM_CLASSES):
        path = os.path.join(args.artifacts, f"fn{i}.nlt")
        if os.path.exists(path):
            tables[i] = NlTable.load(path)
        else:
            t0 = time.time()
            tables[i] = build_nl_table(fn_rep(i), 3)
            tables[i].save(path, meta={"command": command})
            print(f"built fn_{i} table ({time.time()-t0:.1f}s)", flush=True)

    ams = os.path.join(args.artifacts, "fn10.ams")
    if os.path.exists(ams):
        mset = MatrixSet.load(ams)
    else:
        res = bfs_orbit(coset_key(fn_rep(10)), list(agl_generators(6, 2)),
                        collect_matrices=True)
        mset = res.matrix_set
        mset.save(ams, meta={"command": command})
        print(f"orbit {res.orbit_size}, matrix set {len(mset)}", flush=True)

    print("orbit lengths:", all_orbit_lengths(), flush=True)

    t0 = time.time()
    report = prove_rho37(tables, mset, workers=args.workers)
    print(report.to_text())
    print(f"pipeline time: {time.time()-t0:.1f}s")
    payload = json.loads(report.to_json())
    payload["command"] = command
    with open(args.report, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"report written to {args.report}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
