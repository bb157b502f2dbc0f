"""Build and persist the per-class nonlinearity value tables and matrix set.

Produces fn0.nlt .. fn10.nlt (NLT1 format, one byte per coefficient word)
plus fn10.ams (AMS1, the deduplicated sweep matrices) in the artifact
directory.  On a shared 2-core Xeon VM in its slow state (Python 3.11.7,
numpy 2.4.6, OpenBLAS 0.3.31) a table took about 0.5 s and the orbit run
0.7 s; 7 s in all.

Usage:
    python scripts/build_tables.py --artifacts artifacts
"""

import argparse
import os
import sys
import time

from rmcover.classify import NUM_CLASSES, fn_rep
from rmcover.field import agl_generators
from rmcover.nonlin import NlTable, build_nl_table
from rmcover.orbit import MatrixSet, bfs_orbit, coset_key


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--artifacts", default="artifacts")
    ap.add_argument("--only", type=int, default=None,
                    help="build a single class index instead of all")
    args = ap.parse_args()
    os.makedirs(args.artifacts, exist_ok=True)
    command = "python scripts/build_tables.py " + " ".join(sys.argv[1:])

    indices = [args.only] if args.only is not None else list(range(NUM_CLASSES))
    for i in indices:
        path = os.path.join(args.artifacts, f"fn{i}.nlt")
        if os.path.exists(path):
            print(f"fn_{i}: exists, skipping")
            continue
        t0 = time.time()
        table = build_nl_table(fn_rep(i), 3)
        table.save(path, meta={"command": command})
        print(f"fn_{i}: {path} ({time.time()-t0:.1f}s, "
              f"nl2={table.nl_prev}, ml2={table.ml_prev})", flush=True)

    ams = os.path.join(args.artifacts, "fn10.ams")
    if args.only is None and not os.path.exists(ams):
        t0 = time.time()
        res = bfs_orbit(coset_key(fn_rep(10)), list(agl_generators(6, 2)),
                        collect_matrices=True)
        res.matrix_set.save(ams, meta={"command": command})
        print(f"matrix set: {ams} ({time.time()-t0:.1f}s, "
              f"orbit={res.orbit_size}, matrices={len(res.matrix_set)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
