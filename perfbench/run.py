"""Benchmark of the rmcover library: three workloads, end to end and by layer.

Run from the root of a source checkout (the library is imported from its
`src/` directory, not from an installed copy):

    python3 perfbench/run.py --workload {proof,random-nl3,oracle} \
        --seed N --seconds S --trace {0,1}

A run sets up (imports, inputs from the seed, fresh directories), then runs
whole rounds of its workload's library calls until S seconds of rounds have
passed, checking each round's outputs after it, outside the timed region.  With --trace 0 it reports the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it records a span around
every library call and reports the per-layer metrics instead.  The last line
of standard output is the result, one JSON object; a copy with the machine
fingerprint goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 7

# Per-layer metric -> (statistic, span or counter names).  Statistics, taken
# per run: "s" the median over rounds of the seconds spent in the spans,
# "call_s"/"cpu_s" the median wall/CPU seconds of one call, "calls" the calls
# per round, "count" the median over rounds of a counter, "rate" a counter
# per second of its span.  A layer a workload does not run reads 0.
_BRUTE = ("nonlin.nl_r_bruteforce.n4r2", "nonlin.nl_r_bruteforce.n5r2",
          "nonlin.nl_r_bruteforce.n5r3")
PER_LAYER = {
    "nonlin.build_nl_table.call_s": ("call_s", ("nonlin.build_nl_table",)),
    "nonlin.build_nl_table.cpu_s": ("cpu_s", ("nonlin.build_nl_table",)),
    "nonlin.build_nl_table.calls": ("calls", ("nonlin.build_nl_table",)),
    "nonlin.check_covering_condition.call_s":
        ("call_s", ("nonlin.check_covering_condition",)),
    "nonlin.nl_r_recursive.call_s":
        ("call_s", ("nonlin.nl_r_recursive.n5r3",)),
    "nonlin.nl_r_bruteforce.n4r2.call_s": ("call_s", _BRUTE[:1]),
    "nonlin.nl_r_bruteforce.n5r2.call_s": ("call_s", _BRUTE[1:2]),
    "nonlin.nl_r_bruteforce.n5r3.call_s": ("call_s", _BRUTE[2:]),
    "nonlin.nl_r_bruteforce.calls": ("calls", _BRUTE),
    "nonlin.NlTable.save_s": ("s", ("nonlin.NlTable.save",)),
    "nonlin.NlTable.load_s": ("s", ("nonlin.NlTable.load",)),
    "orbit.MatrixSet.load_s": ("s", ("orbit.MatrixSet.load",)),
    "orbit.all_orbit_lengths.s": ("s", ("orbit.all_orbit_lengths",)),
    "orbit.cosets_visited": ("count", ("orbit.cosets_visited",)),
    "orbit.bfs_orbit.s": ("s", ("orbit.bfs_orbit",)),
    "orbit.matrices_collected": ("count", ("orbit.matrices_collected",)),
    "classify.class_stats.s": ("s", ("classify.class_stats",)),
    "verify.check_29.s": ("s", ("verify.check_29",)),
    "verify.check_310.s": ("s", ("verify.check_310",)),
    "verify.check_310.round1_survivors":
        ("count", ("verify.check_310.round1_survivors",)),
    "verify.reduction.s": ("s", ("verify.reduction",)),
    "verify.sweep_610.s": ("s", ("verify.sweep_610",)),
    "verify.sweep_610.cpu_s": ("cpu_s", ("verify.sweep_610",)),
    "verify.sweep_610.matrices_per_s":
        ("rate", ("verify.sweep_610.matrices", "verify.sweep_610")),
    "verify.sweep_610.matrices": ("count", ("verify.sweep_610.matrices",)),
}


class Recorder:
    """Times one run's library calls.

    Phase times are always kept, one sample per pass through a phase: they
    give the end-to-end metrics.  With tracing on, every call also leaves a
    span (round, name, wall seconds, CPU seconds) and every counter its value
    per round.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.nrounds = 0
        self.done = 0  # calls completed in the current round
        self.phases: dict[str, list[float]] = {}
        self.spans: list[tuple[int, str, float, float]] = []
        self.counters: list[tuple[int, str, int]] = []

    def start_round(self) -> None:
        self.nrounds += 1
        self.done = 0

    def call(self, name, fn, *args, **kwargs):
        if self.trace:
            w0, c0 = time.perf_counter(), time.process_time()
            out = fn(*args, **kwargs)
            self.spans.append((self.nrounds - 1, name,
                               time.perf_counter() - w0, time.process_time() - c0))
        else:
            out = fn(*args, **kwargs)
        self.done += 1
        return out

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases.setdefault(name, []).append(time.perf_counter() - t0)

    def count(self, name: str, value: int) -> None:
        if self.trace:
            self.counters.append((self.nrounds - 1, name, value))

    def layer(self, stat: str, names: tuple[str, ...]) -> float:
        nrounds = self.nrounds
        spans = [s for s in self.spans if s[1] in names]

        def per_round(items, pick):
            totals = [0.0] * nrounds
            for item in items:
                totals[item[0]] += pick(item)
            return totals

        if stat == "call_s":
            return statistics.median([s[2] for s in spans]) if spans else 0.0
        if stat == "cpu_s":
            return statistics.median([s[3] for s in spans]) if spans else 0.0
        if stat == "calls":
            return len(spans) / nrounds
        if stat == "s":
            return statistics.median(per_round(spans, lambda s: s[2]))
        counts = per_round([c for c in self.counters if c[1] == names[0]],
                           lambda c: c[2])
        if stat == "count":
            return statistics.median(counts)
        # rate: the counter per second of the named span, round by round
        secs = per_round([s for s in self.spans if s[1] == names[1]],
                         lambda s: s[2])
        return statistics.median([c / s if s else 0.0 for c, s in zip(counts, secs)])


def machine() -> dict:
    """Cores, CPU model, Python, numpy, BLAS and the source commit."""
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS")}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": threads,
        "commit": commit(),
    }


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(line.split()[0] for line in fh
                            if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def time_setups(args) -> list[float]:
    """Wall seconds from spawning a fresh process until its set-up is done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            samples.append(time.perf_counter() - t0)
            p.stdout.read()
        if line.strip() != "ready" or p.returncode:
            raise RuntimeError(f"set-up process failed ({p.returncode})")
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("proof", "random-nl3", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "rmcover", "__init__.py")):
        print(f"error: no rmcover sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workdir = os.path.join(HERE, "tmp", f"{args.workload}-{os.getpid()}")
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, work) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rec = Recorder(bool(args.trace))
    setups = [] if args.trace else time_setups(args)

    attempted = failed = 0
    walls: list[float] = []
    problems: list[str] = []
    first = None
    while sum(walls) < args.seconds:
        rec.start_round()
        t0 = time.perf_counter()
        try:
            out = work.round(rec, len(walls))
        except Exception:
            traceback.print_exc()
            failed += work.ops - rec.done
            out = None
        else:
            if rec.done != work.ops:
                raise RuntimeError(f"round made {rec.done} calls, not {work.ops}")
        walls.append(time.perf_counter() - t0)
        attempted += work.ops
        print(f"round {len(walls)}: {walls[-1]:.3f} s", flush=True)
        if out is not None:
            problems += work.check(out)
            first = out if first is None else first
    problems += work.controls(first) if first is not None else ["no round completed"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        specs = spec["per_layer"]
        values = {name: rec.layer(*PER_LAYER[name]) for name in PER_LAYER}
    else:
        specs = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "build_s": statistics.median(rec.phases["build"]),
            "verify_s": statistics.median(rec.phases["verify"]),
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != {m["name"] for m in specs}:
        raise RuntimeError("metrics do not match BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    record = {
        "args": vars(args),
        "machine": machine(),
        "rounds": len(walls),
        "round_wall_s": walls,
        "phase_s": rec.phases,
        "setup_samples_s": setups,
        "problems": problems,
        "result": result,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
