"""The benchmark's three workloads.

A workload object is built by its set-up (imports done, inputs generated from
the seed, fresh directories made).  `round` runs one round of timed library
calls through the recorder and returns its outputs, `check` returns the
problems found in one round's outputs and `controls` plants wrong outputs
into a copy of one round's outputs and returns every plant that its check
let pass.  Checks and controls run outside the timed region.  `ops` is the
number of timed library calls in one round.
"""

from __future__ import annotations

import os

import numpy as np

import checks
from rmcover.boolfn import BooleanFunction
from rmcover.classify import class_stats, fn_rep
from rmcover.field import agl_generators
from rmcover.nonlin import (
    NlTable,
    build_nl_table,
    check_covering_condition,
    nl_r_bruteforce,
    nl_r_recursive,
)
from rmcover.orbit import MatrixSet, all_orbit_lengths, bfs_orbit, coset_key
from rmcover.verify import (
    case2_instance,
    check_29,
    check_310,
    reduce_to_610,
    sweep_610,
)

# Table entries per table checked against the (6,2) brute-force oracle.
SPOT_WORDS = 4


class Proof:
    """The upper-bound half of the rho(3,7) = 20 argument, cut to fit a run.

    Build phase: the value tables of the five classes that the deep stages
    read, the fn_10 orbit with its matrix set and all eleven orbit lengths,
    saved as NLT1/AMS1 files in a fresh directory.  Verify phase: the files
    loaded back with hash verification, then the stages `prove_rho37`
    chains on them: class quantities, the (2,9) and (3,10) inclusion
    checks, the reduction samples and the type-(6,10) sweep over every
    SWEEP_STRIDE-th matrix, with no checkpoint.  The other six tables and
    the witness (two more table builds) would take the run past its time.
    """

    DEEP = (2, 3, 6, 9, 10)
    SWEEP_STRIDE = 4
    REDUCTION_SAMPLES = 3  # per Case-2 pair, as in prove_rho37
    # build: 5 tables, 2 orbit calls, 6 saves; verify: 6 loads, 5 class
    # stats, 2 inclusion checks, 2 calls per reduction sample, the sweep
    ops = 5 + 2 + 6 + 6 + 5 + 2 + 2 * 3 * REDUCTION_SAMPLES + 1

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir)
        self.dir = workdir
        self.seed = seed
        self.gens = list(agl_generators(6, 2))
        self.reps = {i: fn_rep(i) for i in self.DEEP}
        self.start = coset_key(fn_rep(10))
        self.spot = checks.spot_words(np.random.default_rng(seed), SPOT_WORDS)

    def round(self, rec, k: int) -> dict:
        art = os.path.join(self.dir, f"round{k}")
        os.mkdir(art)
        paths = {i: os.path.join(art, f"fn{i}.nlt") for i in self.DEEP}
        ams = os.path.join(art, "fn10.ams")
        meta = {"command": "perfbench proof"}
        with rec.phase("build"):
            tables = {i: rec.call("nonlin.build_nl_table", build_nl_table,
                                  self.reps[i], 3) for i in self.DEEP}
            orbit = rec.call("orbit.bfs_orbit", bfs_orbit, self.start, self.gens)
            lengths = rec.call("orbit.all_orbit_lengths", all_orbit_lengths,
                               self.gens)
            for i in self.DEEP:
                rec.call("nonlin.NlTable.save", tables[i].save, paths[i], meta)
            rec.call("orbit.MatrixSet.save", orbit.matrix_set.save, ams, meta)
        with rec.phase("verify"):
            loaded = {i: rec.call("nonlin.NlTable.load", NlTable.load, paths[i])
                      for i in self.DEEP}
            mset = rec.call("orbit.MatrixSet.load", MatrixSet.load, ams)
            stats = [rec.call("classify.class_stats", class_stats, i, loaded[i])
                     for i in self.DEEP]
            v29 = rec.call("verify.check_29", check_29, loaded[2], loaded[9])
            v310 = rec.call("verify.check_310", check_310, loaded[3], loaded[10])
            rng = np.random.default_rng(self.seed)
            landed = []
            for pair in ((2, 10), (2, 9), (3, 10)):
                for _ in range(self.REDUCTION_SAMPLES):
                    inst = rec.call("verify.reduction", case2_instance, pair, rng)
                    _, kind = rec.call("verify.reduction", reduce_to_610, inst)
                    landed.append(kind)
            sweep = rec.call("verify.sweep_610", sweep_610, mset, loaded[6],
                             loaded[10], stride=self.SWEEP_STRIDE)
        rec.count("orbit.cosets_visited", sum(lengths) + orbit.orbit_size)
        rec.count("orbit.matrices_collected", len(orbit.matrix_set))
        rec.count("verify.check_310.round1_survivors",
                  v310.counters["round1_survivors"])
        rec.count("verify.sweep_610.matrices", sweep.counters["matrices"])
        return dict(tables=tables, orbit=orbit, lengths=lengths, loaded=loaded,
                    mset=mset, stats=stats, v29=v29, v310=v310, landed=landed,
                    sweep=sweep)

    def swept(self, out) -> int:
        return len(out["mset"].members[::self.SWEEP_STRIDE])

    def check(self, out: dict) -> list[str]:
        problems = []
        for i in self.DEEP:
            built, back = out["tables"][i], out["loaded"][i]
            problems += checks.check_table(built, self.spot, checks.LEVEL_COUNTS[i])
            if back.base != built.base or not np.array_equal(back.values,
                                                             built.values):
                problems.append(f"fn_{i} table changed in save/load")
        if not np.array_equal(out["mset"].members, out["orbit"].matrix_set.members):
            problems.append("matrix set changed in save/load")
        problems += checks.check_class_stats(out["stats"])
        problems += checks.check_orbits(out["lengths"], out["orbit"].orbit_size,
                                        len(out["mset"]))
        problems += checks.check_level_stages(out["v29"], out["v310"])
        problems += checks.check_reduction(out["landed"])
        problems += checks.check_sweep(out["sweep"], self.swept(out))
        return problems

    def controls(self, out: dict) -> list[str]:
        return (checks.control_table(out["tables"][10], self.spot,
                                     checks.LEVEL_COUNTS[10])
                + checks.control_sweep(out["sweep"], self.swept(out)))


class RandomNl3:
    """nl_3 of seeded random 7-variable functions f = f1 || f2.

    Build phase: the (6,3) value tables of both halves.  Verify phase: nl_3
    as the minimum of the summed tables, and the covering condition at
    nl_3 - 1, nl_3 and nl_3 + 1.  The verify phase takes about 1/400 of the
    build's time, so it runs VERIFY_PASSES times on the same tables and
    verify_s is the median pass; the first pass alone varies by half.
    """

    VERIFY_PASSES = 5
    ops = 2 + 3 * VERIFY_PASSES
    POOL = 64  # inputs per run; a round takes seconds, so they do not repeat

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        halves = rng.integers(0, 1 << 64, size=(self.POOL, 2), dtype=np.uint64)
        self.pairs = [tuple(BooleanFunction.from_tt(6, int(h)) for h in row)
                      for row in halves]
        self.spot = checks.spot_words(rng, SPOT_WORDS)

    def round(self, rec, k: int) -> dict:
        f1, f2 = self.pairs[k % self.POOL]
        with rec.phase("build"):
            t1 = rec.call("nonlin.build_nl_table", build_nl_table, f1, 3)
            t2 = rec.call("nonlin.build_nl_table", build_nl_table, f2, 3)
        passes = []
        for _ in range(self.VERIFY_PASSES):
            with rec.phase("verify"):
                nl3 = int((t1.values.astype(np.uint16) + t2.values).min())
                passes.append((nl3, {
                    t: rec.call("nonlin.check_covering_condition",
                                check_covering_condition, t1, t2, t).holds
                    for t in (nl3 - 1, nl3, nl3 + 1)}))
        return dict(t1=t1, t2=t2, passes=passes)

    def check(self, out: dict) -> list[str]:
        nl3, verdicts = out["passes"][0]
        problems = (checks.check_table(out["t1"], self.spot)
                    + checks.check_table(out["t2"], self.spot)
                    + checks.check_covering(nl3, verdicts))
        if any(p != out["passes"][0] for p in out["passes"]):
            problems.append(f"verify passes disagree: {out['passes']}")
        return problems

    def controls(self, out: dict) -> list[str]:
        return checks.control_table(out["t1"], self.spot)


class Oracle:
    """Seeded random functions at (n, r) = (4,2), (5,2) and (5,3).

    Build phase: nl_r by the split recursion.  Verify phase: nl_r by the
    brute-force oracle, which enumerates every RM(r, n) codeword.
    """

    CASES = ((4, 2), (5, 2), (5, 3))
    ops = 2 * len(CASES)
    POOL = 256  # inputs per run; a 20 s run makes 100-210 rounds

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.funcs = {
            (n, r): [BooleanFunction.from_tt(n, int(t)) for t in
                     rng.integers(0, 1 << (1 << n), size=self.POOL,
                                  dtype=np.uint64)]
            for n, r in self.CASES
        }

    def round(self, rec, k: int) -> list[tuple]:
        fs = [(n, r, self.funcs[(n, r)][k % self.POOL]) for n, r in self.CASES]
        with rec.phase("build"):
            fast = [rec.call(f"nonlin.nl_r_recursive.n{n}r{r}", nl_r_recursive, f, r)
                    for n, r, f in fs]
        with rec.phase("verify"):
            slow = [rec.call(f"nonlin.nl_r_bruteforce.n{n}r{r}", nl_r_bruteforce, f, r)
                    for n, r, f in fs]
        return [(n, r, a, b) for (n, r, _), a, b in zip(fs, fast, slow)]

    def check(self, out: list[tuple]) -> list[str]:
        return checks.check_oracle(out)

    def controls(self, out: list[tuple]) -> list[str]:
        return checks.control_oracle(out)


WORKLOADS = {"proof": Proof, "random-nl3": RandomNl3, "oracle": Oracle}
