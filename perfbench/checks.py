"""Correctness checks on the workloads' outputs, and their negative controls.

Every check compares an output with a value published in the paper, with a
second engine (the brute-force oracle `nl_r_bruteforce`, which shares no code
with the split recursion), or with a property the method must have.  None
compares with a saved copy of an earlier run.  A check returns a list of
problems; an empty list means the output passed.

The negative controls plant a wrong output into a copy of a real one and
require the matching check to report it, so a check that cannot fail shows.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from rmcover.boolfn import MonomialSet
from rmcover.nonlin import NlTable, nl_r_bruteforce

# Paper, Table 1: degree, nl_2, nl_3 and ml_2 of the class representatives.
# The ml_2 entry of fn_0 is printed as 0 there, which contradicts its own
# definition; it is 18 (pinned by the brute-force oracle in the test suite).
TABLE1 = {
    "deg": (0, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6),
    "nl2": (0, 4, 6, 10, 2, 4, 8, 1, 3, 7, 9),
    "nl3": (0, 4, 6, 8, 2, 4, 6, 1, 3, 5, 7),
    "ml2": (18, 16, 16, 14, 16, 14, 14, 17, 15, 15, 15),
}

# Paper, Tables 2-3: level-set sizes of the (6,3) value tables.
LEVEL_COUNTS = {
    2: {6: 64, 8: 1920, 10: 64320, 12: 579072, 14: 397440, 16: 5760},
    3: {8: 2304, 10: 71680, 12: 628992, 14: 345600},
    6: {6: 32, 8: 2112, 10: 65312, 12: 638208, 14: 342912},
    9: {5: 6, 7: 298, 9: 12540, 11: 245556, 13: 784416, 15: 5760},
    10: {7: 288, 9: 13216, 11: 254016, 13: 746496, 15: 34560},
}

# Paper, Table 5: AGL(6,2)-orbit lengths of the eleven cosets.
ORBIT_LENGTHS = (1, 651, 18228, 13888, 2016, 312480, 1749888,
                 64, 41664, 1166592, 888832)

# Known covering radii rho(r, n) that bound every nl_r value.
RHO = {(2, 4): 2, (2, 5): 6, (3, 5): 2, (2, 6): 18, (3, 7): 20}

# The reduction lands every Case-2 instance in {4,5,6} x {7,8,9,10}.
REDUCTION_TARGETS = {(i, j) for i in (4, 5, 6) for j in (7, 8, 9, 10)}


def spot_words(rng: np.random.Generator, count: int) -> list[int]:
    """Seeded coefficient words of a (6,3) table to check by the oracle."""
    return [int(w) for w in rng.integers(0, 1 << 20, size=count)]


def check_table(table: NlTable, words: list[int],
                level_counts: dict[int, int] | None = None) -> list[str]:
    """A (6,3) value table: bounded by rho(2,6), spot-checked by the oracle,
    and, for a class representative, with the published level counts."""
    problems = []
    top = int(table.values.max())
    if top > RHO[(2, 6)]:
        problems.append(f"table entry {top} exceeds rho(2,6) = {RHO[(2, 6)]}")
    if level_counts is not None and table.level_counts() != level_counts:
        problems.append(f"level counts {table.level_counts()} != {level_counts}")
    ms = MonomialSet.of(table.n, table.r)
    for w in words:
        want = nl_r_bruteforce(table.base + ms.function(w), table.r - 1)
        if int(table.values[w]) != want:
            problems.append(f"entry {w} is {table.values[w]}, oracle says {want}")
    return problems


def check_class_stats(stats) -> list[str]:
    problems = []
    for s in stats:
        for key in TABLE1:
            if getattr(s, key) != TABLE1[key][s.index]:
                problems.append(f"fn_{s.index} {key} = {getattr(s, key)}, "
                                f"Table 1 says {TABLE1[key][s.index]}")
    return problems


def check_orbits(lengths, orbit_size: int, matrices: int) -> list[str]:
    problems = []
    if tuple(lengths) != ORBIT_LENGTHS:
        problems.append(f"orbit lengths {lengths} != Table 5")
    if sum(lengths) != 1 << 22:
        problems.append(f"orbit lengths sum to {sum(lengths)}, not 2^22")
    if orbit_size != ORBIT_LENGTHS[10]:
        problems.append(f"fn_10 orbit has {orbit_size} cosets")
    if not 0 < matrices <= orbit_size:
        problems.append(f"matrix set of {matrices} for an orbit of {orbit_size}")
    return problems


def check_level_stages(v29, v310) -> list[str]:
    """The (2,9) and (3,10) inclusion checks, sized by Tables 2-3."""
    problems = []
    if not v29.passed or v29.counters["satisfying"]:
        problems.append(f"check_29 {v29.outcome} {v29.counters}")
    if v29.counters["candidates"] != LEVEL_COUNTS[9][15]:
        problems.append(f"check_29 candidates {v29.counters['candidates']}")
    if not v310.passed or v310.counters["round2_satisfying"]:
        problems.append(f"check_310 {v310.outcome} {v310.counters}")
    if v310.counters["round1_candidates"] != LEVEL_COUNTS[3][12] + LEVEL_COUNTS[3][14]:
        problems.append(f"check_310 candidates {v310.counters['round1_candidates']}")
    return problems


def check_reduction(landed) -> list[str]:
    return [f"reduction landed in type {t}" for t in landed
            if t not in REDUCTION_TARGETS]


def check_sweep(v, expected_matrices: int) -> list[str]:
    """No hit, every selected matrix swept once, no shard replayed."""
    c = v.counters
    problems = []
    if not v.passed or c["hits"] or v.counterexample is not None:
        problems.append(f"sweep {v.outcome} with {c['hits']} hits")
    if c["matrices"] != expected_matrices:
        problems.append(f"sweep counted {c['matrices']} of {expected_matrices} matrices")
    if c["resumed_shards"]:
        problems.append(f"sweep replayed {c['resumed_shards']} shards")
    if c["targets_per_matrix"] != LEVEL_COUNTS[10][15]:
        problems.append(f"sweep targets {c['targets_per_matrix']}")
    if c["subset_size"] != LEVEL_COUNTS[6][6]:
        problems.append(f"sweep subset {c['subset_size']}")
    return problems


def check_covering(nl3: int, verdicts: dict[int, bool]) -> list[str]:
    """The covering condition holds at t exactly when nl_3 >= t."""
    problems = [f"covering verdict at t={t} is {holds} for nl_3 = {nl3}"
                for t, holds in verdicts.items() if holds != (nl3 >= t)]
    if nl3 > RHO[(3, 7)]:
        problems.append(f"nl_3 = {nl3} exceeds rho(3,7) = {RHO[(3, 7)]}")
    return problems


def check_oracle(results) -> list[str]:
    """results: (n, r, recursive value, brute-force value) per function."""
    problems = []
    for n, r, rec, brute in results:
        if rec != brute:
            problems.append(f"({n},{r}): recursion {rec} != oracle {brute}")
        if brute > RHO[(r, n)]:
            problems.append(f"({n},{r}): nl = {brute} exceeds rho = {RHO[(r, n)]}")
    return problems


# ---------------------------------------------------------------------------
# Negative controls: each planted wrong output must be reported.
# ---------------------------------------------------------------------------


def planted_table(table: NlTable, word: int) -> NlTable:
    """A copy of the table with one entry changed by one."""
    values = table.values.copy()
    values[word] = values[word] - 1 if values[word] else 1
    return NlTable(table.base, table.r, values)


def control_table(table: NlTable, words, level_counts=None) -> list[str]:
    """The oracle spot check, and the level counts when given, each alone."""
    bad = planted_table(table, words[0])
    problems = []
    if not check_table(bad, words[:1]):
        problems.append("control: a table entry changed by one passed the oracle")
    if level_counts is not None and not check_table(bad, [], level_counts):
        problems.append("control: a table entry changed by one kept the level counts")
    return problems


def control_sweep(v, expected_matrices: int) -> list[str]:
    problems = []
    hit = dataclasses.replace(
        v, outcome="fail", counterexample=(0, 0, 0),
        counters={**v.counters, "hits": 1})
    if not check_sweep(hit, expected_matrices):
        problems.append("control: a sweep verdict with a hit passed check_sweep")
    resumed = dataclasses.replace(v, counters={**v.counters, "resumed_shards": 1})
    if not check_sweep(resumed, expected_matrices):
        problems.append("control: a resumed sweep shard passed check_sweep")
    return problems


def control_oracle(results) -> list[str]:
    """An oracle value off by one, on the side that stays within the radius,
    so only the engine comparison can catch it."""
    n, r, rec, brute = results[0]
    planted = brute - 1 if brute else brute + 1
    if not check_oracle([(n, r, rec, planted)]):
        return ["control: an oracle value off by one passed check_oracle"]
    return []
