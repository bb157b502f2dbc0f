"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Two sub-assertions are expected RED and carry the analysis in their
docstrings (and in the project notes): the published ml_2 entry for class 0
contradicts its own definition (oracle-verified 18 vs published 0), and the
published matrix-set size 130843 is one below what the queue search as
specified produces (130844), a traversal-order fingerprint that survives an
extensive variant search.  Everything else reproduces exactly.
"""

import hashlib
import time

import numpy as np
import pytest

from rmcover import classify as cl
from rmcover import field as fl
from rmcover import nonlin as nl
from rmcover import orbit as ob
from rmcover import verify as vf
from rmcover.boolfn import BooleanFunction, MonomialSet, concat, distance, mobius, split
from rmcover.cli import EXPECTED_LEVEL_COUNTS, EXPECTED_ORBIT_LENGTHS, EXPECTED_TABLE1

from gf2_reference import EXPECTED_MATRIX_SET_SIZE

def _line(name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))


@pytest.fixture(scope="module")
def stats(tables):
    return {i: cl.class_stats(i, tables[i]) for i in range(11)}


def test_criterion_1_table1_published(stats):
    """Criterion 1 as stated: all 44 recomputed values equal the published
    table with zero tolerance.  RED by design on one cell: ml_2 of class 0
    recomputes (and oracle-verifies) to 18 where the publication prints 0,
    contradicting the definition ml_2(0) = max nl_2 over cubics (e.g.
    nl_2(x1x2x3) = 8 > 0).  See the companion test and the project notes.
    """
    got = {
        "deg": tuple(stats[i].deg for i in range(11)),
        "nl2": tuple(stats[i].nl2 for i in range(11)),
        "nl3": tuple(stats[i].nl3 for i in range(11)),
        "ml2": tuple(stats[i].ml2 for i in range(11)),
    }
    ok = got == EXPECTED_TABLE1
    _line("1 (published table, 44 values)", ok, f"computed {got}")
    assert got == EXPECTED_TABLE1


def test_criterion_1_table1_oracle_corrected(stats, tables):
    """All 44 class quantities match the published table except the one cell
    that the brute-force oracle proves wrong as published."""
    for key in ("deg", "nl2", "nl3"):
        got = tuple(getattr(stats[i], key) for i in range(11))
        assert got == EXPECTED_TABLE1[key], key
    assert tuple(stats[i].ml2 for i in range(1, 11)) == EXPECTED_TABLE1["ml2"][1:]
    # the defective cell, pinned by an independent oracle
    assert stats[0].ml2 == 18
    ms = MonomialSet.of(6, 3)
    argmax = int(np.flatnonzero(tables[0].values == 18)[0])
    assert nl.nl_r_bruteforce(ms.function(argmax), 2) == 18
    _line("1 (43 published cells + oracle-pinned ml2(fn_0)=18)", True)


def test_criterion_2_level_set_distributions(tables):
    for i, expected in EXPECTED_LEVEL_COUNTS.items():
        counts = tables[i].level_counts()
        assert counts == expected, f"fn_{i}"
        assert sum(counts.values()) == 1 << 20
    _line("2 (tables 2-3 level counts)", True,
          "all five distributions exact, sums 2^20")


def test_criterion_3_orbit_lengths(agl6_gens):
    t0 = time.time()
    lengths = ob.all_orbit_lengths(agl6_gens)
    elapsed = time.time() - t0
    ok = lengths == EXPECTED_ORBIT_LENGTHS and sum(lengths) == 1 << 22
    _line("3 (orbit lengths)", ok, f"{lengths} in {elapsed:.1f}s")
    assert lengths == EXPECTED_ORBIT_LENGTHS
    assert sum(lengths) == 1 << 22
    assert elapsed < 300


def test_criterion_3_matrix_set_size(fn10_orbit):
    """Criterion 3's matrix-set sub-assertion as stated: |A| = 130843.
    RED by design: the queue search exactly as specified yields 130844
    (orbit length 888832 exact), verified by two independent
    implementations; the published count is a traversal tie-break
    fingerprint that an extensive variant search could not reproduce.
    Analysis in the project notes.  The proof does not read this count:
    its sweep runs over one matrix per translation class of the orbit
    (13,888), each class's matrix recorded by the class walk.
    """
    got = len(fn10_orbit.matrix_set)
    _line("3 (matrix set size)", got == EXPECTED_MATRIX_SET_SIZE,
          f"computed {got}, published {EXPECTED_MATRIX_SET_SIZE}")
    assert got == EXPECTED_MATRIX_SET_SIZE


def test_criterion_4_level_set_checks(tables):
    v29 = vf.check_29(tables[2], tables[9])
    v310 = vf.check_310(tables[3], tables[10])
    ok = (
        v29.passed
        and v29.counters["candidates"] == 5760
        and v29.counters["satisfying"] == 0
        and v310.passed
        and v310.counters["round1_candidates"] == 974592
        and v310.counters["round1_survivors"] == 6912
        and v310.counters["round2_satisfying"] == 0
    )
    _line("4 (type (2,9)/(3,10) checks)", ok,
          f"{v29.counters} / {v310.counters}")
    assert ok


def test_criterion_5_sweep_full_and_proxy(matrix_set, tables):
    t0 = time.time()
    proxy = vf.sweep_610(matrix_set, tables[6], tables[10], stride=100)
    proxy_elapsed = time.time() - t0
    assert proxy.passed and proxy.counters["hits"] == 0
    assert proxy.counters["targets_per_matrix"] == 34560
    assert proxy.counters["subset_size"] == 32
    assert proxy_elapsed < 600  # the CI-scale budget

    full = vf.sweep_610(matrix_set, tables[6], tables[10])
    assert full.passed
    assert full.counters["hits"] == 0
    assert full.counters["matrices"] == len(matrix_set)
    assert full.counters["targets_per_matrix"] == 34560
    assert full.counters["subset_size"] == 32
    _line("5 (type (6,10) sweep)", True,
          f"full {full.counters['matrices']} matrices, 0 hits, "
          f"proxy {proxy.counters['matrices']} in {proxy_elapsed:.1f}s")


def test_criterion_6_witness_lower_bound():
    w = BooleanFunction.from_anf_string(vf.WITNESS_ANF, n=7)
    t0 = time.time()
    value = nl.nl_r_recursive(w, 3)
    _line("6 (witness nl_3)", value == 20, f"nl_3 = {value} in {time.time()-t0:.1f}s")
    assert value == 20


def test_criterion_7_bound_arithmetic(stats):
    bounds = cl.exclusion_table(stats)
    flagged = cl.flagged_types(bounds)
    rho = cl.rho_upper_bound(stats)
    chain = cl.chain_bounds()
    ok = (
        rho == 22
        and flagged == [(2, 9), (2, 10), (3, 10), (6, 10)]
        and tuple(chain[k] for k in ((3, 8), (3, 9), (3, 10), (4, 8), (4, 9), (4, 10)))
        == (60, 156, 372, 28, 88, 244)
    )
    _line("7 (bound arithmetic)", ok, f"rho<=22, flagged {flagged}")
    assert ok


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(88)
    t0 = time.time()
    mismatches = 0
    for n, r in ((4, 2), (5, 2), (5, 3)):
        for _ in range(200):
            f = BooleanFunction.from_tt(n, int(rng.integers(0, 1 << (1 << n))))
            if nl.nl_r_recursive(f, r) != nl.nl_r_bruteforce(f, r):
                mismatches += 1
    elapsed = time.time() - t0
    _line("8 (oracle equivalence)", mismatches == 0,
          f"600 functions, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60


def test_criterion_9_covering_condition_harness():
    rng = np.random.default_rng(99)
    mismatches = 0
    digests = []
    for _ in range(50):
        f1 = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
        f2 = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
        t1 = nl.build_nl_table(f1, 3)
        t2 = nl.build_nl_table(f2, 3)
        digests += [hashlib.sha256(t.values.tobytes()).hexdigest() for t in (t1, t2)]
        # definition chase: nl_3(f1||f2) is the min over shared shifts of the
        # summed half levels (identically what the split recursion computes)
        direct = int((t1.values.astype(np.uint16) + t2.values).min())
        for t in (direct - 1, direct, direct + 1):
            verdict = nl.check_covering_condition(t1, t2, t)
            if verdict.holds != (direct >= t):
                mismatches += 1
    _line("9 (covering-condition harness)", mismatches == 0,
          f"50 pairs x 3 thresholds, {mismatches} mismatches")
    assert mismatches == 0
    # the bytes of the 100 tables: the sha256 of their digests, one per line
    joined = "".join(d + "\n" for d in digests).encode()
    assert hashlib.sha256(joined).hexdigest() == \
        "98b90be74c52538438921df8488007a685f26c13d9ee480d8fdbcb63ff1735fd"


def test_criterion_10_group_generators():
    t0 = time.time()
    for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (2, 5)):
        assert fl.generate_group(list(fl.agl_generators(n, q))) == fl.agl_order(n, q)
        assert fl.generate_group(list(fl.gl_generators(n, q))) == fl.gl_order(n, q)
    m22 = fl.max_element_order(list(fl.agl_generators(2, 2)))
    m32 = fl.max_element_order(list(fl.agl_generators(3, 2)))
    assert m22 < 24 and m32 < 1344
    elapsed = time.time() - t0
    _line("10 (two-generator closures)", True,
          f"7 cases + non-cyclicity in {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_11_property_suites():
    rng = np.random.default_rng(1111)

    # Moebius involution
    for _ in range(200):
        v = int(rng.integers(0, 1 << 63))
        assert mobius(mobius(v, 6), 6) == v

    # metric axioms on random triples
    for _ in range(100):
        a, b, c = (BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
                   for _ in range(3))
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c)
        assert (distance(a, b) == 0) == (a == b)

    # concat/split round trip
    for _ in range(200):
        f1 = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
        f2 = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
        assert split(concat(f1, f2)) == (f1, f2)

    # group-action laws
    from rmcover.boolfn import apply_affine
    from rmcover.field import compose
    from rmcover.verify import random_affine_map

    for _ in range(20):
        f = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
        l1, l2 = random_affine_map(rng), random_affine_map(rng)
        assert apply_affine(f, compose(l1, l2)) == \
            apply_affine(apply_affine(f, l1), l2)

    # translation invariance of the level tables (reduced scale, all shifts)
    from rmcover.field import AffineMap

    f = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
    base = nl.nl_table_values(f, 3)
    ident5 = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    for cshift in range(32):
        tau = AffineMap(2, 5, ident5, tuple(cshift >> i & 1 for i in range(5)))
        assert np.array_equal(base, nl.nl_table_values(apply_affine(f, tau), 3))

    # parity rule on 200 random 5-variable functions, r = 2, via the
    # brute-force oracle
    violations = 0
    for _ in range(200):
        f = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
        whole = nl.nl_r_bruteforce(f, 2)
        f1, f2 = split(f)
        if whole % 2 == 1:
            a = nl.nl_r_bruteforce(f1, 2)
            b = nl.nl_r_bruteforce(f2, 2)
            if (a + b) % 2 != 1:
                violations += 1
    assert violations == 0
    _line("11 (property suites)", True, "all properties hold")
