import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmcover import verify as vf
from rmcover.boolfn import (
    BooleanFunction,
    apply_affine,
    concat,
    degree,
    homogeneous_part,
    rref,
    split,
)
from rmcover.classify import fn_rep, type_of
from rmcover.field import AffineMap
from rmcover.nonlin import (
    NlTable,
    build_nl_table,
    check_covering_condition,
    nl_r_recursive,
    transform_words,
    translation_periods,
)
from rmcover.orbit import MatrixSet, canonical_keys, image_keys

import gf2_reference
from gf2_reference import gf2_pack_rows, gf2_unpack_keys


def test_check_29(tables):
    v = vf.check_29(tables[2], tables[9])
    assert v.passed
    assert v.counters == {"candidates": 5760, "probe_size": 1920, "satisfying": 0}


def test_check_29_rerun_reproduces_counters(tables):
    a = vf.check_29(tables[2], tables[9])
    b = vf.check_29(tables[2], tables[9])
    assert a == b


def test_check_310(tables):
    v = vf.check_310(tables[3], tables[10])
    assert v.passed
    assert v.counters == {
        "round1_candidates": 974592,
        "round1_survivors": 6912,
        "round2_satisfying": 0,
    }


def _survives(ta, tb, g, probes):
    # the covering condition at 21 for fn_a || (fn_b + g), word by word, on
    # g itself (the word 0 of ta) and on every word at a probed level of ta
    words = [0] + [int(x) for h in probes for x in np.flatnonzero(ta.values == h)]
    return all(int(ta.values[x]) + int(tb.values[x ^ g]) >= 21 for x in words)


def test_check_29_planted_survivor(tables):
    # a copy of fn_9's table where g = 0x2468 survives the level-8 probe
    g = 0x2468
    values = tables[9].values.copy()
    values[g] = 15
    values[tables[2].level_set(8) ^ np.uint32(g)] = 13
    fake = NlTable(tables[9].base, 3, values)
    v = vf.check_29(tables[2], fake)
    assert v.outcome == "fail" and v.counters["satisfying"] >= 1
    (found,) = v.counterexample
    assert found <= g and _survives(tables[2], fake, found, (8,))
    assert not _survives(tables[2], tables[9], found, (8,))


def test_check_310_planted_survivor(tables):
    # a copy of fn_3's table where g = 0x9ABCD survives both probes
    g = 0x9ABCD
    values = tables[3].values.copy()
    values[g] = 12
    values[tables[10].level_set(7) ^ np.uint32(g)] = 14
    values[tables[10].level_set(9) ^ np.uint32(g)] = 12
    fake = NlTable(tables[3].base, 3, values)
    v = vf.check_310(fake, tables[10])
    assert v.outcome == "fail" and v.counters["round2_satisfying"] >= 1
    (found,) = v.counterexample
    assert found <= g and _survives(tables[10], fake, found, (7, 9))
    assert not _survives(tables[10], tables[3], found, (7, 9))


def test_check_29_candidates_follow_the_g0_entry(tables):
    # fn_2's g = 0 entry raised from 6 to 8: the candidates are the words at
    # level >= 21 - 8 = 13 of fn_9's table, not its top level alone
    values = tables[2].values.copy()
    assert values[0] == 6
    values[0] = 8
    v = vf.check_29(NlTable(tables[2].base, 3, values), tables[9])
    counts = tables[9].level_counts()
    assert v.counters["candidates"] == counts[13] + counts[15] == 790176
    assert v.counters["probe_size"] == 1920 + 1


def _walsh(bits):
    """Integer Walsh-Hadamard transform of a 0/1 array of length 2^k."""
    a = bits.astype(np.int64)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2, h)
        x = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(x, v[:, 1], out=v[:, 1])
        h *= 2
    return a


def _plain_family_filter(ta, tb, probes, target):
    # the family check on every word, with no periods: a round keeps the
    # live g for which no x at the probed level has tb(x ^ g) < target - h,
    # that is the g where the XOR convolution of the level's indicator with
    # that of tb < target - h is 0 (computed times 2^20, exact in int64:
    # transform entries are at most 2^20, so the sums stay below 2^60)
    alive = np.flatnonzero(tb.values >= target - ta.nl_prev)
    n_cands, rounds = alive.size, []
    for h in probes:
        level = ta.values == h
        counts = _walsh(_walsh(level) * _walsh(tb.values < target - h))
        alive = alive[counts[alive] == 0]
        rounds.append((np.flatnonzero(level), alive))
    return n_cands, rounds


def _assert_matches_plain_filter(ta, tb, probes, target):
    n_cands, rounds = vf._family_check(ta, tb, probes)
    ref_cands, ref_rounds = _plain_family_filter(ta, tb, probes, target)
    assert n_cands == ref_cands
    for (probe, alive), (ref_probe, ref_alive) in zip(rounds, ref_rounds, strict=True):
        assert np.array_equal(probe, ref_probe) and np.array_equal(alive, ref_alive)
        assert alive.dtype == np.uint32


FAMILY_CASES = [(2, 9, (8,)), (2, 9, (6, 8, 10)), (10, 3, (7, 9)), (9, 2, (7, 9)),
                (3, 10, (8,))]


@pytest.mark.parametrize("target", [21, 19, 17])
def test_family_check_matches_the_plain_filter(tables, monkeypatch, target):
    # one word per coset of the periods gives the probe and survivor arrays
    # of the filter over every word, round by round
    monkeypatch.setattr(vf, "TARGET", target)
    for a, b, probes in FAMILY_CASES:
        if target == 17 and probes == (6, 8, 10):
            # nearly every coset passes fn_2's level 10 (64,320 words) at
            # 17, so that round alone would walk about 10^9 pairs (8 s)
            probes = (6, 8)
        _assert_matches_plain_filter(tables[a], tables[b], probes, target)


def test_class_tables_are_invariant_under_their_periods(tables):
    words = np.arange(1 << 20)
    dims = []
    for i in range(11):
        periods = translation_periods(fn_rep(i), 3)
        assert periods[0] == 0 and periods.size & periods.size - 1 == 0
        for p in periods:
            assert np.array_equal(tables[i].values[words ^ p], tables[i].values)
        dims.append(len(rref(periods.tolist())))
    assert dims[2] == dims[3] == 6 and dims[9] == dims[10] == 0


def test_a_forged_period_is_refused(tables, monkeypatch):
    # a word that is not a period of fn_3's table, passed off as one: both
    # certifications fall back to the trivial group, and the verdicts are
    # the plain filter's
    t3, t10 = tables[3], tables[10]
    real = translation_periods(fn_rep(3), 3)
    forged = 1
    assert forged not in real
    assert not np.array_equal(t3.values[np.arange(1 << 20) ^ forged], t3.values)
    assert len(vf._constant_cosets(t3, 12)[0]) == 6
    assert len(vf._closed_periods(t3, [t3.level_set(8)])) == 6
    monkeypatch.setattr(vf, "translation_periods",
                        lambda f, r: np.r_[translation_periods(f, r), forged])
    assert vf._constant_cosets(t3, 12)[0] == []
    assert vf._closed_periods(t3, [t3.level_set(8)]) == []
    v = vf.check_310(t3, t10)
    assert v.passed and v.counters == {
        "round1_candidates": 974592, "round1_survivors": 6912, "round2_satisfying": 0}
    for ta, tb, probes in ((t10, t3, (7, 9)), (t3, t10, (8,))):
        _assert_matches_plain_filter(ta, tb, probes, vf.TARGET)


def test_checks_reject_wrong_scale():
    t = build_nl_table(BooleanFunction.zero(5), 3)
    with pytest.raises(ValueError):
        vf.check_29(t, t)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


ALLOWED = {(i, j) for i in (4, 5, 6) for j in (7, 8, 9, 10)}


def test_reduction_shapes(rng):
    for pair in ((2, 10), (2, 9), (3, 10)):
        for _ in range(3):
            inst = vf.case2_instance(pair, rng)
            assert type_of(inst) == pair
            reduced, newtype = vf.reduce_to_610(inst)
            assert newtype in ALLOWED
            f1, f2 = split(reduced)
            assert {degree(f1), degree(f2)} == {5, 6}


def test_reduction_k_choice_example(rng):
    # a degree-4 part containing x1x2x3x4 admits k = 5
    f1 = fn_rep(2)
    h4 = BooleanFunction.from_anf_string("x1x2x3x4", n=6)
    f2 = f1 + BooleanFunction.from_anf_string("x1x2x3x4x5x6", n=6) + h4
    f = concat(f1, f2)
    reduced, newtype = vf.reduce_to_610(f)
    assert newtype in ALLOWED


def test_reduction_preserves_nl3(rng):
    for pair, trials in (((2, 10), 2), ((2, 9), 2), ((3, 10), 1)):
        for _ in range(trials):
            inst = vf.case2_instance(pair, rng)
            reduced, _ = vf.reduce_to_610(inst)
            a1, a2 = split(inst)
            b1, b2 = split(reduced)
            ta1, ta2 = build_nl_table(a1, 3), build_nl_table(a2, 3)
            tb1, tb2 = build_nl_table(b1, 3), build_nl_table(b2, 3)
            before = int((ta1.values.astype(np.uint16) + ta2.values).min())
            after = int((tb1.values.astype(np.uint16) + tb2.values).min())
            assert before == after
            # bracket through the covering condition as well
            assert check_covering_condition(tb1, tb2, after).holds
            assert not check_covering_condition(tb1, tb2, after + 1).holds


def test_reduction_instances_pinned():
    # ten Case-2 instances per pair from seed 20, hashed truth table by truth
    # table
    rng = np.random.default_rng(20)
    digest = hashlib.sha256()
    for pair in ((2, 10), (2, 9), (3, 10)):
        for _ in range(10):
            digest.update(vf.case2_instance(pair, rng).tt.to_bytes(16, "little"))
    assert digest.hexdigest() == (
        "b16f6b2b593e5c22bd0dd6bcd54a9f43aa6ae183bb4ddda890e713898e3c6210")


def test_normalizing_translation_read_off_t5(rng):
    # the translation read off T_5 is the first of the 64 that kills T_5
    ident = AffineMap.identity(6)
    for base in (fn_rep(9), fn_rep(10), fn_rep(7)):
        for _ in range(4):
            L = vf.random_affine_map(rng)
            moved = apply_affine(base, L)
            first = next(
                cand for c in range(64)
                if homogeneous_part(cand := apply_affine(
                    moved, AffineMap(2, 6, ident.A, tuple(c >> i & 1 for i in range(6)))),
                    5).anf == 0)
            assert vf._normalize_translation(base, L) == first
    # without the full monomial only a zero T_5 is normalized, by no move
    assert vf._normalize_translation(fn_rep(2), ident) == fn_rep(2)
    with pytest.raises(RuntimeError):
        vf._normalize_translation(fn_rep(4), ident)


def test_reduction_rejects_wrong_shape():
    with pytest.raises(ValueError):
        vf.reduce_to_610(concat(fn_rep(2), fn_rep(3)))  # no degree-6 term
    top = BooleanFunction.from_anf_string("x1x2x3x4x5x6")
    with pytest.raises(ValueError):
        vf.reduce_to_610(concat(fn_rep(0), top))  # degree-4 part vanishes


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _affine_from_rows(rows):
    """The linear map over GF(2)^6 whose matrix has the given row masks."""
    return AffineMap(2, 6, tuple(tuple(int(r) >> j & 1 for j in range(6)) for r in rows),
                     (0,) * 6)


def _reference_images(keys, base):
    """The images T_3(s(A^-1 x)) of the base words s for each matrix A, one
    matrix at a time through transform_words."""
    return [transform_words(base, 6, 3, _affine_from_rows(rows).inverse())
            for rows in gf2_unpack_keys(keys)]


def test_image_words_pinned(matrix_set, tables):
    # the images of fn_6's bottom level set under every matrix of the set,
    # in blocks of 4096 matrices, as <u4 bytes of the (32, 130844) array;
    # every matrix against the inversion and Moebius-transform engine, and
    # every 1000th against the one-matrix-at-a-time reference
    base = tables[6].level_set(6)
    keys = matrix_set.members
    words = np.concatenate([vf._image_words(keys[s:s + 4096], base)
                            for s in range(0, keys.size, 4096)], axis=1)
    assert words.shape == (32, 130844)
    digest = hashlib.sha256(np.ascontiguousarray(words, dtype="<u4").tobytes())
    assert digest.hexdigest() == (
        "7822ca21157cdd60715ce3ab528ae9be06377cf06264a0e211b26d8e156771b4")
    for s in range(0, keys.size, 4096):
        assert np.array_equal(words[:, s:s + 4096], gf2_reference.image_words(
            keys[s:s + 4096], base))
    reference = _reference_images(keys[::1000], base)
    assert np.array_equal(words[:, ::1000], np.array(reference).T)


def test_image_words_of_one_matrix_and_odd_blocks(matrix_set, tables):
    # block sizes that are not multiples of anything, and base words with
    # 0 and 20 set bits
    keys = matrix_set.members[::997]
    base = np.concatenate([tables[6].level_set(6)[:5], [0, (1 << 20) - 1]]).astype(np.uint32)
    for size in (1, 7, keys.size):
        got = vf._image_words(keys[:size], base)
        assert got.shape == (base.size, size)
        assert np.array_equal(got, gf2_reference.image_words(keys[:size], base))
    assert not vf._image_words(keys, base)[5].any()


def test_identity_slice_from_tables_alone(tables):
    # re-derivable without the orbit machinery: no shift of the bottom level
    # set of the fn_6 table fits inside the top level set of the fn_10 table
    base = tables[6].level_set(6)
    targets = tables[10].level_set(15)
    allowed = tables[10].values == 15
    shifts = base ^ base[0]
    alive = targets
    for d in shifts[1:]:
        alive = alive[allowed[alive ^ d]]
        if not alive.size:
            break
    assert alive.size == 0


def test_sweep_projection_covariance(matrix_set, tables, rng):
    # images T_3(s(A^-1 x)) of the bottom level set stay at level 6
    from rmcover.boolfn import MonomialSet, apply_affine

    ms = MonomialSet.of(6, 3)
    keys = np.array([matrix_set.members[rng.integers(0, len(matrix_set))]], dtype=np.uint64)
    moved_base = apply_affine(fn_rep(6), _affine_from_rows(gf2_unpack_keys(keys)[0]).inverse())
    (images,) = _reference_images(keys, tables[6].level_set(6)[:4])
    for w in images:
        assert nl_r_recursive(moved_base + ms.function(int(w)), 2) == 6


def test_sweep_worker_equivalence(matrix_set, tables):
    a = vf.sweep_610(matrix_set, tables[6], tables[10], stride=500, shard_size=64)
    assert a.passed and a.counters["shards"] == 5
    # a planted target table with hits in the first and the last shard, swept
    # over a strided view of the keys
    keys = matrix_set.members[::500]
    assert not keys.flags.c_contiguous
    assert vf.matrixset_digest(MatrixSet(keys)) == vf.matrixset_digest(MatrixSet(keys.copy()))
    base = tables[6].level_set(6)
    values = np.zeros(1 << 20, dtype=np.uint8)
    for m, g in ((3, 0x1234), (260, 0xABCDE)):
        values[vf._image_words(keys[m:m + 1], base)[:, 0] ^ np.uint32(g)] = 15
    fake = NlTable(tables[10].base, 3, values)
    a = vf.sweep_610(MatrixSet(keys), tables[6], fake, shard_size=64)
    assert a.outcome == "fail" and a.counters["shards"] == 5
    assert a.counterexample[0] == int(keys[3])
    assert a.counters["hits"] >= 2


def test_sweep_detects_planted_hit(tables):
    # sanity of the detector: plant a target table whose words at level
    # >= 21 - 6 are exactly the identity-slice image set of fn_6's bottom
    # level 6, so g = 0 is a guaranteed hit; then lift fn_6's table by one,
    # which moves its bottom level to 7 and the target level to 14
    ident_key = np.uint64(1 | 2 << 6 | 4 << 12 | 8 << 18 | 16 << 24 | 32 << 30)
    ms = MatrixSet(np.array([ident_key], dtype=np.uint64))
    for lift in (0, 1):
        t6 = NlTable(tables[6].base, 3, tables[6].values + lift)
        fake_values = np.zeros(1 << 20, dtype=np.uint8)
        fake_values[tables[6].level_set(6)] = 15 - lift
        fake = NlTable(tables[10].base, 3, fake_values)
        v = vf.sweep_610(ms, t6, fake)
        assert not v.passed
        assert v.counters["hits"] > 0 and v.counters["subset_size"] == 32
        assert v.counterexample is not None


def test_sweep_matches_per_matrix_reference(matrix_set, tables):
    # reference: the 32 images T_3(s(A^-1 x)) of each matrix, one matrix at a
    # time, then a plain loop over its 31 shifts in order, on a planted target
    # table
    keys = matrix_set.members[60000:60048]  # neighbours share shift words
    images = _reference_images(keys, tables[6].level_set(6))
    # plant g + images: a hit g + image[0] for matrices 0, 5 (twice) and 40;
    # and near misses for the first shard and matrix 20, each image but one,
    # so that a skipped shift, the pivot included, shows as a false hit
    values = tables[10].values.copy()
    for m, g in ((0, 0x1234), (5, 0x0F0F0), (5, 0xABCDE), (40, 0x55555)):
        values[images[m] ^ np.uint32(g)] = 15
    near = [*range(16), 20]
    gs = iter(np.random.default_rng(5).integers(1, 1 << 20, size=31 * len(near),
                                                dtype=np.uint32))
    for m in near:
        for j in range(1, 32):
            values[np.delete(images[m], j) ^ next(gs)] = 15
    fake = NlTable(tables[10].base, 3, values)
    allowed = values == 15
    targets = np.flatnonzero(allowed).astype(np.uint32)
    expected = []
    for key, w in zip(keys, images):
        alive = targets
        for s in w[1:] ^ w[0]:
            alive = alive[allowed[alive ^ s]]
        expected += [(int(key), int(t), int(w[0] ^ t)) for t in alive]

    shard = 16
    hit_keys = [h[0] for h in expected]
    assert {int(keys[m]) for m in (0, 5, 40)} <= set(hit_keys)
    assert hit_keys.count(int(keys[5])) >= 2
    shared = [np.intersect1d(images[a][1:] ^ images[a][0],
                             images[b][1:] ^ images[b][0]).size
              for a in range(shard) for b in range(a + 1, shard)]
    assert max(shared) > 0  # the first shard has matrices that share a pivot

    # the sweep filters from each matrix's pivot: some hit matrix has a
    # pivot other than its word 0, so the hits are mapped back to that frame
    pivots, _ = vf._pivot_rows(np.array(images))
    assert any(pivots[m] != images[m][0] for m in (0, 5, 40))

    v = vf.sweep_610(MatrixSet(keys), tables[6], fake, shard_size=shard)
    assert v.outcome == "fail"
    assert v.counterexample == expected[0]
    assert v.counters == {"matrices": 48, "targets_per_matrix": targets.size,
                          "subset_size": 32, "hits": len(expected), "shards": 3,
                          "resumed_shards": 0}
    # each shard's hits, in order, against the reference
    base = tables[6].level_set(6)
    per_shard = [vf._sweep_shard(keys[s:s + shard], base, targets, allowed)
                 for s in range(0, 48, shard)]
    assert [nmat for nmat, _ in per_shard] == [shard] * 3
    assert [h for _, shard_hits in per_shard for h in shard_hits] == expected


def test_sweep_prefix_reuse():
    # Planted base and target tables for matrices whose filter sequences
    # share prefixes, so that a stale level of the prefix stack or a wrong
    # common-prefix length shows as a false or a lost hit.  The base words are
    # 0, x1x2x3 and 30 words without x1; the matrices that move only x1 fix
    # those 30 words.
    from rmcover.boolfn import monomial_masks

    no_x1 = [k for k, m in enumerate(monomial_masks(6, 3)) if not m & 1]
    v_words = sorted(sum(1 << no_x1[b] for b in range(10) if c >> b & 1)
                     for c in range(1, 1 << 10))
    base = np.array([0, 1, *v_words[:30]], dtype=np.uint32)

    def moves_x1(rows, r0s):
        # rows . E, where E is the identity with row 0 replaced by r0
        return [[a ^ (a & 1) * (1 ^ r0) for a in rows] for r0 in r0s]

    # I; x1 -> x1 + x3, which also fixes x1x2x3; x1 -> x1 + x4; x1 -> x1 + x5;
    # then a matrix A, A with x1 -> x1 + x2, and A with x1 -> x1 + x4
    rows = (moves_x1([1, 2, 4, 8, 16, 32], (1, 5, 9, 17))
            + moves_x1([32, 12, 47, 29, 53, 48], (1, 3, 9)))
    keys = gf2_pack_rows(np.array(rows, dtype=np.uint8))
    values6 = np.full(1 << 20, 8, dtype=np.uint8)
    values6[base] = 6
    t6 = NlTable(fn_rep(6), 3, values6)

    # a hit for I at 0x1234; a near miss for all of I's images but x1x2x3 at
    # 0xABCDE; and a pair of targets that the last shift of A.(x1 -> x1 + x4)
    # alone keeps
    images = _reference_images(keys, base)
    shift_sets = [set((w[1:] ^ w[0]).tolist()) for w in images]
    (last_y,) = shift_sets[6] - shift_sets[4]
    values = np.zeros(1 << 20, dtype=np.uint8)
    values[base ^ np.uint32(0x1234)] = 15
    values[np.delete(base, 1) ^ np.uint32(0xABCDE)] = 15
    values[[0x55555, 0x55555 ^ last_y]] = 15
    allowed = values == 15
    targets = np.flatnonzero(allowed).astype(np.uint32)
    # the per-matrix reference: a plain loop over the 31 shifts in index order
    expected = []
    for key, w in zip(keys, images):
        alive = targets
        for x in w[1:] ^ w[0]:
            alive = alive[allowed[alive ^ x]]
        expected += [(int(key), int(t), int(w[0] ^ t)) for t in alive]

    # the planted shapes: equal shift sets (common prefix 31), shift sets
    # that differ in one word, and a shared prefix that is empty from level 1
    assert shift_sets[0] == shift_sets[1] and shift_sets[4] == shift_sets[5]
    assert all(len(shift_sets[0] & shift_sets[m]) == 30 for m in (2, 3))
    assert len(shift_sets[4] & shift_sets[6]) == 30
    assert not any(allowed[targets ^ x].any() for x in shift_sets[4] & shift_sets[6])
    assert allowed[targets ^ last_y].any()
    near = targets
    for x in shift_sets[0] & shift_sets[2]:
        near = near[allowed[near ^ x]]
    assert near.size  # matrix 2 survives the 30 shifts it shares with I
    assert {h[0] for h in expected} == {int(keys[0]), int(keys[1])}

    for shard in (4, vf.SWEEP_SHARD_SIZE):
        v = vf.sweep_610(MatrixSet(keys), t6, NlTable(fn_rep(10), 3, values),
                         shard_size=shard)
        hits = [h for s in range(0, len(keys), shard)
                for h in vf._sweep_shard(keys[s:s + shard], base, targets, allowed)[1]]
        assert hits == expected
        assert v.counterexample == expected[0]
        assert v.counters == {"matrices": 7, "targets_per_matrix": targets.size,
                              "subset_size": 32, "hits": len(expected),
                              "shards": 2 if shard == 4 else 1, "resumed_shards": 0}


def _per_matrix_hits(keys, images, targets, allowed):
    """The plain per-matrix loop: for each matrix, the targets t that keep
    t + (w_i + w_0) a target for its 31 shifts in index order."""
    hits = []
    for key, w in zip(keys, images):
        alive = targets
        for x in w[1:] ^ w[0]:
            alive = alive[allowed[alive ^ x]]
        hits += [(int(key), int(t), int(w[0] ^ t)) for t in alive]
    return hits


def test_sweep_planted_hit_on_periodic_image_set(matrix_set, tables):
    # members 14 and 15 of the matrix set have the same image set W, with
    # W + d* = W for d* its least XOR of two words, so all 32 words tie for
    # the pivot.  Plant W + g, which makes both g and g + d* hits for each,
    # and a near miss (all of member 16's images but one), on a target table
    keys = matrix_set.members[8:24]
    images = _reference_images(keys, tables[6].level_set(6))
    w = np.sort(images[6])
    d_star = np.min(w[1:] ^ w[:-1])
    assert np.array_equal(np.sort(w ^ d_star), w)
    values = np.zeros(1 << 20, dtype=np.uint8)
    values[w ^ np.uint32(0x2468A)] = 15
    values[np.delete(images[8], 9) ^ np.uint32(0x13579)] = 15
    allowed = values == 15
    targets = np.flatnonzero(allowed).astype(np.uint32)
    expected = _per_matrix_hits(keys, images, targets, allowed)
    assert [h[0] for h in expected] == [int(keys[6])] * 2 + [int(keys[7])] * 2

    v = vf.sweep_610(MatrixSet(keys), tables[6], NlTable(tables[10].base, 3, values),
                     shard_size=8)
    assert v.counterexample == expected[0] and v.counters["hits"] == 4
    hits = [h for s in (0, 8)
            for h in vf._sweep_shard(keys[s:s + 8], tables[6].level_set(6), targets,
                                     allowed)[1]]
    assert hits == expected


def _brute_pivot(words):
    """The least (sorted shift row, pivot) over every pivot of the set."""
    return min((sorted(w ^ p for w in words if w != p), p) for p in words)


_word_sets = st.lists(st.integers(0, (1 << 20) - 1), min_size=2, max_size=32, unique=True)


@given(_word_sets, st.integers(0, (1 << 20) - 1), st.randoms(use_true_random=False))
def test_pivot_row_is_the_least_over_all_pivots(words, c, rnd):
    # the row is the brute-force least row, the pivot a word of the set,
    # and both follow the set under translation by c and reordering
    pivots, rows = vf._pivot_rows(np.array([words], dtype=np.uint32))
    row, pivot = _brute_pivot(words)
    assert rows[0].tolist() == row and int(pivots[0]) == pivot
    assert pivot in words
    moved = [w ^ c for w in words]
    rnd.shuffle(moved)
    moved_pivots, moved_rows = vf._pivot_rows(np.array([moved], dtype=np.uint32))
    assert moved_rows[0].tolist() == row
    # the pivot moves to pivot ^ c up to a period of the set, on a tie
    period = int(moved_pivots[0]) ^ c ^ pivot
    assert {w ^ period for w in words} == set(words)


@given(st.lists(_word_sets, min_size=1, max_size=8))
def test_pivot_rows_batch_matches_one_by_one(sets):
    # rows of one batch are independent of each other
    width = min(len(s) for s in sets)
    sets = [s[:width] for s in sets]
    pivots, rows = vf._pivot_rows(np.array(sets, dtype=np.uint32))
    assert [(r.tolist(), int(p)) for p, r in zip(pivots, rows)] == \
        [_brute_pivot(s) for s in sets]


@given(st.lists(st.integers(0, 255), min_size=2, max_size=12, unique=True))
def test_least_xor_pairs_are_sorted_neighbours(words):
    # the lemma behind the pivot candidates: the least XOR of two words is
    # attained only by neighbours in sorted order
    s = sorted(words)
    pairs = [(a, b) for i, a in enumerate(s) for b in s[i + 1:]]
    d_star = min(a ^ b for a, b in pairs)
    assert d_star == min(a ^ b for a, b in zip(s, s[1:]))
    assert all(b == s[s.index(a) + 1] for a, b in pairs if a ^ b == d_star)


@given(st.lists(st.integers(0, (1 << 19) - 1), min_size=16, max_size=16, unique=True),
       st.integers(0, (1 << 20) - 1))
def test_pivot_of_a_periodic_set(halves, c):
    # the words of V and of V ^ 1, V even words, all translated by c: every
    # word has its partner at the least XOR 1, so all 32 words compete and
    # tie in pairs;
    # the choice is the brute-force one, and its partner gives the same row
    words = [(2 * v) ^ b ^ c for v in halves for b in (0, 1)]
    pivots, rows = vf._pivot_rows(np.array([words], dtype=np.uint32))
    row, pivot = _brute_pivot(words)
    assert rows[0].tolist() == row and int(pivots[0]) == pivot
    assert row[0] == 1
    assert sorted(w ^ pivot ^ 1 for w in words if w != pivot ^ 1) == row


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


PASSING_REPORT = """\
[pass] class_table  fn_0=(0, 0, 0, 18) fn_1=(4, 4, 4, 16) fn_2=(4, 6, 6, 16) \
fn_3=(4, 10, 8, 14) fn_4=(5, 2, 2, 16) fn_5=(5, 4, 4, 14) fn_6=(5, 8, 6, 14) \
fn_7=(6, 1, 1, 17) fn_8=(6, 3, 3, 15) fn_9=(6, 7, 5, 15) fn_10=(6, 9, 7, 15)
[pass] exclusion    off_diagonal_excluded=51 flagged=4 rho_upper_from_bounds=22
[pass] parity       diagonal_types_excluded=11
[pass] check_29     candidates=5760 probe_size=1920 satisfying=0
[pass] check_310    round1_candidates=974592 round1_survivors=6912 round2_satisfying=0
[pass] reduction    total=9 into_610=2
[pass] coverage     classes=13888 covered=888832 orbit=888832
[pass] sweep_610    matrices=13888 targets_per_matrix=34560 subset_size=32 hits=0 \
shards=1 resumed_shards=0
[pass] witness      nl3=20 degree=4
conclusion: rho(3,7) = 20"""


def test_prove_rho37(tables, sweep_set):
    full_tables = {i: tables[i] for i in range(11)}
    report = vf.prove_rho37(full_tables)
    assert report.passed
    assert report.conclusion == "rho(3,7) = 20"
    assert report.to_text() == PASSING_REPORT
    names = [v.stage for v in report.stages]
    assert names == ["class_table", "exclusion", "parity", "check_29",
                     "check_310", "reduction", "coverage", "sweep_610", "witness"]
    assert len(vf.DEEP_TYPES) == 4
    payload = json.loads(report.to_json())
    assert payload["conclusion"] == "rho(3,7) = 20"
    assert "rho(3,7) = 20" in report.to_text()
    by_name = {v.stage: v for v in report.stages}
    assert by_name["witness"].counters["nl3"] == 20
    assert by_name["exclusion"].counters["off_diagonal_excluded"] == 51
    assert by_name["exclusion"].counters["rho_upper_from_bounds"] == 22
    # one derived matrix per translation class, certified and swept afresh
    sweep = by_name["sweep_610"]
    assert sweep.counters["matrices"] == 13888
    assert sweep.counters["shards"] == 1
    assert sweep.counters["resumed_shards"] == 0
    assert sweep.inputs["matrix_set"] == vf.matrixset_digest(sweep_set[0]) == "5088316d5a557e1b"
    assert by_name["coverage"].inputs == {"matrix_set": sweep.inputs["matrix_set"]}
    assert sweep.inputs["stride"] == 1
    assert by_name["reduction"].counters["total"] == 3 * vf.REDUCTION_SAMPLES
    assert all(v.inputs for v in report.stages)
    assert payload["stages"][2]["inputs"] == {"target": vf.TARGET}
    assert by_name["witness"].inputs == {"anf": vf.WITNESS_ANF}


@pytest.mark.parametrize("control", ["dropped", "replaced"])
def test_coverage_negative_controls(tables, sweep_set, coverage_controls, monkeypatch,
                                    control):
    # a sweep set that misses one class fails the certificate, and with it
    # the conclusion, although the sweep over it passes
    mset, orbit_size = coverage_controls[control], sweep_set[1]
    v = vf.check_coverage(mset, orbit_size)
    assert not v.passed
    assert v.counters == {"classes": 13887, "covered": 888832 - 64, "orbit": 888832}
    monkeypatch.setattr(vf, "fn10_sweep_set", lambda: (mset, orbit_size))
    report = vf.prove_rho37({i: tables[i] for i in range(11)})
    by_name = {v.stage: v for v in report.stages}
    assert by_name["coverage"].outcome == "fail" and by_name["sweep_610"].passed
    assert not report.passed and report.rho_upper is None
    assert report.conclusion == "inconclusive" and "= 20" not in report.to_text()


def test_sweep_set_is_one_matrix_per_class(sweep_set, matrix_set):
    # the class walk's matrices against the queue search's 130,844: each is
    # one of them, and they reach the same 13,888 classes
    mset, orbit_size = sweep_set
    assert orbit_size == 888832
    assert len(matrix_set) == 130844
    assert np.isin(mset.members, matrix_set.members).all()
    classes = canonical_keys(image_keys(fn_rep(10), mset.members))
    assert np.unique(classes).size == len(mset) == 13888
    assert np.array_equal(np.unique(classes), np.unique(
        canonical_keys(image_keys(fn_rep(10), matrix_set.members))))
    assert vf.check_coverage(mset, orbit_size).passed


def test_hit_counts_are_constant_on_classes(matrix_set, tables, rng):
    # the lemma behind one matrix per class: with every t10 value raised by
    # 2, the targets are the words at level >= 13 and hits exist, and every
    # matrix of a class has as many as the others
    raised = NlTable(tables[10].base, 3, tables[10].values + 2)
    classes = canonical_keys(image_keys(fn_rep(10), matrix_set.members))
    labels, sizes = np.unique(classes, return_counts=True)
    counts = []
    for c in rng.choice(labels[sizes >= 4], size=12, replace=False):
        members = rng.choice(matrix_set.members[classes == c], size=4, replace=False)
        hits = {vf.sweep_610(MatrixSet(np.array([k])), tables[6], raised).counters["hits"]
                for k in members}
        assert len(hits) == 1
        counts.append(hits.pop())
    assert min(counts) > 0 and len(set(counts)) > 1


def test_parity_lemma_needs_an_odd_target(tables, monkeypatch):
    monkeypatch.setattr(vf, "TARGET", 20)
    report = vf.prove_rho37({i: tables[i] for i in range(11)})
    parity = {v.stage: v for v in report.stages}["parity"]
    assert parity.outcome == "fail" and parity.counters == {"diagonal_types_excluded": 0}
    assert report.conclusion == "inconclusive"


def test_a_witness_one_bit_off_is_refused(tables, monkeypatch):
    # bit 0 of the witness's truth table flipped gives nl_3 = 19: the
    # witness stage fails, and no lower bound or conclusion is claimed
    w = BooleanFunction.from_anf_string(vf.WITNESS_ANF, n=7)
    flipped = BooleanFunction.from_tt(7, w.tt ^ 1)
    monkeypatch.setattr(vf, "WITNESS_ANF", flipped.to_anf_string())
    report = vf.prove_rho37({i: tables[i] for i in range(11)})
    witness = {v.stage: v for v in report.stages}["witness"]
    assert witness.outcome == "fail" and witness.counters["nl3"] == 19
    assert all(v.passed for v in report.stages if v.stage != "witness")
    assert report.rho_lower is None and report.rho_upper is None
    assert report.conclusion == "inconclusive" and "= 20" not in report.to_text()
