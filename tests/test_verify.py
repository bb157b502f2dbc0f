import json

import numpy as np
import pytest

from rmcover import verify as vf
from rmcover.boolfn import BooleanFunction, concat, degree, homogeneous_part, split
from rmcover.classify import fn_rep, type_of
from rmcover.nonlin import build_nl_table, check_covering_condition, nl_r_recursive


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


def test_reduction_rejects_wrong_shape():
    with pytest.raises(ValueError):
        vf.reduce_to_610(concat(fn_rep(2), fn_rep(3)))  # no degree-6 term
    top = BooleanFunction.from_anf_string("x1x2x3x4x5x6")
    with pytest.raises(ValueError):
        vf.reduce_to_610(concat(fn_rep(0), top))  # degree-4 part vanishes


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


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
    from rmcover.field import AffineMap
    from rmcover.nonlin import nl_r_recursive
    from rmcover.orbit import gf2_unpack_keys

    ms = MonomialSet.of(6, 3)
    key = int(matrix_set.members[rng.integers(0, len(matrix_set))])
    rows = gf2_unpack_keys(np.array([key], dtype=np.uint64))[0]
    A = AffineMap(2, 6, tuple(tuple(int(r) >> j & 1 for j in range(6)) for r in rows),
                  (0,) * 6)
    inv = A.inverse()
    fn6 = fn_rep(6)
    moved_base = apply_affine(fn6, inv)
    for w in tables[6].level_set(6)[:4]:
        s = ms.function(int(w))
        image = homogeneous_part(apply_affine(s, inv), 3)
        assert nl_r_recursive(moved_base + image, 2) == 6


def test_sweep_proxy_and_checkpoint(matrix_set, tables, tmp_path):
    ck = tmp_path / "ck"
    v1 = vf.sweep_610(matrix_set, tables[6], tables[10], stride=100,
                      checkpoint_dir=str(ck))
    assert v1.passed
    assert v1.counters["hits"] == 0
    assert v1.counters["targets_per_matrix"] == 34560
    assert v1.counters["subset_size"] == 32
    v2 = vf.sweep_610(matrix_set, tables[6], tables[10], stride=100,
                      checkpoint_dir=str(ck))
    assert v2.counters["resumed_shards"] == v2.counters["shards"]
    assert v2.counters["matrices"] == v1.counters["matrices"]


def test_sweep_partial_checkpoint_resume(matrix_set, tables, tmp_path):
    ck = tmp_path / "ck"
    full = vf.sweep_610(matrix_set, tables[6], tables[10], stride=400,
                        checkpoint_dir=str(ck), shard_size=64)
    # drop the second half of the shard records and resume
    state_file = ck / "sweep610.json"
    state = json.loads(state_file.read_text())
    kept = dict(list(state["shards"].items())[:2])
    state["shards"] = kept
    state_file.write_text(json.dumps(state))
    resumed = vf.sweep_610(matrix_set, tables[6], tables[10], stride=400,
                           checkpoint_dir=str(ck), shard_size=64)
    assert resumed.counters["matrices"] == full.counters["matrices"]
    assert resumed.counters["resumed_shards"] == 2
    assert resumed.passed


def test_sweep_worker_equivalence(matrix_set, tables):
    a = vf.sweep_610(matrix_set, tables[6], tables[10], stride=500, shard_size=64)
    b = vf.sweep_610(matrix_set, tables[6], tables[10], stride=500, shard_size=64,
                     workers=2)
    assert a.counters["shards"] == 5
    assert a.counters == b.counters and a.outcome == b.outcome
    # a planted target table with hits in the first and the last shard
    from rmcover.nonlin import NlTable
    from rmcover.orbit import MatrixSet

    keys = matrix_set.members[::500].copy()
    base = tables[6].level_set(6)
    values = np.zeros(1 << 20, dtype=np.uint8)
    for m, g in ((3, 0x1234), (260, 0xABCDE)):
        values[vf._image_words(keys[m:m + 1], base)[:, 0] ^ np.uint32(g)] = 15
    fake = NlTable(tables[10].base, 3, values)
    a = vf.sweep_610(MatrixSet(keys), tables[6], fake, shard_size=64)
    b = vf.sweep_610(MatrixSet(keys), tables[6], fake, shard_size=64, workers=2)
    assert a.outcome == b.outcome == "fail"
    assert a.counterexample == b.counterexample
    assert a.counterexample[0] == int(keys[3])
    assert a.counters == b.counters and a.counters["hits"] >= 2


def test_sweep_detects_planted_hit(tables):
    # sanity of the detector: plant a target table whose top level set is
    # exactly the identity-slice image set, so g = 0 is a guaranteed hit
    from rmcover.orbit import MatrixSet

    ident_key = np.uint64(1 | 2 << 6 | 4 << 12 | 8 << 18 | 16 << 24 | 32 << 30)
    ms = MatrixSet(np.array([ident_key], dtype=np.uint64))
    fake_values = np.zeros(1 << 20, dtype=np.uint8)
    fake_values[tables[6].level_set(6)] = 15
    fake = type(tables[10])(tables[10].base, 3, fake_values)
    v = vf.sweep_610(ms, tables[6], fake)
    assert not v.passed
    assert v.counters["hits"] > 0
    assert v.counterexample is not None


def test_sweep_matches_per_matrix_reference(matrix_set, tables, tmp_path):
    # reference: the 32 images T_3(s(A^-1 x)) of each matrix from apply_affine,
    # then a plain loop over its 31 shifts in order, on a planted target table
    from rmcover.boolfn import MonomialSet, apply_affine
    from rmcover.field import AffineMap
    from rmcover.nonlin import NlTable
    from rmcover.orbit import MatrixSet, gf2_unpack_keys

    ms3 = MonomialSet.of(6, 3)
    keys = matrix_set.members[60000:60048]  # neighbours share shift words
    base = tables[6].level_set(6)
    images = []
    for rows in gf2_unpack_keys(keys):
        A = AffineMap(2, 6, tuple(tuple(int(r) >> j & 1 for j in range(6))
                                  for r in rows), (0,) * 6)
        inv = A.inverse()
        images.append(np.array([ms3.anf_to_word(apply_affine(ms3.function(int(w)), inv).anf)
                                for w in base], dtype=np.uint32))
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

    ck = tmp_path / "ck"
    v = vf.sweep_610(MatrixSet(keys), tables[6], fake, shard_size=shard,
                     checkpoint_dir=str(ck))
    assert v.outcome == "fail"
    assert v.counterexample == expected[0]
    assert v.counters == {"matrices": 48, "targets_per_matrix": targets.size,
                          "subset_size": 32, "hits": len(expected), "shards": 3,
                          "resumed_shards": 0}
    inputs = {"matrix_set": vf.matrixset_digest(MatrixSet(keys)),
              "t6": vf.table_digest(tables[6]), "t10": vf.table_digest(fake),
              "stride": 1}
    shards = {}
    for s in range(0, 48, shard):
        sk = {int(k) for k in keys[s:s + shard]}
        shards[f"{s}:{s + shard}"] = {
            "matrices": shard, "hits": [list(h) for h in expected if h[0] in sk]}
    assert (ck / "sweep610.json").read_text() == json.dumps(
        {"inputs": inputs, "shards": shards})


def _reference_images(keys, base):
    """The images T_3(s(A^-1 x)) of the base words, from apply_affine."""
    from rmcover.boolfn import MonomialSet, apply_affine
    from rmcover.field import AffineMap
    from rmcover.orbit import gf2_unpack_keys

    ms3 = MonomialSet.of(6, 3)
    images = []
    for rows in gf2_unpack_keys(keys):
        inv = AffineMap(2, 6, tuple(tuple(int(r) >> j & 1 for j in range(6))
                                    for r in rows), (0,) * 6).inverse()
        images.append(np.array([ms3.anf_to_word(apply_affine(ms3.function(int(s)),
                                                             inv).anf)
                                for s in base], dtype=np.uint32))
    return images


def test_sweep_prefix_reuse(tmp_path):
    # Planted base and target tables for matrices whose filter sequences
    # share prefixes, so that a stale level of the prefix stack or a wrong
    # common-prefix length shows as a false or a lost hit.  The base words are
    # 0, x1x2x3 and 30 words without x1; the matrices that move only x1 fix
    # those 30 words.
    from rmcover.boolfn import monomial_masks
    from rmcover.nonlin import NlTable
    from rmcover.orbit import MatrixSet, gf2_pack_rows

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
    values6 = np.zeros(1 << 20, dtype=np.uint8)
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
        expected += [[int(key), int(t), int(w[0] ^ t)] for t in alive]

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
        ck = tmp_path / f"ck{shard}"
        v = vf.sweep_610(MatrixSet(keys), t6, NlTable(fn_rep(10), 3, values),
                         shard_size=shard, checkpoint_dir=str(ck))
        state = json.loads((ck / "sweep610.json").read_text())
        assert [h for s in state["shards"].values() for h in s["hits"]] == expected
        assert v.counterexample == tuple(expected[0])
        assert v.counters["hits"] == len(expected)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_prove_rho37(tables, matrix_set):
    full_tables = {i: tables[i] for i in range(11)}
    report = vf.prove_rho37(full_tables)
    assert report.passed
    assert report.conclusion == "rho(3,7) = 20"
    names = [v.stage for v in report.stages]
    assert names == ["class_table", "exclusion", "parity", "check_29",
                     "check_310", "reduction", "sweep_610", "witness"]
    assert len(vf.DEEP_TYPES) == 4
    payload = json.loads(report.to_json())
    assert payload["conclusion"] == "rho(3,7) = 20"
    assert "rho(3,7) = 20" in report.to_text()
    by_name = {v.stage: v for v in report.stages}
    assert by_name["witness"].counters["nl3"] == 20
    assert by_name["exclusion"].counters["off_diagonal_excluded"] == 51
    assert by_name["exclusion"].counters["rho_upper_from_bounds"] == 22
    # the whole derived matrix set, swept afresh
    sweep = by_name["sweep_610"]
    assert sweep.counters["matrices"] == 130844
    assert sweep.counters["resumed_shards"] == 0
    assert sweep.inputs["matrix_set"] == vf.matrixset_digest(matrix_set)
    assert sweep.inputs["stride"] == 1
    assert by_name["reduction"].counters["total"] == 3 * vf.REDUCTION_SAMPLES
    assert all(v.inputs for v in report.stages)
    assert payload["stages"][2]["inputs"] == by_name["class_table"].inputs
    assert by_name["witness"].inputs == {"anf": vf.WITNESS_ANF}
