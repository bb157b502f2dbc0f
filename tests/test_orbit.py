import hashlib
from collections import deque

import numpy as np
import pytest

from rmcover import orbit as ob
from rmcover.boolfn import BooleanFunction, apply_affine, monomial_masks
from rmcover.classify import classify_coset, fn_rep
from rmcover.field import AffineMap, compose
from rmcover.verify import random_affine_map

import gf2_reference


def test_coset_key_examples():
    assert ob.coset_key(fn_rep(0)) == 0
    assert ob.coset_key(BooleanFunction.from_anf_string("x1+x2x3+1", n=6)) == 0
    k1 = ob.coset_key(fn_rep(1))
    assert k1.bit_count() == 1
    top = BooleanFunction.from_anf_string("x1x2x3x4x5x6")
    assert ob.coset_key(fn_rep(9)) == ob.coset_key(top) ^ ob.coset_key(fn_rep(2))


def test_key_lift_round_trip(rng):
    for _ in range(20):
        k = int(rng.integers(0, 1 << 22))
        assert ob.coset_key(ob.key_lift(k)) == k


def test_key_action_tables_match_coset_act(agl6_gens, rng):
    # the tables bfs_orbit looks keys up in, against the definition
    for L in [*agl6_gens, random_affine_map(rng)]:
        lo, hi = ob._KEYS.action(L)
        for k in rng.integers(0, 1 << 22, size=20):
            k = int(k)
            assert int(lo[k & 0x7FF] ^ hi[k >> 11]) == ob.coset_act(k, L)


def test_coset_act_identity_and_inverse(rng):
    ident = AffineMap.identity(6)
    for _ in range(5):
        k = int(rng.integers(0, 1 << 22))
        assert ob.coset_act(k, ident) == k
        L = random_affine_map(rng)
        assert ob.coset_act(ob.coset_act(k, L), L.inverse()) == k


def test_coset_act_is_right_action(rng):
    for _ in range(5):
        k = int(rng.integers(0, 1 << 22))
        l1, l2 = random_affine_map(rng), random_affine_map(rng)
        assert ob.coset_act(ob.coset_act(k, l1), l2) == ob.coset_act(k, compose(l1, l2))


def _translation(c):
    return AffineMap(2, 6, AffineMap.identity(6).A, tuple(c >> i & 1 for i in range(6)))


def test_translations_fix_degree4_keys_only(rng):
    deg4_positions = [i for i, m in enumerate(ob._KEYS.members) if m.bit_count() == 4]
    # a random key supported on degree-4 monomials is fixed by every translation
    key4 = 0
    for p in deg4_positions:
        if rng.integers(0, 2):
            key4 |= 1 << p
    for c in range(64):
        assert ob.coset_act(key4, _translation(c)) == key4
    # the degree-6 key is moved by every nonzero translation (the 64
    # translates are pairwise distinct cosets: Table 5's orbit length for the
    # full-monomial class)
    key6 = ob.coset_key(fn_rep(7))
    images = set()
    for c in range(64):
        images.add(ob.coset_act(key6, _translation(c)))
    assert len(images) == 64


def test_orbit_sizes_small(agl6_gens):
    assert ob.bfs_orbit(ob.coset_key(fn_rep(0)), agl6_gens).orbit_size == 1
    assert ob.bfs_orbit(ob.coset_key(fn_rep(7)), agl6_gens).orbit_size == 64
    assert ob.bfs_orbit(ob.coset_key(fn_rep(1)), agl6_gens).orbit_size == 651


def test_orbit_size_generator_independent(agl6_gens, rng):
    h = random_affine_map(rng)
    conj = [compose(compose(h.inverse(), g), h) for g in agl6_gens]
    start = ob.coset_key(fn_rep(1))
    assert ob.bfs_orbit(start, conj).orbit_size == 651
    assert ob.orbit_lengths([start], conj) == (651,)


def test_canonical_keys_constant_on_translation_classes(rng):
    keys = [int(k) for k in rng.integers(0, 1 << 22, size=8)]
    keys += [ob.coset_key(fn_rep(i)) for i in (1, 7, 9, 10)]
    for k in keys:
        # the class by definition: the 64 translates of the coset
        translates = [ob.coset_act(k, _translation(c)) for c in range(64)]
        canon = ob.canonical_keys(translates)
        assert (canon == canon[0]).all()
        assert int(canon[0]) in translates
        assert int(ob.class_sizes([k])[0]) == len(set(translates))
    all_canon = ob.canonical_keys(keys)
    assert np.array_equal(ob.canonical_keys(all_canon), all_canon)


def test_translation_class_census():
    canon = ob.canonical_keys(np.arange(1 << 22, dtype=np.uint32))
    canon.sort()
    first = np.flatnonzero(np.r_[True, canon[1:] != canon[:-1]])
    reps = canon[first]
    sizes = ob.class_sizes(reps)
    assert reps.size == 130048
    assert np.array_equal(np.diff(np.r_[first, canon.size]), sizes)
    assert dict(zip(*np.unique(sizes, return_counts=True))) == {1: 32768, 32: 64512, 64: 32768}
    assert int(sizes.sum()) == 1 << 22


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 7, 8])
def test_class_walk_matches_bfs_orbit(agl6_gens, index):
    start = ob.coset_key(fn_rep(index))
    assert ob.orbit_lengths([start], agl6_gens) == (ob.bfs_orbit(start, agl6_gens).orbit_size,)


def test_class_walk_matches_fn10_orbit(agl6_gens, fn10_orbit):
    start = ob.coset_key(fn_rep(10))
    assert ob.orbit_lengths([start], agl6_gens) == (fn10_orbit.orbit_size,) == (888832,)


def test_class_walk_rejects_two_starts_in_one_orbit(agl6_gens):
    start = ob.coset_key(fn_rep(3))
    image = ob.coset_act(start, agl6_gens[1])
    assert image != start
    with pytest.raises(ValueError, match="earlier start's orbit"):
        ob.orbit_lengths([start, image], agl6_gens)


def test_class_walk_missing_representative_sums_short(agl6_gens):
    starts = [ob.coset_key(fn_rep(i)) for i in range(11) if i != 5]
    assert sum(ob.orbit_lengths(starts, agl6_gens)) == (1 << 22) - 312480


# sha256 of the fn_10 walk's bytes.  Its levels are wider than one chunk of
# parents, so these pin the claims across chunk boundaries too.
FN10_SHA256 = {
    "members": "2d766a744c067b4a12920a3ed74190f7677c1927eb409a634616f481f54a0934",
    "keys": "f9020479a204c9b5101f3ce6f02c6a87660d6c4197183d06e905e5bfd8f5cb30",
    "parents": "0b50dce48ba8e799710ae80f1da080d7e8eaa0d7a883777477ba7812905991d6",
    "gens": "8e51602fa33e525c7d35bf9042124a3cb2ca288f0dde249541fb74b5d0f859bc",
}


def test_fn10_orbit(fn10_orbit):
    assert fn10_orbit.orbit_size == 888832
    # faithful queue search; the published run reports 130843 (see notes)
    assert len(fn10_orbit.matrix_set) in (130843, 130844)
    tr = fn10_orbit.transcript
    assert (tr.keys.dtype, tr.parents.dtype, tr.gens.dtype) == (np.uint32, np.int64, np.uint8)
    arrays = {"members": fn10_orbit.matrix_set.members, "keys": tr.keys,
              "parents": tr.parents, "gens": tr.gens}
    got = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
    assert got == FN10_SHA256


def _fifo_orbit(start, gens):
    """Scalar queue search seeded with (start, identity), no lookup tables.

    Returns the claimed keys, their parents' claim indices (-1 for the seed)
    and generator indices in claim order, and the sorted packed matrices.
    """
    queue = deque([(start, AffineMap.identity(6), -1)])
    seen = set()
    keys, parents, gis, mats = [], [], [], set()
    while queue:
        key, L, idx = queue.popleft()
        for gi, g in enumerate(gens):
            child = ob.coset_act(key, g)
            if child in seen:
                continue
            seen.add(child)
            M = compose(L, g)
            queue.append((child, M, len(keys)))
            keys.append(child)
            parents.append(idx)
            gis.append(gi)
            mats.add(sum(e << (6 * i + j) for i, row in enumerate(M.A)
                         for j, e in enumerate(row)))
    return keys, parents, gis, sorted(mats)


@pytest.mark.parametrize("index,length", [(1, 651), (3, 13888)])
def test_bfs_orbit_matches_fifo_reference(agl6_gens, index, length):
    start = ob.coset_key(fn_rep(index))
    keys, parents, gis, mats = _fifo_orbit(start, agl6_gens)
    assert len(keys) == length
    res = ob.bfs_orbit(start, agl6_gens, transcript=True)
    assert res.orbit_size == length
    assert res.matrix_set.members.tolist() == mats
    assert res.transcript.keys.tolist() == keys
    assert res.transcript.parents.tolist() == parents
    assert res.transcript.gens.tolist() == gis


def test_orbit_elements_classify_to_class_10(fn10_orbit, rng):
    keys = fn10_orbit.transcript.keys
    sample = rng.choice(keys, size=1000, replace=False)
    for k in sample:
        assert classify_coset(ob.key_lift(int(k))) == 10


def test_transcript_words_reach_their_cosets(fn10_orbit, agl6_gens):
    tr = fn10_orbit.transcript
    start = ob.coset_key(fn_rep(10))
    for pos in (0, 1, 5000, 888831):
        key = int(tr.keys[pos])
        cur = start
        for gi in tr.word_for(key):
            cur = ob.coset_act(cur, agl6_gens[gi])
        assert cur == key


def test_transcript_word_for_absent_key(fn10_orbit):
    # key 0 is fn_0's coset, an orbit of its own
    with pytest.raises(KeyError):
        fn10_orbit.transcript.word_for(0)


def test_matrix_set_members_invertible(matrix_set):
    rows = matrix_set.rows()
    inv = gf2_reference.gf2_invert_rows(rows)
    # A * A^-1 = I, batched
    prod = np.zeros_like(rows)
    for i in range(6):
        acc = np.zeros(rows.shape[0], dtype=np.uint8)
        for j in range(6):
            acc ^= (((rows[:, i] >> j) & 1) * inv[:, j])
        prod[:, i] = acc
    ident = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint8)
    assert (prod == ident[None, :]).all()


def test_matrix_set_rejects_singular_member(matrix_set):
    # row 5 = row 0 + row 1
    bad = ob.gf2_pack_rows(np.array([[1, 2, 4, 8, 16, 3]], dtype=np.uint8))
    assert bad[0] not in matrix_set.members
    with pytest.raises(ValueError, match="singular"):
        ob.MatrixSet(np.sort(np.concatenate([matrix_set.members, bad])))


def test_gf2_invert_rejects_singular():
    singular = np.array([[3, 3, 4, 8, 16, 32]], dtype=np.uint8)
    with pytest.raises(ValueError):
        gf2_reference.gf2_invert_rows(singular)


def test_gf2_minors_match_definition(rng):
    # bit i of entry a | b << 6 | c << 12 is the 3x3 minor of rows a, b, c
    # on the columns of cubic 19 - i, by the cofactor formula
    minors = ob.gf2_minors()
    assert (minors.dtype, minors.shape, minors.flags.writeable) == (np.uint32, (1 << 18,), False)
    cubics = monomial_masks(6, 3)
    for idx in [0, (1 << 18) - 1, *rng.integers(0, 1 << 18, size=300).tolist()]:
        a, b, c = ([r >> j & 1 for j in range(6)] for r in (idx & 63, idx >> 6 & 63, idx >> 12))
        for i, m in enumerate(cubics):
            p, q, r = (j for j in range(6) if cubics[19 - i] >> j & 1)
            det = (a[p] * (b[q] * c[r] + b[r] * c[q]) + a[q] * (b[p] * c[r] + b[r] * c[p])
                   + a[r] * (b[p] * c[q] + b[q] * c[p])) % 2
            assert int(minors[idx]) >> i & 1 == det


def test_gf2_det_matches_span_check(matrix_set, rng):
    # the Laplace determinant against the span test: 200,000 random keys,
    # and every one-bit corruption of 2,000 sampled set members
    keys = rng.integers(0, 1 << 36, size=200_000, dtype=np.uint64)
    det = ob.gf2_det(keys)
    span = gf2_reference.span_invertible(keys)
    assert np.array_equal(det, span.astype(np.uint8))
    assert 0.2 < span.mean() < 0.4  # about 29% of 6x6 GF(2) matrices are invertible
    members = rng.choice(matrix_set.members, size=2000)
    flipped = (members[:, None] ^ np.uint64(1) << np.arange(36, dtype=np.uint64)).ravel()
    assert np.array_equal(ob.gf2_det(flipped),
                          gf2_reference.span_invertible(flipped).astype(np.uint8))
    assert ob.gf2_det(members).all()


def test_matrix_set_rejects_wide_keys():
    ident = ob.gf2_pack_rows(np.array([[1, 2, 4, 8, 16, 32]], dtype=np.uint8))[0]
    assert len(ob.MatrixSet(np.array([ident, ident | np.uint64(1) << np.uint64(30)]))) == 2
    with pytest.raises(ValueError, match="below 2"):
        ob.MatrixSet(np.array([ident, ident | np.uint64(1) << np.uint64(40)]))
    with pytest.raises(ValueError, match="below 2"):
        ob.MatrixSet(np.array([np.uint64(1) << np.uint64(63)]))


def test_ams_round_trip(tmp_path, matrix_set):
    path = tmp_path / "a.ams"
    matrix_set.save(path, meta={"command": "unit test"})
    loaded, meta = ob.MatrixSet.load_with_meta(path)
    assert np.array_equal(loaded.members, matrix_set.members)
    assert meta["command"] == "unit test"


def test_ams_truncation_detected(tmp_path, matrix_set):
    path = tmp_path / "a.ams"
    matrix_set.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 2000])
    with pytest.raises(ValueError, match="input hash mismatch"):
        ob.MatrixSet.load(path)


def test_all_orbit_lengths_partition(agl6_gens):
    lengths = ob.all_orbit_lengths(agl6_gens)
    assert sum(lengths) == 1 << 22
    from rmcover.field import agl_order

    order = agl_order(6, 2)
    assert all(order % ln == 0 for ln in lengths)


def test_ams_without_trailer_refused(tmp_path, matrix_set):
    path = tmp_path / "a.ams"
    matrix_set.save(path)
    raw = path.read_bytes()
    end = 8 + 8 * len(matrix_set)
    path.write_bytes(raw[:end])
    with pytest.raises(ValueError, match="input hash mismatch"):
        ob.MatrixSet.load(path)
    path.write_bytes(raw[:end] + b"META" + (2).to_bytes(4, "little") + b"{}")
    with pytest.raises(ValueError, match="input hash mismatch"):
        ob.MatrixSet.load(path)
