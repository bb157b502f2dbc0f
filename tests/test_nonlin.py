import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcover import boolfn as bf
from rmcover import nonlin as nl
from rmcover.boolfn import BooleanFunction, MonomialSet, concat, split
from rmcover.classify import fn_rep
from rmcover.verify import random_affine_map


def F(anf, n=None):
    return BooleanFunction.from_anf_string(anf, n=n)


# ---------------------------------------------------------------------------
# nl0 / nl1
# ---------------------------------------------------------------------------


def test_nl0_examples():
    assert nl.nl0(BooleanFunction.zero(4)) == 0
    assert nl.nl0(F("x1", n=4)) == 8
    assert nl.nl0(BooleanFunction.from_tt(3, 0b10000011)) == 3


def test_nl1_bent_and_affine():
    assert nl.nl1(F("x1x2+x3x4")) == 6  # bent: 2^(n-1) - 2^(n/2-1)
    assert nl.nl1(F("x1+x3+1", n=4)) == 0


def test_nl1_matches_bruteforce(rng):
    for _ in range(20):
        f = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
        assert nl.nl1(f) == nl.nl_r_bruteforce(f, 1)


# ---------------------------------------------------------------------------
# brute force engine
# ---------------------------------------------------------------------------


def test_bruteforce_codeword_is_zero(rng):
    for _ in range(5):
        word = int(rng.integers(0, 1 << 16))
        anf = 0
        masks = [m for m in range(32) if m.bit_count() <= 2]
        for i, m in enumerate(masks):
            if word >> i & 1:
                anf |= 1 << m
        f = BooleanFunction.from_anf(5, anf)
        assert nl.nl_r_bruteforce(f, 2) == 0


def test_bruteforce_small_example():
    assert nl.nl_r_bruteforce(F("x1x2"), 1) == 1


def test_bruteforce_order_zero_and_wide_paths(rng):
    for n in range(1, 8):
        f = BooleanFunction.from_tt(n, int(rng.integers(0, 1 << min(63, 1 << n))))
        assert nl.nl_r_bruteforce(f, 0) == nl.nl0(f)
    for n in (6, 7):  # the uint64 and the big-integer enumerations
        f = BooleanFunction.from_tt(n, int.from_bytes(rng.bytes(1 << n - 3), "little"))
        assert nl.nl_r_bruteforce(f, 1) == nl.nl1(f)
    f = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
    assert nl.nl_r_bruteforce(f, 2) == nl.nl_r_recursive(f, 2)


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        nl.nl_r_bruteforce(BooleanFunction.zero(7), 2)  # dim 29 > 26


def test_oracle_equivalence_sampled(rng):
    for n, r in ((4, 2), (5, 2), (5, 3)):
        for _ in range(10):
            f = BooleanFunction.from_tt(n, int(rng.integers(0, 1 << (1 << n))))
            assert nl.nl_r_recursive(f, r) == nl.nl_r_bruteforce(f, r)


# ---------------------------------------------------------------------------
# recursive engine and ml
# ---------------------------------------------------------------------------


def test_recursive_class_values():
    assert nl.nl_r_recursive(fn_rep(3), 3) == 8
    assert nl.nl_r_recursive(fn_rep(7), 3) == 1
    assert nl.nl_r_recursive(fn_rep(10), 2) == 9


def test_recursive_rejects_bad_order():
    with pytest.raises(ValueError):
        nl.nl_r_recursive(BooleanFunction.zero(5), 5)
    with pytest.raises(ValueError):
        nl.nl_r_recursive(BooleanFunction.zero(5), 1)


def test_ml_small_oracle(rng):
    # ml_1 on 4 variables against the explicit maximum
    ms = MonomialSet.of(4, 2)
    for _ in range(5):
        f = BooleanFunction.from_tt(4, int(rng.integers(0, 1 << 16)))
        direct = max(nl.nl1(f + ms.function(w)) for w in range(1 << len(ms)))
        assert nl.ml_r(f, 1) == direct


def test_ml2_class_values(tables):
    assert tables[1].ml_prev == 16
    assert tables[7].ml_prev == 17


def test_ml_r_scale_cap():
    with pytest.raises(ValueError):
        nl.ml_r(BooleanFunction.zero(7), 2)  # needs a (7,3) table


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------


def test_table_level_counts(tables):
    assert tables[6].level_counts()[6] == 32
    assert tables[9].level_counts()[15] == 5760
    t10 = tables[10].level_counts()
    assert [t10.get(k, 0) for k in (5, 7, 9, 11, 13, 15)] == \
        [0, 288, 13216, 254016, 746496, 34560]


def test_table_row_sums_and_base_entries(tables):
    for i in (2, 3, 6, 9, 10):
        t = tables[i]
        assert int(t.values.shape[0]) == 1 << 20
        assert sum(t.level_counts().values()) == 1 << 20
        assert t.nl_prev == nl.nl_r_recursive(fn_rep(i), 2)


def test_table_parity_patterns(tables):
    # observed, not assumed: even-only levels for classes 2/3/6 (even base
    # weight side), odd-only for 9/10
    for i in (2, 3, 6):
        assert all(k % 2 == 0 for k in tables[i].level_counts())
    for i in (9, 10):
        assert all(k % 2 == 1 for k in tables[i].level_counts())


# sha256 of values.tobytes() for fn_0 .. fn_10: every change to a table
# kernel must leave these bytes as they are
CLASS_TABLE_SHA256 = [
    "567b980fdf7310872596f5d4d9f9cef184e3f70487e618d5ab1baaa0f2051fb9",
    "9c055ef6a481f22f8d5ae63e680c555c8b6a4ea2ab7a6e3ab5259e0db2255a0d",
    "28305fd1cb1af6b5180d9e957be956786e2ea9738ace1e9fca947c2330865afd",
    "f23c25834229185370662d970b53aff661afb7ec9d08eebee04b96c7c07c6759",
    "89da543c82724605ce340399c05ad80d21354ddc443c7d88166ff3491bfe5172",
    "9a3559f03b27a3de6eeb280ebf8152be45a9b914c654239996f453e6b74e706c",
    "38517efd34042bd17ee330188dff891ef8790c3c4981428e24e47a7bd8531961",
    "e18faab14af8b1c01b916dbc15edefe08222953725b1fef6a997244302c4615a",
    "91197a0c7de4f778d122732c896375b3ff5468282f24225f3498bc8301892ced",
    "4fc0bf49ba59d373183871a6a197183e3d9ec0d44bb2eb8a0d7dfaafaff8e080",
    "8fb716e0ad3b05d5eebbc92f40764d0038c4a1fda82cf3a48b2d1c798c874e5e",
]


def test_class_table_bytes(tables):
    got = [hashlib.sha256(tables[i].values.tobytes()).hexdigest() for i in range(11)]
    assert got == CLASS_TABLE_SHA256


def test_level_set_objects(tables):
    t = tables[6]
    words = t.level_set(6)
    assert len(words) == 32 and (t.values[words] == 6).all()


# ---------------------------------------------------------------------------
# table kernels against their definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_nl1_matrix_matches_scalar_nl1(rng, n):
    top = 1 << (1 << n)
    base = int(rng.integers(0, top))
    ttu = rng.integers(0, top, size=40, dtype=np.uint64)  # several u blocks
    ttw = rng.integers(0, top, size=24, dtype=np.uint64)
    m = nl._nl1_matrix(base, ttu, ttw, n)
    assert m.shape == (40, 24) and m.dtype == np.uint8
    for u, w in zip(rng.integers(0, 40, size=200), rng.integers(0, 24, size=200)):
        f = BooleanFunction.from_tt(n, base ^ int(ttu[u]) ^ int(ttw[w]))
        assert m[u, w] == nl.nl1(f)


def test_order4_table_matches_recursion(rng):
    # the r = 4 assembly (row stacking, width-1024 min-plus, scatter) against
    # nl_3 of each shifted function from its own split into (5,3) tables
    f = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
    values = nl.nl_table_values(f, 4)
    ms = MonomialSet.of(6, 4)
    for w in rng.integers(0, 1 << len(ms), size=32):
        assert values[w] == nl.nl_r_recursive(f + ms.function(int(w)), 3)


def _minplus_definition(n1, n2):
    rows, width = n1.shape
    out = np.empty((rows, width), dtype=np.int64)
    words = np.arange(width)
    for v in range(width):
        out[:, v] = (n1.astype(np.int64) + n2[:, words ^ v]).min(axis=1)
    return out


@pytest.mark.parametrize("width", [8, 64, 1024])
def test_minplus_rows_matches_definition(rng, width):
    rows = 40  # more than one row block
    # every row of one parity, as in the nl1 matrices of the (6,3) tables
    parity = rng.integers(0, 2, size=(2, rows, 1))
    n1, n2 = (p + 2 * rng.integers(0, 7 - p, size=(rows, width)) for p in parity)
    n1, n2 = n1.astype(np.uint8), n2.astype(np.uint8)
    assert np.array_equal(nl._minplus_rows(n1, n2), _minplus_definition(n1, n2))

    n1 = rng.integers(0, 13, size=(rows, width)).astype(np.uint8)
    n2 = rng.integers(0, 13, size=(rows, width)).astype(np.uint8)
    n1[2] = 7                                         # a single level
    n1[3], n2[3] = 12, 12                             # constant rows
    n1[4], n2[4] = 0, 0
    n1[5] = 12 * rng.integers(0, 2, size=width)       # the extreme levels
    n2[5] = 12 * rng.integers(0, 2, size=width)
    n1[6], n2[6] = 0, 12
    n2[6, 0] = 0                                      # one low entry only
    got = nl._minplus_rows(n1, n2)
    assert got.shape == (rows, width)
    assert np.array_equal(got, _minplus_definition(n1, n2))

    # every row of every block constant, each at its own level
    n1, n2 = (np.repeat(rng.integers(0, 13, size=(rows, 1)), width, axis=1).astype(np.uint8)
              for _ in range(2))
    assert np.array_equal(nl._minplus_rows(n1, n2), _minplus_definition(n1, n2))

    # one zero and a few low entries per row, the rest at 12: the bound at the
    # row minima reads 12 where low entries pair up to far less
    n1, n2 = np.full((2, rows, width), 12, dtype=np.uint8)
    for n in (n1, n2):
        for row in n:
            spots = rng.choice(width, size=5, replace=False)
            row[spots] = [0, *rng.integers(1, 6, size=spots.size - 1)]
    want = _minplus_definition(n1, n2)
    assert (_attained_bound(n1, n2) - want).max() >= 8
    assert np.array_equal(nl._minplus_rows(n1, n2), want)

    # 24 rows whose bound is 0 everywhere, so at least one block with no
    # transform: n1 constant, or n1 zero off w & 3 == 3 and n2 zero on it
    n1 = rng.integers(1, 13, size=(rows, width)).astype(np.uint8)
    n2 = rng.integers(1, 13, size=(rows, width)).astype(np.uint8)
    n1[:12] = rng.integers(0, 13, size=(12, 1))
    n2[:12] = rng.integers(0, 13, size=(12, width))
    on = np.arange(width) & 3 == 3
    n1[12:24, ~on] = 0
    n2[12:24, on] = 0
    n2[12:24, 0] = 0
    n1[24:] -= 1
    n2[24:] -= 1
    bound = _attained_bound(n1, n2) - n1.min(axis=1, keepdims=True) - n2.min(axis=1, keepdims=True)
    assert not bound[:24].any() and bound[24:].any(axis=1).all()
    assert np.array_equal(nl._minplus_rows(n1, n2), _minplus_definition(n1, n2))

    # every level 0..12 in every row, low ones rare: many candidate sums
    skew = 2.0 ** np.arange(13)
    n1, n2 = (rng.choice(13, size=(rows, width), p=skew / skew.sum()).astype(np.uint8)
              for _ in range(2))
    for n in (n1, n2):
        for row in n:
            row[rng.permutation(width)[:13]] = np.arange(13)[:width]
    assert np.array_equal(nl._minplus_rows(n1, n2), _minplus_definition(n1, n2))


def _attained_bound(n1, n2):
    """min(n1(w1) + n2(w1 ^ v), n1(w2 ^ v) + n2(w2)) at the first row minima."""
    rows, width = n1.shape
    r = np.arange(rows)[:, None]
    w1, w2 = n1.argmin(axis=1)[:, None], n2.argmin(axis=1)[:, None]
    v = np.arange(width)
    return np.minimum(n1[r, w1].astype(np.int64) + n2[r, w1 ^ v],
                      n1[r, w2 ^ v].astype(np.int64) + n2[r, w2])


def test_nlt_round_trip(tmp_path, tables):
    path = tmp_path / "t.nlt"
    tables[6].save(path, meta={"command": "unit test"})
    loaded, meta = nl.NlTable.load_with_meta(path)
    assert np.array_equal(loaded.values, tables[6].values)
    assert loaded.base == tables[6].base
    assert meta["command"] == "unit test"
    # byte-identical payload on re-save
    p2 = tmp_path / "t2.nlt"
    loaded.save(p2, meta={"command": "unit test"})
    assert path.read_bytes() == p2.read_bytes()


def test_nlt_truncation_detected(tmp_path, tables):
    path = tmp_path / "t.nlt"
    tables[6].save(path)
    raw = path.read_bytes()
    # cuts inside the 36-byte header (after n, after r, in the hex truth
    # table, in the ordering tag, in the count) and in the payload
    for cut in (5, 6, 8, 20, 30, 34, len(raw) // 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="input hash mismatch"):
            nl.NlTable.load(path)


def test_nlt_without_trailer_refused(tmp_path, tables):
    path = tmp_path / "t.nlt"
    tables[6].save(path)
    raw = path.read_bytes()
    end = raw.rindex(b"META")
    bare = bytearray(raw[:end])
    bare[100] ^= 1
    path.write_bytes(bytes(bare))
    with pytest.raises(ValueError, match="input hash mismatch"):
        nl.NlTable.load(path)
    # a trailer without the sha256 is refused the same way
    path.write_bytes(raw[:end] + b"META" + (2).to_bytes(4, "little") + b"{}")
    with pytest.raises(ValueError, match="input hash mismatch"):
        nl.NlTable.load(path)


def test_nlt_corruption_detected(tmp_path, tables):
    # one value byte flipped, header and META trailer intact
    path = tmp_path / "t.nlt"
    tables[6].save(path)
    raw = bytearray(path.read_bytes())
    payload_start = raw.rindex(b"META") - tables[6].values.size
    raw[payload_start + 12345] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="input hash mismatch"):
        nl.NlTable.load(path)


# ---------------------------------------------------------------------------
# covering condition
# ---------------------------------------------------------------------------


def test_covering_trivial_cases(tables):
    t0 = nl.build_nl_table(fn_rep(0), 3)
    assert nl.check_covering_condition(t0, t0, 0).holds
    t = tables[6]
    v = nl.check_covering_condition(t, t, 2 * t.ml_prev + 1)
    assert not v.holds


def test_covering_matches_direct_nl3(rng):
    for _ in range(2):
        f1 = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
        f2 = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
        t1 = nl.build_nl_table(f1, 3)
        t2 = nl.build_nl_table(f2, 3)
        direct = int((t1.values.astype(np.uint16) + t2.values).min())
        assert direct == nl.nl_r_recursive(concat(f1, f2), 3)
        assert nl.check_covering_condition(t1, t2, direct).holds
        assert not nl.check_covering_condition(t1, t2, direct + 1).holds
        # sides are interchangeable
        assert nl.check_covering_condition(t2, t1, direct).holds
        assert not nl.check_covering_condition(t2, t1, direct + 1).holds


def test_covering_reports_lowest_level_violator():
    # violations at level 5 (word 0x00100) and at level 3 (words 0xF0000 and
    # 0xF0001): the verdict names the lowest level and its smallest word,
    # not the smallest violating word
    v1 = np.full(1 << 20, 8, dtype=np.uint8)
    t2 = nl.NlTable(BooleanFunction.zero(6), 3, v1.copy())
    assert nl.check_covering_condition(nl.NlTable(BooleanFunction.zero(6), 3, v1.copy()),
                                       t2, 16).holds
    v1[0x00100], v1[0xF0000], v1[0xF0001] = 5, 3, 3
    t1 = nl.NlTable(BooleanFunction.zero(6), 3, v1)
    for t in (12, 14, 16):
        v = nl.check_covering_condition(t1, t2, t)
        assert (v.holds, v.h, v.g_word) == (False, 3, 0xF0000)
    assert nl.check_covering_condition(t1, t2, 11).holds


def test_covering_rejects_mismatched_tables(tables):
    t55 = nl.build_nl_table(BooleanFunction.zero(5), 3)
    with pytest.raises(ValueError, match="mismatched"):
        nl.check_covering_condition(tables[6], t55, 10)


# ---------------------------------------------------------------------------
# parity rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityVerdict:
    ok: bool
    nl_whole: int
    nl_low: int
    nl_high: int


def parity_check(f: BooleanFunction, r: int) -> ParityVerdict:
    """When nl_r(f) is odd, exactly one of nl_r(f1), nl_r(f2) must be odd."""
    if not 1 <= r <= f.n - 2:
        raise ValueError(f"parity rule needs 1 <= r <= n-2, got r={r}")
    f1, f2 = split(f)
    total = nl.nl_r(f, r)
    a = nl.nl_r(f1, r)
    b = nl.nl_r(f2, r)
    ok = total % 2 == 0 or (a + b) % 2 == 1
    return ParityVerdict(ok, total, a, b)


def test_parity_example():
    f = concat(fn_rep(2), fn_rep(9))
    v = parity_check(f, 2)
    assert v.ok
    assert (v.nl_low, v.nl_high) == (6, 7)


def test_parity_equal_halves(rng):
    for _ in range(10):
        h = BooleanFunction.from_tt(4, int(rng.integers(0, 1 << 16)))
        v = parity_check(concat(h, h), 2)
        assert v.ok and v.nl_whole % 2 == 0


def test_parity_random_small(rng):
    for _ in range(25):
        f = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
        assert parity_check(f, 2).ok


# ---------------------------------------------------------------------------
# invariance properties of the tables
# ---------------------------------------------------------------------------


def test_translation_invariance_small(rng):
    # all 16 shifts at (n=5, r=3): identical value arrays
    f = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
    base = nl.nl_table_values(f, 3)
    from rmcover.field import AffineMap

    ident = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    for c in range(32):
        tau = AffineMap(2, 5, ident, tuple(c >> i & 1 for i in range(5)))
        shifted = nl.nl_table_values(bf.apply_affine(f, tau), 3)
        assert np.array_equal(base, shifted)


def test_translation_invariance_pipeline_scale(rng):
    f = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
    base = nl.nl_table_values(f, 3)
    from rmcover.field import AffineMap

    ident = tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
    for c in (1, 33, 63):
        tau = AffineMap(2, 6, ident, tuple(c >> i & 1 for i in range(6)))
        assert np.array_equal(base, nl.nl_table_values(bf.apply_affine(f, tau), 3))


def test_affine_covariance(rng):
    # |F_{f o L + g0}(k)| = |F_f(k)|, membership maps by g -> T_3(g o L + g0)
    f = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
    L = random_affine_map(rng)
    ms = MonomialSet.of(6, 3)
    g0 = ms.function(int(rng.integers(0, 1 << 20)))
    t_orig = nl.nl_table_values(f, 3)
    t_moved = nl.nl_table_values(bf.apply_affine(f, L) + g0, 3)
    assert np.array_equal(np.bincount(t_orig, minlength=33),
                          np.bincount(t_moved, minlength=33))
    for k in np.unique(t_orig):
        members = np.flatnonzero(t_orig == k).astype(np.uint32)
        mapped = nl.transform_words(members, 6, 3, L, shift=g0)
        assert np.array_equal(np.sort(mapped),
                              np.flatnonzero(t_moved == k).astype(np.uint32))


def test_degree_r_shift_invariance(rng):
    # nl_r(f + g) = nl_r(f) for deg(g) <= r, spot-checked at (5, 2)
    masks = [m for m in range(32) if m.bit_count() <= 2]
    for _ in range(10):
        f = BooleanFunction.from_tt(5, int(rng.integers(0, 1 << 32)))
        anf = 0
        for m in masks:
            if rng.integers(0, 2):
                anf |= 1 << m
        g = BooleanFunction.from_anf(5, anf)
        assert nl.nl_r_recursive(f + g, 2) == nl.nl_r_recursive(f, 2)
