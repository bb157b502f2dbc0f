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


def test_class_table_digest_sees_the_walsh_table(monkeypatch, tables):
    # negative control for the byte gate: one row of the |W| table raised by
    # 2 must change fn_6's table and so its pinned digest
    raised = nl._abs_walsh(4).copy()
    raised[5] += 2
    monkeypatch.setattr(nl, "_abs_walsh", lambda k: raised)
    forged = nl.build_nl_table(fn_rep(6), 3)
    assert hashlib.sha256(forged.values.tobytes()).hexdigest() != CLASS_TABLE_SHA256[6]
    assert forged.sha256() != tables[6].sha256()


# ---------------------------------------------------------------------------
# table kernels against their definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_abs_walsh_table_matches_scalar_wht(rng, k):
    table = nl._abs_walsh(k)
    assert table.shape == (1 << k, 1 << (1 << k)) and table.dtype == np.uint8
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    # every function at k = 2, 3; 2,000 sampled at k = 4
    gs = range(table.shape[1]) if k < 4 else rng.integers(0, 1 << 16, size=2000)
    for g in gs:
        assert table[:, g].tolist() == [abs(v) for v in nl._wht(int(g), k)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nl1_matrix_matches_scalar_nl1(rng, n):
    # arbitrary u and base (the split identity holds for any f = base + u)
    # against every w of H_n^(2) in canonical order: all pairs up to n = 4,
    # 400 sampled pairs at n = 5
    top = 1 << (1 << n)
    base = int(rng.integers(0, top))
    ttu = rng.integers(0, top, size=40, dtype=np.uint64)
    ms = MonomialSet.of(n, 2)
    m = nl._nl1_matrix(base, ttu, n)
    assert m.shape == (40, 1 << len(ms)) and m.dtype == np.uint8
    if n < 5:
        pairs = [(u, w) for u in range(40) for w in range(m.shape[1])]
    else:
        pairs = zip(rng.integers(0, 40, size=400), rng.integers(0, m.shape[1], size=400))
    for u, w in pairs:
        f = BooleanFunction.from_tt(n, base ^ int(ttu[u])) + ms.function(int(w))
        assert m[u, w] == nl.nl1(f)


def _random_base(rng, deg):
    """A random 6-variable base of degree exactly deg (terms of degree >= 3)."""
    masks = [m for m in range(64) if 3 <= m.bit_count() <= deg]
    while True:
        f = BooleanFunction.from_anf(6, sum(1 << m for m in masks if rng.integers(0, 2)))
        if bf.degree(f) == deg:
            return f


def test_order4_table_matches_recursion(rng):
    # the r = 4 assembly (row stacking, width-1024 min-plus, transpose)
    # against nl_3 of each shifted function from its own split into (5,3)
    # tables: a random truth table (degree 6, no period at r = 4) and a
    # degree-5 base, for which every translation is a period
    ms = MonomialSet.of(6, 4)
    for f in (BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63))),
              _random_base(rng, 5)):
        values = nl.nl_table_values(f, 4)
        for w in rng.integers(0, 1 << len(ms), size=32):
            assert values[w] == nl.nl_r_recursive(f + ms.function(int(w)), 3)


# ---------------------------------------------------------------------------
# symmetries of the table rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4)])
def test_canonical_index_splits_along_top_variable(n, r):
    # the table is C transposed because the canonical index of u + x_n * v
    # is u | v << C(n-1, r): the low words are the monomials without x_n
    # in their own order, then those with x_n in the order of v
    top = 1 << (n - 1)
    low, high = MonomialSet.of(n - 1, r).members, MonomialSet.of(n - 1, r - 1).members
    assert MonomialSet.of(n, r).members == low + tuple(m | top for m in high)


def _affine(p, c):
    """x -> P x + c with (P x)_j = x_{p[j]}, as a map over GF(2)^6."""
    from rmcover.field import AffineMap

    rows = tuple(tuple(int(k == p[j]) for k in range(6)) for j in range(6))
    return AffineMap(2, 6, rows, tuple(c >> i & 1 for i in range(6)))


def _perm_of(i):
    """The variable permutation of row i of `_variable_perms(6)`."""
    return [int(m).bit_length() - 1 for m in nl._variable_perms(6)[0][i, 1 << np.arange(6)]]


def _symmetries_by_definition(f):
    """(p, c, T_3(f o L + f)) over the 120 * 64 maps L = (P, c) that keep the coset key."""
    from rmcover.orbit import coset_key

    ident = tuple(range(6))
    translates = [bf.apply_affine(f, _affine(ident, c)) for c in range(64)]
    perms = [_affine(_perm_of(i), 0) for i in range(120)]
    out = set()
    for i, P in enumerate(perms):
        for c, h in enumerate(translates):
            moved = bf.apply_affine(h, P)  # f(P x + c)
            if coset_key(moved) == coset_key(f):
                word = MonomialSet.of(6, 3).anf_to_word(bf.homogeneous_part(moved + f, 3).anf)
                out.add((i, c, word))
    return out


def _symmetrized_base(rng):
    """h + h o P for a random truth table h and P = (x1 x2)(x3 x4): P fixes it."""
    h = BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
    return h + bf.apply_affine(h, _affine((1, 0, 3, 2, 4, 5), 0))


def _search(f):
    return set(zip(*(a.tolist() for a in nl._symmetries(f, 3))))


def test_variable_perms_are_the_permutations_of_five_variables():
    table, inverse = nl._variable_perms(6)
    assert table.shape == inverse.shape == (120, 64) and not table.flags.writeable
    perms = [tuple(_perm_of(i)) for i in range(120)]
    assert perms[0] == tuple(range(6)) and len(set(perms)) == 120
    assert all(p[5] == 5 for p in perms)
    for i, p in enumerate(perms):
        masks = [sum(1 << p[j] for j in range(6) if m >> j & 1) for m in range(64)]
        assert table[i].tolist() == masks
        assert (table[i][inverse[i]] == np.arange(64)).all()


def test_periods_match_definition(rng):
    # the translations of the search (P = id) against coset keys of the
    # translates alone
    bases = [fn_rep(i) for i in range(11)] + [_random_base(rng, d) for d in (4, 5, 6)
                                              for _ in range(3)]
    ident = tuple(range(6))
    for f in bases:
        want = {}
        for c in range(1, 64):
            moved = bf.apply_affine(f, _affine(ident, c))
            if bf.degree(moved + f) <= 3:
                want[c] = MonomialSet.of(6, 3).anf_to_word(bf.homogeneous_part(moved + f, 3).anf)
        assert {c: w for p, c, w in _search(f) if p == 0 and c} == want
    # every translation below degree 5, exactly one at degree 5, none at 6
    counts = [sum(1 for p, c, _ in _search(f) if p == 0 and c) for f in bases[11:]]
    assert counts == [63] * 3 + [1] * 3 + [0] * 3


def test_symmetries_match_definition(rng):
    # the search against every one of the 120 * 64 maps by apply_affine and
    # coset_key: four class representatives, random bases of degree 4, 5 and
    # 6, and a random base symmetrized under a non-identity permutation
    bases = [fn_rep(i) for i in (2, 6, 9, 10)] + [_random_base(rng, d) for d in (4, 5, 6)]
    bases.append(_symmetrized_base(rng))
    sizes = []
    for f in bases:
        found = _search(f)
        assert found == _symmetries_by_definition(f)
        sizes.append(len(found))
    assert sizes[:4] == [256, 16, 4, 8]
    assert sizes[-1] > 1 and any(p for p, _, _ in _search(bases[-1]))


@pytest.mark.parametrize("which", [6, 10, "symmetrized"])
def test_symmetries_preserve_the_table(rng, tables, which):
    # T[g] = T[T_3(g o L) + T_3(f o L + f)] over all 2^20 words, for every
    # symmetry L found, by the induced word action (no table kernel inside)
    if which == "symmetrized":
        f = _symmetrized_base(rng)
        values = nl.nl_table_values(f, 3)
    else:
        f, values = fn_rep(which), tables[which].values
    words = np.arange(1 << 20, dtype=np.uint32)
    found = _search(f)
    assert len(found) > 1
    for p, c, _ in found:
        L = _affine(_perm_of(p), c)
        moved = nl.transform_words(words, 6, 3, L, bf.apply_affine(f, L) + f)
        assert np.array_equal(values[moved], values)


def test_tables_without_periods_are_identical(monkeypatch, rng, tables):
    # the same bytes with the search cut down to the identity: fn_0-fn_10,
    # a symmetrized random base and the (6,4) table of a degree-5 base
    cases = [(_symmetrized_base(rng), 3), (_random_base(rng, 5), 4)]
    with_symmetries = [tables[i].values for i in range(11)]
    with_symmetries += [nl.nl_table_values(f, r) for f, r in cases]
    assert all(len(nl._symmetries(f, r)[0]) > 1 for f, r in cases)
    identity = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
    monkeypatch.setattr(nl, "_symmetries", lambda f, r: identity)
    cases = [(fn_rep(i), 3) for i in range(11)] + cases
    for (f, r), want in zip(cases, with_symmetries):
        assert np.array_equal(nl.nl_table_values(f, r), want)


def _count_minplus_rows(monkeypatch, classes):
    seen = []
    minplus = nl._minplus_rows

    def counted(n1, n2):
        seen.append(n1.shape[0])
        return minplus(n1, n2)

    monkeypatch.setattr(nl, "_minplus_rows", counted)
    for i in classes:
        nl.nl_table_values(fn_rep(i), 3)
    return seen


def test_period_row_counts(monkeypatch):
    # the min-plus runs on one row per orbit: 14 of 1,024 rows for fn_2, 102
    # for fn_6, 186 for fn_10 and 34 for fn_0; with the permutations left
    # out (translations only), 1,024 / 32 for fn_2, / 2 for fn_6, and every
    # row for fn_10, which has no translation
    assert _count_minplus_rows(monkeypatch, (2, 6, 10, 0)) == [14, 102, 186, 34]
    search = nl._symmetries

    def translations(f, r):
        p, c, sigma = search(f, r)
        return p[p == 0], c[p == 0], sigma[p == 0]

    monkeypatch.setattr(nl, "_symmetries", translations)
    assert _count_minplus_rows(monkeypatch, (2, 6, 10)) == [32, 512, 1024]


def _digest_with(monkeypatch, i, found):
    """sha256 of fn_i's table built from the search result `found`."""
    monkeypatch.setattr(nl, "_symmetries", lambda f, r: found)
    return hashlib.sha256(nl.nl_table_values(fn_rep(i), 3).tobytes()).hexdigest()


def test_class_table_digest_sees_a_wrong_period(monkeypatch):
    # negative control: fn_6's one translation with one bit of its word flipped
    p, c, sigma = nl._symmetries(fn_rep(6), 3)
    period = (p == 0) & (c != 0)
    assert period.sum() == 1
    assert _digest_with(monkeypatch, 6, (p, c, sigma ^ period)) != CLASS_TABLE_SHA256[6]


def test_class_table_digest_sees_a_wrong_symmetry(monkeypatch):
    # negative controls on fn_10's eight symmetries, none a translation: a
    # non-symmetry added, and one bit flipped in the word of a real one
    f = fn_rep(10)
    p, c, sigma = nl._symmetries(f, 3)
    assert len(p) == 8 and not c.any()
    swap = next(i for i in range(120) if _perm_of(i) == [1, 0, 2, 3, 4, 5])
    moved = bf.apply_affine(f, _affine(_perm_of(swap), 0))
    assert bf.degree(moved + f) > 3  # x1 <-> x2 does not fix fn_10's coset
    word = MonomialSet.of(6, 3).anf_to_word(bf.homogeneous_part(moved + f, 3).anf)
    at = np.searchsorted(p, swap)
    added = np.insert(p, at, swap), np.insert(c, at, 0), np.insert(sigma, at, word)
    assert _digest_with(monkeypatch, 10, added) != CLASS_TABLE_SHA256[10]
    flipped = p, c, sigma ^ (np.arange(8) == 1)
    assert _digest_with(monkeypatch, 10, flipped) != CLASS_TABLE_SHA256[10]


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

    # every level 0..12 in every row, low ones rare: many candidate sums; at
    # width 1024 also every even level up to 16, as the offset nl1 matrices
    # of the (6,3) tables take, and every level up to 16, through the
    # float32 inverse
    level_sets = [np.arange(13)]
    if width == 1024:
        level_sets += [np.arange(0, 17, 2), np.arange(17)]
    for levels in level_sets:
        skew = 2.0 ** np.arange(levels.size)
        n1, n2 = (rng.choice(levels, size=(rows, width), p=skew / skew.sum()).astype(np.uint8)
                  for _ in range(2))
        for n in (n1, n2):
            for row in n:
                row[rng.permutation(width)[:levels.size]] = levels[:width]
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


def _covering_reference(t1, t2, t):
    """The verdict from a uint16 sum: the violators ordered by level, then word."""
    total = t1.values.astype(np.uint16) + t2.values
    bad = np.flatnonzero(total < t)
    if not bad.size:
        return True, None, None
    g = bad[np.lexsort((bad, t1.values[bad]))[0]]
    return False, int(t1.values[g]), int(g)


def test_covering_matches_uint16_reference(rng, tables):
    pairs = [(tables[6], tables[10]), (tables[10], tables[6])]
    for _ in range(2):
        pairs.append(tuple(nl.build_nl_table(BooleanFunction.from_tt(6, int(h)), 3)
                           for h in rng.integers(0, 1 << 64, size=2, dtype=np.uint64)))
    # every entry at 2^(n-1) = 32 on both sides: the largest sum, 64
    top = nl.NlTable(BooleanFunction.zero(6), 3, np.full(1 << 20, 32, dtype=np.uint8))
    pairs.append((top, top))
    for t1, t2 in pairs:
        nl3 = int((t1.values.astype(np.uint16) + t2.values).min())
        for t in (nl3 - 1, nl3, nl3 + 1, 2 * t1.ml_prev + 1):
            v = nl.check_covering_condition(t1, t2, t)
            assert (v.holds, v.h, v.g_word) == _covering_reference(t1, t2, t)
    assert not nl.check_covering_condition(top, top, 65).holds


def test_nl_table_refuses_wide_or_out_of_range_values():
    values = np.zeros(1 << 20, dtype=np.uint8)
    values[7] = 32  # 2^(n-1), the largest nl_2 of a 6-variable function
    nl.NlTable(BooleanFunction.zero(6), 3, values.copy())
    values[7] = 33
    with pytest.raises(ValueError, match="exceeds"):
        nl.NlTable(BooleanFunction.zero(6), 3, values)
    with pytest.raises(ValueError, match="dtype"):
        nl.NlTable(BooleanFunction.zero(6), 3, np.zeros(1 << 20, dtype=np.uint16))


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
