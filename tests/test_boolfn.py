import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcover import boolfn as bf
from rmcover import orbit as ob
from rmcover.classify import fn_rep
from rmcover.field import AffineMap, compose


def F(anf, n=None):
    return bf.BooleanFunction.from_anf_string(anf, n=n)


# ---------------------------------------------------------------------------
# Moebius transform
# ---------------------------------------------------------------------------


def test_mobius_zero():
    assert bf.mobius(0, 3) == 0


def test_mobius_constant_one():
    # ANF with only the empty monomial = the all-ones truth table
    assert bf.mobius(1, 2) == 0b1111


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_mobius_involution(v):
    assert bf.mobius(bf.mobius(v, 6), 6) == v


def test_mobius_rejects_oversized():
    with pytest.raises(ValueError):
        bf.mobius(1 << 8, 3)


# ---------------------------------------------------------------------------
# weight / distance / degree
# ---------------------------------------------------------------------------


def test_weight_examples():
    assert bf.weight(bf.BooleanFunction.zero(6)) == 0
    assert bf.weight(F("x1x2x3x4", n=6)) == 4
    assert bf.weight(F("x1", n=3)) == 4


def test_distance_examples():
    f = F("x1x2+x3", n=4)
    assert bf.distance(f, f) == 0
    assert bf.distance(bf.BooleanFunction.zero(3), bf.BooleanFunction.one(3)) == 8
    assert bf.distance(F("x1", n=2), F("x2", n=2)) == 2


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        bf.distance(bf.BooleanFunction.zero(3), bf.BooleanFunction.zero(4))


@given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
       st.integers(0, (1 << 32) - 1))
def test_distance_metric(a, b, c):
    fa = bf.BooleanFunction.from_tt(5, a)
    fbb = bf.BooleanFunction.from_tt(5, b)
    fc = bf.BooleanFunction.from_tt(5, c)
    assert bf.distance(fa, fbb) == bf.distance(fbb, fa)
    assert bf.distance(fa, fc) <= bf.distance(fa, fbb) + bf.distance(fbb, fc)
    assert (bf.distance(fa, fbb) == 0) == (a == b)


def test_degree_examples():
    assert bf.degree(F("x2x3x4x5+x1x3x4x6+x1x2x5x6")) == 4  # class rep 3
    assert bf.degree(F("x1x2x3x4x5x6")) == 6
    assert bf.degree(bf.BooleanFunction.zero(5)) == 0


# ---------------------------------------------------------------------------
# concat / split
# ---------------------------------------------------------------------------


def test_concat_example():
    f = bf.concat(bf.BooleanFunction.zero(1), bf.BooleanFunction.one(1))
    # values at points (x1,x2) = 00,10,01,11 are 0,0,1,1
    assert [f.value(x) for x in range(4)] == [0, 0, 1, 1]
    assert f.to_hex() == "c"


@given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1))
def test_concat_split_round_trip(a, b):
    f1 = bf.BooleanFunction.from_tt(5, a)
    f2 = bf.BooleanFunction.from_tt(5, b)
    g1, g2 = bf.split(bf.concat(f1, f2))
    assert (g1, g2) == (f1, f2)


@given(st.integers(0, (1 << 16) - 1))
def test_concat_self_keeps_degree(a):
    f = bf.BooleanFunction.from_tt(4, a)
    assert bf.degree(bf.concat(f, f)) == bf.degree(f)


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
       st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_concat_distance_splits(a, b, c, d):
    fa, fbb = bf.BooleanFunction.from_tt(4, a), bf.BooleanFunction.from_tt(4, b)
    fc, fd = bf.BooleanFunction.from_tt(4, c), bf.BooleanFunction.from_tt(4, d)
    assert bf.distance(bf.concat(fa, fbb), bf.concat(fc, fd)) == \
        bf.distance(fa, fc) + bf.distance(fbb, fd)


def test_concat_overflow():
    f = bf.BooleanFunction.zero(7)
    with pytest.raises(ValueError):
        bf.concat(f, f)


# ---------------------------------------------------------------------------
# affine action
# ---------------------------------------------------------------------------


def _random_affine(rng, n=6):
    from rmcover.verify import random_affine_map

    return random_affine_map(rng)


def test_apply_affine_identity():
    f = F("x1x2x4x5+x1x2x3x6")
    assert bf.apply_affine(f, AffineMap.identity(6)) == f


def test_apply_affine_swap():
    swap = AffineMap(2, 2, ((0, 1), (1, 0)), (0, 0))
    assert bf.apply_affine(F("x1", n=2), swap) == F("x2", n=2)


def test_apply_affine_group_action(rng):
    f = bf.BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
    for _ in range(5):
        l1 = _random_affine(rng)
        l2 = _random_affine(rng)
        lhs = bf.apply_affine(f, compose(l1, l2))
        rhs = bf.apply_affine(bf.apply_affine(f, l1), l2)
        assert lhs == rhs


def test_apply_affine_preserves_degree_and_nl3(rng):
    from rmcover.nonlin import nl_r_recursive

    for _ in range(3):
        f = bf.BooleanFunction.from_tt(6, int(rng.integers(0, 1 << 63)))
        L = _random_affine(rng)
        g = bf.apply_affine(f, L)
        assert bf.degree(g) == bf.degree(f)
        assert nl_r_recursive(g, 3) == nl_r_recursive(f, 3)


# ---------------------------------------------------------------------------
# homogeneous projection
# ---------------------------------------------------------------------------


def test_homogeneous_part_examples():
    fn9 = fn_rep(9)
    assert bf.homogeneous_part(fn9, 4) == F("x1x2x4x5+x1x2x3x6")
    assert bf.homogeneous_part(fn9, 6) == F("x1x2x3x4x5x6")
    assert bf.homogeneous_part(F("x1x2x3"), 2) == bf.BooleanFunction.zero(3)


@given(st.integers(0, (1 << 64) - 1))
def test_homogeneous_parts_partition(a):
    f = bf.BooleanFunction.from_tt(6, a)
    total = bf.BooleanFunction.zero(6)
    for r in range(7):
        total = total + bf.homogeneous_part(f, r)
    assert total == f


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_hex_round_trip():
    f = F("x2x3x4x5+x1x3x4x6+x1x2x5x6")
    assert bf.BooleanFunction.from_hex(f.to_hex(), 6) == f
    assert len(f.to_hex()) == 16


def test_hex_infers_n():
    f = bf.BooleanFunction.from_hex("0880808088000000")
    assert f.n == 6


def test_anf_string_round_trip():
    for s in ("0", "1", "x1", "x1x2x3+x4x5x6", "1+x1+x1x2"):
        f = bf.BooleanFunction.from_anf_string(s, n=6)
        assert bf.BooleanFunction.from_anf_string(f.to_anf_string(), n=6) == f


def test_anf_string_sorted_emission():
    f = F("x4x5x6+x1x2x3", n=6)
    assert f.to_anf_string() == "x1x2x3+x4x5x6"


def test_monomial_set_round_trip():
    ms = bf.MonomialSet.of(6, 3)
    assert len(ms) == 20
    for w in (0, 1, 0xFFFFF, 0b1010101):
        assert ms.anf_to_word(ms.word_to_anf(w)) == w


def test_monomial_ordering_ascending():
    ms = bf.MonomialSet.of(6, 4)
    assert list(ms.members) == sorted(ms.members)
    assert all(m.bit_count() == 4 for m in ms.members)


def test_monomial_set_ignores_other_monomials():
    f = F("1+x1+x1x2x3+x1x2x3x4+x2x3x4x5x6", n=6)
    word = ob._KEYS.anf_to_word(f.anf)
    assert word.bit_count() == 2
    assert ob._KEYS.function(word) == F("x1x2x3x4+x2x3x4x5x6", n=6)


@pytest.mark.parametrize("ms", [bf.MonomialSet.of(6, 3), ob._KEYS], ids=["deg3", "keys"])
def test_monomial_set_action_matches_definition(ms, rng):
    half = len(ms) // 2
    for c in rng.integers(1, 64, size=3):
        # a random linear part with a nonzero translation
        L = AffineMap(2, 6, _random_affine(rng).A, tuple(int(c) >> i & 1 for i in range(6)))
        lo, hi = ms.action(L)
        for w in rng.integers(0, 1 << len(ms), size=20):
            w = int(w)
            want = ms.anf_to_word(bf.apply_affine(ms.function(w), L).anf)
            assert int(lo[w & ((1 << half) - 1)] ^ hi[w >> half]) == want
