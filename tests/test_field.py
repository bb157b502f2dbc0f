import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmcover import field as fl


def test_fieldspec_tables_all_supported():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        fs = fl.FieldSpec.of(q)
        assert sorted(fs.exp) == list(range(1, q))  # alpha generates GF(q)*
        for a in range(1, q):
            assert fs.mul(a, fs.inv(a)) == 1
            assert fs.exp[fs.log[a]] == a
        for a in range(q):
            assert fs.add(a, fs.neg(a)) == 0


def test_fieldspec_rejects_bad_q():
    with pytest.raises(ValueError):
        fl.FieldSpec.of(6)
    with pytest.raises(ValueError):
        fl.FieldSpec.of(17)


def test_compose_identity_and_inverse():
    fs = fl.FieldSpec.of(3)
    L = fl.AffineMap(3, 2, ((1, 2), (0, 1)), (2, 1))
    ident = fl.AffineMap.identity(2, 3)
    assert fl.compose(L, ident) == L
    assert fl.compose(ident, L) == L
    assert fl.compose(L, L.inverse()).is_identity()
    assert fl.compose(L.inverse(), L).is_identity()


def test_compose_swap_example():
    # (E-swap, 0) o (I, e1) = (E-swap, e2) over GF(2), n=2
    swap = fl.AffineMap(2, 2, ((0, 1), (1, 0)), (0, 0))
    shift = fl.AffineMap(2, 2, ((1, 0), (0, 1)), (1, 0))
    out = fl.compose(swap, shift)
    assert out.A == ((0, 1), (1, 0))
    assert out.b == (0, 1)


@given(st.integers(0, 10**9))
def test_compose_associative(seed):
    import numpy as np

    from rmcover.verify import random_affine_map

    rng = np.random.default_rng(seed)
    a, b, c = (random_affine_map(rng) for _ in range(3))
    assert fl.compose(fl.compose(a, b), c) == fl.compose(a, fl.compose(b, c))


def test_singular_matrix_rejected():
    with pytest.raises(fl.SingularMatrixError):
        fl.AffineMap(2, 2, ((1, 1), (1, 1)), (0, 0))


def test_dimension_mismatch():
    a = fl.AffineMap.identity(2)
    b = fl.AffineMap.identity(3)
    with pytest.raises(ValueError):
        fl.compose(a, b)


# ---------------------------------------------------------------------------
# generator pairs
# ---------------------------------------------------------------------------


def test_gl_generators_n3_q2():
    a, b = fl.gl_generators(3, 2)
    assert a.A == ((1, 0, 0), (0, 1, 0), (1, 0, 1))  # I + E_31
    assert b.A == ((0, 1, 0), (0, 0, 1), (1, 0, 0))  # E_12 + E_23 + E_31
    assert a.b == b.b == (0, 0, 0)


def test_gl_generators_n2_q2():
    a, b = fl.gl_generators(2, 2)
    assert a.A == ((0, 1), (1, 1))
    assert b.A == ((1, 1), (0, 1))


def test_gl_closure_q3():
    assert fl.generate_group(list(fl.gl_generators(2, 3))) == 48


def test_agl_generators_n3_q2():
    a, b = fl.agl_generators(3, 2)
    assert a.A == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    assert a.b == (1, 0, 0)
    assert b.b == (0, 0, 0)


def test_agl_generators_n2_q2():
    a, b = fl.agl_generators(2, 2)
    assert (a.A, a.b) == (((0, 1), (1, 1)), (0, 0))
    assert (b.A, b.b) == (((1, 1), (0, 1)), (1, 0))


def test_agl_generators_n2_q3_shape():
    fs = fl.FieldSpec.of(3)
    a, b = fl.agl_generators(2, 3)
    assert a.A[0] == (0, fs.neg(fs.alpha))
    assert a.A[1][0] == 1
    assert a.b == (0, 0)
    assert b.A == ((fs.alpha, 0), (0, 1))
    assert b.b == (0, 1)


def test_generators_require_n_at_least_2():
    with pytest.raises(ValueError):
        fl.gl_generators(1, 2)
    with pytest.raises(ValueError):
        fl.agl_generators(1, 3)


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------


def test_generate_group_small():
    assert fl.generate_group(list(fl.agl_generators(2, 2))) == 24
    assert fl.generate_group(list(fl.agl_generators(3, 2))) == 1344
    assert fl.generate_group([fl.AffineMap.identity(3)]) == 1


def test_generate_group_cap():
    with pytest.raises(fl.ClosureCapExceeded):
        fl.generate_group(list(fl.agl_generators(3, 2)), cap=100)


def test_max_element_order():
    assert fl.max_element_order([fl.AffineMap.identity(2)]) == 1
    assert fl.max_element_order(list(fl.agl_generators(2, 2))) < 24
    assert fl.max_element_order(list(fl.agl_generators(3, 2))) < 1344


def test_order_formulas():
    assert fl.gl_order(2, 3) == 48
    assert fl.agl_order(2, 2) == 24
    assert fl.agl_order(3, 2) == 1344
