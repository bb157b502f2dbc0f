"""Small finite fields and the groups GL(n, q) / AGL(n, q).

Field elements are encoded as ints 0..q-1.  For prime q the encoding is the
residue itself; for prime powers q = p^k it is the base-p digit vector of the
polynomial coefficient list (constant term = least significant digit) modulo
a fixed irreducible polynomial.  The moduli follow the Conway polynomial
convention and are recorded on the FieldSpec so that any quantity depending
on the extension model (notably the beta + beta^q entry of the 2x2 generator
pair) is reproducible.

Affine maps (A, b) act as x -> Ax + b and compose by
(A1, b1) o (A2, b2) = (A1 A2, A1 b2 + b1).

The two-generator constructions for GL(n, q) and AGL(n, q) are provided for
n >= 2 together with a brute-force closure enumerator that verifies them at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FieldSpec",
    "AffineMap",
    "SingularMatrixError",
    "compose",
    "gl_generators",
    "agl_generators",
    "generate_group",
    "max_element_order",
    "gl_order",
    "agl_order",
    "DEFAULT_CLOSURE_CAP",
]

MAX_Q = 16
DEFAULT_CLOSURE_CAP = 10_000_000

# Irreducible (primitive) moduli for the supported extension fields, as
# coefficient tuples c_0..c_k (ascending degree, monic).
_MODULI = {
    4: (1, 1, 1),          # y^2 + y + 1 over GF(2)
    8: (1, 1, 0, 1),       # y^3 + y + 1 over GF(2)
    9: (2, 2, 1),          # y^2 + 2y + 2 over GF(3)
    16: (1, 1, 0, 0, 1),   # y^4 + y + 1 over GF(2)
}


class SingularMatrixError(ValueError):
    """Raised when an AffineMap is built from a non-invertible matrix."""


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a supported prime power")


@dataclass(frozen=True)
class FieldSpec:
    """Arithmetic tables for GF(q), q = p^k <= 16.

    exp/log are mutually inverse on nonzero elements, exp has period q-1,
    and alpha is a verified generator of the multiplicative group.
    """

    p: int
    k: int
    q: int
    modulus: tuple[int, ...] | None
    alpha: int
    add_table: tuple[tuple[int, ...], ...] = field(repr=False)
    mul_table: tuple[tuple[int, ...], ...] = field(repr=False)
    neg_table: tuple[int, ...] = field(repr=False)
    inv_table: tuple[int, ...] = field(repr=False)
    exp: tuple[int, ...] = field(repr=False)
    log: tuple[int, ...] = field(repr=False)

    @classmethod
    @lru_cache(maxsize=None)
    def of(cls, q: int) -> "FieldSpec":
        if not 2 <= q <= MAX_Q:
            raise ValueError(f"field size {q} out of supported range 2..{MAX_Q}")
        p, k = _factor_prime_power(q)
        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            modulus = None
        else:
            modulus = _MODULI[q]
            digits = [_digits(e, p, k) for e in range(q)]
            add = [
                [_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digits]
                for da in digits
            ]
            mul = [
                [_poly_mul_mod(da, db, modulus, p) for db in digits]
                for da in digits
            ]
        neg = [add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = mul[a].index(1)
        alpha = _find_generator(q, mul)
        exp = [1]
        for _ in range(q - 2):
            exp.append(mul[exp[-1]][alpha])
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        spec = cls(
            p=p,
            k=k,
            q=q,
            modulus=modulus,
            alpha=alpha,
            add_table=tuple(tuple(r) for r in add),
            mul_table=tuple(tuple(r) for r in mul),
            neg_table=tuple(neg),
            inv_table=tuple(inv),
            exp=tuple(exp),
            log=tuple(log),
        )
        spec._selfcheck()
        return spec

    def _selfcheck(self) -> None:
        q = self.q
        assert len(set(self.exp)) == q - 1, "exp table is not a bijection"
        assert self.mul_table[self.exp[-1]][self.alpha] == 1, "exp has wrong period"
        for a in range(1, q):
            assert self.exp[self.log[a]] == a

    # element arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return self.inv_table[a]

    def beta_trace(self) -> int:
        """beta + beta^q for a generator beta of the quadratic extension.

        The extension GF(q^2) is modelled as GF(q)[y] / (y^2 + c1 y + c0)
        with the lexicographically smallest (c1, c0) making y primitive;
        beta = y, and beta + beta^q equals -c1 (the negated linear
        coefficient, beta^q being the conjugate root).
        """
        for c1 in range(self.q):
            for c0 in range(self.q):
                if self._is_primitive_quadratic(c1, c0):
                    return self.neg(c1)
        raise RuntimeError("no primitive quadratic found")  # pragma: no cover

    def _is_primitive_quadratic(self, c1: int, c0: int) -> bool:
        # irreducible: y^2 + c1 y + c0 has no root in GF(q)
        for x in range(self.q):
            if self.add(self.add(self.mul(x, x), self.mul(c1, x)), c0) == 0:
                return False
        # order of the root beta in the pair model (a + b*beta)
        target = self.q * self.q - 1
        a, b = 0, 1  # beta
        seen = 1
        while (a, b) != (1, 0):
            # (a + b y) * y = -b c0 + (a - b c1) y
            a, b = (
                self.neg(self.mul(b, c0)),
                self.sub(a, self.mul(b, c1)),
            )
            seen += 1
            if seen > target:  # pragma: no cover - defensive
                return False
        return seen == target


def _digits(e: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _undigits(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _poly_mul_mod(da, db, modulus, p: int) -> int:
    k = len(da)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for j in range(k):
                prod[top - k + j] = (prod[top - k + j] - c * modulus[j]) % p
    return _undigits(prod[:k], p)


def _find_generator(q: int, mul) -> int:
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = mul[x][a]
            order += 1
        if order == q - 1:
            return a
    raise RuntimeError("multiplicative group without generator")  # pragma: no cover


# ---------------------------------------------------------------------------
# Affine maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """An invertible affine transformation x -> Ax + b over GF(q)^n."""

    q: int
    n: int
    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    A_inv: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fs = FieldSpec.of(self.q)
        n = self.n
        if len(self.A) != n or any(len(r) != n for r in self.A) or len(self.b) != n:
            raise ValueError("matrix/vector shape mismatch")
        if any(not 0 <= e < self.q for r in self.A for e in r):
            raise ValueError("matrix entry out of field range")
        if any(not 0 <= e < self.q for e in self.b):
            raise ValueError("vector entry out of field range")
        inv = _mat_inv(fs, self.A)
        object.__setattr__(self, "A_inv", inv)
        assert _mat_mul(fs, self.A, inv) == _identity_rows(n), "inverse check failed"

    @classmethod
    def identity(cls, n: int, q: int = 2) -> "AffineMap":
        return cls(q, n, _identity_rows(n), (0,) * n)

    def inverse(self) -> "AffineMap":
        fs = FieldSpec.of(self.q)
        b_inv = tuple(fs.neg(e) for e in _mat_vec(fs, self.A_inv, self.b))
        return AffineMap(self.q, self.n, self.A_inv, b_inv)

    def is_identity(self) -> bool:
        return self.A == _identity_rows(self.n) and all(e == 0 for e in self.b)


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(fs: FieldSpec, A, B):
    n = len(A)
    return tuple(
        tuple(
            _dot(fs, A[i], tuple(B[k][j] for k in range(n)))
            for j in range(n)
        )
        for i in range(n)
    )


def _dot(fs: FieldSpec, u, v) -> int:
    s = 0
    for x, y in zip(u, v):
        s = fs.add(s, fs.mul(x, y))
    return s


def _mat_vec(fs: FieldSpec, A, x) -> tuple[int, ...]:
    return tuple(_dot(fs, row, x) for row in A)


def _mat_inv(fs: FieldSpec, A):
    n = len(A)
    aug = [list(A[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = fs.inv(aug[col][col])
        aug[col] = [fs.mul(scale, e) for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [fs.sub(x, fs.mul(c, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def compose(L1: AffineMap, L2: AffineMap) -> AffineMap:
    """L1 o L2: first apply L2, then L1 (i.e. x -> L1(L2(x)))."""
    if (L1.n, L1.q) != (L2.n, L2.q):
        raise ValueError("dimension or field mismatch")
    fs = FieldSpec.of(L1.q)
    A = _mat_mul(fs, L1.A, L2.A)
    b = tuple(fs.add(u, v) for u, v in zip(_mat_vec(fs, L1.A, L2.b), L1.b))
    return AffineMap(L1.q, L1.n, A, b)


# ---------------------------------------------------------------------------
# Two-generator constructions
# ---------------------------------------------------------------------------


def _gl_generator_matrices(n: int, fs: FieldSpec):
    q = fs.q
    if n < 2:
        raise ValueError("generators are defined for n >= 2")
    if n == 2:
        if q == 2:
            return ((0, 1), (1, 1)), ((1, 1), (0, 1))
        t = fs.beta_trace()
        a_mat = ((0, fs.neg(fs.alpha)), (1, t))
        b_mat = ((fs.alpha, 0), (0, 1))
        return a_mat, b_mat
    # n >= 3: A = I + E_{n1} + (alpha-1) E_{22}, B = cyclic shift
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    a[n - 1][0] = fs.add(a[n - 1][0], 1)
    a[1][1] = fs.alpha
    b = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        b[i][i + 1] = 1
    b[n - 1][0] = 1
    return tuple(tuple(r) for r in a), tuple(tuple(r) for r in b)


def gl_generators(n: int, fld: FieldSpec | int) -> tuple[AffineMap, AffineMap]:
    """The standard two-element generating pair of GL(n, q), with b = 0."""
    fs = fld if isinstance(fld, FieldSpec) else FieldSpec.of(fld)
    a_mat, b_mat = _gl_generator_matrices(n, fs)
    zero = (0,) * n
    return AffineMap(fs.q, n, a_mat, zero), AffineMap(fs.q, n, b_mat, zero)


def agl_generators(n: int, fld: FieldSpec | int) -> tuple[AffineMap, AffineMap]:
    """The two-element generating pair of AGL(n, q)."""
    fs = fld if isinstance(fld, FieldSpec) else FieldSpec.of(fld)
    q = fs.q
    if n < 2:
        raise ValueError("generators are defined for n >= 2")
    if n == 2:
        if q == 2:
            return (
                AffineMap(2, 2, ((0, 1), (1, 1)), (0, 0)),
                AffineMap(2, 2, ((1, 1), (0, 1)), (1, 0)),
            )
        a_mat, b_mat = _gl_generator_matrices(2, fs)
        return (
            AffineMap(q, 2, a_mat, (0, 0)),
            AffineMap(q, 2, b_mat, (0, 1)),
        )
    a_mat, b_mat = _gl_generator_matrices(n, fs)
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    return AffineMap(q, n, a_mat, e1), AffineMap(q, n, b_mat, (0,) * n)


def gl_order(n: int, q: int) -> int:
    """prod_{i=0}^{n-1} (q^n - q^i)."""
    v = 1
    for i in range(n):
        v *= q**n - q**i
    return v


def agl_order(n: int, q: int) -> int:
    """q^n * prod_{i=0}^{n-1} (q^n - q^i)."""
    return q**n * gl_order(n, q)


# ---------------------------------------------------------------------------
# Closure enumeration (verification oracle for the generator pairs)
# ---------------------------------------------------------------------------


class ClosureCapExceeded(RuntimeError):
    pass


def _digit_arrays(gens: list[AffineMap]):
    n, q = gens[0].n, gens[0].q
    if any((g.n, g.q) != (n, q) for g in gens):
        raise ValueError("generators live in different groups")
    mats = np.array([[list(r) for r in g.A] for g in gens], dtype=np.uint8)
    vecs = np.array([list(g.b) for g in gens], dtype=np.uint8)
    return n, q, mats, vecs


def _compose_batch(fs, A, b, GA, Gb):
    """(A, b) o (GA, Gb) elementwise over a batch: (A @ GA, A @ Gb + b).

    A: (N, n, n), b: (N, n); GA/Gb either fixed (n, n)/(n,) or batched like A.
    Uses the field's add/mul lookup tables so it works for every supported q.
    """
    add = np.array(fs.add_table, dtype=np.uint8)
    mul = np.array(fs.mul_table, dtype=np.uint8)
    n = A.shape[1]
    if GA.ndim == 2:
        GA = np.broadcast_to(GA, A.shape)
        Gb = np.broadcast_to(Gb, b.shape)
    newA = np.zeros_like(A)
    newb = b.copy()
    for kk in range(n):
        term = mul[A[:, :, kk][:, :, None], GA[:, kk, :][:, None, :]]  # (N, n, n)
        newA = add[newA, term]
        vterm = mul[A[:, :, kk], Gb[:, kk][:, None]]  # (N, n)
        newb = add[newb, vterm]
    return newA, newb


def _pack_batch(A, b, q: int):
    n = A.shape[1]
    flat = np.concatenate([A.reshape(A.shape[0], n * n), b], axis=1).astype(np.int64)
    weightspow = (q ** np.arange(n * n + n, dtype=np.int64))[::-1]
    return flat @ weightspow


def _closure(gens: list[AffineMap], cap: int):
    """BFS closure of the generated group; returns (A_batch, b_batch)."""
    n, q, gmats, gvecs = _digit_arrays(gens)
    fs = FieldSpec.of(q)
    keyspace = q ** (n * n + n)
    if keyspace > 1 << 28:
        raise ClosureCapExceeded(
            f"state space q^(n^2+n) = {keyspace} too large for closure BFS"
        )
    visited = np.zeros(keyspace, dtype=bool)
    ident_A = np.eye(n, dtype=np.uint8)[None, :, :]
    ident_b = np.zeros((1, n), dtype=np.uint8)
    all_A = [ident_A]
    all_b = [ident_b]
    visited[_pack_batch(ident_A, ident_b, q)[0]] = True
    frontier_A, frontier_b = ident_A, ident_b
    total = 1
    while frontier_A.shape[0]:
        cand_A, cand_b, cand_keys = [], [], []
        for gi in range(len(gens)):
            na, nb = _compose_batch(fs, frontier_A, frontier_b, gmats[gi], gvecs[gi])
            cand_A.append(na)
            cand_b.append(nb)
            cand_keys.append(_pack_batch(na, nb, q))
        keys = np.concatenate(cand_keys)
        A = np.concatenate(cand_A)
        b = np.concatenate(cand_b)
        fresh = ~visited[keys]
        keys, A, b = keys[fresh], A[fresh], b[fresh]
        if keys.size:
            uniq, first = np.unique(keys, return_index=True)
            visited[uniq] = True
            A, b = A[first], b[first]
            total += uniq.size
            if total > cap:
                raise ClosureCapExceeded(f"closure exceeds cap {cap}")
            all_A.append(A)
            all_b.append(b)
            frontier_A, frontier_b = A, b
        else:
            break
    return np.concatenate(all_A), np.concatenate(all_b)


def generate_group(gens: list[AffineMap], cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Size of the group generated by `gens`, by BFS closure under composition."""
    A, _ = _closure(gens, cap)
    return A.shape[0]


def max_element_order(gens: list[AffineMap], cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Maximum order of any element of the generated group (exhaustive).

    The group is cyclic iff this equals the group size.
    """
    A, b = _closure(gens, cap)
    q = gens[0].q
    fs = FieldSpec.of(q)
    size = A.shape[0]
    n = A.shape[1]
    ident = np.eye(n, dtype=np.uint8)
    orders = np.zeros(size, dtype=np.int64)
    curA, curb = A.copy(), b.copy()
    pending = np.arange(size)
    m = 1
    while pending.size:
        is_id = (curA == ident).all(axis=(1, 2)) & (curb == 0).all(axis=1)
        done = np.flatnonzero(is_id)
        orders[pending[done]] = m
        keep = ~is_id
        pending = pending[keep]
        curA, curb = curA[keep], curb[keep]
        if pending.size:
            curA, curb = _compose_batch(fs, curA, curb, A[pending], b[pending])
        m += 1
        if m > size + 1:  # pragma: no cover - defensive
            raise RuntimeError("order computation failed to terminate")
    return int(orders.max())
