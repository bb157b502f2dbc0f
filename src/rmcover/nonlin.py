"""Nonlinearity engines and the level-set tables that drive the proof.

nl_r(f) is the minimum Hamming distance from f to any function of degree at
most r.  Orders 0 and 1 are computed directly (weight, Walsh-Hadamard
spectrum); higher orders use the split recursion

    nl_r(f) = min over g in H_{n-1}^(r) u {0} of
              nl_{r-1}(f1 + g) + nl_{r-1}(f2 + g),

where f = f1 || f2 along the top variable.  The workhorse is the value
table of a base function: the full map g -> nl_{r-1}(base + g) over every
homogeneous degree-r coefficient word g (canonical monomial order).  Level
sets F(k) = {g : value = k} of these tables are the objects the covering
condition manipulates.

Order-1 spectra of the degree-2 tables are one float32 GEMM with the
Sylvester-Hadamard matrix.  For the degree-3 tables each half splits once
more along its top variable, so the order-1 values over every (u, w) pair
are a max-plus XOR convolution of gathers from one cached uint8 table of
|W| for every 4-variable function, with no GEMM.  The two half-tables
combine by a min-plus XOR convolution, evaluated as a threshold convolution
in the Walsh domain (float32 GEMMs) that tests only the candidate sums
below an attained upper bound; rows of width <= 64 take a direct broadcast
minimum.

An affine map L(x) = P x + c, with P a permutation of x_1..x_{n-1} and c
any translation, that fixes f's coset mod RM(r, n) is a symmetry of f's
table (`nl_table_values`).  Writing a word as u + x_n * v, it gives C[u, v]
= C[u^P ^ sigma_u, v^P ^ sigma_v] on the min-plus output, so the min-plus
runs on one row per orbit of the symmetries and the other rows are copies
with their columns relabelled and shifted.  At n = 6 and r = 3 the class
representatives compute 11-14 of 1,024 rows (fn_1-fn_3), 34 (fn_0, fn_4,
fn_7), 74 (fn_5), 90 (fn_8), 102 (fn_6), 186 (fn_10) and 336 (fn_9).  Of
1,000 random truth tables, 221 have only the identity, and the mean is 538
rows.  The 11 class tables take 0.12-0.18 s together against 0.53-0.61 s
with translations alone (one BLAS thread), and a random truth table 0.05 s
against 0.08 s (median of 40, default threads), in alternated fresh
processes on a shared 2-core Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS
0.3.31).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb

import numpy as np

from .boolfn import (
    BooleanFunction,
    MonomialSet,
    _butterfly_masks,
    mobius,
    monomial_masks,
    rref,
    split,
    weight,
    xor_span,
)

__all__ = [
    "nl0",
    "nl1",
    "nl_r",
    "nl_r_recursive",
    "nl_r_bruteforce",
    "ml_r",
    "NlTable",
    "payload_sha256",
    "save_artifact",
    "read_artifact",
    "artifact_meta",
    "build_nl_table",
    "nl_table_values",
    "translation_periods",
    "CoveringVerdict",
    "check_covering_condition",
    "transform_words",
    "TABLE_WORD_CAP",
    "BRUTE_FORCE_DIM_CAP",
]

# Largest 2^C(n,r) a value table may span (the (6,3) pipeline needs 2^20).
TABLE_WORD_CAP = 1 << 24
# Largest RM(r,n) dimension the brute-force oracle enumerates.  The (5,3)
# oracle-equivalence check needs dim RM(3,5) = 26.
BRUTE_FORCE_DIM_CAP = 26

# Widest min-plus row taken by the direct broadcast minimum; wider rows take
# the Walsh path, and only their tables search for symmetries.
_BROADCAST_WIDTH = 64

NLT_MAGIC = b"NLT1"
NLT_ORDER_TAG = b"mask-asc"
_META_MAGIC = b"META"


# ---------------------------------------------------------------------------
# Orders 0 and 1
# ---------------------------------------------------------------------------


def nl0(f: BooleanFunction) -> int:
    """Distance to the nearest constant function."""
    w = weight(f)
    return min(w, (1 << f.n) - w)


def _wht(tt: int, n: int) -> list[int]:
    size = 1 << n
    w = [1 - 2 * (tt >> x & 1) for x in range(size)]
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            for j in range(start, start + h):
                a, b = w[j], w[j + h]
                w[j], w[j + h] = a + b, a - b
        h <<= 1
    return w


def nl1(f: BooleanFunction) -> int:
    """First-order nonlinearity via the Walsh-Hadamard spectrum."""
    spectrum = _wht(f.tt, f.n)
    return (1 << (f.n - 1)) - max(abs(v) for v in spectrum) // 2


@lru_cache(maxsize=None)
def _sylvester(k: int, dtype) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix H[x, a] = (-1)^popcount(x & a)."""
    idx = np.arange(1 << k)
    h = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(dtype)
    h.setflags(write=False)
    return h


def _signs(tts: np.ndarray, n: int) -> np.ndarray:
    """(-1)^f(x) of packed uint64 truth tables, as a float32 (count, 2^n) matrix."""
    flat = np.ascontiguousarray(tts, dtype="<u8").reshape(-1)
    bits = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little", count=1 << n)
    return 1 - 2 * bits.astype(np.float32)


def _nl1_batch(tts: np.ndarray, n: int) -> np.ndarray:
    """nl1 of many functions given as packed uint64 truth tables.

    The spectra are one float32 GEMM with the Sylvester-Hadamard matrix;
    every entry is an integer of absolute value at most 2^n, so it is exact.
    """
    spectra = _signs(tts, n) @ _sylvester(n, np.float32)
    np.abs(spectra, out=spectra)
    return ((1 << (n - 1)) - spectra.max(axis=1) / 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# Word/truth-table machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _word_tts(n: int, r: int) -> np.ndarray:
    """Truth tables (uint64) of every H_n^(r) coefficient word."""
    return xor_span([mobius(1 << m, n) for m in monomial_masks(n, r)], np.uint64)


@lru_cache(maxsize=None)
def _xor_index(m: int) -> np.ndarray:
    idx = np.arange(1 << m, dtype=np.intp)
    table = idx[:, None] ^ idx[None, :]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _abs_walsh(k: int) -> np.ndarray:
    """T[a, g] = |W_g(a)| for every k-variable truth table g, read-only uint8.

    Built on first use by an int8 butterfly: every partial sum is at most
    2^k in absolute value, and k <= 4 here (16 x 65,536 entries, 1 MB).
    """
    size = 1 << k
    g = np.arange(1 << size, dtype=np.uint32)
    w = 1 - 2 * np.stack([(g >> x & 1).astype(np.int8) for x in range(size)])
    h = 1
    while h < size:
        y = w.reshape(-1, 2, h, g.shape[0])
        y[:, 0], y[:, 1] = y[:, 0] + y[:, 1], y[:, 0] - y[:, 1]
        h <<= 1
    table = np.abs(w).view(np.uint8)
    table.setflags(write=False)
    return table


def _nl1_matrix(base_tt: int, ttu: np.ndarray, n: int) -> np.ndarray:
    """nl1(base + u + w) for all u and every w in H_n^(2), as a (U, W) uint8 matrix.

    Split f = base + u along x_n into f0 || f1, and w = w' + x_n * l with w'
    quadratic in x_1..x_{n-1} (the low C(n-1, 2) bits of w) and l linear
    (the high bits).  Then W_{f+w}(a, a_n) = W_{f0+w'}(a) + (-1)^{a_n}
    W_{f1+w'}(a ^ l), and as max(|x + y|, |x - y|) = |x| + |y|,

        nl1(f + w) = 2^(n-1) - max_a (|W_{f0+w'}(a)| + |W_{f1+w'}(a ^ l)|) / 2,

    a max-plus XOR convolution over a of two gathers from `_abs_walsh`.  The
    table cap keeps n <= 5, so each |W| is at most 16 and every uint8 sum
    (at most 32) is exact.
    """
    k = n - 1
    width = 1 << k  # the range of a
    f = np.uint64(base_tt) ^ ttu
    half = np.uint64((1 << width) - 1)
    tw, table = _word_tts(k, 2), _abs_walsh(k)
    # s1[a, u * W' + w'] = |W_{f0+w'}(a)|, s2 likewise for f1
    s1, s2 = (table.take(((h & half)[:, None] ^ tw).ravel(), axis=1)
              for h in (f, f >> np.uint64(width)))
    if width <= 8:  # halves of the (4,3) and (5,3) tables: one broadcast maximum
        peak = (s1[:, None] + s2[_xor_index(k)]).max(axis=0)
    else:  # in place, over contiguous 64 KB planes at (6,3)
        peak = np.empty_like(s1)
        tmp = np.empty_like(s1[0])
        for l in range(width):
            np.add(s1[0], s2[l], out=peak[l])
            for a in range(1, width):
                np.add(s1[a], s2[a ^ l], out=tmp)
                np.maximum(peak[l], tmp, out=peak[l])
    del s1, s2  # 2 MB freed before the transposed copy
    peak >>= 1
    np.subtract(width, peak, out=peak)
    # row l of (u, w') planes -> row u, column w' + (l << C(k, 2))
    return peak.reshape(width, len(ttu), -1).transpose(1, 0, 2).reshape(len(ttu), -1)


def _minplus_rows(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Row-wise min-plus XOR convolution: C[u, v] = min_w n1[u,w] + n2[u, w^v].

    Rows of width <= 64 take the direct broadcast minimum; wider rows go
    through the Walsh-domain threshold convolution in blocks of rows.
    """
    rows, width = n1.shape
    if width <= _BROADCAST_WIDTH:
        xi = _xor_index(width.bit_length() - 1)
        return (n1[:, None, :] + n2[:, xi]).min(axis=2)
    lo1, lo2 = n1.min(axis=1, keepdims=True), n2.min(axis=1, keepdims=True)
    a, b = n1 - lo1, n2 - lo2
    block = 16  # keeps a block's float transforms (<= 1 MB each) in cache
    span = np.arange(width)
    tops = np.empty(rows, dtype=np.uint8)
    for s in range(0, rows, block):
        # the largest bound of each row (see _minplus_walsh)
        x, y = a[s:s + block], b[s:s + block]
        tops[s:s + block] = np.minimum(
            np.take_along_axis(y, x.argmin(axis=1)[:, None] ^ span, axis=1),
            np.take_along_axis(x, y.argmin(axis=1)[:, None] ^ span, axis=1)).max(axis=1)
    # a block of rows with equal bounds tests the fewest candidate sums
    order = np.argsort(tops, kind="stable")
    c = np.empty_like(a)
    for s in range(0, rows, block):
        o = order[s:s + block]
        c[o] = _minplus_walsh(a[o], b[o], int(tops[o].max()))
    c += lo1
    c += lo2
    return c


def _minplus_walsh(a: np.ndarray, b: np.ndarray, top: int) -> np.ndarray:
    """C_off[u, v] = min_w a[u, w] + b[u, w ^ v], given top >= every C_off.

    Threshold form: with a and b offsets (every row's minimum is 0), C_off[v]
    is the least s with sum_x (A_x * B_{<=s-x})[v] > 0, where A_x = [a = x],
    B_{<=t} = [b <= t] and * is XOR convolution.  Only sums of attained
    offsets are candidates.

    The bound: with w1 a zero of a and w2 a zero of b, bound[v] =
    min(b(w1 ^ v), a(w2 ^ v)) is an attained sum a(w) + b(w ^ v), so C_off
    <= bound; `_minplus_rows` passes the block's largest bound as top.  If
    C_off[v] < top, it is an attained candidate below top and so the first
    hit among them; otherwise C_off[v] = top.  Only the candidates below
    top are tested, only the levels up to the largest of them are
    transformed, and top = 0 needs no transform.

    The convolutions are products of Walsh transforms, each a pair of GEMMs
    with the Kronecker factors of H_width = H_P (x) H_Q on a [level, i, row,
    j] layout (word = i*Q + j).  Forward transforms are at most width, and
    as the A_x have disjoint supports every Walsh-domain sum is at most
    width^2, so they are exact in float32 up to width 2^12 (float64 beyond).

    The inverse is width times a count, so 0 or at least width, and only
    its zeros matter: it runs in the forward dtype and tests <= width / 2.
    By Cauchy-Schwarz and Parseval (||FA_x||^2 = width |A_x|, ||FB||^2 <=
    width^2), sum_a |acc(a)| <= width^2 sqrt(L) over L levels x.  The
    products with +-1 are exact, and summation in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, Lemmas
    3.1 and 3.3) keeps the error of the two GEMM stages within about
    (P + Q) 2^-24 times that in float32: 17 at width 1024 and 17 levels,
    against 512.  That holds while 2 (P + Q) width sqrt(L) < 2^24: the
    offsets of values at most 2^(n-1) <= 64 (MAX_VARS = 7) give L <= 65,
    so every float32 width, up to 2^12, is inside it (8.5e6 at 2^12).
    """
    if not top:
        return np.zeros_like(a)
    rows, width = a.shape
    m = width.bit_length() - 1
    p, q = 1 << m // 2, 1 << m - m // 2

    def wht(x):
        hp, hq = (_sylvester(k, x.dtype.type) for k in (m // 2, m - m // 2))
        y = np.matmul(hp, x.reshape(-1, p, rows * q)).reshape(-1, q) @ hq
        return y.reshape(x.shape)

    has1, has2 = (np.bincount(d.ravel(), minlength=top)[:top] > 0 for d in (a, b))
    sums = np.flatnonzero(np.convolve(has1, has2)[:top])
    lv1, lv2 = (np.flatnonzero(h[:sums[-1] + 1]) for h in (has1, has2))
    fwd = np.float32 if width <= 1 << 12 else np.float64
    d1 = a.reshape(rows, p, q).transpose(1, 0, 2)
    d2 = b.reshape(rows, p, q).transpose(1, 0, 2)
    fa = wht((d1 == lv1[:, None, None, None]).astype(fwd))
    fb = wht((d2 <= lv2[:, None, None, None]).astype(fwd))
    acc = np.zeros((sums.shape[0], p, rows, q), dtype=fwd)
    for i, s in enumerate(sums):
        for k, x in enumerate(lv1[lv1 <= s]):
            acc[i] += fa[k] * fb[np.searchsorted(lv2, s - x, side="right") - 1]
    # a hit at one candidate stays a hit at every larger one
    first = (wht(acc) <= width // 2).sum(axis=0)
    return np.append(sums, top)[first].transpose(1, 0, 2).reshape(rows, width)


@lru_cache(maxsize=None)
def _variable_perms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial tables of every permutation p of x_1..x_{n-1} (x_n fixed).

    Row i of the first ((n-1)!, 2^n) table maps each monomial mask m to
    the mask of x_m o P, where (P x)_j = x_{p(j)}; the second is its
    inverse.  Row 0 is the identity.  Read-only.
    """
    perms = np.array(list(permutations(range(n - 1))), dtype=np.intp)
    masks = np.arange(1 << n)
    table = np.repeat(masks[None] & 1 << n - 1, len(perms), axis=0)  # x_n stays
    for j in range(n - 1):
        table |= (masks >> j & 1) << perms[:, j:j + 1]
    inverse = np.argsort(table, axis=1)
    for t in (table, inverse):
        t.setflags(write=False)
    return table, inverse


def _symmetries(f: BooleanFunction, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maps L(x) = P x + c that fix f's coset mod RM(r, n), with their words.

    P permutes x_1..x_{n-1} and c is any translation.  Returns arrays (p,
    c, sigma) over the group, ordered by p, then c: p is P's row of
    `_variable_perms(n)` and sigma the canonical degree-r word of f o L + f.
    As f o L = (f o tau_c) o P, L fixes the coset when the ANF of the
    translate f o tau_c, its monomials relabelled by P, agrees with f's
    above degree r.  Each translate's truth table swaps the halves of one
    butterfly of the previous one.
    """
    n, size = f.n, 1 << f.n
    masks = _butterfly_masks(n)
    tts = [f.tt]
    for c in range(1, size):
        d = (c & -c).bit_length() - 1
        t, m, h = tts[c ^ (1 << d)], masks[d], 1 << d
        tts.append((t & m) << h | (t >> h) & m)
    anfs = b"".join(mobius(t, n).to_bytes(size // 8, "little") for t in tts)
    # bits[c, m]: the coefficient of x_m in f o tau_c (row 0 is f)
    bits = np.unpackbits(np.frombuffer(anfs, np.uint8), bitorder="little").reshape(size, size)
    table, inverse = _variable_perms(n)
    high = np.flatnonzero(np.bitwise_count(np.arange(size)) > r)
    want = np.packbits(bits[0, table[:, high]], axis=1)
    have = np.packbits(bits[:, high], axis=1)
    p, c = np.nonzero((want[:, None] == have).all(axis=2))
    ms = monomial_masks(n, r)
    word = bits[c[:, None], inverse[p[:, None], ms]] ^ bits[0, ms]
    return p, c, word.astype(np.int64) @ (1 << np.arange(len(ms)))


def translation_periods(f: BooleanFunction, r: int) -> np.ndarray:
    """The degree-r word sigma of f o tau_c + f for each translation tau_c
    that fixes f's coset mod RM(r, n), in the order of c (c = 0 first).

    These are `_symmetries` with P the identity, so T[g ^ sigma] = T[g] on
    f's value table (`nl_table_values`); c -> sigma is linear, so they form
    a group.  Every translation fixes the coset of a function of degree at
    most r + 1.
    """
    p, _, sigma = _symmetries(f, r)
    return sigma[p == 0]


def _word_images(n: int, r: int, perms: np.ndarray) -> np.ndarray:
    """W[w, i]: the (n-1)-variable degree-r word w relabelled by P_perms[i].

    Relabelling permutes the monomials, so it is linear on the words.
    """
    members = np.array(monomial_masks(n - 1, r))
    pos = np.zeros(1 << n, dtype=np.intp)
    pos[members] = np.arange(len(members))
    targets = pos[_variable_perms(n)[0][perms[:, None], members]]
    return xor_span(list(1 << targets.T), np.intp)


def _row_orbits(f: BooleanFunction, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rep(u), perm(u) and shift(u) with C[u, v] = C[rep(u), v^P ^ shift(u)].

    P is the permutation `_variable_perms` row perm(u), and v^P the word
    v relabelled by it.  A symmetry (P, c) with word sigma = sigma_u + x_n
    * sigma_v (see `nl_table_values`) gives C[u, v] = C[rho(u), v^P ^
    sigma_v] with rho(u) = u^P ^ sigma_u.  The translations (P = id) map
    u to the cosets u + span{sigma_u}: reducing u << nv against the RREF
    basis of their keys sigma_u << nv | sigma_v gives the least element
    of u's coset and the sum of the sigma_v on the way.  The maps with one
    P form one coset of the translations, so u's orbit is the union of the
    translation cosets of rho(u) over one map per P, and rep(u) is the
    least of their least elements, the identity winning ties.
    """
    nu, nv = comb(f.n - 1, r), comb(f.n - 1, r - 1)
    p, _, sigma = _symmetries(f, r)
    su, sv = sigma & ((1 << nu) - 1), sigma >> nu
    k = np.arange(1 << nu, dtype=np.intp) << nv
    for b in rref((su[p == 0] << nv | sv[p == 0]).tolist()):
        np.minimum(k, k ^ b, out=k)
    rep, shift = k >> nv, k & ((1 << nv) - 1)
    first = np.flatnonzero(np.diff(p, prepend=-1))  # one map per P
    rho = _word_images(f.n, r, p[first]) ^ su[first]
    best = rep[rho].argmin(axis=1)
    rho = rho[np.arange(1 << nu), best]
    return rep[rho], p[first][best], sv[first][best] ^ shift[rho]


def nl_table_values(f: BooleanFunction, r: int) -> np.ndarray:
    """The value array nl_{r-1}(f + g) over all degree-r words g.

    Indexed by the canonical coefficient word, in which u + x_n * v has
    index u | v << C(n-1, r): the monomials with x_n have the largest
    masks.  For r >= 3, row u of each half's matrix holds the order-(r-1)
    values of f_i + u over the words v, the halves combine by the min-plus
    XOR convolution into C[u, v], and the table is C transposed.

    Symmetries: let L(x) = P x + c, P a permutation of x_1..x_{n-1} and c
    a translation, with f o L + f in RM(r, n), and sigma = sigma_u + x_n *
    sigma_v its degree-r word.  nl_{r-1} is invariant under L and ignores
    terms of degree < r, and T_r(g o L) = g^P, g relabelled by P, so T[g] =
    T[g^P ^ sigma].  As P fixes x_n, (u + x_n * v)^P = u^P + x_n * v^P, so

        C[u, v] = C[u^P ^ sigma_u, v^P ^ sigma_v]:

    rows go to rows, and columns are relabelled, then shifted.  The
    translations (P = id) give C[u ^ sigma_u, v ^ sigma_v] = C[u, v].  The
    min-plus runs on the least row of each orbit of these maps, and the
    other rows are copies with their columns mapped (`_row_orbits`).  Only
    tables whose rows take the Walsh path search for symmetries
    (`_symmetries`); with the identity alone, every row is its own orbit.
    """
    n = f.n
    if not 2 <= r <= n:
        raise ValueError(f"table order r={r} out of range 2..{n}")
    if (1 << comb(n, r)) > TABLE_WORD_CAP:
        raise ValueError(
            f"value table for (n={n}, r={r}) spans 2^{comb(n, r)} words, over the cap"
        )
    if r == 2:
        return _nl1_batch(np.uint64(f.tt) ^ _word_tts(n, 2), n)
    nu, width = comb(n - 1, r), 1 << comb(n - 1, r - 1)
    rows = slice(None)  # every row of C
    if width > _BROADCAST_WIDTH:
        rep, perm, shift = _row_orbits(f, r)
        rows = np.flatnonzero(np.bincount(rep, minlength=1 << nu))
    halves = split(f)
    if r == 3:
        ttu = _word_tts(n - 1, 3)[rows]
        n1, n2 = (_nl1_matrix(h.tt, ttu, n - 1) for h in halves)
    else:
        ms_u = MonomialSet.of(n - 1, r)
        shifts = [ms_u.function(int(u)) for u in np.arange(1 << nu)[rows]]
        n1, n2 = (np.stack([nl_table_values(h + g, r - 1) for g in shifts])
                  for h in halves)
    c = _minplus_rows(n1, n2)
    if c.shape[0] == 1 << nu:
        return c.T.ravel()
    # out[v, u] = C[rep(u), v^P ^ shift(u)], the table as a (v, u) matrix,
    # filled 16 columns at a time (an index of width x 16 intp) from the
    # column images of the permutations in use
    used = np.flatnonzero(np.bincount(perm))
    slot = np.searchsorted(used, perm)
    cols, flat = _word_images(n, r - 1, used), c.ravel()
    base = np.searchsorted(rows, rep) * width
    out = np.empty((width, 1 << nu), dtype=np.uint8)
    for s in range(0, 1 << nu, 16):
        out[:, s:s + 16] = flat[base[s:s + 16] + (cols[:, slot[s:s + 16]] ^ shift[s:s + 16])]
    return out.ravel()


# ---------------------------------------------------------------------------
# nl_r / ml_r
# ---------------------------------------------------------------------------


def nl_r_recursive(f: BooleanFunction, r: int) -> int:
    """Exact nl_r by the split recursion over homogeneous shifts."""
    if not 2 <= r <= f.n - 1:
        raise ValueError(f"recursive order r={r} out of range 2..{f.n - 1}")
    a, b = (nl_table_values(h, r) for h in split(f))
    return int((a + b).min())  # uint8: the halves' values are <= 2^(n-2) <= 32


def nl_r(f: BooleanFunction, r: int) -> int:
    """nl_r for any 0 <= r <= n, dispatching on the order."""
    if r == 0:
        return nl0(f)
    if r == 1:
        return nl1(f)
    if r >= f.n:
        return 0
    return nl_r_recursive(f, r)


def nl_r_bruteforce(f: BooleanFunction, r: int) -> int:
    """Exact nl_r by enumerating every RM(r, n) codeword (oracle scale)."""
    n = f.n
    if not 0 <= r <= n:
        raise ValueError(f"order r={r} out of range")
    masks = [m for m in range(1 << n) if m.bit_count() <= r]
    dim = len(masks)
    if dim > BRUTE_FORCE_DIM_CAP:
        raise ValueError(
            f"RM({r},{n}) has dimension {dim}; brute force capped at "
            f"{BRUTE_FORCE_DIM_CAP}"
        )
    tts = [mobius(1 << m, n) for m in masks]
    # Leave out the constant monomial (masks[0]): the distance to c + 1 is
    # 2^n minus the distance to c.  The 2^(dim-1) codewords c are enumerated
    # as a cache-sized split low (13 generators) x high span, one span pair
    # per 64-bit limb of the truth tables (n = 7 has two).
    size = 1 << n
    dtype = np.uint32 if n <= 5 else np.uint64
    ones = (1 << min(size, 64)) - 1
    limbs = [(xor_span([t >> p & ones for t in tts[1:14]], dtype),
              xor_span([t >> p & ones for t in tts[14:]], dtype) ^ dtype(f.tt >> p & ones))
             for p in range(0, size, 64)]
    best = size
    (low, high), *upper = limbs  # upper: the high limb at n = 7
    for s in range(0, high.shape[0], 16):
        d = np.bitwise_count(high[s:s + 16, None] ^ low)
        for low2, high2 in upper:
            d += np.bitwise_count(high2[s:s + 16, None] ^ low2)
        best = min(best, int(d.min()), size - int(d.max()))
        if best == 0:
            break
    return best


def ml_r(f: BooleanFunction, r: int) -> int:
    """max over degree-(r+1) homogeneous shifts g (and 0) of nl_r(f + g)."""
    if not 1 <= r <= f.n - 1:
        raise ValueError(f"ml order r={r} out of range 1..{f.n - 1}")
    return int(nl_table_values(f, r + 1).max())


# ---------------------------------------------------------------------------
# Value tables as first-class objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NlTable:
    """Full map g -> nl_{r-1}(base + g) over H_n^(r) u {0} coefficient words."""

    base: BooleanFunction
    r: int
    values: np.ndarray  # uint8, length 2^C(n, r)

    def __post_init__(self) -> None:
        expect = 1 << comb(self.base.n, self.r)
        if self.values.shape != (expect,):
            raise ValueError(
                f"value array has {self.values.shape} entries, expected {expect}"
            )
        if self.values.dtype != np.uint8:
            raise ValueError(f"value array has dtype {self.values.dtype}, expected uint8")
        top = int(self.values.max())
        if top > 1 << self.base.n - 1:
            raise ValueError(f"value {top} exceeds 2^(n-1) = {1 << self.base.n - 1}")
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def nl_prev(self) -> int:
        """nl_{r-1}(base): the g = 0 entry."""
        return int(self.values[0])

    @property
    def ml_prev(self) -> int:
        """ml_{r-1}(base): the largest attained level."""
        return int(self.values.max())

    def level_counts(self) -> dict[int, int]:
        # one level at a time: a bincount would widen all values to int64
        counts = (int(np.count_nonzero(self.values == k))
                  for k in range(self.ml_prev + 1))
        return {k: c for k, c in enumerate(counts) if c}

    def level_set(self, k: int) -> np.ndarray:
        """Indices (coefficient words) of F(k), ascending."""
        return np.flatnonzero(self.values == k).astype(np.uint32)

    # ---- NLT1 serialization ----

    def _head(self) -> bytes:
        hextt = self.base.to_hex().encode()
        return (
            NLT_MAGIC
            + bytes([self.base.n, self.r, len(hextt)])
            + hextt
            + bytes([len(NLT_ORDER_TAG)])
            + NLT_ORDER_TAG
            + len(self.values).to_bytes(4, "little")
        )

    def sha256(self) -> str:
        """Hex sha256 of the NLT1 payload (header, then the values)."""
        return self._sha256

    @cached_property
    def _sha256(self) -> str:
        # hashed once per table: the values are read-only
        return payload_sha256(self._head(), self.values)

    def save(self, path, meta: dict | None = None) -> None:
        save_artifact(path, self._head(), self.values, meta)

    @classmethod
    def load(cls, path) -> "NlTable":
        return cls.load_with_meta(path)[0]

    @classmethod
    def load_with_meta(cls, path) -> tuple["NlTable", dict]:
        raw = read_artifact(path, NLT_MAGIC)
        pos = 4

        def take(k: int) -> bytes:
            nonlocal pos
            if len(raw) < pos + k:
                raise ValueError(f"{path}: input hash mismatch (truncated header)")
            pos += k
            return raw[pos - k:pos]

        n, r, hexlen = take(3)
        hextt = take(hexlen).decode()
        tag = take(take(1)[0])
        if tag != NLT_ORDER_TAG:
            raise ValueError(f"{path}: unknown monomial ordering tag {tag!r}")
        count = int.from_bytes(take(4), "little")
        if count != 1 << comb(n, r):
            raise ValueError(f"{path}: count {count} inconsistent with (n={n}, r={r})")
        meta = artifact_meta(path, raw, pos + count)
        values = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
        return cls(BooleanFunction.from_hex(hextt, n), r, values), meta


# ---------------------------------------------------------------------------
# NLT1/AMS1 files: a header, the payload array, then a META trailer (u32
# length + JSON) with the producing command and the sha256 of header and
# payload.  The trailer is mandatory: a file without it is refused.
# ---------------------------------------------------------------------------


def payload_sha256(head: bytes, payload: np.ndarray) -> str:
    """Hex sha256 of a header and its payload, hashed without a copy."""
    digest = hashlib.sha256(head)
    digest.update(payload)
    return digest.hexdigest()


def save_artifact(path, head: bytes, payload: np.ndarray, meta: dict | None) -> None:
    blob = dict(meta or {})
    blob["sha256"] = payload_sha256(head, payload)
    enc = json.dumps(blob, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
        fh.write(_META_MAGIC + len(enc).to_bytes(4, "little") + enc)


def read_artifact(path, magic: bytes) -> bytes:
    """The bytes of an artifact file whose first four bytes are `magic`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise ValueError(f"{path}: bad magic, not an {magic.decode()} file")
    return raw


def artifact_meta(path, raw: bytes, end: int) -> dict:
    """The META trailer after raw[:end], checked against the sha256 of raw[:end]."""
    if len(raw) < end:
        raise ValueError(f"{path}: input hash mismatch (truncated payload)")
    if raw[end:end + 4] != _META_MAGIC:
        raise ValueError(f"{path}: input hash mismatch (no META trailer)")
    mlen = int.from_bytes(raw[end + 4:end + 8], "little")
    meta = json.loads(raw[end + 8:end + 8 + mlen])
    if meta.get("sha256") != hashlib.sha256(memoryview(raw)[:end]).hexdigest():
        raise ValueError(f"{path}: input hash mismatch")
    return meta


def build_nl_table(base: BooleanFunction, r: int) -> NlTable:
    """Build the full value table for `base` at order r."""
    return NlTable(base, r, nl_table_values(base, r))


# ---------------------------------------------------------------------------
# Covering condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoveringVerdict:
    holds: bool
    h: int | None = None
    g_word: int | None = None


def check_covering_condition(t1: NlTable, t2: NlTable, t: int) -> CoveringVerdict:
    """Does F_{f1}(h) lie inside union_{k >= t-h} F_{f2}(k) for every h?

    That is t1(g) + t2(g) >= t for every word g, the sum whose minimum
    nl_r_recursive takes, so the condition is sound and complete for
    nl_r(f1 || f2) >= t.  The two tables are interchangeable.  On failure,
    returns the violating (h, g) with the lowest level h = t1(g) and, at
    that level, the smallest coefficient word g.
    """
    if (t1.n, t1.r) != (t2.n, t2.r):
        raise ValueError("tables have mismatched (n, r)")
    v1 = t1.values
    # uint8: NlTable keeps each value <= 2^(n-1), so with n <= MAX_VARS = 7
    # no sum exceeds 2^7 = 128
    total = v1 + t2.values
    if int(total.min()) >= t:
        return CoveringVerdict(True)
    bad = np.flatnonzero(total < t)
    g = bad[np.argmin(v1[bad])]
    return CoveringVerdict(False, int(v1[g]), int(g))


# ---------------------------------------------------------------------------
# Induced action on coefficient words
# ---------------------------------------------------------------------------


def transform_words(words: np.ndarray, n: int, r: int, L,
                    shift: BooleanFunction | None = None) -> np.ndarray:
    """Apply g -> T_r(g o L) (+ optional shift word T_r(shift)) to an array
    of degree-r coefficient words."""
    ms = MonomialSet.of(n, r)
    lo, hi = ms.action(L)
    half = len(ms) // 2
    w = np.asarray(words, dtype=np.uint32)
    out = lo[w & np.uint32((1 << half) - 1)] ^ hi[w >> np.uint32(half)]
    if shift is not None:
        out ^= np.uint32(ms.anf_to_word(shift.anf))
    return out
