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

Everything heavy is dense BLAS work.  Order-1 spectra are float32 GEMMs with
the Sylvester-Hadamard matrix; for the degree-3 tables one GEMM per block of
half-words u covers every quadratic word w.  The two half-tables combine by
a min-plus XOR convolution, evaluated as a threshold convolution in the
Walsh domain with float64 GEMMs (a direct broadcast minimum for rows of
width <= 64).  A full (n=6, r=3) table (2^20 entries) builds in 0.3-0.8 s on
a shared 2-core Xeon VM in its slow state (Python 3.11.7, numpy 2.4.6,
OpenBLAS 0.3.31).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .boolfn import (
    BooleanFunction,
    MonomialSet,
    monomial_masks,
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
    "LevelSet",
    "build_nl_table",
    "nl_table_values",
    "CoveringVerdict",
    "check_covering_condition",
    "ParityVerdict",
    "parity_check",
    "word_transform_columns",
    "transform_words",
    "TABLE_WORD_CAP",
    "BRUTE_FORCE_DIM_CAP",
]

# Largest 2^C(n,r) a value table may span (the (6,3) pipeline needs 2^20).
TABLE_WORD_CAP = 1 << 24
# Largest RM(r,n) dimension the brute-force oracle enumerates.  The (5,3)
# oracle-equivalence check needs dim RM(3,5) = 26.
BRUTE_FORCE_DIM_CAP = 26

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


def _monomial_tt(n: int, mask: int) -> int:
    tt = 0
    for x in range(1 << n):
        if x & mask == mask:
            tt |= 1 << x
    return tt


@lru_cache(maxsize=None)
def _word_tts(n: int, r: int) -> np.ndarray:
    """Truth tables (uint64) of every H_n^(r) coefficient word."""
    return xor_span([_monomial_tt(n, m) for m in monomial_masks(n, r)], np.uint64)


@lru_cache(maxsize=None)
def _xor_index(m: int) -> np.ndarray:
    idx = np.arange(1 << m, dtype=np.intp)
    table = idx[:, None] ^ idx[None, :]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _spread_tables(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter tables embedding (u, v) half-words into the canonical word.

    A degree-r word g of n variables decomposes as g = u + x_n * v with
    u over H_{n-1}^(r) and v over H_{n-1}^(r-1); the tables map each half
    word to its bits' positions inside the canonical H_n^(r) index.
    """
    full_index = {m: i for i, m in enumerate(monomial_masks(n, r))}
    top = 1 << (n - 1)
    u_bits = [1 << full_index[m] for m in monomial_masks(n - 1, r)]
    v_bits = [1 << full_index[m | top] for m in monomial_masks(n - 1, r - 1)]
    return xor_span(u_bits, np.uint32), xor_span(v_bits, np.uint32)


def _nl1_matrix(base_tt: int, ttu: np.ndarray, ttw: np.ndarray, n: int) -> np.ndarray:
    """nl1(base + u + w) for all (u, w) word pairs, as a (U, W) uint8 matrix.

    For a block of u, the spectra of base + u + w over every w are one GEMM:
    signs(w) @ [diag(signs(base + u)) H], stacked over the block.  Every
    spectrum entry is an integer of absolute value at most 2^n <= 32, so
    float32 is exact.
    """
    size = 1 << n
    sw = _signs(ttw, n)
    su = _signs(np.uint64(base_tt) ^ ttu, n)
    h = _sylvester(n, np.float32)
    out = np.empty((su.shape[0], sw.shape[0]), dtype=np.uint8)
    block = 16  # a (16 * 2^n, W) float32 spectra block: 2 MB at (6,3)
    for s in range(0, su.shape[0], block):
        # rows (a, u) of H[a, x] * signs(base + u)[x]; the max over a is then
        # an elementwise maximum of contiguous (u, w) planes
        m = (h[:, None, :] * su[s:s + block]).reshape(-1, size)
        spectra = m @ sw.T
        np.abs(spectra, out=spectra)
        peak = spectra.reshape(size, -1, sw.shape[0]).max(axis=0)
        out[s:s + block] = (size >> 1) - peak / 2
    return out


def _minplus_rows(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Row-wise min-plus XOR convolution: C[u, v] = min_w n1[u,w] + n2[u, w^v].

    Rows of width <= 64 take the direct broadcast minimum; wider rows go
    through the Walsh-domain threshold convolution in blocks of rows.
    """
    rows, width = n1.shape
    if width <= 64:
        xi = _xor_index(width.bit_length() - 1)
        return (n1[:, None, :] + n2[:, xi]).min(axis=2)
    out = np.empty((rows, width), dtype=np.uint8)
    block = 16  # keeps a block's float64 transforms (~1 MB each) in cache
    for s in range(0, rows, block):
        out[s:s + block] = _minplus_walsh(n1[s:s + block], n2[s:s + block])
    return out


def _minplus_walsh(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Threshold form of the min-plus XOR convolution.

    With offsets a = n1 - min(row), b = n2 - min(row), C[u, v] - the two
    row minima is the least s with sum_x (A_x * B_{<=s-x})[v] > 0, where
    A_x = [a = x], B_{<=t} = [b <= t] and * is XOR convolution.  Only sums
    of attained offsets are candidates.  The convolutions are products of
    Walsh transforms, each a pair of GEMMs with the Kronecker factors of
    H_width = H_P (x) H_Q on a [level, i, row, j] layout (word = i*Q + j).
    The A_x have disjoint supports, so every Walsh-domain sum is at most
    width^2 and every partial sum of the inverse transform at most
    width^3 = 2^30 for width 1024: float64 (exact below 2^53) is exact.
    """
    rows, width = n1.shape
    m = width.bit_length() - 1
    hp, hq = _sylvester(m // 2, np.float64), _sylvester(m - m // 2, np.float64)
    p, q = hp.shape[0], hq.shape[0]

    def wht(x):
        y = np.matmul(hp, x.reshape(-1, p, rows * q)).reshape(-1, q) @ hq
        return y.reshape(x.shape)

    lo1, lo2 = n1.min(axis=1), n2.min(axis=1)
    d1 = (n1 - lo1[:, None]).reshape(rows, p, q).transpose(1, 0, 2)
    d2 = (n2 - lo2[:, None]).reshape(rows, p, q).transpose(1, 0, 2)
    lv1 = np.unique(d1).astype(np.intp)
    lv2 = np.unique(d2).astype(np.intp)
    fa = wht((d1 == lv1[:, None, None, None]).astype(np.float64))
    fb = wht((d2 <= lv2[:, None, None, None]).astype(np.float64))
    # at the largest candidate every v qualifies, so it needs no transform
    sums = np.unique(lv1[:, None] + lv2[None, :])
    acc = np.zeros((sums.shape[0] - 1, p, rows, q))
    for i, s in enumerate(sums[:-1]):
        for k, x in enumerate(lv1):
            t = np.searchsorted(lv2, s - x, side="right") - 1
            if t >= 0:
                acc[i] += fa[k] * fb[t]
    # a hit at one candidate stays a hit at every larger one
    first = (wht(acc) <= 0).sum(axis=0)
    c = sums[first] + lo1[None, :, None] + lo2[None, :, None]
    return c.transpose(1, 0, 2).reshape(rows, width)


def _scatter(c: np.ndarray, n: int, r: int) -> np.ndarray:
    """Place C[u, v] at the canonical index of the word u + x_n * v."""
    spread_u, spread_v = _spread_tables(n, r)
    out = np.empty(1 << comb(n, r), dtype=np.uint8)
    for s in range(0, c.shape[0], 64):  # bounds the index temporary to 256 KB
        out[spread_u[s:s + 64, None] | spread_v] = c[s:s + 64]
    return out


def nl_table_values(f: BooleanFunction, r: int) -> np.ndarray:
    """The value array nl_{r-1}(f + g) over all degree-r words g.

    Indexed by the canonical coefficient word.  For r >= 3, row u of each
    half's matrix holds the order-(r-1) values of f_i + u over the words v,
    and the halves combine by the min-plus XOR convolution.
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
    halves = split(f)
    if r == 3:
        ttu, ttw = _word_tts(n - 1, 3), _word_tts(n - 1, 2)
        n1, n2 = (_nl1_matrix(h.tt, ttu, ttw, n - 1) for h in halves)
    else:
        ms_u = MonomialSet.of(n - 1, r)
        shifts = [ms_u.function(u) for u in range(1 << comb(n - 1, r))]
        n1, n2 = (np.stack([nl_table_values(h + g, r - 1) for g in shifts])
                  for h in halves)
    return _scatter(_minplus_rows(n1, n2), n, r)


# ---------------------------------------------------------------------------
# nl_r / ml_r
# ---------------------------------------------------------------------------


def nl_r_recursive(f: BooleanFunction, r: int) -> int:
    """Exact nl_r by the split recursion over homogeneous shifts."""
    if not 2 <= r <= f.n - 1:
        raise ValueError(f"recursive order r={r} out of range 2..{f.n - 1}")
    f1, f2 = split(f)
    a = nl_table_values(f1, r)
    b = nl_table_values(f2, r)
    return int((a.astype(np.uint16) + b).min())


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
    tts = [_monomial_tt(n, m) for m in masks]
    if n == 7:
        # 128-bit truth tables; only tiny dimensions pass the cap here
        best = 1 << n
        for bits in range(1 << dim):
            acc = f.tt
            bb = bits
            while bb:
                lowbit = bb & -bb
                acc ^= tts[lowbit.bit_length() - 1]
                bb ^= lowbit
            best = min(best, acc.bit_count())
        return best
    # Leave out the constant monomial (masks[0]): the distance to c + 1 is
    # 2^n minus the distance to c.  The 2^(dim-1) codewords c are enumerated
    # as a cache-sized split low (13 generators) x high span.
    size = 1 << n
    dtype = np.uint32 if n <= 5 else np.uint64
    spans = []
    for gens in (tts[1:14], tts[14:]):
        span = np.zeros(1 << len(gens), dtype=dtype)
        for i, t in enumerate(gens):
            span[1 << i:2 << i] = span[:1 << i] ^ dtype(t)
        spans.append(span)
    low, high = spans[0], spans[1] ^ dtype(f.tt)
    best = size
    for s in range(0, high.shape[0], 16):
        d = np.bitwise_count(high[s:s + 16, None] ^ low)
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
class LevelSet:
    """Membership bitset of F(k) = {g : nl_{r-1}(base + g) = k}."""

    k: int
    members: np.ndarray  # bool, one bit per coefficient word

    @property
    def cardinality(self) -> int:
        return int(self.members.sum())


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

    def level(self, k: int) -> LevelSet:
        return LevelSet(k, self.values == k)

    def membership(self, ks) -> np.ndarray:
        """Boolean bitmap of the union of the given level sets."""
        lut = np.zeros(256, dtype=bool)  # indexed by uint8 values: no wide temporaries
        lut[list(ks)] = True
        return lut[self.values]

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
        digest = hashlib.sha256(self._head())
        digest.update(self.values)
        return digest.hexdigest()

    def save(self, path, meta: dict | None = None) -> None:
        blob = dict(meta or {})
        blob["sha256"] = self.sha256()
        enc = json.dumps(blob, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(self._head())
            fh.write(self.values)
            fh.write(_META_MAGIC + len(enc).to_bytes(4, "little") + enc)

    @classmethod
    def load(cls, path, verify: bool = True) -> "NlTable":
        table, _ = cls.load_with_meta(path, verify)
        return table

    @classmethod
    def load_with_meta(cls, path, verify: bool = True) -> tuple["NlTable", dict]:
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != NLT_MAGIC:
            raise ValueError(f"{path}: bad magic, not an NLT1 file")
        n, r, hexlen = raw[4], raw[5], raw[6]
        pos = 7
        hextt = raw[pos:pos + hexlen].decode()
        pos += hexlen
        taglen = raw[pos]
        pos += 1
        tag = raw[pos:pos + taglen]
        pos += taglen
        if tag != NLT_ORDER_TAG:
            raise ValueError(f"{path}: unknown monomial ordering tag {tag!r}")
        count = int.from_bytes(raw[pos:pos + 4], "little")
        pos += 4
        if count != 1 << comb(n, r):
            raise ValueError(f"{path}: count {count} inconsistent with (n={n}, r={r})")
        end = pos + count
        if len(raw) < end:
            raise ValueError(f"{path}: input hash mismatch (truncated payload)")
        values = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
        meta: dict = {}
        if raw[end:end + 4] == _META_MAGIC:
            mlen = int.from_bytes(raw[end + 4:end + 8], "little")
            meta = json.loads(raw[end + 8:end + 8 + mlen])
            if verify and "sha256" in meta:
                if hashlib.sha256(memoryview(raw)[:end]).hexdigest() != meta["sha256"]:
                    raise ValueError(f"{path}: input hash mismatch")
        base = BooleanFunction.from_hex(hextt, n)
        return cls(base, r, values), meta


def build_nl_table(base: BooleanFunction, r: int) -> NlTable:
    """Build the full value table for `base` at order r."""
    return NlTable(base, r, nl_table_values(base, r))


# ---------------------------------------------------------------------------
# Covering condition and parity rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoveringVerdict:
    holds: bool
    h: int | None = None
    g_word: int | None = None


def check_covering_condition(t1: NlTable, t2: NlTable, t: int) -> CoveringVerdict:
    """Does F_{f1}(h) lie inside union_{k >= t-h} F_{f2}(k) for every h?

    Sound and complete for nl_r(f1 || f2) >= t.  The two tables are
    interchangeable.  On failure, returns the first violating (h, g) with h
    ascending and g the smallest coefficient word.
    """
    if (t1.n, t1.r) != (t2.n, t2.r):
        raise ValueError("tables have mismatched (n, r)")
    v1, v2 = t1.values, t2.values
    floor2 = int(v2.min())
    # h ascending; each test is an O(1) lookup against the suffix bitmap of t2
    for h in sorted(np.unique(v1).tolist()):
        theta = t - h
        if theta <= floor2:
            continue  # suffix union is the whole word space
        suffix_ok = v2 >= theta
        members = np.flatnonzero(v1 == h)
        bad = members[~suffix_ok[members]]
        if bad.size:
            return CoveringVerdict(False, int(h), int(bad[0]))
    return CoveringVerdict(True)


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
    total = nl_r(f, r)
    a = nl_r(f1, r)
    b = nl_r(f2, r)
    ok = total % 2 == 0 or (a + b) % 2 == 1
    return ParityVerdict(ok, total, a, b)


# ---------------------------------------------------------------------------
# Induced action on coefficient words
# ---------------------------------------------------------------------------


def word_transform_columns(n: int, r: int, L, shift: BooleanFunction | None = None):
    """Images T_r(m o L) of each basis monomial, as coefficient words.

    The induced map on coefficient words is linear; together with an optional
    additive shift word T_r(shift) it realizes g -> T_r(g o L + shift).
    """
    from .boolfn import apply_affine, popcount_mask

    ms = MonomialSet.of(n, r)
    cols = []
    for mask in ms.members:
        g = BooleanFunction.from_anf(n, 1 << mask)
        img = apply_affine(g, L)
        cols.append(ms.anf_to_word(img.anf & popcount_mask(n, r)))
    shift_word = 0
    if shift is not None:
        shift_word = ms.anf_to_word(shift.anf)
    return cols, shift_word


def transform_words(words: np.ndarray, n: int, r: int, L,
                    shift: BooleanFunction | None = None) -> np.ndarray:
    """Apply g -> T_r(g o L) (+ optional shift word) to an array of words."""
    cols, shift_word = word_transform_columns(n, r, L, shift)
    half = len(cols) // 2
    lo, hi = xor_span(cols[:half], np.uint32), xor_span(cols[half:], np.uint32)
    w = np.asarray(words, dtype=np.uint32)
    out = lo[w & np.uint32((1 << half) - 1)] ^ hi[w >> np.uint32(half)]
    if shift_word:
        out ^= np.uint32(shift_word)
    return out
