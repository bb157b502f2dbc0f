"""AGL(6)-orbit enumeration on the cosets of RM(3,6) in RM(6,6).

A coset f + RM(3,6) is identified by its 22-bit key: the ANF coefficients of
the 15 degree-4, 6 degree-5 and 1 degree-6 monomials of any representative,
in canonical (ascending mask) monomial order, i.e. its word over the
`MonomialSet` of those monomials.  The induced action of an affine map on
keys is linear, so a generator acts through the set's two 2048-entry lookup
tables (`MonomialSet.action`) and the searches run on flat numpy arrays.

Orbit lengths are walked over translation classes.  The translations
x -> x + c form a normal subgroup of AGL(6,2), so every affine map sends a
translation class of keys onto a translation class, and an orbit of AGL(6,2)
is a union of whole classes.  A translation fixes the degree-4 bits of a
key up to a vector that depends only on the degree->=5 bits (the key's
pattern), so the pattern fixes the class's shape.  With the degree-6 bit set,
the 64 translates have 64 distinct degree-5 parts and one of them has none;
with the degree-6 bit clear and a degree-5 bit set, translations add the
rank-5 image of a linear map to the degree-4 bits (32 keys); degree-4 keys
are fixed (1 key).  That makes 32,768 + 64,512 + 32,768 = 130,048 classes.  Their shapes are derived
from the translations' actions on the 128 patterns, not written down: a
key's canonical class member is its translate of least pattern, reduced to
the least key of that pattern's coset of translation vectors (a reduced
row-echelon basis per pattern).

`orbit_lengths` and `bfs_orbit` share one walk over canonical keys
(`_class_walk`), with one visited flag per key.  A level's candidates are
the canonical keys of its keys' images under the generators.  Each
unvisited candidate is packed as key << P | position (position = parent *
len(gens) + generator, P bits wide) and the packed words are sorted once:
the first word of each key's run is the key's earliest candidate, which
claims it, and the claims in key order are the next level.  Orbit lengths
are sums of class sizes.  `bfs_orbit` also records, for each claimed class,
the matrix part of the map that reached it from (start, identity): one
matrix per translation class of the orbit, which is what the type-(6,10)
sweep needs (13,888 for fn_10's orbit of 888,832 cosets).  The queue search
over single keys, which records 130,844 matrices for fn_10, is the tests'
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .boolfn import BooleanFunction, MonomialSet, apply_affine, monomial_masks, rref, xor_span
from .classify import NUM_CLASSES, fn_rep
from .field import AffineMap, agl_generators
from .nonlin import artifact_meta, read_artifact, save_artifact

__all__ = [
    "KEY_BITS",
    "coset_key",
    "key_lift",
    "coset_act",
    "image_keys",
    "OrbitResult",
    "bfs_orbit",
    "canonical_keys",
    "class_sizes",
    "orbit_lengths",
    "all_orbit_lengths",
    "MatrixSet",
    "gf2_minors",
    "gf2_det",
]

_KEYS = MonomialSet(6, tuple(m for m in range(64) if m.bit_count() >= 4))
KEY_BITS = len(_KEYS)
_HALF_BITS = KEY_BITS // 2
_HALF_MASK = np.uint32((1 << _HALF_BITS) - 1)
_AMS_MAGIC = b"AMS1"


def coset_key(f: BooleanFunction) -> int:
    """22-bit key of f + RM(3,6): the degree->=4 ANF coefficients."""
    if f.n != 6:
        raise ValueError("coset keys are defined for 6 variables")
    return _KEYS.anf_to_word(f.anf)


def key_lift(key: int) -> BooleanFunction:
    """The homogeneous degree->=4 representative of a coset key."""
    if not 0 <= key < 1 << KEY_BITS:
        raise ValueError("key out of range")
    return _KEYS.function(key)


def coset_act(key: int, L: AffineMap) -> int:
    """Key of (representative o L) + RM(3,6); a right action on keys."""
    return coset_key(apply_affine(key_lift(key), L))


def image_keys(f: BooleanFunction, matrix_keys) -> np.ndarray:
    """coset_key(f o A) (uint32) for each packed matrix A (see `MatrixSet`).

    The point A x is the XOR of the spans of A's columns 0-2 at x mod 8
    and 3-5 at x // 8; f o A's truth table gathers f's bits at the 64
    points, packed into one 64-bit word per matrix, and a Moebius transform
    of the words gives the ANFs whose degree->=4 bits are the keys.
    """
    if f.n != 6:
        raise ValueError("coset keys are defined for 6 variables")
    m = np.asarray(matrix_keys, dtype=np.uint64)
    spread = xor_span([1 << 6 * j for j in range(6)], np.uint64)  # bit j -> bit 6j
    f_bits = np.array([f.tt >> x & 1 for x in range(64)], dtype=np.uint8)
    words = np.empty(m.shape, dtype="<u8")
    for s in range(0, m.size, 4096):  # blocks keep the temporaries small
        t = np.bitwise_or.reduce([spread[m[s:s + 4096] >> 6 * i & 63] << i for i in range(6)])
        cols = [(t >> 6 * j & 63).astype(np.uint8) for j in range(6)]  # the rows of A^T
        # one C-order row of 64 points per matrix, as packbits is fast on those
        lo, hi = (np.ascontiguousarray(xor_span(c, np.uint8).T)
                  for c in (cols[:3], cols[3:]))
        tt = np.packbits(f_bits[(lo[:, None, :] ^ hi[:, :, None]).reshape(-1, 64)],
                         axis=1, bitorder="little")
        words[s:s + 4096] = tt.view("<u8")[:, 0]
    for i in range(6):  # a_x ^= a_(x - 2^i) at the points x with bit i set
        words ^= (words & sum(1 << x for x in range(64) if not x >> i & 1)) << (1 << i)
    keys = np.zeros(m.shape, dtype=np.uint32)
    for k, mono in enumerate(_KEYS.members):
        keys |= (words >> mono & 1).astype(np.uint32) << k
    return keys


def _row_map(L: AffineMap) -> np.ndarray:
    """Entry r | r' << 6: the row masks r A | r' A << 6 of L's matrix A."""
    one = xor_span([sum(e << j for j, e in enumerate(row)) for row in L.A], np.uint64)
    return (one | one[:, None] << 6).reshape(-1)


@lru_cache(maxsize=None)
def gf2_minors() -> np.ndarray:
    """The 3x3 minors of every 3x6 GF(2) matrix (read-only uint32), indexed
    by its packed rows a | b << 6 | c << 12.  Bit i is the minor on the
    columns of cubic monomial 19 - i, the complement of cubic i.  Expanded
    along row c, the minor on columns J is the XOR over j in J of c_j times
    the 2x2 minor of a, b on J - {j}; so the table is the XOR span, over the
    bits of c, of six 4096-entry arrays indexed by a | b << 6.
    """
    ab = np.arange(1 << 12, dtype=np.uint32)
    a, b = ab & 63, ab >> 6
    parts = np.zeros((6, ab.size), dtype=np.uint32)
    for i, m in enumerate(reversed(monomial_masks(6, 3))):
        cols = [j for j in range(6) if m >> j & 1]
        for j in cols:
            p, q = (k for k in cols if k != j)
            parts[j] |= ((a >> p & b >> q ^ a >> q & b >> p) & 1) << i
    return xor_span(parts, np.uint32).reshape(-1)


def gf2_det(keys: np.ndarray) -> np.ndarray:
    """The determinants (uint8) of packed keys below 2^36; see `MatrixSet`."""
    minors = gf2_minors()
    top = minors[keys & (1 << 18) - 1]
    rev = xor_span([1 << 19 - j for j in range(10)], np.uint32)  # bit j -> 19 - j
    top = rev[top & 1023] | rev[top >> 10] >> 10
    return np.bitwise_count(top & minors[keys >> 18]) & 1


@dataclass(frozen=True)
class MatrixSet:
    """Deduplicated invertible GF(2) matrices, sorted by packed key.

    Bit 6*i + j of a key is entry (i, j) of its matrix.  A key's low 18
    bits are rows 0-2 and its high 18 bits rows 3-5, each a `gf2_minors`
    index.  Laplace's expansion along rows 0-2 gives det A as
    the XOR over column triples J of det A[012, J] * det A[345, J^c]; the
    table's bit i holds the minor on cubic 19 - i, so with the low rows'
    word bit-reversed, det A is the parity of the AND of the two words.
    """

    members: np.ndarray  # contiguous little-endian uint64 (hashed, saved), ascending

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.members, dtype="<u8")
        object.__setattr__(self, "members", m)
        if m.ndim != 1 or (m[1:] <= m[:-1]).any():
            raise ValueError("matrix keys must be strictly ascending")
        if m.size and m[-1] >> 36:
            raise ValueError("matrix keys must be below 2^36")
        if not gf2_det(m).all():
            raise ValueError("matrix set contains a singular matrix")
        m.setflags(write=False)

    def __len__(self) -> int:
        return int(self.members.shape[0])

    def save(self, path, meta: dict | None = None) -> None:
        head = _AMS_MAGIC + len(self.members).to_bytes(4, "little")
        save_artifact(path, head, self.members, meta)

    @classmethod
    def load(cls, path) -> "MatrixSet":
        return cls.load_with_meta(path)[0]

    @classmethod
    def load_with_meta(cls, path) -> tuple["MatrixSet", dict]:
        raw = read_artifact(path, _AMS_MAGIC)
        count = int.from_bytes(raw[4:8], "little")
        meta = artifact_meta(path, raw, 8 + 8 * count)
        return cls(np.frombuffer(raw, dtype="<u8", count=count, offset=8)), meta


def _sorted_distinct(a: np.ndarray, shift: int) -> np.ndarray:
    """Sorted a, keeping the first element of each run of equal a >> shift."""
    a = np.sort(a)
    k = a >> shift
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(k[1:], k[:-1], out=keep[1:])
    return a[keep]


def _act(table: tuple[np.ndarray, np.ndarray], keys: np.ndarray) -> np.ndarray:
    lo, hi = table
    return lo[keys & _HALF_MASK] ^ hi[keys >> _HALF_BITS]


class _Classes(NamedTuple):
    """Translation-class data per pattern p (the key's degree->=5 bits).

    p = pat_lo[key & half mask] | pat_hi[key >> half bits]; key ^ shift[p] is
    the key's translate of least pattern q; basis[:, p] is the zero-padded
    RREF basis of the translation vectors that fix q; size[p] counts the keys
    of the class.
    """

    pat_lo: np.ndarray
    pat_hi: np.ndarray
    shift: np.ndarray
    basis: np.ndarray
    size: np.ndarray


@lru_cache(maxsize=None)
def _translation_classes() -> _Classes:
    high = [i for i, m in enumerate(_KEYS.members) if m.bit_count() >= 5]
    bit = [1 << high.index(i) if i in high else 0 for i in range(KEY_BITS)]
    pat_lo = xor_span(bit[:_HALF_BITS], np.uint8)
    pat_hi = xor_span(bit[_HALF_BITS:], np.uint8)
    heads = xor_span([1 << i for i in high], np.uint32)  # pattern p, no degree-4 bits
    ident = AffineMap.identity(6).A
    units = [_KEYS.action(AffineMap(2, 6, ident, tuple(int(i == j) for j in range(6))))
             for i in range(6)]
    # translates[c, p]: heads[p] under x -> x + c, composed from unit translations
    translates = np.empty((64, heads.size), dtype=np.uint32)
    translates[0] = heads
    for c in range(1, 64):
        i = (c & -c).bit_length() - 1
        translates[c] = _act(units[i], translates[c ^ (1 << i)])
    vectors = translates ^ heads
    pats = pat_lo[translates & _HALF_MASK] | pat_hi[translates >> _HALF_BITS]
    cols = np.arange(heads.size)
    least = pats.argmin(axis=0)
    target = pats[least, cols]
    ordered = np.sort(vectors, axis=0)
    size = 1 + (ordered[1:] != ordered[:-1]).sum(axis=0)
    # translations that fix pattern q move its keys within their degree-4 bits
    bases = [rref(set(vectors[pats[:, q] == q, q].tolist())) for q in range(heads.size)]
    basis = np.zeros((max(map(len, bases)), heads.size), dtype=np.uint32)
    for p, q in enumerate(target):
        basis[:len(bases[q]), p] = bases[q]
    classes = _Classes(pat_lo, pat_hi, vectors[least, cols], basis, size)
    for a in classes:
        a.setflags(write=False)
    return classes


def _pattern(t: _Classes, keys: np.ndarray) -> np.ndarray:
    return t.pat_lo[keys & _HALF_MASK] | t.pat_hi[keys >> _HALF_BITS]


def canonical_keys(keys) -> np.ndarray:
    """The canonical member of each key's translation class (uint32)."""
    t = _translation_classes()
    k = np.asarray(keys, dtype=np.uint32)
    p = _pattern(t, k)
    k = k ^ t.shift[p]
    for b in t.basis:
        k = np.minimum(k, k ^ b[p])
    return k


def class_sizes(keys) -> np.ndarray:
    """The number of keys in each key's translation class."""
    t = _translation_classes()
    return t.size[_pattern(t, np.asarray(keys, dtype=np.uint32))]


def _class_walk(start: int, tables: list, visited: np.ndarray):
    """Claim the translation classes of start's orbit, level by level.

    The seed level is start's canonical key.  Each level yields its claimed
    canonical keys (ascending), marked in `visited`, and each claim's
    position parent * len(tables) + generator among the candidates of the
    previous level.  A class is claimed by its first candidate in parent
    order, then generator order; the start's own class is claimed when it is
    re-reached, which always happens in a group orbit.
    """
    ngens = len(tables)
    frontier = canonical_keys([start])
    while frontier.size:
        cand = np.empty(frontier.size * ngens, dtype=np.uint32)
        for gi, table in enumerate(tables):
            cand[gi::ngens] = _act(table, frontier)
        cand = canonical_keys(cand)
        pos = np.flatnonzero(~visited[cand])
        # key << bits | position: the first of each key's run is its
        # earliest candidate, which claims it
        bits = (cand.size - 1).bit_length()
        claims = _sorted_distinct(cand[pos].astype(np.int64) << bits | pos, bits)
        frontier = claims >> bits
        visited[frontier] = True
        yield frontier, claims & ((1 << bits) - 1)


def _key_tables(gens: list[AffineMap]) -> list:
    """The key action tables of AGL(6, F2) generators."""
    if any(g.q != 2 or g.n != 6 for g in gens):
        raise ValueError("orbit search needs AGL(6, F2) generators")
    return [_KEYS.action(g) for g in gens]


@dataclass(frozen=True)
class OrbitResult:
    orbit_size: int
    matrix_set: MatrixSet


def bfs_orbit(start: int, gens: list[AffineMap]) -> OrbitResult:
    """The orbit size of a coset key, and one matrix per translation class.

    The class walk of `orbit_lengths`, seeded with (start, identity): each
    claimed class records the matrix part of its parent's accumulated map
    followed by the claiming generator.  An affine map sends a class onto a
    class and a claim acts on its parent class's canonical key, so for each
    recorded A the key of (start's coset) o A lies in the class that A
    claimed.  A determines that class, so the matrices are distinct.
    """
    tables = _key_tables(gens)
    grow_tabs = [_row_map(g) for g in gens]
    level_A = np.array([sum(1 << 7 * i for i in range(6))], dtype=np.uint64)  # identity
    orbit_size, matrices = 0, []
    for keys, pos in _class_walk(start, tables, np.zeros(1 << KEY_BITS, dtype=bool)):
        orbit_size += int(class_sizes(keys).sum())
        parent, gen = np.divmod(pos, len(gens))
        a = level_A[parent]
        level_A = np.empty_like(a)
        for gi, tab in enumerate(grow_tabs):  # rows 0-1, 2-3 and 4-5 at once
            sel = gen == gi
            b = a[sel]
            level_A[sel] = tab[b & 4095] | tab[b >> 12 & 4095] << 12 | tab[b >> 24] << 24
        matrices.append(level_A)
    return OrbitResult(orbit_size, MatrixSet(np.sort(np.concatenate(matrices))))


def orbit_lengths(starts, gens: list[AffineMap]) -> tuple[int, ...]:
    """Orbit lengths of the start keys, walked over translation classes.

    The generators must generate a group that contains the translations
    (AGL(6,2) itself in every use here), so that orbits are unions of
    classes.  One visited flag per canonical key is shared by all starts:
    a start whose class an earlier start's orbit reached raises ValueError,
    since the orbits would not then be distinct.
    """
    tables = _key_tables(gens)
    visited = np.zeros(1 << KEY_BITS, dtype=bool)  # one flag per canonical key
    lengths = []
    for start in starts:
        if visited[canonical_keys([start])[0]]:
            raise ValueError(f"start key {start} lies in an earlier start's orbit")
        lengths.append(sum(int(class_sizes(keys).sum())
                           for keys, _ in _class_walk(start, tables, visited)))
    return tuple(lengths)


def all_orbit_lengths(gens: list[AffineMap] | None = None) -> tuple[int, ...]:
    """Orbit lengths of the eleven class representatives' cosets."""
    if gens is None:
        gens = list(agl_generators(6, 2))
    return orbit_lengths([coset_key(fn_rep(i)) for i in range(NUM_CLASSES)], gens)
