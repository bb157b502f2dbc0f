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
row-echelon basis per pattern).  `orbit_lengths` walks canonical keys with
one visited bit per key, shared by all its starts, and sums class sizes.

The fn_10 run (`bfs_orbit`) walks single keys and accumulates the matrix
parts of the accumulated transformations, exactly as the queue-based search
records them: the search starts from (start coset, identity), expands FIFO
with the generators in the given order, and on each first visit of a coset
via (L o G) stores (L o G).A.  Deduplicating those matrices yields the sweep
set for the type-(6,10) check.

A level is expanded in chunks of parents.  Each unvisited candidate of a
chunk is packed as key << P | position (position = parent * len(gens) +
generator, P bits wide) and the packed words are sorted once: the first word
of each key's run is the key's earliest candidate, which claims it, and the
claimed positions, sorted again, give the next level in FIFO order.  The
matrix keys are merged the same way, by a sort and a mask of the first of
each run of equal words.
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
    "OrbitResult",
    "bfs_orbit",
    "canonical_keys",
    "class_sizes",
    "orbit_lengths",
    "all_orbit_lengths",
    "MatrixSet",
    "gf2_pack_rows",
    "gf2_unpack_keys",
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


def _row_map(L: AffineMap) -> np.ndarray:
    """Entry r | r' << 6: the row masks r A | r' A << 6 of L's matrix A."""
    one = xor_span([sum(e << j for j, e in enumerate(row)) for row in L.A], np.uint64)
    return (one | one[:, None] << 6).reshape(-1)


_ROW_SHIFTS = np.arange(0, 36, 6, dtype=np.uint64)


def gf2_pack_rows(rows: np.ndarray) -> np.ndarray:
    """(N, 6) row masks -> uint64 keys, bit 6*i+j = entry (i, j)."""
    return np.bitwise_or.reduce(rows.astype(np.uint64) << _ROW_SHIFTS, axis=1)


def gf2_unpack_keys(keys: np.ndarray) -> np.ndarray:
    """uint64 keys -> (N, 6) row masks."""
    return (np.asarray(keys, dtype=np.uint64)[:, None] >> _ROW_SHIFTS & 63).astype(np.uint8)


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

    A key's low 18 bits are rows 0-2 and its high 18 bits rows 3-5, each a
    `gf2_minors` index.  Laplace's expansion along rows 0-2 gives det A as
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

    def rows(self) -> np.ndarray:
        return gf2_unpack_keys(self.members)

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


@dataclass(frozen=True)
class OrbitResult:
    orbit_size: int
    matrix_set: MatrixSet
    transcript: "OrbitTranscript | None"


@dataclass(frozen=True)
class OrbitTranscript:
    """One reaching record per visited coset, in claim order.

    keys[i] was first reached from the parent at claim position parents[i]
    (-1 for children of the start coset) by applying generator gens[i].
    """

    keys: np.ndarray
    parents: np.ndarray
    gens: np.ndarray

    def word_for(self, key: int) -> list[int]:
        """Generator indices whose left-to-right composition reaches `key`."""
        hit = np.flatnonzero(self.keys == key)
        if not hit.size:
            raise KeyError(key)
        word: list[int] = []
        pos = int(hit[0])
        while pos != -1:
            word.append(int(self.gens[pos]))
            pos = int(self.parents[pos])
        return word[::-1]


_CHUNK = 1 << 15  # parents expanded at once


def _sorted_distinct(a: np.ndarray, shift: int = 0) -> np.ndarray:
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


def _unvisited(visited: np.ndarray, keys: np.ndarray) -> np.ndarray:
    return (visited[keys >> 3] >> (keys & 7) & 1) == 0


def _mark(visited: np.ndarray, keys: np.ndarray) -> None:
    np.bitwise_or.at(visited, keys >> 3, (1 << (keys & 7)).astype(np.uint8))


def _check_gens(gens: list[AffineMap]) -> None:
    if any(g.q != 2 or g.n != 6 for g in gens):
        raise ValueError("orbit search needs AGL(6, F2) generators")


def bfs_orbit(start: int, gens: list[AffineMap],
              transcript: bool = False) -> OrbitResult:
    """Breadth-first enumeration of the coset orbit under the generators.

    Matches the queue discipline of a scalar FIFO search seeded with
    (start, identity): children are claimed in parent order with the
    generators tried in list order, and each newly visited coset records the
    matrix part of its accumulated transformation.  The start coset itself is
    counted when (and only when) it is re-reached, which always happens for a
    group orbit.
    """
    _check_gens(gens)
    tables = [_KEYS.action(g) for g in gens]
    grow_tabs = [_row_map(g) for g in gens]
    ngens = len(gens)
    pos_bits = (_CHUNK * ngens - 1).bit_length()  # a chunk's candidate positions
    visited = np.zeros(1 << (KEY_BITS - 3), dtype=np.uint8)  # one bit per key

    frontier_keys = np.array([start], dtype=np.uint32)
    frontier_A = np.array([sum(1 << 7 * i for i in range(6))], dtype=np.uint64)  # identity
    frontier_offset = -1  # the seed level has no claim index

    matrices = np.empty(0, dtype=np.uint64)  # sorted, distinct
    pending: list[np.ndarray] = []
    t_keys: list[np.ndarray] = []
    t_parents: list[np.ndarray] = []
    t_gens: list[np.ndarray] = []
    claimed_total = 0

    while frontier_keys.size:
        level_keys, level_A = [], []
        level_claims = 0
        # Parents in chunks, in order: a coset is claimed by its first
        # candidate in the chunk where it first appears, as in one pass over
        # the level, while the temporaries stay a few MB.
        for s in range(0, frontier_keys.size, _CHUNK):
            fk = frontier_keys[s:s + _CHUNK]
            cand_keys = np.empty(fk.size * ngens, dtype=np.uint32)
            for gi, table in enumerate(tables):
                cand_keys[gi::ngens] = _act(table, fk)
            fresh_pos = np.flatnonzero(_unvisited(visited, cand_keys))
            # key << pos_bits | position: the first of each key's run is its
            # earliest candidate, which claims it
            claims = _sorted_distinct(
                cand_keys[fresh_pos].astype(np.uint64) << pos_bits
                | fresh_pos.astype(np.uint64), pos_bits)
            _mark(visited, claims >> pos_bits)
            claim_pos = np.sort((claims & ((1 << pos_bits) - 1)).astype(np.intp))
            level_claims += claim_pos.size

            parent_idx = s + claim_pos // ngens
            gen_idx = claim_pos % ngens
            level_keys.append(cand_keys[claim_pos])
            new_A = np.empty(claim_pos.size, dtype=np.uint64)
            for gi, tab in enumerate(grow_tabs):  # rows 0-1, 2-3 and 4-5 at once
                sel = np.flatnonzero(gen_idx == gi)
                a = frontier_A[parent_idx[sel]]
                new_A[sel] = tab[a & 4095] | tab[a >> 12 & 4095] << 12 | tab[a >> 24] << 24
            level_A.append(new_A)
            pending.append(new_A)
            if sum(p.size for p in pending) > 1 << 17:
                matrices = _sorted_distinct(np.concatenate([matrices, *pending]))
                pending = []
            if transcript:
                t_keys.append(level_keys[-1])
                if frontier_offset < 0:
                    t_parents.append(np.full(claim_pos.size, -1, dtype=np.int64))
                else:
                    t_parents.append(frontier_offset + parent_idx.astype(np.int64))
                t_gens.append(gen_idx.astype(np.uint8))

        frontier_offset = claimed_total
        claimed_total += level_claims
        frontier_keys = np.concatenate(level_keys)
        frontier_A = np.concatenate(level_A)

    mset = MatrixSet(_sorted_distinct(np.concatenate([matrices, *pending])))
    trans = (OrbitTranscript(*map(np.concatenate, (t_keys, t_parents, t_gens)))
             if transcript else None)  # every chunk appends to the lists
    return OrbitResult(claimed_total, mset, trans)


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


def orbit_lengths(starts, gens: list[AffineMap]) -> tuple[int, ...]:
    """Orbit lengths of the start keys, walked over translation classes.

    The generators must generate a group that contains the translations
    (AGL(6,2) itself in every use here), so that orbits are unions of
    classes.  One visited bit per canonical key is shared by all starts:
    a start whose class an earlier start's orbit reached raises ValueError,
    since the orbits would not then be distinct.
    """
    _check_gens(gens)
    tables = [_KEYS.action(g) for g in gens]
    visited = np.zeros(1 << (KEY_BITS - 3), dtype=np.uint8)  # one bit per key
    lengths = []
    for start in starts:
        frontier = canonical_keys([start])
        if not _unvisited(visited, frontier)[0]:
            raise ValueError(f"start key {start} lies in an earlier start's orbit")
        length = 0
        while frontier.size:
            _mark(visited, frontier)
            length += int(class_sizes(frontier).sum())
            cand = canonical_keys(np.concatenate([_act(tab, frontier) for tab in tables]))
            frontier = _sorted_distinct(cand[_unvisited(visited, cand)])
        lengths.append(length)
    return tuple(lengths)


def all_orbit_lengths(gens: list[AffineMap] | None = None) -> tuple[int, ...]:
    """Orbit lengths of the eleven class representatives' cosets."""
    if gens is None:
        gens = list(agl_generators(6, 2))
    return orbit_lengths([coset_key(fn_rep(i)) for i in range(NUM_CLASSES)], gens)
