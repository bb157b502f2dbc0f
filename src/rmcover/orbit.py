"""AGL(6)-orbit enumeration on the cosets of RM(3,6) in RM(6,6).

A coset f + RM(3,6) is identified by its 22-bit key: the ANF coefficients of
the 15 degree-4, 6 degree-5 and 1 degree-6 monomials of any representative,
in canonical (ascending mask) monomial order, i.e. its word over the
`MonomialSet` of those monomials.  The induced action of an affine map on
keys is linear, so a generator acts through the set's two 2048-entry lookup
tables (`MonomialSet.action`) and the breadth-first search over an orbit
runs on flat numpy arrays.

The fn_10 run additionally accumulates the matrix parts of the accumulated
transformations, exactly as the queue-based search records them: the search
starts from (start coset, identity), expands FIFO with the generators in the
given order, and on each first visit of a coset via (L o G) stores (L o G).A.
Deduplicating those matrices yields the sweep set for the type-(6,10) check.

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

import numpy as np

from .boolfn import BooleanFunction, MonomialSet, apply_affine, xor_span
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
    "all_orbit_lengths",
    "MatrixSet",
    "gf2_pack_rows",
    "gf2_unpack_keys",
    "gf2_invert_rows",
]

_KEYS = MonomialSet(6, tuple(m for m in range(64) if m.bit_count() >= 4))
KEY_BITS = len(_KEYS)
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


def _rows_of(L: AffineMap) -> tuple[int, ...]:
    return tuple(sum(e << j for j, e in enumerate(row)) for row in L.A)


def gf2_pack_rows(rows: np.ndarray) -> np.ndarray:
    """(N, 6) row masks -> uint64 keys, bit 6*i+j = entry (i, j)."""
    keys = np.zeros(rows.shape[0], dtype=np.uint64)
    for i in range(6):
        keys |= rows[:, i].astype(np.uint64) << np.uint64(6 * i)
    return keys


def gf2_unpack_keys(keys: np.ndarray) -> np.ndarray:
    """uint64 keys -> (N, 6) row masks."""
    k = np.asarray(keys, dtype=np.uint64)
    rows = np.empty((k.shape[0], 6), dtype=np.uint8)
    for i in range(6):
        rows[:, i] = (k >> np.uint64(6 * i)) & np.uint64(63)
    return rows


def gf2_invert_rows(rows: np.ndarray) -> np.ndarray:
    """Batched GF(2) inversion of 6x6 matrices given as (N, 6) row masks."""
    out = np.empty((rows.shape[0], 6), dtype=np.uint8)
    for s in range(0, rows.shape[0], 1 << 14):  # keeps the temporaries ~1 MB
        out[s:s + (1 << 14)] = _invert_block(rows[s:s + (1 << 14)])
    return out


def _invert_block(rows: np.ndarray) -> np.ndarray:
    n = 6
    aug = rows.astype(np.uint16) | (np.uint16(64) << np.arange(n, dtype=np.uint16))
    idx = np.arange(aug.shape[0])
    for col in range(n):
        cand = (aug[:, col:] >> col) & 1
        if not cand.any(axis=1).all():
            raise ValueError("matrix set contains a singular matrix")
        piv = cand.argmax(axis=1) + col
        pivrow = aug[idx, piv]
        aug[idx, piv] = aug[:, col]
        aug[:, col] = pivrow
        sel = ((aug >> col) & 1).astype(np.uint16)
        sel[:, col] = 0
        aug ^= sel * aug[:, col][:, None]
    return ((aug >> 6) & 63).astype(np.uint8)


@dataclass(frozen=True)
class MatrixSet:
    """Deduplicated invertible GF(2) matrices, sorted by packed key."""

    members: np.ndarray  # contiguous little-endian uint64 (hashed, saved), ascending

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.members, dtype="<u8")
        object.__setattr__(self, "members", m)
        if m.ndim != 1 or (m[1:] <= m[:-1]).any():
            raise ValueError("matrix keys must be strictly ascending")
        for s in range(0, m.size, 1 << 14):  # raises on a singular member
            gf2_invert_rows(gf2_unpack_keys(m[s:s + (1 << 14)]))
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
    matrix_set: MatrixSet | None
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


def bfs_orbit(start: int, gens: list[AffineMap],
              collect_matrices: bool = True,
              transcript: bool = False) -> OrbitResult:
    """Breadth-first enumeration of the coset orbit under the generators.

    Matches the queue discipline of a scalar FIFO search seeded with
    (start, identity): children are claimed in parent order with the
    generators tried in list order, and each newly visited coset records the
    matrix part of its accumulated transformation.  The start coset itself is
    counted when (and only when) it is re-reached, which always happens for a
    group orbit.
    """
    if any(g.q != 2 or g.n != 6 for g in gens):
        raise ValueError("orbit search needs AGL(6, F2) generators")
    tables = [_KEYS.action(g) for g in gens]
    grow_tabs = [xor_span(_rows_of(g), np.uint8) for g in gens]
    ngens = len(gens)
    pos_bits = (_CHUNK * ngens - 1).bit_length()  # a chunk's candidate positions
    visited = np.zeros(1 << (KEY_BITS - 3), dtype=np.uint8)  # one bit per key
    half_mask = np.uint32((1 << (KEY_BITS // 2)) - 1)
    halfb = np.uint32(KEY_BITS // 2)

    frontier_keys = np.array([start], dtype=np.uint32)
    frontier_A = np.array([[1, 2, 4, 8, 16, 32]], dtype=np.uint8)
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
            lo_idx, hi_idx = fk & half_mask, fk >> halfb
            cand_keys = np.empty(fk.size * ngens, dtype=np.uint32)
            for gi, (lo, hi) in enumerate(tables):
                cand_keys[gi::ngens] = lo[lo_idx] ^ hi[hi_idx]
            fresh_pos = np.flatnonzero((visited[cand_keys >> 3] >> (cand_keys & 7) & 1) == 0)
            # key << pos_bits | position: the first of each key's run is its
            # earliest candidate, which claims it
            claims = _sorted_distinct(
                cand_keys[fresh_pos].astype(np.uint64) << pos_bits
                | fresh_pos.astype(np.uint64), pos_bits)
            uniq = claims >> pos_bits
            np.bitwise_or.at(visited, uniq >> 3, (1 << (uniq & 7)).astype(np.uint8))
            claim_pos = np.sort((claims & ((1 << pos_bits) - 1)).astype(np.intp))
            level_claims += claim_pos.size

            parent_idx = s + claim_pos // ngens
            gen_idx = claim_pos % ngens
            level_keys.append(cand_keys[claim_pos])
            if collect_matrices:
                new_A = np.empty((claim_pos.size, 6), dtype=np.uint8)
                for gi in range(ngens):
                    sel = np.flatnonzero(gen_idx == gi)
                    new_A[sel] = grow_tabs[gi][frontier_A[parent_idx[sel]]]
                level_A.append(new_A)
                pending.append(gf2_pack_rows(new_A))
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
        if collect_matrices:
            frontier_A = np.concatenate(level_A)

    mset = None
    if collect_matrices:
        matrices = _sorted_distinct(np.concatenate([matrices, *pending]))
        mset = MatrixSet(matrices) if matrices.size else None
    trans = None
    if transcript:
        trans = OrbitTranscript(
            np.concatenate(t_keys) if t_keys else np.empty(0, np.uint32),
            np.concatenate(t_parents) if t_parents else np.empty(0, np.int64),
            np.concatenate(t_gens) if t_gens else np.empty(0, np.uint8),
        )
    return OrbitResult(claimed_total, mset, trans)


def all_orbit_lengths(gens: list[AffineMap] | None = None) -> tuple[int, ...]:
    """Orbit lengths of the eleven class representatives' cosets."""
    if gens is None:
        gens = list(agl_generators(6, 2))
    return tuple(
        bfs_orbit(coset_key(fn_rep(i)), gens, collect_matrices=False).orbit_size
        for i in range(NUM_CLASSES)
    )
