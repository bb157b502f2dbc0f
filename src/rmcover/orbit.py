"""AGL(6)-orbit enumeration on the cosets of RM(3,6) in RM(6,6).

A coset f + RM(3,6) is identified by its 22-bit key: the ANF coefficients of
the 15 degree-4, 6 degree-5 and 1 degree-6 monomials of any representative,
in canonical (ascending mask) monomial order.  The induced action of an
affine map on keys is linear, so a generator acts through two 2048-entry
lookup tables and the breadth-first search over an orbit runs on flat numpy
arrays.

The fn_10 run additionally accumulates the matrix parts of the accumulated
transformations, exactly as the queue-based search records them: the search
starts from (start coset, identity), expands FIFO with the generators in the
given order, and on each first visit of a coset via (L o G) stores (L o G).A.
Deduplicating those matrices yields the sweep set for the type-(6,10) check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, apply_affine, monomial_masks, xor_span
from .field import AffineMap

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

KEY_BITS = 22
_KEY_MASKS = tuple(m for m in range(64) if m.bit_count() >= 4)  # ascending
_AMS_MAGIC = b"AMS1"
_META_MAGIC = b"META"


def coset_key(f: BooleanFunction) -> int:
    """22-bit key of f + RM(3,6): the degree->=4 ANF coefficients."""
    if f.n != 6:
        raise ValueError("coset keys are defined for 6 variables")
    key = 0
    for i, m in enumerate(_KEY_MASKS):
        key |= (f.anf >> m & 1) << i
    return key


def key_lift(key: int) -> BooleanFunction:
    """The homogeneous degree->=4 representative of a coset key."""
    if not 0 <= key < 1 << KEY_BITS:
        raise ValueError("key out of range")
    anf = 0
    k = key
    while k:
        low = k & -k
        anf |= 1 << _KEY_MASKS[low.bit_length() - 1]
        k ^= low
    return BooleanFunction.from_anf(6, anf)


def coset_act(key: int, L: AffineMap) -> int:
    """Key of (representative o L) + RM(3,6); a right action on keys."""
    return coset_key(apply_affine(key_lift(key), L))


def _action_tables(L: AffineMap) -> tuple[np.ndarray, np.ndarray]:
    """Half lookup tables of the induced linear key action of L."""
    cols = [coset_act(1 << i, L) for i in range(KEY_BITS)]
    half = KEY_BITS // 2
    return xor_span(cols[:half], np.uint32), xor_span(cols[half:], np.uint32)


def _rows_of(L: AffineMap) -> tuple[int, ...]:
    return tuple(sum(e << j for j, e in enumerate(row)) for row in L.A)


def _vec_of(L: AffineMap) -> int:
    return sum(e << i for i, e in enumerate(L.b))


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

    members: np.ndarray  # uint64, ascending

    def __post_init__(self) -> None:
        m = self.members
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
        members = self.members.astype("<u8", copy=False)
        digest = hashlib.sha256(head)
        digest.update(members)
        blob = dict(meta or {})
        blob["sha256"] = digest.hexdigest()
        enc = json.dumps(blob, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(head)
            fh.write(members)
            fh.write(_META_MAGIC + len(enc).to_bytes(4, "little") + enc)

    @classmethod
    def load(cls, path, verify: bool = True) -> "MatrixSet":
        ms, _ = cls.load_with_meta(path, verify)
        return ms

    @classmethod
    def load_with_meta(cls, path, verify: bool = True) -> tuple["MatrixSet", dict]:
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != _AMS_MAGIC:
            raise ValueError(f"{path}: bad magic, not an AMS1 file")
        count = int.from_bytes(raw[4:8], "little")
        end = 8 + 8 * count
        if len(raw) < end:
            raise ValueError(f"{path}: input hash mismatch (truncated payload)")
        members = np.frombuffer(raw, dtype="<u8", count=count, offset=8)
        meta: dict = {}
        if raw[end:end + 4] == _META_MAGIC:
            mlen = int.from_bytes(raw[end + 4:end + 8], "little")
            meta = json.loads(raw[end + 8:end + 8 + mlen])
            if verify and "sha256" in meta:
                if hashlib.sha256(memoryview(raw)[:end]).hexdigest() != meta["sha256"]:
                    raise ValueError(f"{path}: input hash mismatch")
        return cls(members), meta


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
        pos_of = {int(k): i for i, k in enumerate(self.keys)}
        word: list[int] = []
        pos = pos_of[key]
        while pos != -1:
            word.append(int(self.gens[pos]))
            pos = int(self.parents[pos])
        return word[::-1]


def bfs_orbit(start: int, gens: list[AffineMap],
              collect_matrices: bool = True,
              transcript: bool = False,
              memory_cap: int = 1 << 22) -> OrbitResult:
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
    tables = [_action_tables(g) for g in gens]
    grow_tabs = [xor_span(_rows_of(g), np.uint8) for g in gens]
    gvecs = [_vec_of(g) for g in gens]
    ngens = len(gens)
    visited = np.zeros(1 << (KEY_BITS - 3), dtype=np.uint8)  # one bit per key
    half_mask = np.uint32((1 << (KEY_BITS // 2)) - 1)
    halfb = np.uint32(KEY_BITS // 2)

    track = collect_matrices or transcript
    frontier_keys = np.array([start], dtype=np.uint32)
    frontier_A = np.array([[1, 2, 4, 8, 16, 32]], dtype=np.uint8)
    frontier_b = np.zeros(1, dtype=np.uint8)
    frontier_offset = -1  # the seed level has no claim index
    powers = (1 << np.arange(6, dtype=np.uint8))[None, :]

    matrices = np.empty(0, dtype=np.uint64)  # sorted, distinct
    pending: list[np.ndarray] = []
    t_keys: list[np.ndarray] = []
    t_parents: list[np.ndarray] = []
    t_gens: list[np.ndarray] = []
    claimed_total = 0

    while frontier_keys.size:
        level_keys, level_A, level_b = [], [], []
        level_claims = 0
        # Parents in chunks, in order: a coset is claimed by its first
        # candidate in the chunk where it first appears, as in one pass over
        # the level, while the temporaries stay a few MB.
        for s in range(0, frontier_keys.size, 1 << 15):
            fk = frontier_keys[s:s + (1 << 15)]
            lo_idx, hi_idx = fk & half_mask, fk >> halfb
            cand_keys = np.empty(fk.size * ngens, dtype=np.uint32)
            for gi, (lo, hi) in enumerate(tables):
                cand_keys[gi::ngens] = lo[lo_idx] ^ hi[hi_idx]
            fresh_pos = np.flatnonzero((visited[cand_keys >> 3] >> (cand_keys & 7) & 1) == 0)
            uniq, first = np.unique(cand_keys[fresh_pos], return_index=True)
            np.bitwise_or.at(visited, uniq >> 3, (1 << (uniq & 7)).astype(np.uint8))
            claim_pos = np.sort(fresh_pos[first])
            level_claims += claim_pos.size
            if claimed_total + level_claims > memory_cap:
                raise MemoryError("orbit exceeds the memory cap")

            parent_idx = s + claim_pos // ngens
            gen_idx = claim_pos % ngens
            level_keys.append(cand_keys[claim_pos])
            if track:
                new_A = np.empty((claim_pos.size, 6), dtype=np.uint8)
                new_b = np.empty(claim_pos.size, dtype=np.uint8)
                for gi in range(ngens):
                    sel = np.flatnonzero(gen_idx == gi)
                    if not sel.size:
                        continue
                    pa = frontier_A[parent_idx[sel]]
                    new_A[sel] = grow_tabs[gi][pa]
                    bg = gvecs[gi]
                    if bg:
                        # A_parent . b_G: XOR of A_parent's columns at b_G's bits
                        acc = np.zeros(sel.size, dtype=np.uint8)
                        for j in range(6):
                            if bg >> j & 1:
                                colbits = (pa >> j) & 1
                                acc ^= (colbits * powers).sum(axis=1, dtype=np.uint8)
                        new_b[sel] = acc ^ frontier_b[parent_idx[sel]]
                    else:
                        new_b[sel] = frontier_b[parent_idx[sel]]
                level_A.append(new_A)
                level_b.append(new_b)
                if collect_matrices:
                    pending.append(np.unique(gf2_pack_rows(new_A)))
                    if sum(p.size for p in pending) > 1 << 17:
                        matrices = np.unique(np.concatenate([matrices, *pending]))
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
        if track:
            frontier_A = np.concatenate(level_A)
            frontier_b = np.concatenate(level_b)

    mset = None
    if collect_matrices:
        matrices = np.unique(np.concatenate([matrices, *pending]))
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
    from .classify import NUM_CLASSES, fn_rep
    from .field import agl_generators

    if gens is None:
        gens = list(agl_generators(6, 2))
    return tuple(
        bfs_orbit(coset_key(fn_rep(i)), gens, collect_matrices=False).orbit_size
        for i in range(NUM_CLASSES)
    )
