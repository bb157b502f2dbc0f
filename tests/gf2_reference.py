"""Independent GF(2) engines the tests check the library's table lookups
against: the row packing of matrix keys, batched Gauss-Jordan inversion, the
span test of invertibility, the image words from truth tables and a
Moebius transform, and the key-level queue search of a coset orbit, which
records the matrix part of the map that reached each coset."""

from dataclasses import dataclass

import numpy as np

from rmcover import orbit as ob
from rmcover.boolfn import BooleanFunction, monomial_masks, xor_span
from rmcover.field import AffineMap

# The published size of fn_10's matrix set; the queue search gives 130844.
EXPECTED_MATRIX_SET_SIZE = 130843

_ROW_SHIFTS = np.arange(0, 36, 6, dtype=np.uint64)


def gf2_pack_rows(rows: np.ndarray) -> np.ndarray:
    """(N, 6) row masks -> uint64 keys, bit 6*i+j = entry (i, j)."""
    return np.bitwise_or.reduce(rows.astype(np.uint64) << _ROW_SHIFTS, axis=1)


def gf2_unpack_keys(keys: np.ndarray) -> np.ndarray:
    """uint64 keys -> (N, 6) row masks."""
    return (np.asarray(keys, dtype=np.uint64)[:, None] >> _ROW_SHIFTS & 63).astype(np.uint8)


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


def span_invertible(keys: np.ndarray) -> np.ndarray:
    """Per packed key, whether only the empty combination of its rows is 0."""
    out = np.empty(keys.size, dtype=bool)
    for s in range(0, keys.size, 1 << 12):  # keeps the spans 256 KB
        rows = gf2_unpack_keys(keys[s:s + (1 << 12)])
        # every row combination, indexed by its mask
        span = np.zeros((rows.shape[0], 64), dtype=np.uint8)
        for i in range(6):
            span[:, 1 << i:2 << i] = span[:, :1 << i] ^ rows[:, i:i + 1]
        out[s:s + (1 << 12)] = span[:, 1:].all(axis=1)
    return out


def image_words(matrix_keys: np.ndarray, base_words: np.ndarray) -> np.ndarray:
    """(len(base_words), nmat) array: the degree-3 coefficient word of
    s(A^-1 x) for each base word s and each matrix A.

    Per matrix, the truth table of row l_a of A^-1 is an XOR of variable
    truth tables (one uint64 each); the 20 cubic products l_a l_b l_c are
    ANDs of three, and a six-stage Moebius transform on each uint64 gives
    its ANF, whose 20 degree-3 coefficients are the column of that
    monomial.  T_3 is linear, so the image of a base word is the XOR of the
    columns of its set bits.
    """
    var = np.array([BooleanFunction.from_anf(6, 1 << (1 << k)).tt for k in range(6)],
                   dtype=np.uint64)
    # (nmat, 6): the span of the variables, indexed by the row masks of A^-1
    forms = xor_span(var, np.uint64)[gf2_invert_rows(gf2_unpack_keys(matrix_keys))]
    cubics = monomial_masks(6, 3)
    factors = [[a for a in range(6) if m >> a & 1] for m in cubics]
    prods = np.bitwise_and.reduce(forms[:, factors], axis=2)  # (nmat, 20) truth tables
    for d, v in enumerate(var):  # Moebius stage d: bit x into x + 2^d for x with bit d clear
        prods ^= prods << np.uint64(1 << d) & v
    cols = np.zeros(prods.shape, dtype=np.uint32)
    for i, m in enumerate(cubics):
        cols |= (prods >> np.uint64(m) & np.uint64(1)).astype(np.uint32) << i
    out = np.zeros((base_words.size, matrix_keys.shape[0]), dtype=np.uint32)
    for k, col in enumerate(cols.T):
        out[base_words >> k & 1 != 0] ^= col
    return out


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


@dataclass(frozen=True)
class FifoOrbit:
    orbit_size: int
    matrix_set: ob.MatrixSet
    transcript: OrbitTranscript | None


_CHUNK = 1 << 15  # parents expanded at once


def _unvisited(visited: np.ndarray, keys: np.ndarray) -> np.ndarray:
    return (visited[keys >> 3] >> (keys & 7) & 1) == 0


def _mark(visited: np.ndarray, keys: np.ndarray) -> None:
    np.bitwise_or.at(visited, keys >> 3, (1 << (keys & 7)).astype(np.uint8))


def fifo_orbit(start: int, gens: list[AffineMap], transcript: bool = False) -> FifoOrbit:
    """Breadth-first enumeration of the coset orbit over single keys.

    Matches the queue discipline of a scalar FIFO search seeded with
    (start, identity): children are claimed in parent order with the
    generators tried in list order, and each newly visited coset records the
    matrix part of its accumulated transformation.  The start coset itself is
    counted when (and only when) it is re-reached, which always happens for a
    group orbit.

    A level is expanded in chunks of parents.  Each unvisited candidate of a
    chunk is packed as key << P | position (position = parent * len(gens) +
    generator, P bits wide) and the packed words are sorted once: the first
    word of each key's run is the key's earliest candidate, which claims it,
    and the claimed positions, sorted again, give the next level in FIFO
    order.
    """
    tables = [ob._KEYS.action(g) for g in gens]
    grow_tabs = [ob._row_map(g) for g in gens]
    ngens = len(gens)
    pos_bits = (_CHUNK * ngens - 1).bit_length()  # a chunk's candidate positions
    visited = np.zeros(1 << (ob.KEY_BITS - 3), dtype=np.uint8)  # one bit per key

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
                cand_keys[gi::ngens] = ob._act(table, fk)
            fresh_pos = np.flatnonzero(_unvisited(visited, cand_keys))
            claims = ob._sorted_distinct(
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
        frontier_A = np.concatenate(level_A)

    mset = ob.MatrixSet(np.unique(np.concatenate([matrices, *pending])))
    trans = (OrbitTranscript(*map(np.concatenate, (t_keys, t_parents, t_gens)))
             if transcript else None)  # every chunk appends to the lists
    return FifoOrbit(claimed_total, mset, trans)
