"""Independent GF(2) engines the tests check the library's table lookups
against: the row packing of matrix keys, batched Gauss-Jordan inversion, the
span test of invertibility and the image words from truth tables and a
Moebius transform."""

import numpy as np

from rmcover.boolfn import BooleanFunction, monomial_masks, xor_span

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
