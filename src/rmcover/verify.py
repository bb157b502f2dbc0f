"""The verification pipeline behind rho(3, 7) = 20.

Third-order nonlinearity `classify.TARGET` = 21 is refuted type by type.  The
bound table excludes 51 of the 55 off-diagonal types; the parity rule
excludes every diagonal type; two level-set inclusion checks dispose of the
canonical families fn_2 || (fn_9 + g) and fn_3 || (fn_10 + g); the reduction
maps the remaining shapes of types (2,9), (2,10), (3,10) into the types with
halves of degrees 5 and 6; and the matrix sweep refutes type (6,10)
outright.  A witness function with nl_3 = 20 settles the lower bound.

All set manipulation happens on coefficient-word index arrays against the
level tables: a shifted level set X + g is the index set X XOR g, and
membership is one lookup in a boolean bitmap.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .boolfn import (
    BooleanFunction,
    apply_affine,
    concat,
    degree,
    homogeneous_part,
    monomial_masks,
    split,
    xor_span,
)
from .classify import (
    NUM_CLASSES,
    TARGET,
    class_stats,
    exclusion_table,
    flagged_types,
    fn_rep,
    rho_upper_bound,
    type_of,
)
from .field import AffineMap, SingularMatrixError, agl_generators
from .nonlin import NlTable, nl_r_recursive
from .orbit import MatrixSet, bfs_orbit, coset_key, gf2_minors

__all__ = [
    "Verdict",
    "check_29",
    "check_310",
    "reduce_to_610",
    "fn10_matrix_set",
    "sweep_610",
    "SWEEP_SHARD_SIZE",
    "Report",
    "prove_rho37",
    "WITNESS_ANF",
]

# The degree-4 witness with third-order nonlinearity exactly 20.
WITNESS_ANF = "x1x2x3x4+x1x4x6x7+x2x3x6x7+x3x4x5x7"

SWEEP_SHARD_SIZE = 1 << 14

# Case-2 instances drawn per reduction pair, and the seed they are drawn from.
REDUCTION_SAMPLES = 3
REDUCTION_SEED = 20


@dataclass(frozen=True)
class Verdict:
    """Outcome of one pipeline stage."""

    stage: str
    outcome: str  # "pass" | "fail"
    counters: dict = field(default_factory=dict)
    counterexample: tuple | None = None
    inputs: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def table_digest(t: NlTable) -> str:
    return t.sha256()[:16]


def matrixset_digest(ms: MatrixSet) -> str:
    return hashlib.sha256(ms.members).hexdigest()[:16]


def _filter_by_inclusion(cands: np.ndarray, probe: np.ndarray,
                         allowed: np.ndarray) -> np.ndarray:
    """Keep the g with probe + g inside the allowed bitmap (probe XOR g)."""
    out = cands
    for x in probe:
        if not out.size:
            break
        out = out[allowed[out ^ x]]
    return out


def _family_check(ta: NlTable, tb: NlTable, probes: tuple[int, ...]) -> tuple[int, list]:
    """The covering condition at TARGET for the family fn_a || (fn_b + g)
    (or (fn_a + g) || fn_b, the same family): a word x at level h of ta
    needs tb(x XOR g) >= TARGET - h.  The candidates are the g with
    tb(g) >= TARGET - ta(0); each probe level h keeps those that pass for
    every x at level h.  Any probes that leave no g are a proof.

    Returns the number of candidates and, per probe, its level set and the
    g that survive it.
    """
    for t in (ta, tb):
        _require_63(t, "family check table")
    cands = tb.values >= TARGET - ta.nl_prev
    n_cands = int(np.count_nonzero(cands))
    first, *rest = probes
    probe, allowed = ta.level_set(first), tb.values >= TARGET - first
    # the first probe in blocks of 2^17 words (2^20 = cands.size is a
    # multiple): no index array spans all candidates
    block = 1 << 17
    alive = np.concatenate([
        _filter_by_inclusion(np.arange(s, s + block, dtype=np.uint32)[cands[s:s + block]],
                             probe, allowed)
        for s in range(0, cands.size, block)])
    del cands, allowed
    rounds = [(probe, alive)]
    for h in rest:
        probe = ta.level_set(h)
        alive = _filter_by_inclusion(alive, probe, tb.values >= TARGET - h)
        rounds.append((probe, alive))
    return n_cands, rounds


def check_29(t2: NlTable, t9: NlTable) -> Verdict:
    """Type (2,9) family fn_2 || (fn_9 + g): no g admits nl_3 = TARGET.

    The covering condition at TARGET (`_family_check`) probed at level 8 of
    the fn_2 table.  Passing means no candidate g survives the probe.
    """
    n_cands, [(probe, sat)] = _family_check(t2, t9, (8,))
    counters = {
        "candidates": n_cands,
        "probe_size": int(probe.size),
        "satisfying": int(sat.size),
    }
    inputs = {"t2": table_digest(t2), "t9": table_digest(t9)}
    return Verdict("check_29", "fail" if sat.size else "pass", counters,
                   (int(sat[0]),) if sat.size else None, inputs)


def check_310(t3: NlTable, t10: NlTable) -> Verdict:
    """Type (3,10) family fn_3 || (fn_10 + g), two rounds of inclusions.

    The covering condition at TARGET (`_family_check`) probed at level 7 of
    the fn_10 table, then at level 9.  Passing means no g survives both
    rounds.
    """
    n_cands, [(_, round1), (_, round2)] = _family_check(t10, t3, (7, 9))
    counters = {
        "round1_candidates": n_cands,
        "round1_survivors": int(round1.size),
        "round2_satisfying": int(round2.size),
    }
    inputs = {"t3": table_digest(t3), "t10": table_digest(t10)}
    return Verdict("check_310", "fail" if round2.size else "pass", counters,
                   (int(round2[0]),) if round2.size else None, inputs)


def _require_63(t: NlTable, what: str) -> None:
    if (t.n, t.r) != (6, 3):
        raise ValueError(f"{what} must be a (n=6, r=3) table")


# ---------------------------------------------------------------------------
# Constructive reduction to type (6, 10)
# ---------------------------------------------------------------------------

_FULL_MONOMIAL = (1 << 6) - 1  # x1x2x3x4x5x6


def _variable_function(k: int) -> BooleanFunction:
    return BooleanFunction.from_anf(6, 1 << (1 << (k - 1)))


def _xk_product_ok(hx: BooleanFunction) -> bool:
    has_top = bool(hx.anf >> _FULL_MONOMIAL & 1)
    return has_top and homogeneous_part(hx, 5).anf != 0


def reduce_to_610(f: BooleanFunction) -> tuple[BooleanFunction, tuple[int, int]]:
    """Map x7 -> x7 + x_k to push a Case-2 function toward type (6, 10).

    Requires f = f1 || f2 where h = f1 + f2 carries the full degree-6
    monomial and a nonzero degree-4 homogeneous part.  Chooses k so that
    h * x_k keeps the degree-6 monomial and gains at least one degree-5
    monomial (preferring a variable outside the lowest degree-4 monomial of
    h), which lands the result in {4,5,6} x {7,8,9,10}.
    """
    if f.n != 7:
        raise ValueError("reduction applies to 7-variable functions")
    f1, f2 = split(f)
    h = f1 + f2
    if not h.anf >> _FULL_MONOMIAL & 1:
        raise ValueError("f1 + f2 lacks the degree-6 monomial; not Case-2 shape")
    h4 = homogeneous_part(h, 4)
    if h4.anf == 0:
        raise ValueError(
            "f1 + f2 has no degree-4 part; route through the level-set checks"
        )
    first_mono = (h4.anf & -h4.anf).bit_length() - 1
    preferred = [k for k in range(1, 7) if not first_mono >> (k - 1) & 1]
    others = [k for k in range(1, 7) if k not in preferred]
    chosen = None
    for k in preferred + others:
        hx = BooleanFunction.from_tt(6, h.tt & _variable_function(k).tt)
        if _xk_product_ok(hx):
            chosen = (k, hx)
            break
    if chosen is None:
        raise ValueError("no variable yields the degree-6/degree-5 pattern")
    _, hx = chosen
    reduced = concat(f1 + hx, f2 + hx)
    return reduced, type_of(reduced)


# ---------------------------------------------------------------------------
# The type-(6, 10) sweep
# ---------------------------------------------------------------------------


def fn10_matrix_set() -> MatrixSet:
    """The sweep set: the matrix parts that the AGL(6,2) orbit search of
    fn_10's coset collects (130,844 matrices)."""
    return bfs_orbit(coset_key(fn_rep(10)), list(agl_generators(6, 2))).matrix_set


def _image_words(matrix_keys: np.ndarray, base_words: np.ndarray) -> np.ndarray:
    """(len(base_words), nmat) array: the degree-3 coefficient word of
    s(A^-1 x) for each base word s and each matrix A.

    Row a of A^-1 is a linear form l_a, so s(A^-1 x) replaces each cubic
    monomial x_I = x_a x_b x_c of s by l_a l_b l_c, whose coefficient of a
    cubic x_J sums the products of entries of A^-1 over the bijections of I
    onto J: the minor det A^-1[I, J] (a permanent, which is the determinant
    over GF(2)).  Jacobi's complementary-minor identity, with det A = 1 and
    no signs over GF(2), makes it det A[J^c, I^c] = det A^T[I^c, J^c].  So
    the column of x_I, its 20 coefficients, is the `gf2_minors` entry of
    rows I^c of A^T, whose bit for J is the minor on columns J^c.  T_3 is
    linear, so the image of a base word is the XOR of its bits' columns.
    """
    spread = xor_span([1 << 6 * j for j in range(6)], np.uint64)  # bit j -> bit 6j
    t = np.bitwise_or.reduce([spread[matrix_keys >> 6 * i & 63] << i for i in range(6)])
    rows = [(t >> 6 * j & 63).astype(np.intp) for j in range(6)]  # the rows of A^T
    minors = gf2_minors()
    cols = np.empty((20, t.size), dtype=np.uint32)
    for i, m in enumerate(monomial_masks(6, 3)):
        a, b, c = (rows[j] for j in range(6) if not m >> j & 1)
        cols[i] = minors[a | b << 6 | c << 12]
    out = np.empty((base_words.size, t.size), dtype=np.uint32)
    for w, s in zip(out, base_words.tolist()):
        np.bitwise_xor.reduce(cols[[k for k in range(20) if s >> k & 1]], axis=0, out=w)
    return out


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable argsort of the rows of a 2-D array of words below 2^32 in
    lexicographic order.  Big-endian bytes compare as the numbers do, so
    one sort of the rows viewed as opaque byte strings does it."""
    keys = np.ascontiguousarray(rows, dtype=">u4")
    return np.argsort(keys.view(np.dtype((np.void, 4 * keys.shape[1]))).ravel(),
                      kind="stable")


def _pivot_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `words` (the distinct words of one set W), its pivot w_j
    and shift row: of the sorted rows {w_i ^ w_j : i != j}, the
    lexicographically least one (on a tie, the one of the smallest w_j).
    The row depends only on W up to translation, since W ^ c has the pivot
    w_j ^ c and the same shifts.

    The least row starts with d*, the least XOR of two words of W, so only
    the words with a partner at XOR d* compete.  For words a < b < c,
    a ^ c > min(a ^ b, b ^ c): b agrees with a and c above the highest bit
    h where they differ, and at h it agrees with one of them, so its XOR
    with that one is below 2^h <= a ^ c.  So every pair at XOR d* is a pair
    of neighbours in sorted order.  Most image sets have four such words; a
    set with period d* has all of them.
    """
    s = np.sort(words, axis=1)
    gaps = s[:, 1:] ^ s[:, :-1]
    tight = gaps == gaps.min(axis=1, keepdims=True)
    cand = np.zeros(s.shape, dtype=bool)
    cand[:, 1:] = tight
    cand[:, :-1] |= tight
    owner, col = np.nonzero(cand)
    pivots = s[owner, col]
    keys = s[owner]
    keys ^= pivots[:, None]
    keys.sort(axis=1)
    keys[:, 0] = owner  # in place of w_j ^ w_j = 0: sort by owner, then row
    keys = keys.byteswap(inplace=True).view(">u4")  # the same numbers, big-endian
    order = _lex_order(keys)
    o = owner[order]
    best = order[np.r_[True, o[1:] != o[:-1]]]
    return pivots[best], keys[best, 1:].astype(np.uint32)


def _sweep_shard(matrix_keys: np.ndarray, base_words: np.ndarray,
                 targets: np.ndarray, allowed: np.ndarray) -> tuple[int, list]:
    """Run the subset test for one contiguous chunk of matrices, walking
    them in the lexicographic order of their pivot shift rows so that each
    shift prefix the chunk shares is filtered once.

    Returns (matrices processed, hits) where each hit is
    (matrix_key, target_word, shift_word), in chunk order.
    """
    nmat = matrix_keys.shape[0]
    first = np.empty(nmat, dtype=np.uint32)
    pivots = np.empty(nmat, dtype=np.uint32)
    rows = np.empty((nmat, base_words.size - 1), dtype=np.uint32)
    for s in range(0, nmat, 4096):  # blocks keep their temporaries small
        words = _image_words(matrix_keys[s:s + 4096], base_words)
        first[s:s + 4096] = words[0]
        for p in range(s, min(s + 4096, nmat), 1024):
            pivots[p:p + 1024], rows[p:p + 1024] = _pivot_rows(words[:, p - s:p - s + 1024].T)
    walk = _lex_order(rows)
    rows = rows[walk]
    differs = rows[1:] != rows[:-1]
    fresh = np.r_[True, differs.any(axis=1)]  # the first matrix of each distinct row
    # levels each distinct row shares with the one before it
    common = np.r_[0, differs.argmax(axis=1)][fresh]
    del differs
    group = np.empty(nmat, dtype=np.intp)  # each matrix's distinct row
    group[walk] = np.cumsum(fresh) - 1
    rows = rows[fresh]
    # stack[j]: the targets that survive the first j shifts of the row
    stack = [targets]
    survivors = {}
    for k, row in enumerate(rows):
        del stack[common[k] + 1:]
        alive = stack[-1]
        for x in row[len(stack) - 1:]:
            if not alive.size:
                break
            alive = np.compress(allowed.take(alive ^ x), alive)
            stack.append(alive)
        if alive.size:
            survivors[k] = alive
    # a survivor t is the target w_j + u of a translate W + u inside the
    # targets; in the frame of base word 0 it is w_0 + u, with shift u
    hits = []
    for m in np.flatnonzero(np.isin(group, list(survivors))):
        for t in np.sort(survivors[group[m]] ^ (pivots[m] ^ first[m])):
            hits.append((int(matrix_keys[m]), int(t), int(first[m] ^ t)))
    return nmat, hits


def sweep_610(mset: MatrixSet, t6: NlTable, t10: NlTable, *,
              stride: int = 1,
              shard_size: int = SWEEP_SHARD_SIZE,
              workers: int = 1) -> Verdict:
    """Subset test over every stored matrix: does any shifted image of the
    bottom attained level set of the fn_6 table, at level b, land inside the
    targets, the words of the fn_10 table at level >= TARGET - b?  That is
    the covering condition at TARGET on fn_6's bottom level; passing (no hit
    anywhere) refutes nl_3 = TARGET for every type-(6,10) function.

    For a matrix with image words W = {w_0..w_31}, the hits are the
    translates W + u inside the target set T, reported as the target
    t = w_0 + u and the shift u.  Whether W + u lies in T depends only on
    the set W up to translation, and from any pivot w_j it is the test
    t' = w_j + u in T with t' + (w_i + w_j) in T for every i: the
    intersection of T with its 31 shifts by w_i + w_j.  Each matrix takes
    the pivot whose sorted shift row is lexicographically least
    (`_pivot_rows`), so matrices whose image sets are translates of each
    other get the same row.  Each shard walks its distinct rows in
    lexicographic order; each takes the targets that survive the prefix
    it has in common with the previous row and filters only past it,
    stopping at the first empty level: T is scanned once per distinct
    prefix rather than once per matrix.  Every matrix of a row maps the
    row's survivors t' to t = t' + w_j + w_0 and sorts them: these are the
    targets t with t + (w_i + w_0) in T for every i, in ascending order,
    and hits are gathered matrix by matrix in shard order, so the hits,
    their order and the verdict do not depend on the pivots or the walk.

    stride > 1 selects the deterministic subset of matrices with index
    divisible by stride (a proxy for tests and benchmarks).  Shards are
    contiguous ranges of shard_size selected matrices, all swept by this
    call: it reads and writes no file.  workers > 1 sweeps them in a process
    pool of at most one worker per shard.  The `resumed_shards` counter is
    always 0.
    """
    _require_63(t6, "sweep base table")
    _require_63(t10, "sweep target table")
    bottom = int(t6.values.min())
    base_words = t6.level_set(bottom)
    allowed = t10.values >= TARGET - bottom
    targets = np.flatnonzero(allowed)
    selected = mset.members[::stride] if stride > 1 else mset.members
    inputs = {
        "matrix_set": matrixset_digest(mset),
        "t6": table_digest(t6),
        "t10": table_digest(t10),
        "stride": stride,
    }
    shards = [selected[s:s + shard_size] for s in range(0, selected.shape[0], shard_size)]

    # one result per shard, in shard order, computed here or by a worker pool
    processed = 0
    hits: list[tuple] = []
    pool, mapper = nullcontext(), map
    pool_size = min(workers, len(shards))
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=pool_size)
        mapper = pool.map
    with pool:
        for nmat, shard_hits in mapper(_sweep_shard, shards, repeat(base_words),
                                       repeat(targets), repeat(allowed)):
            processed += nmat
            hits.extend(shard_hits)

    counters = {
        "matrices": processed,
        "targets_per_matrix": int(targets.size),
        "subset_size": int(base_words.size),
        "hits": len(hits),
        "shards": len(shards),
        "resumed_shards": 0,
    }
    if hits:
        return Verdict("sweep_610", "fail", counters, tuple(hits[0]), inputs)
    return Verdict("sweep_610", "pass", counters, None, inputs)


# ---------------------------------------------------------------------------
# Sample instances for the reduction stage
# ---------------------------------------------------------------------------


def random_affine_map(rng: np.random.Generator):
    """Uniform random element of AGL(6, F2)."""
    while True:
        rows = rng.integers(0, 64, size=6, dtype=np.uint8)
        A = tuple(tuple(int(r) >> j & 1 for j in range(6)) for r in rows)
        b = tuple(int(x) for x in rng.integers(0, 2, size=6))
        try:
            return AffineMap(2, 6, A, b)
        except SingularMatrixError:
            continue


def _random_cubic(rng: np.random.Generator) -> BooleanFunction:
    """Random element of RM(3, 6)."""
    anf = 0
    for r in range(4):
        for m in monomial_masks(6, r):
            if rng.integers(0, 2):
                anf |= 1 << m
    return BooleanFunction.from_anf(6, anf)


@lru_cache(maxsize=None)
def _translations() -> tuple[AffineMap, ...]:
    """The 64 translations x -> x + c of GF(2)^6, in the order of c."""
    ident = AffineMap.identity(6)
    return tuple(AffineMap(2, 6, ident.A, tuple(c >> i & 1 for i in range(6)))
                 for c in range(64))


def _normalize_translation(base: BooleanFunction, L) -> BooleanFunction:
    """base o (L o tau) for the first translation tau that makes T_5 vanish.

    Used for the degree-6 class representatives: the degree-5 residue of the
    full monomial's image is the point indicator away from the all-ones
    point, and a translation moves it there.  base o (L o tau) =
    (base o L) o tau, so L is applied once.
    """
    moved = apply_affine(base, L)
    for tau in _translations():
        cand = apply_affine(moved, tau)
        if homogeneous_part(cand, 5).anf == 0:
            return cand
    raise RuntimeError("no translation kills the degree-5 residue")  # pragma: no cover


def case2_instance(pair: tuple[int, int], rng: np.random.Generator) -> BooleanFunction:
    """A random Case-2 canonical instance of type (2,9), (3,10) or (2,10).

    For (2,10): (fn_2 o L + g) || fn_10 with random L, g.  For (2,9) and
    (3,10): fn_i || (fn_j o L' + p) with the translation part of L'
    normalized so the pair h = f1 + f2 has no degree-5 component, matching
    the shape the reduction consumes.
    """
    if pair == (2, 10):
        L = random_affine_map(rng)
        f1 = apply_affine(fn_rep(2), L) + _random_cubic(rng)
        return concat(f1, fn_rep(10))
    if pair not in ((2, 9), (3, 10)):
        raise ValueError(f"no Case-2 shape for type {pair}")
    i, j = pair
    base = fn_rep(j)
    while True:
        moved = _normalize_translation(base, random_affine_map(rng))
        if coset_key(moved) != coset_key(base):  # Case 2 demands a moved coset
            break
    return concat(fn_rep(i), moved + _random_cubic(rng))


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

DEEP_TYPES = ((2, 9), (2, 10), (3, 10), (6, 10))


@dataclass(frozen=True)
class Report:
    stages: tuple[Verdict, ...]
    rho_lower: int | None
    rho_upper: int | None

    @property
    def conclusion(self) -> str:
        if self.rho_lower == self.rho_upper and self.rho_lower is not None:
            return f"rho(3,7) = {self.rho_lower}"
        return "inconclusive"

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.stages)

    def to_json(self) -> str:
        payload = {
            "stages": [
                {
                    "stage": v.stage,
                    "outcome": v.outcome,
                    "counters": v.counters,
                    "counterexample": v.counterexample,
                    "inputs": v.inputs,
                }
                for v in self.stages
            ],
            "rho_lower": self.rho_lower,
            "rho_upper": self.rho_upper,
            "conclusion": self.conclusion,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = []
        for v in self.stages:
            counters = " ".join(f"{k}={val}" for k, val in v.counters.items())
            lines.append(f"[{v.outcome:>4}] {v.stage:<12} {counters}")
            if v.counterexample is not None:
                lines.append(f"       counterexample: {v.counterexample}")
        lines.append(f"conclusion: {self.conclusion}")
        return "\n".join(lines)


def prove_rho37(tables, *, workers: int = 1) -> Report:
    """Chain every stage and report rho(3,7) = 20.

    `tables` maps the class index to its (6,3) value table; all eleven are
    needed for the bound stage, and indices 2, 3, 6, 9, 10 feed the deep
    checks.  The type-(6,10) sweep runs over the whole matrix set, derived
    here from fn_10's orbit, with no stride, and reads no file: nothing the
    caller passes can narrow it, and every shard is swept in this run.
    """
    stages: list[Verdict] = []
    stats = {i: class_stats(i, tables[i]) for i in range(NUM_CLASSES)}
    digests = {f"t{i}": table_digest(tables[i]) for i in range(NUM_CLASSES)}
    stages.append(Verdict(
        "class_table", "pass",
        {f"fn_{i}": (s.deg, s.nl2, s.nl3, s.ml2) for i, s in stats.items()},
        None, digests,
    ))

    bounds = exclusion_table(stats)
    flagged = flagged_types(bounds)
    ok = tuple(flagged) == DEEP_TYPES
    stages.append(Verdict(
        "exclusion", "pass" if ok else "fail",
        {
            "off_diagonal_excluded": len(bounds) - NUM_CLASSES - len(flagged),
            "flagged": len(flagged),
            "rho_upper_from_bounds": rho_upper_bound(stats),
        },
        None if ok else tuple(flagged), digests,
    ))

    # Diagonal types, by the parity rule nl_3(f1 || f2) = nl_3(f1) + nl_3(f2)
    # (mod 2).  It holds because RM(3,6) and RM(3,7) words have even weight,
    # so nl_3 has the parity of the weight, and weights add under
    # concatenation.  Both halves of a type-(i,i) function have nl_3 =
    # nl3(fn_i), so the sum is even and nl_3 is never the odd TARGET.
    kept = tuple(i for i, s in stats.items() if (s.nl3 + s.nl3) % 2 == TARGET % 2)
    stages.append(Verdict(
        "parity", "fail" if kept else "pass",
        {"diagonal_types_excluded": NUM_CLASSES - len(kept)},
        kept or None, digests,
    ))

    stages.append(check_29(tables[2], tables[9]))
    stages.append(check_310(tables[3], tables[10]))

    # each reduced instance must land in a type whose halves have class
    # degrees 5 and 6
    rng = np.random.default_rng(REDUCTION_SEED)
    landed = [reduce_to_610(case2_instance(pair, rng))[1]
              for pair in ((2, 10), (2, 9), (3, 10)) for _ in range(REDUCTION_SAMPLES)]
    reduction_ok = all({stats[k].deg for k in t} == {5, 6} for t in landed)
    stages.append(Verdict(
        "reduction", "pass" if reduction_ok else "fail",
        {"total": len(landed), "into_610": landed.count((6, 10))}, None,
        {"seed": REDUCTION_SEED, "samples_per_pair": REDUCTION_SAMPLES},
    ))

    stages.append(sweep_610(fn10_matrix_set(), tables[6], tables[10],
                            workers=workers))

    witness = BooleanFunction.from_anf_string(WITNESS_ANF, n=7)
    wv = nl_r_recursive(witness, 3)
    stages.append(Verdict(
        "witness", "pass" if wv == TARGET - 1 else "fail",
        {"nl3": wv, "degree": degree(witness)}, None, {"anf": WITNESS_ANF},
    ))

    all_pass = all(v.passed for v in stages)
    return Report(
        stages=tuple(stages),
        rho_lower=wv if wv == TARGET - 1 else None,
        rho_upper=TARGET - 1 if all_pass else None,
    )
