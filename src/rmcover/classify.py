"""Classification of RM(6,6)/RM(3,6) cosets and typing of 7-variable functions.

The quotient RM(6,6)/RM(3,6) splits into eleven affine-inequivalent classes
with explicit representatives fn_0 .. fn_10.  A 6-variable function is
assigned its class by the invariant pair (degree of its degree->=4 part,
third-order nonlinearity), which separates all eleven classes.  A 7-variable
function f = f1 || f2 gets the unordered type (class(f1), class(f2)).

The class quantities (degree, nl_2, nl_3, ml_2) are always recomputed;
nothing downstream reads hard-coded table constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .boolfn import BooleanFunction, degree, homogeneous_part, split
from .nonlin import NlTable, nl_r_recursive

__all__ = [
    "NUM_CLASSES",
    "TARGET",
    "fn_rep",
    "ClassStats",
    "class_stats",
    "classify_coset",
    "type_of",
    "exclusion_table",
    "flagged_types",
    "rho_upper_bound",
    "chain_bounds",
    "CITED_BOUNDS",
]

NUM_CLASSES = 11

# The refuted third-order nonlinearity: one flipped bit moves nl_3 by at most
# 1, so no 7-variable function at TARGET means rho(3, 7) <= TARGET - 1.
TARGET = 21

# ANF monomial masks of the class representatives (variables x1..x6 as bits
# 0..5): fn_9 = x1x2x3x4x5x6 + fn_2 and fn_10 = x1x2x3x4x5x6 + fn_3.
_REP_MONOMIALS: tuple[tuple[int, ...], ...] = (
    (),                     # fn_0 = 0
    (0b001111,),            # fn_1 = x1x2x3x4
    (0b011011, 0b100111),   # fn_2 = x1x2x4x5 + x1x2x3x6
    (0b011110, 0b101101, 0b110011),  # fn_3 = x2x3x4x5 + x1x3x4x6 + x1x2x5x6
    (0b011111,),            # fn_4 = x1x2x3x4x5
    (0b011111, 0b100111),   # fn_5 = x1x2x3x4x5 + x1x2x3x6
    (0b011111, 0b101101, 0b110011),  # fn_6
    (0b111111,),            # fn_7 = x1x2x3x4x5x6
    (0b111111, 0b001111),   # fn_8
    (0b111111, 0b011011, 0b100111),  # fn_9
    (0b111111, 0b011110, 0b101101, 0b110011),  # fn_10
)


@lru_cache(maxsize=None)
def fn_rep(index: int) -> BooleanFunction:
    """Representative of class `index` in RM(6,6)/RM(3,6)."""
    if not 0 <= index < NUM_CLASSES:
        raise ValueError(f"class index {index} out of range 0..{NUM_CLASSES - 1}")
    return BooleanFunction.from_monomials(6, _REP_MONOMIALS[index])


@dataclass(frozen=True)
class ClassStats:
    """Recomputed invariants of one class representative."""

    index: int
    deg: int
    nl2: int
    nl3: int
    ml2: int


def class_stats(index: int, table: NlTable) -> ClassStats:
    """Degree, nl_2, nl_3 and ml_2 of fn_index, all recomputed.

    nl_2 and ml_2 are read off the representative's 2^20-entry order-3
    value table.
    """
    f = fn_rep(index)
    if table.base != f:
        raise ValueError("supplied table was built for a different base")
    return ClassStats(
        index=index,
        deg=degree(f),
        nl2=table.nl_prev,  # the g = 0 entry of the order-3 table
        nl3=nl_r_recursive(f, 3) if index else 0,
        ml2=table.ml_prev,
    )


def _coset_degree(f: BooleanFunction) -> int:
    """Degree of the degree->=4 part (0 when f is in RM(3,6))."""
    for d in (6, 5, 4):
        if homogeneous_part(f, d).anf:
            return d
    return 0


@lru_cache(maxsize=None)
def _lookup_nl3() -> dict[tuple[int, int], int]:
    """(coset degree, nl_3) -> class index; the pairs are pairwise distinct."""
    table: dict[tuple[int, int], int] = {}
    for i in range(NUM_CLASSES):
        f = fn_rep(i)
        pair = (_coset_degree(f), nl_r_recursive(f, 3) if i else 0)
        assert pair not in table, "class invariant pairs collide"
        table[pair] = i
    return table


def classify_coset(f: BooleanFunction) -> int:
    """Class index of f + RM(3,6) for a 6-variable f.

    Uses the affine-invariant pair (degree of the degree->=4 part, nl_3);
    both are constant on cosets and on AGL(6)-orbits.
    """
    if f.n != 6:
        raise ValueError("coset classification is defined for 6 variables")
    d = _coset_degree(f)
    if d == 0:
        return 0
    v = nl_r_recursive(f, 3)
    try:
        return _lookup_nl3()[(d, v)]
    except KeyError:  # pragma: no cover - impossible for valid input
        raise RuntimeError(f"invariant pair ({d}, {v}) matches no class") from None


def type_of(f: BooleanFunction) -> tuple[int, int]:
    """Unordered class pair of the two 6-variable halves of a 7-variable f."""
    if f.n != 7:
        raise ValueError("typing is defined for 7 variables")
    f1, f2 = split(f)
    i, j = classify_coset(f1), classify_coset(f2)
    return (i, j) if i <= j else (j, i)


# ---------------------------------------------------------------------------
# Bounds derived from the class quantities
# ---------------------------------------------------------------------------


def exclusion_table(stats: dict[int, ClassStats]) -> dict[tuple[int, int], int]:
    """Upper bound on nl_3 for each type (i, j), 0 <= i <= j <= 10.

    bound(i, j) = min(nl3_i + ml2_j, nl3_j + ml2_i).  Types with bound below
    TARGET cannot reach third-order nonlinearity TARGET; diagonal types are
    additionally ruled out by the parity rule regardless of their bound.
    """
    if sorted(stats) != list(range(NUM_CLASSES)):
        raise ValueError("need stats for all eleven classes")
    out: dict[tuple[int, int], int] = {}
    for i in range(NUM_CLASSES):
        for j in range(i, NUM_CLASSES):
            a, b = stats[i], stats[j]
            out[(i, j)] = min(a.nl3 + b.ml2, b.nl3 + a.ml2)
    return out


def flagged_types(bounds: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Off-diagonal types whose bound does not exclude nl_3 = TARGET."""
    return sorted(t for t, bd in bounds.items() if t[0] != t[1] and bd >= TARGET)


def rho_upper_bound(stats: dict[int, ClassStats]) -> int:
    """max_k (nl_3(fn_k) + ml_2(fn_k)): an upper bound on rho(3, 7)."""
    if sorted(stats) != list(range(NUM_CLASSES)):
        raise ValueError("need stats for all eleven classes")
    return max(s.nl3 + s.ml2 for s in stats.values())


# Cited literature inputs for the bound chain; these are inputs to the
# arithmetic, not results of this package.
CITED_BOUNDS = {
    ("rho", 2, 7): 40,
    ("rho_upper", 2, 8): 96,
    ("rho_upper", 2, 9): 216,
    ("rho", 4, 7): 8,
}


def chain_bounds() -> dict[tuple[int, int], int]:
    """The six bounds from rho(r, n) <= rho(r-1, n-1) + rho(r, n-1).

    Seeds: the verified rho(3,7) plus the cited constants in CITED_BOUNDS.
    Returns {(r, n): bound} for r in {3, 4}, n in {8, 9, 10}.
    """
    b: dict[tuple[int, int], int] = {}
    b[(3, 8)] = CITED_BOUNDS[("rho", 2, 7)] + TARGET - 1
    b[(3, 9)] = CITED_BOUNDS[("rho_upper", 2, 8)] + b[(3, 8)]
    b[(3, 10)] = CITED_BOUNDS[("rho_upper", 2, 9)] + b[(3, 9)]
    b[(4, 8)] = TARGET - 1 + CITED_BOUNDS[("rho", 4, 7)]
    b[(4, 9)] = b[(3, 8)] + b[(4, 8)]
    b[(4, 10)] = b[(3, 9)] + b[(4, 9)]
    return b
