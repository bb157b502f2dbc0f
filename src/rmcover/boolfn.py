"""Boolean functions on up to seven variables.

A function f: GF(2)^n -> GF(2) is stored twice, as a packed truth table and
as its algebraic normal form (ANF), both in a single Python int of 2^n bits.
The two views are Moebius transforms of each other and kept in sync eagerly;
128 bits per view is cheap and both are read in hot loops.

Bit conventions (fixed here once, used by every serialized artifact):

* Point index: the input x = (x1, ..., xn) maps to i = sum_j x_j * 2^(j-1),
  i.e. x1 is the least significant index bit.
* ANF index: the monomial prod_{j in S} x_j maps to the int with bit j-1 set
  for each j in S.  Monomials are always ordered ascending by that mask value;
  this single ordering defines the coefficient words used by the nonlinearity
  tables and the file formats.
* Hex text form: 2^n/4 hex digits (at least one), most significant nibble
  holding the highest point indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_VARS = 7

__all__ = [
    "MAX_VARS",
    "BooleanFunction",
    "MonomialSet",
    "mobius",
    "weight",
    "distance",
    "degree",
    "concat",
    "split",
    "apply_affine",
    "homogeneous_part",
    "monomial_masks",
    "popcount_mask",
    "xor_span",
]


@lru_cache(maxsize=None)
def _butterfly_masks(n: int) -> tuple[int, ...]:
    """For each dimension d, the mask of point indices with bit d clear."""
    size = 1 << n
    full = (1 << size) - 1
    masks = []
    for d in range(n):
        block = (1 << (1 << d)) - 1
        period = 1 << (d + 1)
        m = 0
        for start in range(0, size, period):
            m |= block << start
        masks.append(m & full)
    return tuple(masks)


def mobius(coeffs: int, n: int) -> int:
    """GF(2) Moebius transform of a packed 2^n-bit vector.

    Maps ANF coefficients to the truth table and vice versa; the transform is
    an involution.  Raises ValueError if `coeffs` does not fit in 2^n bits.
    """
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"variable count {n} out of range 0..{MAX_VARS}")
    size = 1 << n
    if coeffs < 0 or coeffs >> size:
        raise ValueError(f"bitvector does not fit in {size} bits")
    v = coeffs
    for d, mask in enumerate(_butterfly_masks(n)):
        v ^= (v & mask) << (1 << d)
    return v


@lru_cache(maxsize=None)
def monomial_masks(n: int, r: int) -> tuple[int, ...]:
    """All n-variable monomial masks of degree exactly r, ascending."""
    return tuple(m for m in range(1 << n) if m.bit_count() == r)


@lru_cache(maxsize=None)
def popcount_mask(n: int, r: int) -> int:
    """Packed mask selecting the ANF positions of degree-r monomials."""
    m = 0
    for pos in monomial_masks(n, r):
        m |= 1 << pos
    return m


def xor_span(gens, dtype) -> np.ndarray:
    """XOR of every subset of `gens` (read-only), indexed by the subset's mask."""
    out = np.zeros(1 << len(gens), dtype=dtype)
    for i, g in enumerate(gens):
        out[1 << i:2 << i] = out[:1 << i] ^ dtype(g)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MonomialSet:
    """An ascending list of n-variable monomials: the coordinates of a word.

    `members[i]` is the mask of the i-th monomial; bit i of a coefficient
    word refers to `members[i]`, and every other monomial is ignored.  The
    degree-r set `of(n, r)` is the persistent index for homogeneous
    coefficient words everywhere: value arrays, level sets, file formats.
    The coset keys of RM(6,6)/RM(3,6) are words over the monomials of
    degree >= 4.
    """

    n: int
    members: tuple[int, ...]

    @classmethod
    def of(cls, n: int, r: int) -> "MonomialSet":
        return _monomial_set(n, r)

    def __len__(self) -> int:
        return len(self.members)

    def word_to_anf(self, word: int) -> int:
        """Expand a coefficient word into a packed ANF bitvector."""
        anf = 0
        w = word
        while w:
            low = w & -w
            anf |= 1 << self.members[low.bit_length() - 1]
            w ^= low
        return anf

    def anf_to_word(self, anf: int) -> int:
        """Gather the coefficients of the members from a packed ANF."""
        word = 0
        for i, m in enumerate(self.members):
            word |= (anf >> m & 1) << i
        return word

    def function(self, word: int) -> "BooleanFunction":
        """The function whose ANF is the given coefficient word."""
        return BooleanFunction.from_anf(self.n, self.word_to_anf(word))

    def action(self, L) -> tuple[np.ndarray, np.ndarray]:
        """Half lookup tables (lo, hi) of w -> word(function(w) o L).

        The map is linear, so word w maps to lo[w mod 2^h] ^ hi[w >> h] with
        h = len(self) // 2.  For the degree-r words it is g -> T_r(g o L);
        for the coset keys it is the induced action on RM(6,6)/RM(3,6).
        """
        cols = [self.anf_to_word(apply_affine(self.function(1 << i), L).anf)
                for i in range(len(self))]
        half = len(cols) // 2
        return xor_span(cols[:half], np.uint32), xor_span(cols[half:], np.uint32)


@lru_cache(maxsize=None)
def _monomial_set(n: int, r: int) -> MonomialSet:
    return MonomialSet(n, monomial_masks(n, r))


@dataclass(frozen=True)
class BooleanFunction:
    """An n-variable Boolean function, immutable, with synced tt and anf."""

    n: int
    tt: int
    anf: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count {self.n} out of range 1..{MAX_VARS}")
        size = 1 << self.n
        if self.tt < 0 or self.tt >> size:
            raise ValueError(f"truth table does not fit in {size} bits")
        if self.anf != mobius(self.tt, self.n):
            raise ValueError("truth table and ANF are out of sync")

    # ---- constructors ----

    @classmethod
    def from_tt(cls, n: int, tt: int) -> "BooleanFunction":
        return cls(n, tt, mobius(tt, n))

    @classmethod
    def from_anf(cls, n: int, anf: int) -> "BooleanFunction":
        return cls(n, mobius(anf, n), anf)

    @classmethod
    def from_monomials(cls, n: int, masks) -> "BooleanFunction":
        """Build from an iterable of monomial masks (XOR of monomials)."""
        anf = 0
        for m in masks:
            anf ^= 1 << m
        return cls.from_anf(n, anf)

    @classmethod
    def zero(cls, n: int) -> "BooleanFunction":
        return cls(n, 0, 0)

    @classmethod
    def one(cls, n: int) -> "BooleanFunction":
        return cls.from_anf(n, 1)

    # ---- text formats ----

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "BooleanFunction":
        """Parse the hex truth-table form; n is inferred from the digit count
        (4 digits per 16 points) unless explicitly given."""
        text = text.strip().lower().removeprefix("0x")
        tt = int(text, 16)
        if n is None:
            bits = 4 * len(text)
            n = max(1, bits.bit_length() - 1)
            if (1 << n) != bits and not (n == 2 and bits == 4):
                raise ValueError(f"hex length {len(text)} is not a power-of-two point count")
        return cls.from_tt(n, tt)

    def to_hex(self) -> str:
        digits = max(1, (1 << self.n) // 4)
        return format(self.tt, f"0{digits}x")

    @classmethod
    def from_anf_string(cls, text: str, n: int | None = None) -> "BooleanFunction":
        """Parse an ANF like "x1x2x4x5+x1x2x3x6"; "0" and "1" are constants."""
        text = text.replace(" ", "")
        if not text:
            raise ValueError("empty ANF string")
        anf = 0
        max_var = 0
        for term in text.split("+"):
            if term == "0":
                continue
            if term == "1":
                anf ^= 1
                continue
            mask = 0
            for piece in term.split("x"):
                if piece == "":
                    continue
                j = int(piece)
                if j < 1:
                    raise ValueError(f"bad variable index in term {term!r}")
                mask |= 1 << (j - 1)
                max_var = max(max_var, j)
            if mask == 0:
                raise ValueError(f"unparseable term {term!r}")
            anf ^= 1 << mask
        if n is None:
            n = max(max_var, 1)
        elif max_var > n:
            raise ValueError(f"term uses x{max_var} but n={n}")
        return cls.from_anf(n, anf)

    def to_anf_string(self) -> str:
        if self.anf == 0:
            return "0"
        terms = []
        a = self.anf
        while a:
            low = a & -a
            mask = low.bit_length() - 1
            if mask == 0:
                terms.append("1")
            else:
                terms.append("".join(f"x{j + 1}" for j in range(self.n) if mask >> j & 1))
            a ^= low
        return "+".join(terms)

    # ---- algebra ----

    def __add__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return BooleanFunction(self.n, self.tt ^ other.tt, self.anf ^ other.anf)

    __xor__ = __add__

    def value(self, x: int) -> int:
        return self.tt >> x & 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BooleanFunction(n={self.n}, anf={self.to_anf_string()})"


def weight(f: BooleanFunction) -> int:
    """Number of inputs where f evaluates to 1."""
    return f.tt.bit_count()


def distance(f: BooleanFunction, g: BooleanFunction) -> int:
    """Hamming distance between two functions on the same variables."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    return (f.tt ^ g.tt).bit_count()


def degree(f: BooleanFunction) -> int:
    """Algebraic degree; the zero function has degree 0."""
    d = 0
    a = f.anf
    while a:
        low = a & -a
        d = max(d, (low.bit_length() - 1).bit_count())
        a ^= low
    return d


def concat(f1: BooleanFunction, f2: BooleanFunction) -> BooleanFunction:
    """The (n+1)-variable function equal to f1 where x_{n+1}=0 and f2 where 1.

    ANF identity: f1 || f2 = f1 + x_{n+1} (f1 + f2).
    """
    if f1.n != f2.n:
        raise ValueError("variable count mismatch")
    n = f1.n
    if n >= MAX_VARS:
        raise ValueError(f"concatenation would exceed {MAX_VARS} variables")
    size = 1 << n
    tt = f1.tt | (f2.tt << size)
    anf = f1.anf | ((f1.anf ^ f2.anf) << size)
    return BooleanFunction(n + 1, tt, anf)


def split(f: BooleanFunction) -> tuple[BooleanFunction, BooleanFunction]:
    """Inverse of concat: the two halves along the top variable x_n."""
    if f.n < 2:
        raise ValueError("cannot split a 1-variable function")
    n = f.n - 1
    size = 1 << n
    low = (1 << size) - 1
    f1_anf = f.anf & low
    f2_anf = f1_anf ^ (f.anf >> size)
    return (
        BooleanFunction(n, f.tt & low, f1_anf),
        BooleanFunction(n, f.tt >> size, f2_anf),
    )


def apply_affine(f: BooleanFunction, L) -> BooleanFunction:
    """Substitute x -> Ax + b: result(x) = f(L(x)).  L must be over GF(2)
    with L.n == f.n.  Degree is preserved (A is invertible)."""
    if getattr(L, "q", None) != 2:
        raise ValueError("apply_affine requires an affine map over GF(2)")
    if L.n != f.n:
        raise ValueError("dimension mismatch")
    size = 1 << f.n
    # Column images A e_j packed as point indices, then subset-XOR doubling.
    cols = []
    for j in range(f.n):
        c = 0
        for i in range(f.n):
            c |= (L.A[i][j] & 1) << i
        cols.append(c)
    b = 0
    for i in range(f.n):
        b |= (L.b[i] & 1) << i
    img = [0] * size
    img[0] = b
    width = 1
    for c in cols:
        for x in range(width):
            img[width + x] = img[x] ^ c
        width <<= 1
    tt = 0
    src = f.tt
    for x in range(size):
        tt |= (src >> img[x] & 1) << x
    return BooleanFunction.from_tt(f.n, tt)


def homogeneous_part(f: BooleanFunction, r: int) -> BooleanFunction:
    """Projection T_r: keep only the ANF monomials of degree exactly r."""
    if not 0 <= r <= f.n:
        raise ValueError(f"degree {r} out of range 0..{f.n}")
    return BooleanFunction.from_anf(f.n, f.anf & popcount_mask(f.n, r))

