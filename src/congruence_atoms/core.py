"""Shared domain types and exact-arithmetic helpers.

Everything here works on plain tuples of non-negative integers; the
dataclasses are thin validated containers.  All arithmetic is exact
(Python ints), never floating point.  The one packed-row format of the
listing, the cache and the lift is built here (`row_width`, `row_struct`),
and so are the byte budget of a streamed result (`STREAM_BYTES`) and the
one memo it bounds, of the record writer and the lift (`Memo`).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement
from struct import Struct


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class BudgetExceeded(RuntimeError):
    """An exhaustive scan would exceed its budget."""


def closure_step(mask, t, m):
    """Add the letter t (0 <= t < m) to a multiset whose non-empty
    sub-multiset sums mod m are the set bits of `mask`: the result is
    mask | rot(mask, t) | {t}.  Bit 0 of the result is set exactly when
    the extended multiset has a non-empty zero-sum sub-multiset."""
    # {t} is rot({0}, t); the bits shifted past m - 1 wrap round to 0
    shifted = (mask | 1) << t
    wrapped = shifted >> m
    return mask | wrapped | (shifted ^ (wrapped << m))


def closure_mask(items, m):
    """`closure_step` folded over the items of a multiset of letters in
    [0, m): its set bits are the non-empty sub-multiset sums mod m."""
    return reduce(lambda mask, t: closure_step(mask, t, m), items, 0)


TOO_DEEP = "the closing-letter walk is deeper than the recursion limit"


def refuse_deep_walk(m, letters):
    """Refuse a closing-letter walk over the letters that is certain to
    outrun the recursion limit: letter a has order m/gcd(a, m), and the
    walk reaches a**(order - 1), which is zero-sum-free and order frames
    deep.  It stops at the first such letter, so it can run on a range."""
    limit = sys.getrecursionlimit()
    if m > limit and any(m // math.gcd(a, m) > limit for a in letters):
        raise BudgetExceeded(TOO_DEEP)


# a packed row is n big-endian unsigned digits of one of these widths,
# in bytes; with their struct codes
DIGIT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def row_width(m, letters):
    """The digit width of the atoms over the letters mod m, or past 64
    bits a DomainError: the narrowest that holds max ord(a) = m/gcd(a, m).
    No atom holds a**ord(a) as a proper part, since a**ord(a) is zero-sum;
    and a**ord(a) is itself an atom, so the bound is reached."""
    top = max(m // math.gcd(a, m) for a in letters)
    width = next((w for w in DIGIT_CODES if top < 1 << 8 * w), None)
    if width is None:
        raise DomainError(f"an atom entry of {top} does not fit in 64 bits")
    return width


def row_struct(n, width):
    """The struct of n digits of a packed row, `width` bytes each, and
    big-endian: rows read as numbers are in lexicographic order."""
    return Struct(f">{n}{DIGIT_CODES[width]}")


# the byte budget of a streamed result: at most this many bytes of rows
# in a lift bucket, and of keys in a memo, however many rows stream
STREAM_BYTES = 1 << 17


class Memo(dict):
    """The value of each key made by `make` on first use; the memo starts
    over once it holds STREAM_BYTES // max(8, key_bytes) values."""

    def __init__(self, make, key_bytes=8):
        super().__init__()
        self.make = make
        self.key_bytes = max(8, key_bytes)

    def __missing__(self, key):
        if len(self) >= STREAM_BYTES // self.key_bytes:
            self.clear()
        value = self[key] = self.make(key)
        return value


def compositions(total, parts):
    """The `parts`-tuples of non-negative integers that sum to `total`,
    lazily and in lexicographic order: by stars and bars, the gaps between
    the cut points 0 <= c_1 <= ... <= c_{parts-1} <= total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        # no cut points, and combinations_with_replacement would copy
        # range(total + 1) first
        yield (total,)
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, cuts + (total,), (0,) + cuts))


def check_vector(coords):
    """Validate and freeze a candidate solution vector."""
    coords = tuple(coords)
    if len(coords) < 1:
        raise DomainError("solution vector must have dimension >= 1")
    if any(c < 0 for c in coords):
        raise DomainError("solution vector coordinates must be >= 0")
    return coords


def check_letters(m, letters, name, zero=True):
    """Validate and freeze a letter set mod m: strictly increasing, within
    [0, m), or (0, m) without `zero`, possibly empty.  `name` names the
    set in the error message."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    letters = tuple(letters)
    low = 0 if zero else 1
    if any(j < low or j >= m for j in letters):
        raise DomainError(f"{name} elements must lie in {'[' if zero else '('}0, m)")
    for a, b in zip(letters, letters[1:]):
        if a >= b:
            fault = f"repeats {a}" if a == b else "must be strictly increasing"
            raise DomainError(f"{name} {fault}")
    return letters


@dataclass(frozen=True)
class SolutionMetrics:
    length: int      # sum of coordinates
    width: int       # number of non-zero coordinates
    height: int      # max coordinate
    weight: int      # sum of i * x_i with 1-based i
    total_size: int  # length + width


def metrics(coords):
    coords = check_vector(coords)
    length = sum(coords)
    width = len(coords) - coords.count(0)
    height = max(coords)
    weight = sum(map(operator.mul, range(1, len(coords) + 1), coords))
    return SolutionMetrics(length, width, height, weight, length + width)


def bound_violations(x, m):
    """The names of the bound theorems that a vector x over the standard
    alphabet 1..m-1 violates; every atom violates none.  The bounds are
    length <= m, 2 * width <= m, length + width <= m + 1 and, for m >= 7
    and width >= 3, length <= m - 3."""
    length = sum(x)
    width = len(x) - x.count(0)
    names = []
    if length > m:
        names.append("length")
    if 2 * width > m:
        names.append("width")
    if length + width > m + 1:
        names.append("total size")
    if m >= 7 and width >= 3 and length > m - 3:
        names.append("length refinement")
    return tuple(names)


def euler_phi(m):
    """Euler totient via trial-division factorization."""
    if m < 1:
        raise DomainError("euler_phi needs m >= 1")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@dataclass(frozen=True)
class CongruenceInstance:
    """A general congruence: a1*x1 + ... + an*xn = 0 mod m.

    Coefficients are normalized into [0, m) on construction.
    """

    modulus: int
    coefficients: tuple

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError("modulus must be >= 2")
        coeffs = tuple(self.coefficients)
        if len(coeffs) < 1:
            raise DomainError("need at least one coefficient")
        object.__setattr__(
            self, "coefficients", tuple(a % self.modulus for a in coeffs)
        )

    @property
    def dimension(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class NormalForm:
    """The standard congruence restricted to a coefficient set J: the
    one check of a letter set, for every walk, count and scan.  Letter 0
    is allowed: its one atom is the unit vector e_0."""

    modulus: int
    support: tuple  # strictly increasing, within [0, m)

    @classmethod
    def standard(cls, m):
        """The whole alphabet J = 1..m-1.  Every walk over it holds letter
        1, of order m, so past the recursion limit the alphabet is refused
        before its m - 1 letters are built."""
        refuse_deep_walk(m, range(1, m))
        return cls(m, tuple(range(1, m)))

    @property
    def is_standard(self):
        """True iff J is the whole alphabet 1..m-1: the one strictly
        increasing run of m - 1 letters in [0, m) that starts at 1."""
        return len(self.support) == self.modulus - 1 and self.support[0] == 1

    def __post_init__(self):
        J = check_letters(self.modulus, self.support, "support")
        if not J:
            raise DomainError("support set J must be non-empty")
        object.__setattr__(self, "support", J)
