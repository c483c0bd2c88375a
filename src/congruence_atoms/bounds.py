"""Closed-form bounds on the number of indecomposable solutions.

All arithmetic is exact and in integers.  The one real-valued bound,
r(m), needs pi: Machin's formula gives integers lo < pi * 2**bits < hi,
and the floor of r(m) is taken from both ends, with more bits until the
two agree, so it is proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainError
from .enumeration import count_letters
from . import tables


def bound_simplex(n, m):
    """Upper bound C(n+m-1, m) for the count over n variables."""
    if n < 1 or m < 2:
        raise DomainError("bound_simplex needs n >= 1, m >= 2")
    return math.comb(n + m - 1, m)


def _pi_bracket(bits):
    """Integers lo < pi * 2**bits < hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in fixed point.  Each term is off by
    less than one unit (a floor of a floor is the floor), and so is the
    alternating tail after the last non-zero power."""

    def atan_inv(x):
        # atan(1/x) * 2**bits, and the units it can be off by
        power = (1 << bits) // x
        total, k = 0, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= x * x
            k += 1
        return total, k + 1

    a5, err5 = atan_inv(5)
    a239, err239 = atan_inv(239)
    mid, err = 16 * a5 - 4 * a239, 16 * err5 + 4 * err239
    return mid - err, mid + err


def _floor_r(m, bits):
    """r(m) = isqrt(floor(16**(m-1) / (4 pi (m-1)))), since the floor of
    a square root is the isqrt of the floor.  Both ends of the pi bracket
    give a floor; where they differ, the bracket doubles its bits.  The
    real 16**(m-1) / (4 pi (m-1)) is irrational, so no perfect square, and
    the two floors agree in the end."""
    while True:
        lo, hi = _pi_bracket(bits)
        scaled = 16 ** (m - 1) << bits
        low = math.isqrt(scaled // (4 * (m - 1) * hi))
        if low == math.isqrt(scaled // (4 * (m - 1) * lo)):
            return low
        bits *= 2


def bound_r(m):
    """Floor of 4^(m-1) / (2 sqrt(pi) sqrt(m-1)), exact floor guaranteed."""
    if m < 2:
        raise DomainError("bound_r needs m >= 2")
    # r(m) has about 2m bits; 64 more leave no second round for m <= 3000
    return _floor_r(m, 2 * m + 64)


def bound_q(m):
    """Sum over widths s of C(m-1, s) * C(m-s-1, s-1), in one pass from
    term 1 = m - 1: term s + 1 is term s * (m-2s)(m-2s-1) // (s(s+1)),
    exact since both are integers, and the first zero is at s = m//2 + 1."""
    if m < 4:
        raise DomainError("bound_q needs m >= 4")
    total, term, s = 0, m - 1, 1
    while term:
        total += term
        term = term * (m - 2 * s) * (m - 2 * s - 1) // (s * (s + 1))
        s += 1
    return total


def support_capacity(m, s):
    """Max number of indecomposable solutions on a fixed s-element support."""
    if m < 4:
        raise DomainError("support_capacity needs m >= 4")
    if not (3 <= s and 2 * s <= m):
        raise DomainError("support size must satisfy 3 <= s <= m/2")
    return math.comb(m - s - 1, s - 1)


# P(0), P(1), ...: partition_count extends it bottom-up as far as needed
_PARTITIONS = [1]


def partition_count(m):
    """Partition function P(m) via the pentagonal-number recurrence."""
    if m < 0:
        raise DomainError("partition_count needs m >= 0")
    p = _PARTITIONS
    for n in range(len(p), m + 1):
        # P(n) = sum over k >= 1 of (-1)^(k+1) (P(n - g) + P(n - g - k))
        # with g = k(3k - 1)/2, the terms with a negative argument being 0
        total = 0
        for k in range(1, n + 1):
            g = k * (3 * k - 1) // 2
            if g > n:
                break
            term = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            total += term if k % 2 else -term
        p.append(total)
    return p[m]


def log2_rounded(value):
    """log2 of a positive integer, rounded half-up to one decimal, as str.

    value**20 has floor(20 log2 value) + 1 bits, so half its bit length,
    floored, is 10 log2 value rounded half up; no tie occurs, since
    value**20 is never an odd power of 2."""
    if value < 1:
        raise DomainError("log2 needs a positive count")
    k = (value**20).bit_length() // 2
    return f"{k // 10}.{k % 10}"


@dataclass(frozen=True)
class BoundsRow:
    m: int
    ell: int          # None when unknown and enumeration was not requested
    q: int
    r: int
    m_times_p: int
    log2_ell: str     # one decimal, None when ell unknown
    ell_source: str   # "enumerated", "reference" or "unknown"


def bounds_row(m, with_enumeration=False):
    """The comparison row of m: the solution count against its bounds.

    With with_enumeration, ell comes from the exhaustive closing-letter
    search, counted by count_letters without building the atoms."""
    if with_enumeration:
        ell = count_letters(m, range(1, m))
        source = "enumerated"
    elif m in tables.ELL:
        ell = tables.ELL[m]
        source = "reference"
    else:
        ell = None
        source = "unknown"
    return BoundsRow(
        m=m,
        ell=ell,
        q=bound_q(m),
        r=bound_r(m),
        m_times_p=m * partition_count(m),
        log2_ell=log2_rounded(ell) if ell else None,
        ell_source=source,
    )


def table2_rows(m_min, m_max, with_enumeration=False):
    """The rows m_min..m_max, each made as it is read; the range is
    checked at once.  A row costs about 0.013 s at m = 4000 and 0.04 s at
    m = 7143, most of it r(m) and q(m), so a reader can print each one
    before the next is made."""
    if not 4 <= m_min <= m_max:
        raise DomainError("need 4 <= m_min <= m_max")
    return (bounds_row(m, with_enumeration) for m in range(m_min, m_max + 1))


def table2(m_min, m_max, with_enumeration=False):
    """The comparison rows m_min..m_max, all made before it returns."""
    return tuple(table2_rows(m_min, m_max, with_enumeration))
