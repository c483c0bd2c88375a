"""Closed-form bounds on the number of indecomposable solutions.

All counting is exact; the one real-valued bound (bound_r) is evaluated
with mpmath at high precision and floored, with a perturbation check
that the floor is stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

import mpmath

from .core import DomainError, binomial
from .enumeration import count_letters
from . import tables

# working precision for bound_r / stirling_central (significant digits)
REAL_PRECISION_DPS = 50


def bound_simplex(n, m):
    """Upper bound C(n+m-1, m) for the count over n variables."""
    if n < 1 or m < 2:
        raise DomainError("bound_simplex needs n >= 1, m >= 2")
    return binomial(n + m - 1, m)


def bound_r(m):
    """Floor of 4^(m-1) / (2 sqrt(pi) sqrt(m-1)), exact floor guaranteed."""
    if m < 2:
        raise DomainError("bound_r needs m >= 2")
    # 0.602*(m-1) digits land left of the point; keep headroom beyond them
    with mpmath.workdps(max(REAL_PRECISION_DPS, m)):
        power = mpmath.mpf(4 ** (m - 1))  # exact integer input
        denom = 2 * mpmath.sqrt(mpmath.pi) * mpmath.sqrt(m - 1)
        value = power / denom
        # a relative 10^(10 - dps) is far above the rounding error; value
        # has about 0.6 m digits and dps >= max(50, m), so it is below one
        eps = mpmath.mpf(10) ** (10 - mpmath.mp.dps)
        lo = int(mpmath.floor(value * (1 - eps)))
        hi = int(mpmath.floor(value * (1 + eps)))
    if lo != hi:
        raise ArithmeticError(f"floor of r({m}) unstable at working precision")
    return lo


def bound_q(m):
    """Sum over widths s of C(m-1, s) * C(m-s-1, s-1)."""
    if m < 4:
        raise DomainError("bound_q needs m >= 4")
    return sum(
        binomial(m - 1, s) * binomial(m - s - 1, s - 1)
        for s in range(1, m // 2 + 1)
    )


def support_capacity(m, s):
    """Max number of indecomposable solutions on a fixed s-element support."""
    if m < 4:
        raise DomainError("support_capacity needs m >= 4")
    if not (3 <= s and 2 * s <= m):
        raise DomainError("support size must satisfy 3 <= s <= m/2")
    return binomial(m - s - 1, s - 1)


def stirling_central(n):
    """Exact central binomial C(2n, n) plus its Stirling error bracket.

    Returns (value, (lower, upper)) where value = (4^n / sqrt(pi n)) * E_n
    and the bracket (e^{-1/(6n)}, 1) provably contains E_n; the bracket
    is also asserted numerically.
    """
    if n < 1:
        raise DomainError("stirling_central needs n >= 1")
    value = math.comb(2 * n, n)
    with mpmath.workdps(REAL_PRECISION_DPS):
        e_n = mpmath.mpf(value) * mpmath.sqrt(mpmath.pi * n) / mpmath.mpf(4**n)
        lower = mpmath.e ** (mpmath.mpf(-1) / (6 * n))
        if not lower < e_n < 1:
            raise ArithmeticError(f"Stirling bracket violated at n={n}")
        return value, (float(lower), 1.0)


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
    """log2 of a positive integer, rounded half-up to one decimal, as str."""
    if value < 1:
        raise DomainError("log2 needs a positive count")
    return str(
        Decimal(repr(math.log2(value))).quantize(Decimal("0.1"), ROUND_HALF_UP)
    )


@dataclass(frozen=True)
class BoundsRow:
    m: int
    ell: int          # None when unknown and enumeration was not requested
    q: int
    r: int
    m_times_p: int
    log2_ell: str     # one decimal, None when ell unknown
    ell_source: str   # "enumerated", "reference" or "unknown"


def table2(m_min, m_max, with_enumeration=False):
    """Comparison rows: the solution count against its bounds.

    With with_enumeration, ell comes from the exhaustive closing-letter
    search, counted by count_letters without building the atoms."""
    if not 4 <= m_min <= m_max:
        raise DomainError("need 4 <= m_min <= m_max")

    rows = []
    for m in range(m_min, m_max + 1):
        if with_enumeration:
            ell = count_letters(m, range(1, m))
            source = "enumerated"
        elif m in tables.ELL:
            ell = tables.ELL[m]
            source = "reference"
        else:
            ell = None
            source = "unknown"
        rows.append(
            BoundsRow(
                m=m,
                ell=ell,
                q=bound_q(m),
                r=bound_r(m),
                m_times_p=m * partition_count(m),
                log2_ell=log2_rounded(ell) if ell else None,
                ell_source=source,
            )
        )
    return tuple(rows)
