"""Shared domain types and exact-arithmetic helpers.

Everything here works on plain tuples of non-negative integers; the
dataclasses are thin validated containers.  All arithmetic is exact
(Python ints), never floating point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import combinations_with_replacement


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class BudgetExceeded(RuntimeError):
    """An exhaustive scan would exceed its configured budget."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


def closure_step(mask, t, m):
    """Add the letter t (0 <= t < m) to a multiset whose non-empty
    sub-multiset sums mod m are the set bits of `mask`: the result is
    mask | rot(mask, t) | {t}.  Bit 0 of the result is set exactly when
    the extended multiset has a non-empty zero-sum sub-multiset."""
    # {t} is rot({0}, t); the bits shifted past m - 1 wrap round to 0
    shifted = (mask | 1) << t
    return mask | (shifted & ((1 << m) - 1)) | (shifted >> m)


def compositions(total, parts):
    """The `parts`-tuples of non-negative integers that sum to `total`,
    lazily and in lexicographic order: by stars and bars, the gaps between
    the cut points 0 <= c_1 <= ... <= c_{parts-1} <= total."""
    if parts == 0:
        if total == 0:
            yield ()
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


def leq(x, y):
    """Componentwise partial order: x <= y iff x_i <= y_i for every i."""
    if len(x) != len(y):
        raise DomainError("dimension mismatch in componentwise comparison")
    return all(a <= b for a, b in zip(x, y))


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


def weight_mod(coords, m):
    """Index-weighted sum of coords, reduced mod m."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    return sum(i * c for i, c in enumerate(coords, start=1)) % m


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


def binomial(n, k):
    """Exact binomial coefficient; 0 outside the range 0 <= k <= n."""
    if n < 0:
        raise DomainError("binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class CongruenceInstance:
    """A general congruence: a1*x1 + ... + an*xn = 0 mod m.

    Coefficients are normalized into [0, m) on construction; the values
    as given are kept in `original` for display.
    """

    modulus: int
    coefficients: tuple
    original: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError("modulus must be >= 2")
        coeffs = tuple(self.coefficients)
        if len(coeffs) < 1:
            raise DomainError("need at least one coefficient")
        object.__setattr__(self, "original", coeffs)
        object.__setattr__(
            self, "coefficients", tuple(a % self.modulus for a in coeffs)
        )

    @property
    def dimension(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class NormalForm:
    """The standard congruence restricted to a coefficient set J."""

    modulus: int
    support: tuple  # strictly increasing, within (0, m)

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError("modulus must be >= 2")
        J = tuple(self.support)
        if not J:
            raise DomainError("support set J must be non-empty")
        if any(j <= 0 or j >= self.modulus for j in J):
            raise DomainError("support elements must lie in (0, m)")
        if any(a >= b for a, b in zip(J, J[1:])):
            raise DomainError("support must be strictly increasing")
        object.__setattr__(self, "support", J)
