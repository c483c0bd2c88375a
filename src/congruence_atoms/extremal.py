"""Extremal solutions: indecomposable with total size exactly m + 1.

Apart from the known exception at m = 6, these fall into two explicit
families of size phi(m) each (width 1: m*e_i with gcd(i, m) = 1;
width 2: (m-2)*e_i + e_j with j = 2i mod m).  At m = 3 the width-2
construction degenerates: i = 1 and i = 2 both yield (1, 1), so the
family there has only one member and the overall count is 3, not
2*phi(3) = 4; verify_extremal settles the count by enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BudgetExceeded, DomainError, euler_phi
from .enumeration import is_indecomposable

# the two extra extremal solutions that exist only at m = 6
M6_EXCEPTIONS = ((0, 2, 1, 0, 1), (1, 0, 1, 2, 0))

# the most vector entries that extremal_all builds: it is refused past
# this before building anything, from m alone
ENTRY_BUDGET = 50_000_000


@dataclass(frozen=True)
class ExtremalSolution:
    vector: tuple
    width_class: str            # "width1", "width2" or "exceptional"
    generator_index: int = None  # the i of the family construction


def extremal_width1(m):
    """The phi(m) solutions m*e_i with gcd(i, m) = 1."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    out = []
    for i in range(1, m):
        if math.gcd(i, m) == 1:
            x = [0] * (m - 1)
            x[i - 1] = m
            out.append(ExtremalSolution(tuple(x), "width1", i))
    assert len(out) == euler_phi(m)
    return tuple(out)


def extremal_width2(m):
    """The solutions (m-2)*e_i + e_j with gcd(i, m) = 1, j = 2i mod m.

    Distinct vectors only; at m = 3 the two generators collide.
    """
    if m < 3:
        raise DomainError("width-2 family requires m >= 3")
    out = []
    seen = set()
    for i in range(1, m):
        if math.gcd(i, m) != 1:
            continue
        j = (2 * i) % m
        assert j != 0, "2i = 0 mod m impossible for gcd(i, m) = 1, m >= 3"
        x = [0] * (m - 1)
        x[i - 1] += m - 2
        x[j - 1] += 1
        x = tuple(x)
        if x not in seen:
            seen.add(x)
            out.append(ExtremalSolution(x, "width2", i))
    return tuple(out)


def extremal_all(m):
    """Every extremal solution: the two families, plus the m = 6 pair.
    Each family has at most m - 1 vectors of m - 1 entries (phi(m) is
    not computed for the bound), and the m = 6 pair fits in that."""
    if m < 3:
        raise DomainError("extremal classification requires m >= 3")
    if 2 * (m - 1) ** 2 > ENTRY_BUDGET:
        raise BudgetExceeded(
            f"the extremal vectors of m = {m} may take 2(m-1)^2 entries, "
            f"past the budget of {ENTRY_BUDGET}"
        )
    out = list(extremal_width1(m)) + list(extremal_width2(m))
    if m == 6:
        out.extend(ExtremalSolution(x, "exceptional") for x in M6_EXCEPTIONS)
    out.sort(key=lambda s: s.vector)
    return tuple(out)


def extremal_filter(solutions, m):
    """The members of solutions with total size (length + width) m + 1."""
    return tuple(x for x in solutions if sum(x) + len(x) - x.count(0) == m + 1)


def verify_extremal(m, result):
    """Check the classification against `result`, the enumeration of
    the standard congruence mod m.

    Filters the full solution set for total size m + 1 and compares with
    extremal_all(m); also checks width <= 3 and (for m >= 4) the unique
    coordinate >= 2.  Raises AssertionError on any mismatch, also under -O.
    """
    filtered = extremal_filter(result.solutions, m)
    constructed = sorted(s.vector for s in extremal_all(m))
    if sorted(filtered) != constructed:
        raise AssertionError(m, filtered, constructed)
    for x in filtered:
        width = sum(1 for c in x if c)
        if width > 3:
            raise AssertionError(m, x)
        if m >= 4 and sum(1 for c in x if c >= 2) != 1:
            raise AssertionError(m, x)
        if not is_indecomposable(x, m):
            raise AssertionError(m, x)
    return True
