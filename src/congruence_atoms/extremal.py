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

from .core import BudgetExceeded, DomainError
from .enumeration import is_indecomposable

# the two extra extremal solutions that exist only at m = 6
M6_EXCEPTIONS = ((0, 2, 1, 0, 1), (1, 0, 1, 2, 0))

# the most vector entries that extremal_all lists: past this it is
# refused when called, from m alone
ENTRY_BUDGET = 50_000_000


@dataclass(frozen=True)
class ExtremalSolution:
    vector: tuple
    width_class: str            # "width1", "width2" or "exceptional"
    generator_index: int = None  # the i of the family construction


def extremal_all(m):
    """Every extremal solution, in increasing vector order: the two
    families, plus the m = 6 pair.  m and the budget are checked at
    once, from m alone: each family has at most m - 1 vectors of m - 1
    entries (phi(m) is not computed for the bound), and the m = 6 pair
    fits in that.  The listing that comes back holds O(m) sparse keys
    and builds each dense vector as it is read."""
    if m < 3:
        raise DomainError("extremal classification requires m >= 3")
    if 2 * (m - 1) ** 2 > ENTRY_BUDGET:
        raise BudgetExceeded(
            f"the extremal vectors of m = {m} may take 2(m-1)^2 entries, "
            f"past the budget of {ENTRY_BUDGET}"
        )
    return _listing(m)


def _listing(m):
    # a vector's key is (-position, value) for each non-zero entry, in
    # position order: keys sort as the dense vectors do.  A vector that
    # two generators give keeps the first i (at m = 3, (1, 1) is i = 1)
    found = {}
    for i in range(1, m):
        if math.gcd(i, m) == 1:
            found.setdefault(((-i, m),), ("width1", i))
            # j = 2i mod m is neither 0 nor i, as gcd(i, m) = 1, m >= 3
            j = (2 * i) % m
            entries = sorted(((-i, m - 2), (-j, 1)), reverse=True)
            found.setdefault(tuple(entries), ("width2", i))
    if m == 6:
        for x in M6_EXCEPTIONS:
            key = tuple((-p, c) for p, c in enumerate(x, 1) if c)
            found[key] = ("exceptional", None)
    for key in sorted(found):
        x = [0] * (m - 1)
        for p, c in key:  # p is minus the position
            x[-p - 1] = c
        yield ExtremalSolution(tuple(x), *found[key])


def extremal_filter(solutions, m):
    """The members of solutions with total size (length + width) m + 1."""
    return tuple(x for x in solutions if sum(x) + len(x) - x.count(0) == m + 1)


def verify_extremal(m, result):
    """Check the classification against `result`, the enumeration of
    the standard congruence mod m.

    Filters the full solution set for total size m + 1 and compares it
    with extremal_all(m) in order, as both are sorted; also checks
    width <= 3 and (for m >= 4) the unique coordinate >= 2.  Raises
    AssertionError on any mismatch, also under -O.
    """
    filtered = extremal_filter(result.solutions, m)
    constructed = tuple(s.vector for s in extremal_all(m))
    if filtered != constructed:
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
