"""Enumeration of indecomposable solutions of the standard congruence.

A solution is a multiset S of letters (the coefficients) summing to
0 mod m, and an atom is a non-empty S with no non-empty proper zero-sum
sub-multiset.  The engine is the closing-letter depth-first search,
which rests on one fact.  Let g be a letter of S and T = S with one copy
of g removed.  If S is an atom, T is zero-sum-free (a non-empty zero-sum
U inside T would split S into the zero-sum parts U and S - U) and
g = -sigma(T) mod m.  Conversely, if T is zero-sum-free and
g = -sigma(T) mod m is a letter, then S = T*g is an atom: it sums to 0,
and of any split of S into two zero-sum parts, the part without that
copy of g lies inside T, so it is empty.  Taking g as the largest letter
of S (in alphabet order) makes the pair (T, g) unique.  So the search
walks the zero-sum-free multisets T in non-decreasing letter order and
emits T*g exactly when g comes at or after the last letter of T; it
needs no minimality re-check and no size pruning.  Each node keeps a
width-m bitmask A of the residues attainable as non-empty sub-multiset
sums; adding a letter t maps A to A | rot(A, t) | {t} (core.closure_step),
and T is zero-sum-free exactly while bit 0 of A is clear.  The walk
starts at the empty multiset, which closes with no letter, so atoms of
length 1 do not occur: every letter is non-zero mod m.

The naive simplex scan is kept as a fully independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .core import (
    BudgetExceeded,
    DomainError,
    NormalForm,
    check_vector,
    closure_step,
    compositions,
)

ENGINE_FINGERPRINT = "closing-letter/2"

DEFAULT_POINT_BUDGET = 50_000_000

# the walks recurse once per letter of the multiset, so a long atom (at
# m of about 1000 and up) can outrun the interpreter's recursion limit
_TOO_DEEP = "the closing-letter walk is deeper than the recursion limit"


@dataclass(frozen=True)
class EnumerationResult:
    modulus: int
    support: tuple | None  # J for a normal form, None for the standard alphabet
    solutions: tuple       # lexicographically sorted coordinate tuples

    @property
    def count(self):
        return len(self.solutions)

    @property
    def letters(self):
        """Coefficient value attached to each coordinate position."""
        if self.support is not None:
            return self.support
        return tuple(range(1, self.modulus))


def _closure_mask(letters, counts, m):
    """Bitmask of the non-empty sub-multiset sums mod m; letters lie in [0, m)."""
    mask = 0
    for t, c in zip(letters, counts):
        for _ in range(c):
            mask = closure_step(mask, t, m)
    return mask


def _walk_tables(m, letters):
    """Tables of the closing-letter walk over the distinct letters in
    (0, m): per next letter index p, the steps (j, a, m - a) with j >= p,
    where bit m - a of a mask is bit 0 once a is added; and per running
    sum s mod m, the index of the letter -s mod m, or -1."""
    steps = [(j, a, m - a) for j, a in enumerate(letters)]
    closer = [-1] * m
    for j, _, back in steps:
        closer[back] = j
    return [steps[p:] for p in range(len(steps) + 1)], closer


def _enumerate_letters(m, letters):
    """All indecomposable solutions over the distinct letters in (0, m),
    sorted: one closing-letter walk from the empty multiset."""
    tails, closer = _walk_tables(m, letters)
    counts = [0] * (len(tails) - 1)
    out = []

    def visit(pos, mask, total):
        # the multiset in counts is zero-sum-free: bit 0 of mask is clear
        j = closer[total]
        if j >= pos:
            counts[j] += 1
            out.append(tuple(counts))
            counts[j] -= 1
        for j, a, back in tails[pos]:
            if not mask >> back & 1:
                counts[j] += 1
                visit(j, closure_step(mask, a, m), (total + a) % m)
                counts[j] -= 1

    # the empty multiset closes with no letter: closer[0] is -1
    try:
        visit(0, 0, 0)
    except RecursionError:
        raise BudgetExceeded(_TOO_DEEP) from None
    return tuple(sorted(out))


def count_letters(m, letters):
    """Number of indecomposable solutions over the distinct letters in
    (0, m), without building them.

    The same closing-letter walk as _enumerate_letters, but returning the
    number of atoms below each node.  That number depends only on the
    next letter index, the closure mask and the running sum mod m, so it
    is memoised on that state.
    """
    if m < 2:
        raise DomainError("modulus must be >= 2")
    letters = tuple(letters)
    if len(set(letters)) != len(letters) or not all(0 < a < m for a in letters):
        raise DomainError("letters must be distinct and lie in (0, m)")
    tails, closer = _walk_tables(m, letters)
    # one memo per next letter index; total < m, so mask * m + total
    # stands for the pair (mask, total)
    memos = [{} for _ in tails]

    def visit(pos, mask, total):
        memo = memos[pos]
        key = mask * m + total
        n = memo.get(key)
        if n is None:
            n = 1 if closer[total] >= pos else 0
            for j, a, back in tails[pos]:
                if not mask >> back & 1:
                    n += visit(j, closure_step(mask, a, m), (total + a) % m)
            memo[key] = n
        return n

    try:
        return visit(0, 0, 0)
    except RecursionError:
        raise BudgetExceeded(_TOO_DEEP) from None


def enumerate_standard(m):
    """All indecomposable solutions of x1 + 2*x2 + ... + (m-1)*x_{m-1} = 0 mod m."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    return EnumerationResult(m, None, _enumerate_letters(m, range(1, m)))


def enumerate_normal_form(nf: NormalForm):
    """Indecomposable solutions of the congruence restricted to the set J."""
    sols = _enumerate_letters(nf.modulus, nf.support)
    return EnumerationResult(nf.modulus, nf.support, sols)


def solve_n1(a, m):
    """The unique indecomposable solution of a*x = 0 mod m."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    if a <= 0:
        raise DomainError("coefficient must be >= 1")
    return m // math.gcd(a, m)


def is_indecomposable(coords, m, support=None):
    """True iff coords is a minimal non-zero solution.

    `support` gives the coefficient attached to each position; defaults
    to 1..m-1 (the standard congruence).
    """
    coords = check_vector(coords)
    if not any(coords):
        raise DomainError("the zero vector is not a candidate")
    letters = (
        tuple(a % m for a in support) if support is not None else tuple(range(1, m))
    )
    if len(letters) != len(coords):
        raise DomainError("dimension mismatch between coords and support")
    if sum(t * c for t, c in zip(letters, coords)) % m != 0:
        return False
    # a zero-sum S is an atom iff S minus one copy of any of its letters
    # is zero-sum-free (see the module docstring); drop the last one
    last = max(i for i, c in enumerate(coords) if c)
    rest = coords[:last] + (coords[last] - 1,) + coords[last + 1:]
    return not _closure_mask(letters, rest, m) & 1


def naive_minimal_solutions(m, weights, max_points=DEFAULT_POINT_BUDGET):
    """Three-step oracle: scan the simplex |x|_1 <= m, keep solutions,
    drop the non-minimal ones.  Independent of the DFS engine."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    weights = tuple(w % m for w in weights)
    k = len(weights)
    points = math.comb(m + k, k)
    if points > max_points:
        raise BudgetExceeded(
            f"simplex scan needs {points} points, budget is {max_points}",
            required=points,
        )
    solutions = []
    # the points x of N^k with |x|_1 <= m, lexicographic: the last part
    # of an m-composition into k + 1 parts is the slack m - |x|_1
    for point in compositions(m, k + 1):
        x = point[:-1]
        if any(x) and sum(w * c for w, c in zip(weights, x)) % m == 0:
            solutions.append(x)
    solution_set = set(solutions)
    minimal = []
    for x in solutions:
        if not _dominates_some(x, solution_set):
            minimal.append(x)
    return tuple(minimal)


def _dominates_some(x, solution_set):
    """True iff some solution y with 0 < y < x exists in solution_set;
    the set holds no zero vector, so y = 0 needs no test."""
    return any(
        y in solution_set and y != x for y in product(*[range(c + 1) for c in x])
    )


def enumerate_naive(m, J=None, max_points=DEFAULT_POINT_BUDGET):
    """Oracle counterpart of enumerate_standard / enumerate_normal_form."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    if J is not None:
        nf = NormalForm(m, tuple(sorted(J)))
        letters = nf.support
    else:
        letters = tuple(range(1, m))
    sols = naive_minimal_solutions(m, letters, max_points=max_points)
    return EnumerationResult(m, letters if J is not None else None, tuple(sorted(sols)))
