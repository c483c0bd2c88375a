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
sums; adding a letter t maps A to A | rot(A, t) | {t}, and T is
zero-sum-free exactly while bit 0 of A is clear.  Atoms of length 1 do
not occur, since every letter is non-zero mod m.

The naive simplex scan is kept as a fully independent oracle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .core import BudgetExceeded, DomainError, NormalForm, check_vector

ENGINE_FINGERPRINT = "closing-letter/2"

DEFAULT_POINT_BUDGET = 50_000_000


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
    full = (1 << m) - 1
    mask = 0
    for t, c in zip(letters, counts):
        for _ in range(c):
            mask |= ((mask << t) & full) | (mask >> (m - t)) | (1 << t)
    return mask


def _branch(letters, m, first):
    """All indecomposable solutions whose smallest letter is letters[first];
    the letters are distinct and lie in (0, m)."""
    full = (1 << m) - 1
    position = [-1] * m  # residue -> index of the letter with that value
    for j, a in enumerate(letters):
        position[a] = j
    steps = [(j, a, m - a, 1 << a) for j, a in enumerate(letters)]
    counts = [0] * len(letters)
    out = []

    def visit(pos, mask, total):
        # the multiset in counts is zero-sum-free: bit 0 of mask is clear
        j = position[-total % m]
        if j >= pos:
            counts[j] += 1
            out.append(tuple(counts))
            counts[j] -= 1
        for j, a, back, bit in steps[pos:]:
            # bit 0 of the extended mask is bit m - a of mask
            high = mask >> back
            if not high & 1:
                counts[j] += 1
                visit(j, mask | ((mask << a) & full) | high | bit, total + a)
                counts[j] -= 1

    t = letters[first]
    counts[first] = 1
    visit(first, 1 << t, t)
    return out


def count_letters(m, letters):
    """Number of indecomposable solutions over the distinct letters in
    (0, m), without building them.

    The same closing-letter recursion as _branch, started from the empty
    multiset, but returning the number of atoms below each node.  That
    number depends only on the next letter index, the closure mask and
    the running sum mod m, so it is memoised on that state.
    """
    if m < 2:
        raise DomainError("modulus must be >= 2")
    letters = tuple(letters)
    if len(set(letters)) != len(letters) or not all(0 < a < m for a in letters):
        raise DomainError("letters must be distinct and lie in (0, m)")
    full = (1 << m) - 1
    position = [-1] * m
    for j, a in enumerate(letters):
        position[a] = j
    steps = [(j, a, m - a, 1 << a) for j, a in enumerate(letters)]
    memo = {}

    def visit(pos, mask, total):
        key = (pos, mask, total)
        n = memo.get(key)
        if n is None:
            n = 1 if position[-total % m] >= pos else 0
            for j, a, back, bit in steps[pos:]:
                high = mask >> back
                if not high & 1:
                    n += visit(j, mask | ((mask << a) & full) | high | bit,
                               (total + a) % m)
            memo[key] = n
        return n

    # the empty multiset closes with no letter: position[0] is -1
    return visit(0, 0, 0)


def _enumerate_letters(m, letters, threads=1):
    letters = tuple(letters)
    if threads is None or threads < 1:
        threads = 1
    if threads == 1:
        sols = []
        for first in range(len(letters)):
            sols.extend(_branch(letters, m, first))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = pool.map(
                lambda first: _branch(letters, m, first),
                range(len(letters)),
            )
            sols = [x for chunk in chunks for x in chunk]
    return tuple(sorted(sols))


def enumerate_standard(m, threads=1):
    """All indecomposable solutions of x1 + 2*x2 + ... + (m-1)*x_{m-1} = 0 mod m."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    sols = _enumerate_letters(m, range(1, m), threads=threads)
    return EnumerationResult(m, None, sols)


def enumerate_normal_form(nf: NormalForm, threads=1):
    """Indecomposable solutions of the congruence restricted to the set J."""
    sols = _enumerate_letters(nf.modulus, nf.support, threads=threads)
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


def _simplex_points(k, total):
    """Number of x in N^k with x1 + ... + xk <= total."""
    return math.comb(total + k, k)


def _iter_simplex(k, total):
    """All vectors in N^k with coordinate sum <= total, lexicographic order."""
    coords = [0] * k

    def rec(pos, left):
        if pos == k:
            yield tuple(coords)
            return
        for v in range(left + 1):
            coords[pos] = v
            yield from rec(pos + 1, left - v)
        coords[pos] = 0

    yield from rec(0, total)


def naive_minimal_solutions(m, weights, max_points=DEFAULT_POINT_BUDGET):
    """Three-step oracle: scan the simplex |x|_1 <= m, keep solutions,
    drop the non-minimal ones.  Independent of the DFS engine."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    weights = tuple(w % m for w in weights)
    k = len(weights)
    points = _simplex_points(k, m)
    if points > max_points:
        raise BudgetExceeded(
            f"simplex scan needs {points} points, budget is {max_points}",
            required=points,
        )
    solutions = []
    for x in _iter_simplex(k, m):
        if any(x) and sum(w * c for w, c in zip(weights, x)) % m == 0:
            solutions.append(x)
    solution_set = set(solutions)
    minimal = []
    for x in solutions:
        if not _dominates_some(x, solution_set):
            minimal.append(x)
    return tuple(minimal)


def _dominates_some(x, solution_set):
    """True iff some solution y with 0 < y < x exists in solution_set."""
    ranges = [range(c + 1) for c in x]
    coords = [0] * len(x)

    def rec(pos):
        if pos == len(x):
            y = tuple(coords)
            return any(coords) and y != x and y in solution_set
        for v in ranges[pos]:
            coords[pos] = v
            if rec(pos + 1):
                return True
        coords[pos] = 0
        return False

    return rec(0)


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
