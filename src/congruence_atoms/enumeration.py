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
starts at the empty multiset, whose closing letter is 0: where 0 is a
letter, the unit vector e_0 is the one atom of length 1.  A zero-sum-free
T never holds the letter 0, so letter 0 only ever closes the empty
multiset.

A node T with last letter p tries the later letters last first, then
the repeat of p, so the atoms come out in increasing lexicographic
order: below T, an atom reached through a new letter j > k > p has
x_k = 0 and one through k has x_k >= 1; one through a new letter keeps
the x_p of T, which the repeat raises; no entry both closes and extends.

The naive simplex scan is kept as a fully independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product, repeat

from .core import (
    TOO_DEEP,
    BudgetExceeded,
    CongruenceInstance,
    DomainError,
    NormalForm,
    check_vector,
    closure_mask,
    closure_step,
    compositions,
    refuse_deep_walk,
)

POINT_BUDGET = 50_000_000


@dataclass(frozen=True)
class EnumerationResult:
    """The atoms over one alphabet; `support` is never None."""

    modulus: int
    support: tuple    # the letters, strictly increasing; 1..m-1 if standard
    solutions: tuple  # coordinate tuples, in lexicographic order as built

    @property
    def count(self):
        return len(self.solutions)


def _walk_tables(m, letters, marked=(), width=0):
    """The steps of the closing-letter walk over the distinct letters in
    [0, m), per next letter index p: the tuples (j, a, back, shift) with
    back = -a mod m, for the later letters j > p from last to first, then
    j == p, the repeat of the last letter added.  Letter a closes a
    multiset whose sum is back; otherwise it extends one whose mask has
    bit back clear.  shift is `width` where a is in `marked` and new
    (j > p), else 0.  The tables hold |J|(|J|+1)/2 slots for |J| letters
    (about m**2/2 for 1..m-1), so a walk that is certain to outrun the
    recursion limit is refused before they are built."""
    refuse_deep_walk(m, letters)
    steps = [(j, a, -a % m, width if a in marked else 0) for j, a in enumerate(letters)]
    return [steps[:j:-1] + [(j, a, back, 0)] for j, a, back, _ in steps]


def _walk(visit, pos=0, mask=0, total=0):
    """Run a walk from the node (pos, mask, total), by default the empty
    multiset.  The walks recurse once per letter, so a long atom (at m of
    about 1000 and up) can outrun the recursion limit; and a closure step
    shifts by up to m bits, an OverflowError past about m = 2**66 (a
    MemoryError, which the CLI refuses, below)."""
    try:
        return visit(pos, mask, total)
    except RecursionError:
        reason = TOO_DEEP
    except OverflowError:
        reason = "the closure mask has more bits than an int can hold"
    raise BudgetExceeded(reason)


def _enumerate_letters(m, letters):
    """All indecomposable solutions over the distinct letters in [0, m),
    in the lexicographic order that one closing-letter walk builds."""
    tails = _walk_tables(m, letters)
    counts = [0] * len(tails)
    out = []

    def visit(pos, mask, total):
        # the multiset in counts is zero-sum-free: bit 0 of mask is clear.
        # Closing is tested first: letter 0 (index 0, back 0) closes the
        # empty multiset into e_0, so it is never added to a multiset
        for j, a, back, _ in tails[pos]:
            if back == total:
                counts[j] += 1
                out.append(tuple(counts))
                counts[j] -= 1
            elif not mask >> back & 1:
                counts[j] += 1
                visit(j, closure_step(mask, a, m), (total + a) % m)
                counts[j] -= 1

    _walk(visit)
    return tuple(out)


def _count_walk(m, letters, marked=(), root=(0, 0, 0)):
    """The closing-letter walk of _enumerate_letters from the node `root`
    (pos, mask, total), by default the empty multiset.  It returns one
    int of 2m-bit digits: digit k counts the atoms below the root that
    hold k marked letters the root does not, so with nothing marked the
    int is the number of atoms.  A node's value depends only on the next
    letter index, the closure mask and the running sum mod m, so it is
    memoised on that state; an edge adds the child's value shifted one
    digit up where its letter is marked and new.  A digit never
    overflows: every atom lies in the simplex |x|_1 <= m, so there are
    fewer than C(2m - 1, m - 1) < 4**m of them."""
    width = 2 * m
    tails = _walk_tables(m, letters, marked, width)
    # one memo per next letter index; total < m, so mask * m + total
    # stands for the pair (mask, total)
    memos = [{} for _ in tails]

    def visit(pos, mask, total):
        # a node's caller probes the memo, so a memo hit makes no call.
        # The child's mask is core.closure_step inlined, mask | 1 taken
        # once per node: one step per edge, and the call was a tenth of
        # the counter's time.  An overflow is raised inside _walk
        n = 0
        low = mask | 1
        for j, a, back, shift in tails[pos]:
            if back == total:
                n += 1 << shift
            elif not mask >> back & 1:
                shifted = low << a
                wrapped = shifted >> m
                child = mask | wrapped | (shifted ^ (wrapped << m))
                t = total + a
                if t >= m:
                    t -= m
                memo = memos[j]
                key = child * m + t
                value = memo.get(key)
                if value is None:
                    value = memo[key] = visit(j, child, t)
                if value:
                    n += value << shift
        return n

    return _walk(visit, *root)


def count_letters(m, letters):
    """Number of indecomposable solutions over the letters (strictly
    increasing, in [0, m), checked by NormalForm), without building them.

    Over any alphabet but 1..m-1 this is _count_walk from the empty
    multiset with nothing marked.  Over 1..m-1 it counts by gcd classes
    C_d = {a : gcd(a, m) = d} = d * U(Z_{m/d}), d | m, d < m.  Multiplying
    every letter by a unit of Z_m is an automorphism, so it maps the atoms
    one-to-one onto the atoms; it keeps every class, and the units act
    transitively on each.  Give an atom S whose least letter gcd is d the
    weight 1/u_d(S) at each of its u_d(S) distinct letters in C_d: its
    weights sum to 1, and every letter of C_d carries the same total as
    letter d.  So

        l(m) = sum over d | m, d < m, of |C_d| * sum over atoms S
               containing d, every letter of gcd >= d, of 1/u_d(S).

    Each inner sum is one walk from the node "one copy of letter d" over
    the letters of gcd >= d (d is the least of them) with C_d marked: its
    K digits e_k count the atoms S with u_d(S) = k + 1, and the sum is
    taken exactly as sum e_k * L/(k + 1) over L = lcm(1..K).
    """
    nf = NormalForm(m, letters)
    if not nf.is_standard:
        return _count_walk(m, nf.support)
    digit = (1 << 2 * m) - 1
    total = 0
    for d in (d for d in nf.support if m % d == 0):
        alphabet = tuple(a for a in nf.support if math.gcd(a, m) >= d)
        marked = frozenset(a for a in alphabet if math.gcd(a, m) == d)
        value = _count_walk(m, alphabet, marked, (0, closure_step(0, d, m), d))
        digits = [value >> k & digit for k in range(0, value.bit_length(), 2 * m)]
        common = math.lcm(*range(1, len(digits) + 1))
        weighted = sum(e * (common // u) for u, e in enumerate(digits, 1))
        count, remainder = divmod(len(marked) * weighted, common)
        if remainder:
            raise ArithmeticError(
                f"the class of gcd {d} of the atoms mod {m} does not divide"
            )
        total += count
    return total


def enumerate_standard(m):
    """All indecomposable solutions of x1 + 2*x2 + ... + (m-1)*x_{m-1} = 0 mod m."""
    letters = NormalForm.standard(m).support
    return EnumerationResult(m, letters, _enumerate_letters(m, letters))


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
    # the instance checks m >= 2 and reduces the coefficients mod m
    inst = CongruenceInstance(m, range(1, m) if support is None else support)
    letters = inst.coefficients
    if len(letters) != len(coords):
        raise DomainError("dimension mismatch between coords and support")
    if sum(t * c for t, c in zip(letters, coords)) % m != 0:
        return False
    # a zero-sum S is an atom iff S minus one copy of any of its letters
    # is zero-sum-free (see the module docstring); drop the last one
    last = max(i for i, c in enumerate(coords) if c)
    rest = coords[:last] + (coords[last] - 1,) + coords[last + 1:]
    items = chain.from_iterable(map(repeat, letters, rest))
    return not closure_mask(items, m) & 1


def naive_minimal_solutions(m, weights):
    """Three-step oracle, independent of the DFS engine: scan the simplex
    |x|_1 <= m in lexicographic order, keep the minimal solutions."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    weights = tuple(w % m for w in weights)
    k = len(weights)
    points = math.comb(m + k, k)
    if points > POINT_BUDGET:
        raise BudgetExceeded(
            f"simplex scan needs {points} points, budget is {POINT_BUDGET}"
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


def enumerate_naive(m, support=None):
    """Oracle counterpart of enumerate_standard (no support) and
    enumerate_normal_form (a strictly increasing support)."""
    nf = NormalForm.standard(m) if support is None else NormalForm(m, support)
    sols = naive_minimal_solutions(m, nf.support)
    return EnumerationResult(m, nf.support, sols)
