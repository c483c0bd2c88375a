"""Subset-sum diversity of index sets mod m.

A set T in {1..m-1} is admissible when no non-empty subset sums to
0 mod m; its diversity is the number of residue classes attained by
subset sums (empty set included).  Two independent implementations are
kept on purpose.  The oracle is `diversity`, a 2^r subset scan.  The
scans use the residue closure of the enumeration engine
(core.closure_step): `scan_admissible` walks the admissible sets
depth first, adding elements in increasing order.  A superset of an
inadmissible set is inadmissible, so a branch ends where bit 0 of the
closure mask would set, and the walk visits admissible sets only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import BudgetExceeded, DomainError, check_letters, closure_mask, closure_step

SUBSET_SCAN_MAX_SIZE = 25
SCAN_BUDGET = 5_000_000
LEMMA_MAX_SIZE = 5


@dataclass(frozen=True)
class IndexSet:
    modulus: int
    elements: tuple

    def __post_init__(self):
        # 0 is a letter of a normal form, but not an index
        elems = check_letters(self.modulus, self.elements, "set", zero=False)
        object.__setattr__(self, "elements", elems)

    @property
    def size(self):
        return len(self.elements)


@dataclass(frozen=True)
class DiversityReport:
    admissible: bool
    diversity: int
    classes: tuple          # sorted attained residues, 0 always present
    witness: tuple = None   # lexicographically first zero-sum subset


def diversity(T: IndexSet) -> DiversityReport:
    """Full 2^r subset scan."""
    if T.size > SUBSET_SCAN_MAX_SIZE:
        raise BudgetExceeded(f"subset scan limited to {SUBSET_SCAN_MAX_SIZE} elements")
    m = T.modulus
    classes = {0}
    witness = None
    for r in range(1, T.size + 1):
        for subset in combinations(T.elements, r):
            s = sum(subset) % m
            classes.add(s)
            if s == 0 and witness is None:
                witness = subset
    return DiversityReport(
        admissible=witness is None,
        diversity=len(classes),
        classes=tuple(sorted(classes)),
        witness=witness,
    )


def diversity_closure(T: IndexSet):
    """(admissible, diversity) via the incremental residue closure;
    independent of the subset scan above."""
    mask = closure_mask(T.elements, T.modulus)
    return not mask & 1, (mask | 1).bit_count()


def family_Tma(m, a) -> IndexSet:
    """The exceptional 3-element family {a, m/2, m/2 + a} (even m)."""
    if m < 6 or m % 2 != 0:
        raise DomainError("family requires even m >= 6")
    if not 1 <= a < m // 2:
        raise DomainError("need 1 <= a < m/2")
    if 4 * a == m:
        raise DomainError("a = m/4 is excluded")
    T = IndexSet(m, (a, m // 2, m // 2 + a))
    report = diversity(T)
    if not (report.admissible and report.diversity == 6):
        raise AssertionError(m, a, report)
    return T


def is_family_member(T: IndexSet):
    """True iff T equals family_Tma(m, a) for some valid a."""
    if T.size != 3 or T.modulus % 2 != 0:
        return False
    m = T.modulus
    a, mid, top = T.elements
    return mid == m // 2 and top == mid + a and 4 * a != m


@dataclass(frozen=True)
class ScanSummary:
    modulus: int
    set_size: int
    admissible_count: int
    diversity_counts: dict     # diversity value -> number of admissible sets
    min_diversity: int         # None when no admissible set exists
    minimizers: tuple          # element tuples attaining the minimum
    ok: bool


def diversity_floor(m, r):
    """The appendix's lower bound on the diversity of an admissible r-set
    mod m: 2^r for r <= 2, 7 for r = 3 (6 for even m, attained only by
    the family {a, m/2, m/2 + a}) and 2r + 1 for r >= 4."""
    if r <= 2:
        return 2**r
    if r == 3:
        return 6 if m % 2 == 0 else 7
    return 2 * r + 1


def scan_admissible(m, r_max):
    """One ScanSummary per set size r = 0..r_max over the admissible
    r-subsets of {1..m-1}, found by one depth-first walk of at most
    SCAN_BUDGET sets.  Each set's diversity is popcount(mask | 1) of its
    closure mask; minimisers are listed in lexicographic order."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    if not 0 <= r_max < m:
        raise DomainError(f"r_max must lie in 0..m-1, got {r_max}")
    budget = SCAN_BUDGET
    counts = [{} for _ in range(r_max + 1)]
    best = [None] * (r_max + 1)   # per size: [min diversity, minimisers]
    path = []
    visited = 0

    def visit(start, mask):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceeded(f"scan visits more than {budget} sets")
        r = len(path)
        d = (mask | 1).bit_count()
        counts[r][d] = counts[r].get(d, 0) + 1
        if best[r] is None or d < best[r][0]:
            best[r] = [d, [tuple(path)]]
        elif d == best[r][0]:
            best[r][1].append(tuple(path))
        if r < r_max:
            for t in range(start, m):
                # bit 0 of the extended mask is bit m - t of mask
                if not mask >> (m - t) & 1:
                    path.append(t)
                    visit(t + 1, closure_step(mask, t, m))
                    path.pop()

    visit(1, 0)
    summaries = []
    for r, (tally, found) in enumerate(zip(counts, best)):
        min_d, mins = found or (None, [])
        ok = min_d is None or min_d >= diversity_floor(m, r)
        if r == 3 and min_d == 6:
            ok = ok and all(is_family_member(IndexSet(m, s)) for s in mins)
        summaries.append(
            ScanSummary(m, r, sum(tally.values()), tally, min_d, tuple(mins), ok)
        )
    return tuple(summaries)


def verify_r3(m):
    """Diversity of admissible 3-sets: >= 7 for odd m; for even m >= 6,
    and exactly the T(m, a) family attains 6."""
    if m < 6:
        raise DomainError("verify_r3 needs m >= 6")
    return scan_admissible(m, 3)[3]


def verify_r4(m):
    """Diversity of admissible 4-sets is >= 9; also settles empirically
    whether m = 8 admits any admissible 4-set at all."""
    if m < 8:
        raise DomainError("verify_r4 needs m >= 8")
    return scan_admissible(m, 4)[4]


def verify_general(r, m):
    """Exhaustive check that every admissible r-set has diversity >= 2r+1."""
    if r < 4:
        raise DomainError("verify_general needs r >= 4")
    if m < 2 * r + 1:
        raise DomainError("verify_general needs m >= 2r+1")
    return scan_admissible(m, r)[r]


def lemma_expls_checks(m):
    """Elementary diversity facts, checked over every subset of
    {1..m-1} of size <= LEMMA_MAX_SIZE; returns the number of subsets.

    Each subset gets one `diversity` scan, by size r ascending.  For an
    admissible set it checks r + 1 <= diversity <= min(2^r, m), 2r <= m,
    diversity 4 at r = 2, and distinct nested sums: sum(U) != sum(S)
    mod m for every non-empty U and proper subset S of U (2^r subset
    sums by bit mask, read back for each submask pair).  Heredity, that
    an admissible set has only admissible subsets, reads the oracle's
    verdict on each proper subset from the smaller sizes already
    scanned.  A failed check raises AssertionError, also under -O."""
    if m > 16:
        raise DomainError("exhaustive regime is m <= 16")
    checked = 0
    admissible = set()   # every subset the oracle called admissible
    for r in range(LEMMA_MAX_SIZE + 1):
        masks = 1 << r   # subsets of an r-set, as bit masks
        for subset in combinations(range(1, m), r):
            report = diversity(IndexSet(m, subset))
            checked += 1
            if not report.admissible:
                continue
            admissible.add(subset)
            if not r + 1 <= report.diversity <= min(2**r, m):
                raise AssertionError(m, subset)
            if 2 * r > m:
                raise AssertionError(m, subset)
            if r == 2 and report.diversity != 4:
                raise AssertionError(m, subset)
            # nested subsets S < U of an admissible set have distinct
            # sums; sums[mask] sums the elements picked by mask's bits
            sums = [0] * masks
            for mask in range(1, masks):
                low = mask & -mask
                sums[mask] = sums[mask ^ low] + subset[low.bit_length() - 1]
            for U in range(1, masks):
                S = U
                while S:   # S runs over the proper submasks of U, 0 last
                    S = (S - 1) & U
                    if (sums[U] - sums[S]) % m == 0:
                        raise AssertionError(m, subset, U, S)  # U, S as masks
            # heredity (contrapositive): an admissible set has only
            # admissible subsets
            for rs in range(1, r):
                for S in combinations(subset, rs):
                    if S not in admissible:
                        raise AssertionError(m, subset, S)
    return checked
