"""Reduction of a general congruence to normal form and back.

A general instance is partitioned by coefficient residue; the normal
form over J = {r : some a_i = r mod m}, 0 included, is solved once, and
its solutions are lifted by distributing each y_r over the indices of
the class I_r in every possible way.  Letter 0 is an ordinary letter:
its one atom e_0 lifts to the unit rows of the zero class.  The lift is
streamed in lexicographic order by a walk over the index positions that
builds and sorts one bucket of at most `core.STREAM_BYTES` bytes of rows
at a time, so its memory does not grow with the number of rows.  The
first row comes alone, by its closed form, before any bucket is built:
an atom's smallest lift puts each y_r on the last index of class r,
since every earlier index of the class can take 0, and the first row is
the least of these.  While a row is built and sorted it is one int, each
coordinate a digit of a fixed byte width, so numeric order is
lexicographic order; a sorted bucket becomes one block of rows in
`core`'s packed-row format, which `lift_solutions` decodes to tuples in
one call and a record writer can read as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, product, repeat, starmap
from math import comb
from operator import add, itemgetter, lshift

from . import core
from .core import (
    CongruenceInstance,
    DomainError,
    Memo,
    compositions,
    row_struct,
    row_width,
)
from .enumeration import EnumerationResult


@dataclass(frozen=True)
class ReductionPlan:
    """The residue classes of an instance.  `index_classes` holds only
    the non-empty classes, keyed by residue in increasing order, so a
    plan's size does not grow with the modulus; n_r is len(I_r)."""

    modulus: int
    index_classes: dict   # r -> I_r, a tuple of 0-based original indices

    @property
    def support(self):
        """J = sorted {r : I_r non-empty}, 0 included."""
        return tuple(self.index_classes)


def build_plan(inst: CongruenceInstance) -> ReductionPlan:
    classes = {}
    for i, a in enumerate(inst.coefficients):
        classes.setdefault(a, []).append(i)
    return ReductionPlan(inst.modulus, {r: tuple(classes[r]) for r in sorted(classes)})


def _check_pair(plan, normal_solutions):
    if normal_solutions.modulus != plan.modulus:
        raise DomainError("modulus mismatch between plan and normal solutions")
    if normal_solutions.support != plan.support:
        raise DomainError("support mismatch between plan and normal solutions")


def lift_solutions(plan: ReductionPlan, normal_solutions: EnumerationResult):
    """All indecomposable solutions of the general instance, lazily and
    in lexicographic order: the rows of `lift_blocks`, each block
    decoded to tuples by one struct call."""
    width, blocks = lift_blocks(plan, normal_solutions)
    n = sum(map(len, plan.index_classes.values()))
    return chain.from_iterable(map(row_struct(n, width).iter_unpack, blocks))


def lift_blocks(plan: ReductionPlan, normal_solutions: EnumerationResult):
    """The lift as (w, blocks): an iterator over byte blocks of packed
    rows, the rows sorted within a block and the blocks in order, each
    row n big-endian unsigned digits of w bytes (`core.row_struct`).

    The rows come from a depth-first walk over the original index
    positions, with an explicit stack.  A node of the walk is a packed
    prefix of values and its length, the atoms still consistent with it
    and how much of each residue class the prefix has placed.  At the
    last index of a class the value is forced per atom; elsewhere it
    runs 0, 1, ... up to the largest remainder.  A node whose subtree's
    rows take at most `core.STREAM_BYTES` bytes, the byte budget of a
    streamed result read when the walk starts, is built whole and sorted.
    The first block is the first row alone, by the closed form of the
    module docstring, found before any bucket is built.  The walk's
    first bucket then leaves it out, so the blocks joined are the same
    rows as without it.  Besides the atoms, the stream holds at most n
    sorted lists of them on the stack and one bucket of rows at a time,
    however many rows there are.

    A row is the int sum of x_i * B^(n-1-i) while it is built and
    sorted, with B = 2^(8w) and w = `core.row_width` of the atoms (no
    lifted coordinate is larger than an atom entry).
    Two atoms never lift to the same row, since a row's class sums give
    its atom back, so the rows are distinct.

    The plan and the normal solutions are checked here, not when the
    blocks are first iterated.
    """
    _check_pair(plan, normal_solutions)
    solutions = normal_solutions.solutions
    width = row_width(solutions)
    return width, _buckets(plan, solutions, width)


def _row_count(atoms, placed, left, limit=None):
    """The rows below a node of the walk: sum over the atoms of
    prod_r C(k_r + rem_r - 1, rem_r), k_r the positions left in class r
    and rem_r what is left of y_r.  With a `limit`, it stops once the
    total is past it."""
    total = 0
    for y in atoms:
        rows = 1
        for s, k in left:
            rem = y[s] - placed[s]
            if rem:
                rows *= comb(k + rem - 1, rem)
        total += rows
        if limit is not None and total > limit:
            break
    return total


def _bucket_rows(prefix, placed, atoms, left, tables):
    """The packed rows below a node of the walk, sorted.  Per atom, each
    class with one way left to split what remains of it is added to the
    prefix; the other classes' tables are added on, a table at a time."""
    rows = []
    for y in atoms:
        head = prefix
        spread = []
        for s, k in left:
            table = tables[y[s] - placed[s], s, k]
            if len(table) == 1:
                head += table[0]
            else:
                spread.append(table)
        # product() takes in the rows built so far whole
        built = (head,)
        for table in spread:
            built = starmap(add, product(built, table))
        rows.extend(built)
    rows.sort()
    return rows


def _children(prefix, p, placed, atoms, s, last, shift):
    """The children of a node of the walk at position p in order of the
    value at p, whose digit sits `shift` bits up, belongs to class slot s
    and is the last index of that class if `last`."""
    done = placed[s]
    key = itemgetter(s)
    atoms = sorted(atoms, key=key)
    if last:
        # each atom forces the value; placed[s] is never read again
        for ys, group in groupby(atoms, key):
            yield prefix + ((ys - done) << shift), p + 1, placed, list(group)
        return
    # child v keeps the atoms with at least v of class s left: a suffix
    # of the sorted list
    start = 0
    for v in range(atoms[-1][s] - done + 1):
        while atoms[start][s] - done < v:
            start += 1
        placed_v = placed[:s] + (done + v,) + placed[s + 1 :]
        yield prefix + (v << shift), p + 1, placed_v, atoms[start:]


def _buckets(plan, solutions, width):
    """The walk of `lift_blocks`: its buckets in order, each a block of
    sorted rows with coordinates `width` bytes wide.  The first block is
    the first row alone; the walk's first bucket follows without it.
    The position tables come from one backward pass, and a digit is
    placed by a bit shift, not a power of two."""
    if not solutions:
        return
    # slot s of an atom is its total on the s-th class, the s-th letter
    # of the support
    classes = list(plan.index_classes.values())
    n = sum(map(len, classes))
    slot = [0] * n
    for s, idxs in enumerate(classes):
        for i in idxs:
            slot[i] = s
    # one pass from the end, counting each class's positions: last[p]
    # marks a class's last index, left[p] is (slot, positions >= p) per
    # class not complete before p
    last = [False] * n
    left = [()] * (n + 1)
    counts = [0] * len(classes)
    for p in reversed(range(n)):
        s = slot[p]
        last[p] = not counts[s]
        counts[s] += 1
        left[p] = tuple((s, k) for s, k in enumerate(counts) if k)
    shift = [8 * width * (n - 1 - i) for i in range(n)]
    size = n * width
    # a bucket's most rows; at 0 the walk goes down to single rows
    limit = core.STREAM_BYTES // size

    def table(key):
        # the packed compositions of a remainder over the last k indices
        # of class slot s
        rem, s, k = key
        shifts = [shift[i] for i in classes[s][-k:]]
        return tuple(sum(map(lshift, c, shifts)) for c in compositions(rem, k))

    tables = Memo(table)

    def block(rows):
        return b"".join(map(int.to_bytes, rows, repeat(size), repeat("big")))

    def walk():
        # the sorted rows of each subtree of at most `limit` rows, in order
        stack = [iter([(0, 0, (0,) * len(classes), solutions)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            prefix, p, placed, atoms = node
            if p < n and _row_count(atoms, placed, left[p], limit) > limit:
                stack.append(_children(prefix, p, placed, atoms, slot[p], last[p], shift[p]))
            else:
                yield _bucket_rows(prefix, placed, atoms, left[p], tables)

    # the first row by its closed form (module docstring)
    ends = [shift[idxs[-1]] for idxs in classes]
    yield block([min(sum(map(lshift, y, ends)) for y in solutions)])
    buckets = walk()
    # the first bucket is sorted and holds that row at its front
    rest = next(buckets)[1:]
    if rest:
        yield block(rest)
    yield from map(block, buckets)


def count_general(plan: ReductionPlan, normal_solutions: EnumerationResult):
    """N_m(a) = sum over y of prod_r C(n_r + y_r - 1, y_r), exact: the
    lift's row count at the root of its walk, nothing placed and every
    class whole.  The atom e_0 of a zero class gives C(n_0, 1) = n_0."""
    _check_pair(plan, normal_solutions)
    sizes = [len(idxs) for idxs in plan.index_classes.values()]
    return _row_count(normal_solutions.solutions, (0,) * len(sizes), tuple(enumerate(sizes)))


def general_support_bounds_check(coords, inst: CongruenceInstance):
    """Width/total-size bounds for a solution of the general congruence:
    the width counts distinct coefficient residues of the support."""
    if inst.modulus < 4:
        raise DomainError("bounds require m >= 4")
    if len(coords) != inst.dimension:
        raise DomainError("dimension mismatch")
    m = inst.modulus
    if sum(a * c for a, c in zip(inst.coefficients, coords)) % m != 0:
        raise DomainError("vector is not a solution of the instance")
    residues = {a for a, c in zip(inst.coefficients, coords) if c}
    sigma = len(residues)
    length = sum(coords)
    return 2 * sigma <= m and length + sigma <= m + 1
