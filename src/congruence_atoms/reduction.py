"""Reduction of a general congruence to normal form and back.

A general instance is partitioned by coefficient residue; the normal
form over J = {r > 0 : some a_i = r mod m} is solved once, and its
solutions are lifted by distributing each y_r over the indices of the
class I_r in every possible way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter

from .core import CongruenceInstance, DomainError, binomial, compositions
from .enumeration import EnumerationResult


@dataclass(frozen=True)
class ReductionPlan:
    modulus: int
    class_sizes: tuple   # n_r for r = 0..m-1
    index_classes: tuple  # I_r as tuples of 0-based original indices
    support: tuple        # J = sorted {r > 0 : n_r > 0}


def build_plan(inst: CongruenceInstance) -> ReductionPlan:
    m = inst.modulus
    classes = [[] for _ in range(m)]
    for i, a in enumerate(inst.coefficients):
        classes[a].append(i)
    sizes = tuple(len(c) for c in classes)
    support = tuple(r for r in range(1, m) if sizes[r])
    return ReductionPlan(m, sizes, tuple(tuple(c) for c in classes), support)


def _compositions(total, parts):
    """Ordered splittings of `total` into `parts` parts, colexicographic."""
    return (c[::-1] for c in compositions(total, parts))


def _check_pair(plan, normal_solutions):
    if normal_solutions is None:
        if plan.support:
            raise DomainError("normal-form solutions required for non-empty J")
        return
    if normal_solutions.modulus != plan.modulus:
        raise DomainError("modulus mismatch between plan and normal solutions")
    if tuple(normal_solutions.letters) != plan.support:
        raise DomainError("support mismatch between plan and normal solutions")


def lift_solutions(plan: ReductionPlan, normal_solutions: EnumerationResult = None):
    """All indecomposable solutions of the general instance, in
    lexicographic order, as an iterator over a list.

    The whole set is built and sorted before the first row is returned,
    so memory and the time to the first row grow with the set; lazy
    generation in lexicographic order is ROADMAP item 6.
    """
    _check_pair(plan, normal_solutions)
    n = sum(plan.class_sizes)
    zero_class = plan.index_classes[0]
    out = [tuple(int(i == j) for j in range(n)) for i in zero_class]
    if normal_solutions is None:
        return iter(sorted(out))
    slots = [plan.index_classes[r] for r in plan.support]
    sizes = [len(idxs) for idxs in slots]
    # a lifted row is built class by class in support order, then zeros
    # for class 0; `inverse` puts its entries back in original index order
    inverse = [0] * n
    for pos, i in enumerate([i for idxs in slots for i in idxs] + list(zero_class)):
        inverse[i] = pos
    padding = ((0,) * len(zero_class),)
    # n = 1 is always in order, and must be: itemgetter(i) returns a
    # scalar, not a 1-tuple
    pick = None if inverse == list(range(n)) else itemgetter(*inverse)
    splits = {}
    for y in normal_solutions.solutions:
        tables = []
        for yr, size in zip(y, sizes):
            table = splits.get((yr, size))
            if table is None:
                table = splits[yr, size] = tuple(_compositions(yr, size))
            tables.append(table)
        tables.append(padding)
        rows = map(tuple, map(chain.from_iterable, product(*tables)))
        out.extend(rows if pick is None else map(pick, rows))
    out.sort()
    return iter(out)


def count_general(plan: ReductionPlan, normal_solutions: EnumerationResult = None):
    """N_m(a) = n_0 + sum over y of prod_r C(n_r + y_r - 1, y_r), exact."""
    _check_pair(plan, normal_solutions)
    total = plan.class_sizes[0]
    if normal_solutions is not None:
        for y in normal_solutions.solutions:
            prod = 1
            for r, yr in zip(plan.support, y):
                prod *= binomial(plan.class_sizes[r] + yr - 1, yr)
            total += prod
    return total


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
