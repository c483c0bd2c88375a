import random

import pytest

from congruence_atoms import (
    CongruenceInstance,
    DomainError,
    NormalForm,
    build_plan,
    count_general,
    enumerate_normal_form,
    general_support_bounds_check,
    lift_solutions,
    naive_minimal_solutions,
)


def normal_for(plan):
    if not plan.support:
        return None
    return enumerate_normal_form(NormalForm(plan.modulus, plan.support))


def lifted_set(m, coeffs):
    """The lift as it comes, after checking that it is in strict
    lexicographic order."""
    plan = build_plan(CongruenceInstance(m, coeffs))
    sols = list(lift_solutions(plan, normal_for(plan)))
    assert all(a < b for a, b in zip(sols, sols[1:])), (m, coeffs)
    return plan, sols


def test_build_plan_examples():
    plan = build_plan(CongruenceInstance(6, (0, 3, 3)))
    assert plan.class_sizes[0] == 1
    assert plan.class_sizes[3] == 2
    assert plan.support == (3,)
    assert plan.index_classes[0] == (0,)
    assert plan.index_classes[3] == (1, 2)

    plan = build_plan(CongruenceInstance(2, (1, 1)))
    assert plan.class_sizes[1] == 2 and plan.support == (1,)

    plan = build_plan(CongruenceInstance(5, (7, 2)))
    assert plan.class_sizes[2] == 2 and plan.support == (2,)


def test_lift_examples():
    _, sols = lifted_set(2, (1, 1))
    assert sols == [(0, 2), (1, 1), (2, 0)]

    _, sols = lifted_set(5, (0,))
    assert sols == [(1,)]

    _, sols = lifted_set(6, (0, 3, 3))
    assert sols == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 0)]

    plan, sols = lifted_set(5, (1, 2, 3, 4))
    assert len(sols) == 14
    assert count_general(plan, normal_for(plan)) == 14


def test_count_formula_examples():
    plan = build_plan(CongruenceInstance(2, (1, 1)))
    assert count_general(plan, normal_for(plan)) == 3
    plan = build_plan(CongruenceInstance(4, (0, 0)))
    assert count_general(plan, None) == 2


def test_mismatched_support_rejected():
    plan = build_plan(CongruenceInstance(6, (2, 3)))
    wrong = enumerate_normal_form(NormalForm(6, (1, 2)))
    with pytest.raises(DomainError):
        list(lift_solutions(plan, wrong))
    with pytest.raises(DomainError):
        lift_solutions(plan, None)


def test_lift_round_trip_small_instances():
    # 40 instances with n <= 6, led by the shapes the lift treats apart:
    # n = 1, zero coefficients and residue classes of size >= 3
    instances = [(7, (3,)), (2, (1,)), (6, (0,)), (5, (0, 2, 0, 2, 2)),
                 (6, (4, 1, 4, 4, 1, 0)), (4, (3, 3, 3))]
    rng = random.Random(20250823)
    while len(instances) < 40:
        m = rng.randint(2, 8)
        n = rng.randint(1, 6)
        instances.append((m, tuple(rng.randint(0, m - 1) for _ in range(n))))
    for m, coeffs in instances:
        plan, sols = lifted_set(m, coeffs)
        direct = sorted(naive_minimal_solutions(m, coeffs))
        assert sols == direct, (m, coeffs)
        assert count_general(plan, normal_for(plan)) == len(sols)


def test_unit_multiplication_leaves_solutions_unchanged():
    import math

    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(3, 8)
        n = rng.randint(1, 4)
        coeffs = tuple(rng.randint(0, m - 1) for _ in range(n))
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        u = rng.choice(units)
        _, sols = lifted_set(m, coeffs)
        _, scaled = lifted_set(m, tuple(u * a % m for a in coeffs))
        assert sols == scaled, (m, coeffs, u)


def test_general_support_bounds():
    # sigma' = 1, length 2, 2 + 1 <= 5
    inst = CongruenceInstance(4, (2, 1))
    assert general_support_bounds_check((2, 0), inst)
    with pytest.raises(DomainError):
        general_support_bounds_check((1, 1), CongruenceInstance(2, (1, 1)))
    with pytest.raises(DomainError):
        general_support_bounds_check((1, 0), inst)  # not a solution


def test_general_support_bounds_hold_on_lifts():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(4, 8)
        n = rng.randint(1, 4)
        coeffs = tuple(rng.randint(0, m - 1) for _ in range(n))
        plan, sols = lifted_set(m, coeffs)
        inst = CongruenceInstance(m, coeffs)
        for x in sols:
            assert general_support_bounds_check(x, inst), (m, coeffs, x)


def test_compositions_are_colexicographic():
    from congruence_atoms.reduction import _compositions

    comps = list(_compositions(2, 2))
    assert comps == [(2, 0), (1, 1), (0, 2)]
    comps = list(_compositions(3, 3))
    assert comps == sorted(comps, key=lambda c: c[::-1])
    assert all(sum(c) == 3 for c in comps)
    assert len(comps) == 10
