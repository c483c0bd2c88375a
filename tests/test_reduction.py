import random
import time
import tracemalloc
from itertools import islice, product

import pytest

from congruence_atoms import (
    CongruenceInstance,
    DomainError,
    EnumerationResult,
    NormalForm,
    build_plan,
    count_general,
    enumerate_normal_form,
    general_support_bounds_check,
    lift_solutions,
    naive_minimal_solutions,
    core,
    reduction,
)
from congruence_atoms.core import compositions, row_struct, row_width


def normal_for(plan):
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
    assert plan.index_classes == {0: (0,), 3: (1, 2)}
    assert plan.support == (0, 3)

    plan = build_plan(CongruenceInstance(2, (1, 1)))
    assert plan.index_classes == {1: (0, 1)} and plan.support == (1,)

    plan = build_plan(CongruenceInstance(5, (7, 2)))
    assert plan.index_classes == {2: (0, 1)} and plan.support == (2,)


def test_build_plan_keeps_only_the_non_empty_classes():
    # keyed by residue in increasing order, whatever the coefficient order
    plan = build_plan(CongruenceInstance(9, (5, 2, 14, 0)))
    assert list(plan.index_classes.items()) == [(0, (3,)), (2, (1,)), (5, (0, 2))]
    assert plan.support == (0, 2, 5)
    # the plan's size follows the coefficients, not the modulus
    plan = build_plan(CongruenceInstance(10**6, (1, 0)))
    assert plan.index_classes == {0: (1,), 1: (0,)}
    assert plan.support == (0, 1)


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
    # the zero class's atom e_0 gives C(n_0, 1) = n_0
    plan = build_plan(CongruenceInstance(4, (0, 0)))
    assert count_general(plan, normal_for(plan)) == 2
    # n_0 = 3 from e_0, and C(2 + 2 - 1, 2) = 3 from y = (0, 2)
    plan = build_plan(CongruenceInstance(6, (0, 3, 0, 3, 0)))
    assert count_general(plan, normal_for(plan)) == 3 + 3


def test_mismatched_support_rejected():
    plan = build_plan(CongruenceInstance(6, (2, 3)))
    wrong = enumerate_normal_form(NormalForm(6, (1, 2)))
    # the lift is a stream, but a bad pair is refused by the call itself
    with pytest.raises(DomainError):
        lift_solutions(plan, wrong)
    with pytest.raises(DomainError):
        lift_solutions(plan, enumerate_normal_form(NormalForm(7, (2, 3))))


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


def reference_lift(plan, normal):
    """The lift built whole: every unit row of the zero class, then per
    atom other than e_0 the product of the composition tables of its
    classes, sorted.  The lift itself has no rule of its own for the zero
    class: e_0 lifts to its unit rows like any atom to its rows."""
    n = sum(map(len, plan.index_classes.values()))
    rows = [
        tuple(int(i == j) for j in range(n)) for i in plan.index_classes.get(0, ())
    ]
    for y in normal.solutions:
        if plan.support[0] == 0 and y[0]:
            # e_0, the one atom with letter 0
            assert y == (1,) + (0,) * (len(y) - 1), y
            continue
        tables = [
            list(compositions(yr, len(plan.index_classes[r])))
            for r, yr in zip(plan.support, y)
        ]
        for combo in product(*tables):
            row = [0] * n
            for r, split in zip(plan.support, combo):
                for i, v in zip(plan.index_classes[r], split):
                    row[i] = v
            rows.append(tuple(row))
    return sorted(rows)


def equality_instances(count, max_rows):
    """Seeded instances with m <= 12 and n <= 10, cycling through the
    shapes the walk treats apart: any coefficients, a zero class, n = 1,
    one residue class and two classes interleaved.  Instances of more
    than `max_rows` rows are drawn again, to bound the test's time."""
    rng = random.Random(20261018)
    shapes = ("any", "zero", "single-index", "one-class", "interleaved")
    out = []
    while len(out) < count:
        shape = shapes[len(out) % len(shapes)]
        m = rng.randint(2, 12)
        n = 1 if shape == "single-index" else rng.randint(1, 10)
        if shape == "one-class":
            coeffs = (rng.randrange(m),) * n
        elif shape == "interleaved":
            a, b = rng.sample(range(m), 2)
            coeffs = tuple((a, b)[i % 2] for i in range(n))
        else:
            coeffs = [rng.randrange(m) for _ in range(n)]
            if shape == "zero":
                coeffs[rng.randrange(n)] = 0
            coeffs = tuple(coeffs)
        plan = build_plan(CongruenceInstance(m, coeffs))
        if count_general(plan, normal_cached(plan)) <= max_rows:
            out.append(plan)
    return out


_NORMAL = {}


def normal_cached(plan):
    key = plan.modulus, plan.support
    if key not in _NORMAL:
        _NORMAL[key] = normal_for(plan)
    return _NORMAL[key]


@pytest.mark.parametrize("bucket_rows", [0, 1, 7, None])
def test_lift_equals_the_sorted_reference(bucket_rows, monkeypatch):
    # buckets of 0, 10 and 70 bytes (one-byte digits, n <= 10) end the
    # walk at every depth, down to single rows; None keeps the default
    if bucket_rows is not None:
        monkeypatch.setattr(core, "STREAM_BYTES", bucket_rows * 10)
    plans = equality_instances(3000, 400)
    assert {plan.modulus for plan in plans} == set(range(2, 13))
    for plan in plans:
        normal = normal_cached(plan)
        expected = reference_lift(plan, normal)
        assert list(lift_solutions(plan, normal)) == expected, plan


def test_plan_support_and_count_follow_the_classes():
    # the plan stores only its classes: the support is their residues in
    # increasing order, and n_r is the length of class r
    plans = equality_instances(400, 400)
    assert any(0 in plan.index_classes for plan in plans)
    assert any(0 not in plan.index_classes for plan in plans)
    for plan in plans:
        assert plan.support == tuple(plan.index_classes), plan
        assert list(plan.support) == sorted(plan.support), plan
        normal = normal_cached(plan)
        rows = sum(1 for _ in lift_solutions(plan, normal))
        assert count_general(plan, normal) == rows, plan


def one_atom(entry):
    """A one-coefficient plan and a hand-built atom (entry,).  The lift
    does not check that an atom solves the congruence, so the entry can
    be far above the modulus."""
    plan = build_plan(CongruenceInstance(7, (3,)))
    return plan, EnumerationResult(7, plan.support, ((entry,),))


@pytest.mark.parametrize("entry", [300, 70_000, 2**40])
def test_lift_rows_wider_than_a_byte(entry):
    # a row packs each coordinate in 1, 2, 4 or 8 bytes, chosen by the
    # largest atom entry: these take 2, 4 and 8
    assert list(lift_solutions(*one_atom(entry))) == [(entry,)]


def test_lift_with_a_zero_class_and_a_wide_entry():
    # the zero class's unit rows and the two-byte rows of class 1 sort
    # together; an entry above 255 would wrap in a one-byte digit
    plan = build_plan(CongruenceInstance(300, (1, 0, 1)))
    normal = normal_for(plan)
    assert max(map(max, normal.solutions)) == 300
    expected = reference_lift(plan, normal)
    assert len(expected) == 302
    assert list(lift_solutions(plan, normal)) == expected


def test_lift_refuses_an_entry_past_64_bits():
    assert list(lift_solutions(*one_atom(2**64 - 1))) == [(2**64 - 1,)]
    with pytest.raises(DomainError):
        lift_solutions(*one_atom(2**64))


# m = 17, ten residues three times each: 699 atoms and 285,900 rows
THREE_CLASSES = (
    13, 14, 7, 16, 12, 9, 8, 4, 16, 13, 14, 9, 13, 1, 5,
    7, 7, 5, 1, 14, 12, 4, 1, 9, 4, 5, 8, 8, 12, 16,
)


def packed_reference(plan, normal):
    """`reference_lift` in the packed-row format of `lift_blocks`, one
    block."""
    n = sum(map(len, plan.index_classes.values()))
    pack = row_struct(n, row_width(normal.solutions)).pack
    return b"".join(pack(*row) for row in reference_lift(plan, normal))


@pytest.mark.parametrize("bucket_rows", [0, 1, None])
def test_first_row_comes_alone(bucket_rows, monkeypatch, buckets_built):
    # the first block is the first row, by its closed form, before any
    # bucket is built; it is not printed again in the next block.
    # Buckets of 0 and 10 bytes (one-byte digits, n <= 10) take the walk
    # down to single rows or a few
    if bucket_rows is not None:
        monkeypatch.setattr(core, "STREAM_BYTES", bucket_rows * 10)
    plans = equality_instances(400, 400)
    if bucket_rows is None:
        # 285,900 rows of 30 bytes; the first bucket holds 3,813
        plans.append(build_plan(CongruenceInstance(17, THREE_CLASSES)))
    for plan in plans:
        normal = normal_cached(plan)
        expected = packed_reference(plan, normal)
        size = len(expected) // count_general(plan, normal)
        buckets_built.clear()
        _, blocks = reduction.lift_blocks(plan, normal)
        first = next(blocks)
        assert buckets_built == [], plan
        assert first == expected[:size], plan
        assert first + b"".join(blocks) == expected, plan


def test_lift_tables_memo_starts_over_when_full(monkeypatch):
    # the lift's composition tables share the record writer's bounded
    # memo: one that starts over at every second 8-byte key keeps the
    # rows
    monkeypatch.setattr(core, "STREAM_BYTES", 16)
    for plan in equality_instances(400, 400):
        normal = normal_cached(plan)
        _, blocks = reduction.lift_blocks(plan, normal)
        assert b"".join(blocks) == packed_reference(plan, normal), plan


def test_lift_of_one_row_is_one_block():
    # no empty block follows the first row when the lift holds no other
    plan = build_plan(CongruenceInstance(5, (0,)))
    assert list(reduction.lift_blocks(plan, normal_for(plan))[1]) == [b"\x01"]
    assert list(reduction.lift_blocks(*one_atom(300))[1]) == [b"\x01\x2c"]


def test_lift_of_no_atoms_yields_no_row():
    plan = build_plan(CongruenceInstance(7, (3,)))
    none = EnumerationResult(7, plan.support, ())
    assert list(reduction.lift_blocks(plan, none)[1]) == []
    assert list(lift_solutions(plan, none)) == []


def test_first_row_does_not_wait_for_the_whole_lift():
    # a lift built whole and sorted before its first row needs over a
    # second here on a 2-core host; the stream needs a few milliseconds
    plan = build_plan(CongruenceInstance(17, THREE_CLASSES))
    normal = normal_for(plan)
    assert count_general(plan, normal) == 285_900
    started = time.monotonic()
    first = next(lift_solutions(plan, normal))
    assert time.monotonic() - started < 0.5
    assert first == (0,) * 29 + (17,)


def test_streamed_lift_memory_does_not_grow_with_the_rows():
    # m = 13 over 1..12 five times: N = 3,124,670 rows of 60 coordinates,
    # about 1.6 GB as tuples; 2e5 of them alone would be about 100 MB
    plan = build_plan(CongruenceInstance(13, tuple(range(1, 13)) * 5))
    normal = normal_for(plan)
    assert count_general(plan, normal) == 3_124_670
    tracemalloc.start()
    try:
        drained = sum(1 for _ in islice(lift_solutions(plan, normal), 200_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drained == 200_000
    assert peak < 16 * 2**20


def test_a_bucket_of_long_rows_is_bounded_in_bytes():
    # 20,001 coefficients, `1,2,3` repeated mod 7: a bucket bounded at
    # 4,096 rows took 3,544 rows of 20,001 bytes, a 71 MB block and as
    # much again as ints, and the first two blocks peaked at 155 MB
    plan = build_plan(CongruenceInstance(7, (1, 2, 3) * 6667))
    normal = normal_for(plan)
    tracemalloc.start()
    try:
        _, blocks = reduction.lift_blocks(plan, normal)
        first, second = islice(blocks, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == 20_001
    assert 0 < len(second) <= core.STREAM_BYTES
    assert peak < 40 * 2**20
