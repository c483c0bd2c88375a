import math
import operator
import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_atoms import (
    BudgetExceeded,
    DomainError,
    NormalForm,
    bound_violations,
    count_letters,
    enumerate_naive,
    enumerate_normal_form,
    enumerate_standard,
    is_indecomposable,
    naive_minimal_solutions,
    solve_n1,
)
from congruence_atoms import tables
from congruence_atoms.core import closure_step, row_width
from congruence_atoms.enumeration import _count_walk


def below(x, y):
    """The componentwise partial order: x_i <= y_i for every i."""
    return all(map(operator.le, x, y))


TABLE1 = {
    2: 1, 3: 3, 4: 6, 5: 14, 6: 19, 7: 47, 8: 64, 9: 118, 10: 165,
    11: 347, 12: 366, 13: 826, 14: 973,
}


def test_small_solution_sets():
    assert enumerate_standard(2).solutions == ((2,),)
    assert set(enumerate_standard(3).solutions) == {(1, 1), (3, 0), (0, 3)}
    assert set(enumerate_standard(4).solutions) == {
        (4, 0, 0), (2, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 2), (0, 0, 4),
    }


def test_counts_match_reference(standard_enumerations):
    for m, expected in TABLE1.items():
        assert standard_enumerations[m].count == expected
    for m in range(2, 24):
        assert count_letters(m, range(1, m)) == tables.ELL[m], m


def test_counter_matches_engine_past_the_table():
    for m in (24, 25):
        assert count_letters(m, range(1, m)) == enumerate_standard(m).count, m


def test_class_count_matches_the_unmarked_walk_past_the_table():
    # count_letters counts 1..m-1 by gcd classes, one marked walk per
    # divisor; the walk from the empty multiset with nothing marked
    # counts every atom once
    for m in range(24, 29):
        letters = tuple(range(1, m))
        assert count_letters(m, letters) == _count_walk(m, letters), m


def test_class_walk_digits_count_the_atoms_by_their_class_letters(
    standard_enumerations,
):
    # the walk of class d runs from one copy of letter d over the letters
    # of gcd >= d with C_d = {a : gcd(a, m) = d} marked, and its digit k
    # counts the atoms S that hold d, have every letter of gcd >= d, and
    # hold u_d(S) = k + 1 distinct letters of C_d; checked digit by digit
    # against the listed atoms, not only through the weighted sum
    for m in range(3, 17):
        letters = range(1, m)
        for d in (d for d in letters if m % d == 0):
            alphabet = tuple(a for a in letters if math.gcd(a, m) >= d)
            marked = frozenset(a for a in alphabet if math.gcd(a, m) == d)
            value = _count_walk(m, alphabet, marked, (0, closure_step(0, d, m), d))
            digits = [
                value >> k & (1 << 2 * m) - 1
                for k in range(0, value.bit_length(), 2 * m)
            ]
            histogram = Counter()
            for x in standard_enumerations[m].solutions:
                held = [a for a, c in zip(letters, x) if c]
                if x[d - 1] and all(math.gcd(a, m) >= d for a in held):
                    histogram[sum(a in marked for a in held) - 1] += 1
            assert digits == [histogram[k] for k in range(max(histogram) + 1)], (m, d)


def test_counts_are_unit_invariant():
    # multiplying every letter by a unit u of Z_m maps the atoms over J
    # one-to-one onto the atoms over uJ: the symmetry the class count of
    # 1..m-1 rests on, checked here on the unmarked walk
    rng = random.Random(3096)
    for _ in range(200):
        m = rng.randint(2, 16)
        J = sorted(rng.sample(range(m), rng.randint(1, m)))
        u = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        image = sorted(u * a % m for a in J)
        assert count_letters(m, J) == count_letters(m, image), (m, J, u)


def test_m23_count(standard_enumerations):
    assert standard_enumerations[23].count == 29161


def test_domain_errors():
    with pytest.raises(DomainError):
        enumerate_standard(1)
    with pytest.raises(DomainError):
        enumerate_naive(1)
    # NormalForm is the one check of a letter set: the counter and the
    # oracle refuse what it refuses, with its message
    for m, letters in ((1, ()), (5, (1, 1)), (5, (-1, 2)), (5, (2, 5)), (5, (2, 1))):
        with pytest.raises(DomainError) as expected:
            NormalForm(m, letters)
        for refuse in (count_letters, enumerate_naive):
            with pytest.raises(DomainError) as caught:
                refuse(m, letters)
            assert str(caught.value) == str(expected.value), (refuse, m, letters)


def test_every_result_names_its_letters():
    standard = (1, 2, 3, 4)
    assert enumerate_standard(5).support == standard
    assert enumerate_naive(5).support == standard
    assert enumerate_normal_form(NormalForm.standard(5)).support == standard
    assert enumerate_naive(5, (2, 3)).support == (2, 3)


def test_ordering_is_lexicographic(standard_enumerations):
    for m in (5, 9, 12):
        sols = standard_enumerations[m].solutions
        assert list(sols) == sorted(sols)


def test_oracle_equivalence():
    for m in range(2, 11):
        assert enumerate_standard(m).solutions == enumerate_naive(m).solutions


def test_naive_reference_counts():
    assert enumerate_naive(2).solutions == ((2,),)
    assert enumerate_naive(10).count == 165


def test_naive_matches_brute_force_minimal_filter():
    # the simplex scan, in order, against every point of the box
    # [0, m]^k cut to |x|_1 <= m and a quadratic minimality filter
    def brute(m, weights):
        points = product(range(m + 1), repeat=len(weights))
        sols = [
            x for x in points
            if 0 < sum(x) <= m and sum(map(operator.mul, weights, x)) % m == 0
        ]
        return tuple(x for x in sols if not any(y != x and below(y, x) for y in sols))

    rng = random.Random(8)
    cases = [(m, tuple(range(1, m))) for m in range(2, 8)]
    for m in range(2, 10):
        for _ in range(19):
            k = rng.randint(1, 4)
            cases.append((m, tuple(rng.randint(-m, 2 * m) for _ in range(k))))
    for m, weights in cases:
        assert naive_minimal_solutions(m, weights) == brute(m, weights), (m, weights)


def test_naive_budget_refusal():
    with pytest.raises(BudgetExceeded):
        enumerate_naive(30)


def test_pairwise_incomparability(standard_enumerations):
    for m in (4, 6, 8, 10):
        sols = standard_enumerations[m].solutions
        for x, y in combinations(sols, 2):
            assert not below(x, y) and not below(y, x)


def test_bound_theorems_with_pruning_disabled(standard_enumerations):
    for m in range(4, 17):
        for x in standard_enumerations[m].solutions:
            assert bound_violations(x, m) == (), (m, x)


def test_normal_form_examples():
    assert enumerate_normal_form(NormalForm(4, (2,))).solutions == ((2,),)
    assert enumerate_normal_form(NormalForm(5, (1, 2, 3, 4))).count == 14
    assert set(enumerate_normal_form(NormalForm(6, (2, 3))).solutions) == {
        (3, 0), (0, 2),
    }


def test_normal_form_equals_tau_filter(standard_enumerations):
    # restricting the alphabet must agree with filtering the full set
    for m in range(2, 9):
        full = standard_enumerations[m].solutions
        for r in range(1, m):
            for J in combinations(range(1, m), r):
                restricted = enumerate_normal_form(NormalForm(m, J)).solutions
                filtered = sorted(
                    tuple(x[j - 1] for j in J)
                    for x in full
                    if all(x[i] == 0 for i in range(m - 1) if (i + 1) not in J)
                )
                assert list(restricted) == filtered, (m, J)


def test_normal_form_matches_naive():
    # the last two have letter 0, whose one atom is e_0
    for m, J in ((6, (2, 3)), (8, (1, 4, 6)), (7, (2, 5)), (6, (0, 2, 3)), (5, (0,))):
        assert (
            enumerate_normal_form(NormalForm(m, J)).solutions
            == enumerate_naive(m, J).solutions
        )


def test_counter_matches_engine_on_random_normal_forms():
    rng = random.Random(20170)
    for _ in range(300):
        m = rng.randint(2, 18)
        J = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
        expected = enumerate_normal_form(NormalForm(m, J)).count
        assert count_letters(m, J) == expected, (m, J)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normal_form_matches_naive_property(data):
    m = data.draw(st.integers(min_value=2, max_value=10))
    J = data.draw(
        st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1).map(
            lambda s: tuple(sorted(s))
        )
    )
    oracle = naive_minimal_solutions(m, J)
    assert enumerate_normal_form(NormalForm(m, J)).solutions == tuple(sorted(oracle))
    assert count_letters(m, J) == len(oracle)


def test_unit_vector_membership(standard_enumerations):
    for m in range(2, 13):
        sols = set(standard_enumerations[m].solutions)
        for j in range(1, m):
            x = tuple(m if i == j - 1 else 0 for i in range(m - 1))
            assert (x in sols) == (math.gcd(j, m) == 1), (m, j)


def test_solve_n1():
    assert solve_n1(3, 7) == 7
    assert solve_n1(4, 6) == 3
    assert solve_n1(6, 6) == 1
    with pytest.raises(DomainError):
        solve_n1(0, 6)
    with pytest.raises(DomainError):
        solve_n1(2, 1)


def test_solve_n1_matches_enumeration():
    for m in range(2, 12):
        for a in range(1, m):
            assert enumerate_normal_form(NormalForm(m, (a,))).solutions == (
                (solve_n1(a, m),),
            )


def test_is_indecomposable_examples(standard_enumerations):
    assert is_indecomposable((2, 1, 0), 4)
    assert not is_indecomposable((2, 2, 0), 4)  # weight 6 = 2 mod 4: not a solution
    assert is_indecomposable((4, 1, 0, 0, 0), 6)
    assert (4, 1, 0, 0, 0) in standard_enumerations[6].solutions
    with pytest.raises(DomainError):
        is_indecomposable((0, 0, 0), 4)


def test_is_indecomposable_refuses_a_modulus_below_2():
    # m = 0 with a support divided by zero, m = 1 answered True and
    # m = -3 reported a dimension mismatch
    for m, support in ((0, (1,)), (1, None), (-3, None)):
        with pytest.raises(DomainError, match="modulus must be >= 2"):
            is_indecomposable((1,), m, support)


def test_row_width_is_the_width_the_listed_atoms_need(standard_enumerations):
    # the largest atom entry over J is max ord(a), here the least k >= 1
    # with k * a = 0 mod m (1 for letter 0); row_width is its digit width
    def order(a, m):
        return next(k for k in range(1, m + 1) if k * a % m == 0)

    rng = random.Random(34)
    alphabets = [(m, tuple(range(1, m))) for m in range(2, 24)]
    for _ in range(400):
        m = rng.randint(2, 40)
        size = rng.randint(1, min(m, 8))
        alphabets.append((m, tuple(sorted(rng.sample(range(m), size)))))
    assert any(0 in J for _, J in alphabets)
    for m, J in alphabets:
        if len(J) == m - 1 and J[0] == 1:
            atoms = standard_enumerations[m].solutions
        else:
            atoms = enumerate_normal_form(NormalForm(m, J)).solutions
        top = max(map(max, atoms))
        assert top == max(order(a, m) for a in J), (m, J)
        assert row_width(m, J) == min(w for w in (1, 2, 4, 8) if top < 256**w), (m, J)
    # at the digit cuts the order decides, not the letter: ord(1) = m,
    # ord(0) = 1 and ord(m/2) = 2
    cuts = [
        (255, (1,), 1), (256, (1,), 2), (256, (0,), 1), (256, (128, 255), 2),
        (65536, (2,), 2), (65536, (1,), 4), (2**32, (1,), 8), (2**64, (0,), 1),
        (2**64, (2**63,), 1), (2**64 - 1, (1,), 8),
    ]
    for m, J, width in cuts:
        assert row_width(m, J) == width, (m, J)
    with pytest.raises(DomainError):
        row_width(2**64, (0, 1))


def test_is_indecomposable_against_sets(standard_enumerations):
    for m in (5, 6, 8):
        members = set(standard_enumerations[m].solutions)
        for x in members:
            assert is_indecomposable(x, m)
        # doubled solutions are solutions but never minimal
        for x in members:
            doubled = tuple(2 * c for c in x)
            assert not is_indecomposable(doubled, m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_indecomposable_matches_oracle(data):
    m = data.draw(st.integers(min_value=2, max_value=8))
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=m)) for _ in range(m - 1)
    )
    if not any(coords) or sum(coords) > m:
        return
    minimal = set(enumerate_naive(m).solutions)
    assert is_indecomposable(coords, m) == (coords in minimal)
