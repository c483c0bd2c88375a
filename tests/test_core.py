import math
from itertools import islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruence_atoms import (
    CongruenceInstance,
    DomainError,
    NormalForm,
    binomial,
    bound_violations,
    euler_phi,
    leq,
    metrics,
    weight_mod,
)
from congruence_atoms.core import compositions

vectors = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=12)


def test_metrics_zero_vector():
    met = metrics((0, 0, 0, 0))
    assert (met.length, met.width, met.weight) == (0, 0, 0)


def test_metrics_known_values():
    met = metrics((1, 1))
    assert met.length == 2 and met.width == 2 and met.weight == 3
    met = metrics((2, 1, 0))
    assert met.length == 3
    assert met.width == 2
    assert met.height == 2
    assert met.weight == 4
    assert met.total_size == 5


def test_metrics_independent_summation_oracle():
    # brute re-summation, written differently on purpose
    x = (2, 1, 0)
    expected_weight = 0
    for idx in range(len(x)):
        for _ in range(x[idx]):
            expected_weight += idx + 1
    assert metrics(x).weight == expected_weight == 4


def test_metrics_rejects_bad_vectors():
    with pytest.raises(DomainError):
        metrics(())
    with pytest.raises(DomainError):
        metrics((1, -1))


@given(vectors)
def test_metric_chain(coords):
    met = metrics(coords)
    assert met.width <= met.length <= met.weight
    assert met.total_size == met.length + met.width


def test_weight_mod_examples():
    assert weight_mod((2, 1, 0), 4) == 0
    assert weight_mod((0, 0, 0), 7) == 0
    assert weight_mod((0, 0, 4), 4) == 0


def test_bound_violations_names_each_bound():
    # one hand-made vector per bound; a length violation always breaks
    # the total size bound too, since width >= 1
    assert bound_violations((1, 0, 1), 4) == ()
    assert bound_violations((5, 0, 0), 4) == ("length", "total size")
    assert bound_violations((1, 1, 1, 1, 0, 0), 7) == ("width",)
    assert bound_violations((5, 1, 0, 0, 0), 6) == ("total size",)
    assert bound_violations((2, 2, 2, 0, 0, 0, 0), 8) == ("length refinement",)
    # the refinement needs m >= 7 and width >= 3
    assert bound_violations((2, 2, 2, 0, 0), 6) == ("total size",)
    assert bound_violations((3, 3, 0, 0, 0, 0, 0), 8) == ()


@given(vectors, st.integers(min_value=2, max_value=50))
def test_weight_mod_matches_metrics(coords, m):
    assert weight_mod(coords, m) == metrics(coords).weight % m


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    for m in range(1, 200):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_euler_phi_multiplicative():
    for a in range(1, 40):
        for b in range(1, 1000 // a + 1):
            if math.gcd(a, b) == 1:
                assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_binomial_values():
    assert binomial(3, 2) == 3
    assert binomial(5, 3) == 10  # the 2m-3 choose m-1 case at m=4
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


def test_binomial_pascal_exhaustive():
    # Pascal-recurrence oracle, independent of math.comb
    row = [1]
    for n in range(65):
        for k, value in enumerate(row):
            assert binomial(n, k) == value
            assert binomial(n, n - k) == value
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def test_binomial_large_exact():
    pascal = [[1]]
    for n in range(1, 46):
        prev = pascal[-1]
        pascal.append(
            [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        )
    assert binomial(45, 22) == pascal[45][22]


def test_leq_partial_order():
    assert leq((1, 0), (2, 0))
    assert not leq((2, 0), (1, 5))
    with pytest.raises(DomainError):
        leq((1,), (1, 2))


def test_congruence_instance_normalization():
    inst = CongruenceInstance(5, (7, 2))
    assert inst.coefficients == (2, 2)
    assert inst.original == (7, 2)
    with pytest.raises(DomainError):
        CongruenceInstance(1, (1,))
    with pytest.raises(DomainError):
        CongruenceInstance(5, ())


def test_normal_form_validation():
    nf = NormalForm(6, (2, 3))
    assert nf.support == (2, 3)
    with pytest.raises(DomainError):
        NormalForm(6, ())
    with pytest.raises(DomainError):
        NormalForm(6, (3, 2))
    with pytest.raises(DomainError):
        NormalForm(6, (0, 2))
    with pytest.raises(DomainError):
        NormalForm(6, (2, 6))


def test_compositions_are_lexicographic_stars_and_bars():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(4, 1)) == [(4,)]
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    for total in range(7):
        for parts in range(1, 5):
            box = product(range(total + 1), repeat=parts)
            expected = [c for c in box if sum(c) == total]
            assert list(compositions(total, parts)) == expected
            assert len(expected) == math.comb(total + parts - 1, parts - 1)


def test_compositions_are_lazy():
    # C(10^6 + 4, 4) tuples: only a lazy generator returns the first few
    n = 10**6
    first = list(islice(compositions(n, 5), 3))
    assert first == [(0, 0, 0, 0, n), (0, 0, 0, 1, n - 1), (0, 0, 0, 2, n - 2)]
