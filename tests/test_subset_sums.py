import dataclasses
import os
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congruence_atoms.subset_sums as subset_sums
from congruence_atoms import (
    BudgetExceeded,
    DomainError,
    IndexSet,
    diversity,
    diversity_closure,
    family_Tma,
    lemma_expls_checks,
    scan_admissible,
    verify_general,
    verify_r3,
    verify_r4,
)


def test_diversity_tiny_sets():
    empty = diversity(IndexSet(7, ()))
    assert empty.admissible and empty.diversity == 1 and empty.classes == (0,)
    single = diversity(IndexSet(7, (3,)))
    assert single.admissible and single.diversity == 2


def test_diversity_examples():
    report = diversity(IndexSet(5, (1, 2)))
    assert report.admissible and report.diversity == 4
    report = diversity(IndexSet(6, (1, 3, 4)))
    assert report.admissible and report.diversity == 6
    report = diversity(IndexSet(3, (1, 2)))
    assert not report.admissible
    assert report.witness == (1, 2)
    assert 0 in report.classes


def test_diversity_budget():
    with pytest.raises(BudgetExceeded):
        diversity(IndexSet(100, tuple(range(1, 27))))


def test_index_set_validation():
    # 0 is a letter of a normal form, but never an index
    with pytest.raises(DomainError, match=r"^set elements must lie in \(0, m\)$"):
        IndexSet(6, (0, 2))
    with pytest.raises(DomainError):
        IndexSet(6, (2, 2))
    with pytest.raises(DomainError):
        IndexSet(6, (2, 6))


def test_family_examples():
    assert family_Tma(6, 1).elements == (1, 3, 4)
    assert family_Tma(10, 3).elements == (3, 5, 8)
    with pytest.raises(DomainError):
        family_Tma(8, 2)  # a = m/4
    with pytest.raises(DomainError):
        family_Tma(7, 1)  # odd m
    with pytest.raises(DomainError):
        family_Tma(6, 3)  # a >= m/2


def test_family_always_diversity_six():
    for m in range(6, 22, 2):
        for a in range(1, m // 2):
            if 4 * a == m:
                continue
            report = diversity(family_Tma(m, a))
            assert report.admissible and report.diversity == 6


def test_verify_r3():
    assert verify_r3(7).ok
    assert min(verify_r3(7).diversity_counts) >= 7
    summary = verify_r3(6)
    assert summary.ok
    assert sorted(summary.minimizers) == [(1, 3, 4), (2, 3, 5)]
    assert not any(d == 6 for d in verify_r3(9).diversity_counts)
    for m in range(6, 21):
        assert verify_r3(m).ok, m


def test_verify_r3_requires_the_family_at_six(monkeypatch):
    import congruence_atoms.subset_sums as subset_sums

    monkeypatch.setattr(subset_sums, "is_family_member", lambda T: False)
    assert not verify_r3(6).ok  # its minimisers have diversity 6
    assert verify_r3(7).ok      # odd m: no set reaches 6


def test_verify_r4():
    for m in range(8, 17):
        summary = verify_r4(m)
        assert summary.ok, m
        if summary.min_diversity is not None:
            assert summary.min_diversity >= 9
    # the m = 8 parenthetical: settle whether any admissible 4-set exists
    at8 = verify_r4(8)
    assert at8.admissible_count == 0 or at8.min_diversity >= 9


def test_verify_general(monkeypatch):
    for r in (4, 5):
        for m in range(2 * r + 1, 17):
            summary = verify_general(r, m)
            assert summary.ok, (r, m)
            if summary.min_diversity is not None:
                assert summary.min_diversity >= 2 * r + 1
    with pytest.raises(DomainError):
        verify_general(3, 9)
    # the walk reads SCAN_BUDGET per call and may visit exactly that many sets
    visited = sum(s.admissible_count for s in scan_admissible(16, 5))
    monkeypatch.setattr(subset_sums, "SCAN_BUDGET", visited)
    assert verify_general(5, 16).ok
    monkeypatch.setattr(subset_sums, "SCAN_BUDGET", visited - 1)
    with pytest.raises(BudgetExceeded):
        verify_general(5, 16)


def test_scan_admissible_refuses_a_size_bound_outside_0_to_m_minus_1():
    # -1 raised IndexError, and a huge bound took r_max + 1 dicts first
    for r_max in (-1, 7, 10**18):
        with pytest.raises(DomainError):
            scan_admissible(7, r_max)
    assert [s.set_size for s in scan_admissible(7, 0)] == [0]
    assert [s.set_size for s in scan_admissible(7, 6)] == list(range(7))


def _oracle_summary(m, r):
    """(admissible count, histogram, minimum, minimisers, ok) of the
    r-subsets of {1..m-1}, from the 2^r subset scan."""
    counts = {}
    admissible = []
    for subset in combinations(range(1, m), r):
        report = diversity(IndexSet(m, subset))
        if report.admissible:
            counts[report.diversity] = counts.get(report.diversity, 0) + 1
            admissible.append((report.diversity, subset))
    low = min(counts, default=None)
    minimizers = tuple(s for d, s in admissible if d == low)
    floor = {0: 1, 1: 2, 2: 4, 3: 7 - (m % 2 == 0)}.get(r, 2 * r + 1)
    ok = low is None or low >= floor
    if r == 3 and low == 6:
        family = {
            family_Tma(m, a).elements for a in range(1, m // 2) if 4 * a != m
        }
        ok = ok and set(minimizers) <= family
    return sum(counts.values()), counts, low, minimizers, ok


def _fields(summary):
    return (
        summary.admissible_count,
        summary.diversity_counts,
        summary.min_diversity,
        summary.minimizers,
        summary.ok,
    )


def test_scan_matches_subset_scan_oracle():
    for m in range(2, 17):
        # no set has more than the m - 1 elements of {1..m-1}
        summaries = scan_admissible(m, min(5, m - 1))
        assert [s.set_size for s in summaries] == list(range(min(5, m - 1) + 1))
        for r, summary in enumerate(summaries):
            assert summary.modulus == m
            assert _fields(summary) == _oracle_summary(m, r), (m, r)
    for m in range(6, 21):
        assert _fields(verify_r3(m)) == _oracle_summary(m, 3), m
    for m in range(8, 17):
        assert _fields(verify_r4(m)) == _oracle_summary(m, 4), m
    for m in range(11, 17):
        assert _fields(verify_general(5, m)) == _oracle_summary(m, 5), m


def test_lemma_checks():
    # every subset of {1..m-1} of size <= 5 is checked exactly once
    for m in range(2, 17):
        assert lemma_expls_checks(m) == sum(comb(m - 1, r) for r in range(6)), m


def plant(monkeypatch, m, elements, **fields):
    """Make the diversity oracle misreport the set `elements` mod m."""
    real = subset_sums.diversity

    def planted(T):
        report = real(T)
        if T.modulus == m and T.elements == elements:
            return dataclasses.replace(report, **fields)
        return report

    monkeypatch.setattr(subset_sums, "diversity", planted)


def test_lemma_checks_read_heredity_from_the_oracle(monkeypatch):
    # (1, 2, 3) stays admissible, so its subset (1, 2) breaks heredity
    plant(monkeypatch, 8, (1, 2), admissible=False)
    with pytest.raises(AssertionError) as caught:
        lemma_expls_checks(8)
    assert caught.value.args == (8, (1, 2, 3), (1, 2))


def test_lemma_checks_catch_equal_nested_sums(monkeypatch):
    # passes the bounds, 2r <= m, r = 2 and heredity checks; only the
    # nested sums see 1 + 7 = 0 mod 8
    plant(monkeypatch, 8, (1, 7), admissible=True, diversity=4)
    with pytest.raises(AssertionError) as caught:
        lemma_expls_checks(8)
    assert caught.value.args[:2] == (8, (1, 7))


def test_family_check_reads_the_oracle(monkeypatch):
    plant(monkeypatch, 6, (1, 3, 4), diversity=7)
    with pytest.raises(AssertionError):
        family_Tma(6, 1)


def test_lemma_checks_fail_under_optimisation():
    code = (
        "import dataclasses\n"
        "import congruence_atoms.subset_sums as ss\n"
        "real = ss.diversity\n"
        "def planted(T):\n"
        "    report = real(T)\n"
        "    if T.modulus == 8 and T.elements == (1, 2):\n"
        "        return dataclasses.replace(report, admissible=False)\n"
        "    return report\n"
        "ss.diversity = planted\n"
        "ss.lemma_expls_checks(8)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "AssertionError: (8, (1, 2, 3), (1, 2))" in proc.stderr


def test_pair_exclusion():
    # an admissible set never contains both i and m - i
    for m in range(4, 14):
        for subset in combinations(range(1, m), 2):
            i, j = subset
            if i + j == m:
                assert not diversity(IndexSet(m, subset)).admissible


def test_closure_matches_subset_scan():
    for m in range(2, 13):
        for r in range(0, min(5, m)):
            for subset in combinations(range(1, m), r):
                T = IndexSet(m, subset)
                report = diversity(T)
                adm, div = diversity_closure(T)
                assert adm == report.admissible, (m, subset)
                assert div == report.diversity, (m, subset)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monotone_under_inclusion(data):
    m = data.draw(st.integers(min_value=2, max_value=24))
    universe = list(range(1, m))
    T = tuple(
        sorted(
            data.draw(
                st.sets(st.sampled_from(universe), max_size=min(8, m - 1))
            )
        )
    )
    S = tuple(sorted(data.draw(st.sets(st.sampled_from(T) if T else st.nothing(), max_size=len(T)))))
    d_small = diversity(IndexSet(m, S)).diversity
    d_big = diversity(IndexSet(m, T)).diversity
    assert d_small <= d_big
