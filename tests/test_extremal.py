import os
import subprocess
import sys

import pytest

from congruence_atoms import (
    DomainError,
    euler_phi,
    extremal_all,
    extremal_width1,
    extremal_width2,
    is_indecomposable,
    verify_extremal,
)
from congruence_atoms.extremal import M6_EXCEPTIONS


def vectors(sols):
    return sorted(s.vector for s in sols)


def test_width1_examples():
    assert vectors(extremal_width1(5)) == sorted(
        [(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)]
    )
    assert vectors(extremal_width1(6)) == sorted(
        [(6, 0, 0, 0, 0), (0, 0, 0, 0, 6)]
    )
    assert vectors(extremal_width1(2)) == [(2,)]
    for m in range(2, 20):
        assert len(extremal_width1(m)) == euler_phi(m)


def test_width2_examples():
    assert (1, 0, 3, 0) in vectors(extremal_width2(5))  # i=3, j=1
    assert vectors(extremal_width2(4)) == sorted([(2, 1, 0), (0, 1, 2)])
    assert len(extremal_width2(12)) == euler_phi(12) == 4
    with pytest.raises(DomainError):
        extremal_width2(2)


def test_width2_generator_relation():
    for m in range(4, 16):
        for sol in extremal_width2(m):
            i = sol.generator_index
            j = (2 * i) % m
            assert sol.vector[i - 1] >= m - 2
            assert sol.vector[j - 1] >= 1
            assert is_indecomposable(sol.vector, m)


def test_width2_degenerates_at_m3():
    # i = 1 and i = 2 both produce (1, 1): one vector, not phi(3) = 2
    assert vectors(extremal_width2(3)) == [(1, 1)]


def test_extremal_all_counts():
    assert len(extremal_all(6)) == 6
    assert len(extremal_all(7)) == 2 * euler_phi(7) == 12
    assert len(extremal_all(3)) == 3  # degenerate width-2 family
    for m in range(4, 24):
        expected = 6 if m == 6 else 2 * euler_phi(m)
        assert len(extremal_all(m)) == expected
    with pytest.raises(DomainError):
        extremal_all(2)


def test_m6_exceptions_present():
    six = {s.vector for s in extremal_all(6) if s.width_class == "exceptional"}
    assert six == set(M6_EXCEPTIONS)
    for x in M6_EXCEPTIONS:
        assert is_indecomposable(x, 6)
        assert sum(x) + sum(1 for c in x if c) == 7


def test_verify_extremal_against_enumeration(standard_enumerations):
    for m in range(3, 24):
        assert verify_extremal(m, standard_enumerations[m])


def test_verify_extremal_fails_on_a_missing_solution_under_optimisation():
    # drops m*e_1 from the enumeration; the check must not be an assert
    code = (
        "from congruence_atoms import enumerate_standard, verify_extremal\n"
        "from congruence_atoms.enumeration import EnumerationResult\n"
        "full = enumerate_standard(7)\n"
        "kept = tuple(x for x in full.solutions if x != (7, 0, 0, 0, 0, 0))\n"
        "verify_extremal(7, EnumerationResult(7, full.support, kept))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


def test_total_size_never_exceeds_cap(standard_enumerations):
    for m in range(4, 24):
        for x in standard_enumerations[m].solutions:
            assert sum(x) + sum(1 for c in x if c) <= m + 1


def test_no_wide_extremal_solutions(standard_enumerations):
    for m in range(7, 24):
        for x in standard_enumerations[m].solutions:
            if sum(x) + sum(1 for c in x if c) == m + 1:
                assert sum(1 for c in x if c) <= 2
