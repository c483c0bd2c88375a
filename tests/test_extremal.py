import os
import subprocess
import sys
import tracemalloc
from collections import deque

import pytest

from congruence_atoms import (
    BudgetExceeded,
    DomainError,
    enumerate_standard,
    euler_phi,
    extremal_all,
    extremal_filter,
    is_indecomposable,
    verify_extremal,
)
from congruence_atoms.extremal import M6_EXCEPTIONS


def family(m, width_class):
    """The sorted vectors of extremal_all(m) in one width class."""
    return sorted(s.vector for s in extremal_all(m) if s.width_class == width_class)


def test_width1_examples():
    assert family(5, "width1") == sorted(
        [(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)]
    )
    assert family(6, "width1") == sorted(
        [(6, 0, 0, 0, 0), (0, 0, 0, 0, 6)]
    )
    # extremal_all starts at m = 3; at m = 2 the one atom, (2,), is the
    # width-1 family
    assert extremal_filter(enumerate_standard(2).solutions, 2) == ((2,),)
    for m in range(3, 20):
        assert len(family(m, "width1")) == euler_phi(m)


def test_width2_examples():
    assert (1, 0, 3, 0) in family(5, "width2")  # i=3, j=1
    assert family(4, "width2") == sorted([(2, 1, 0), (0, 1, 2)])
    assert len(family(12, "width2")) == euler_phi(12) == 4
    with pytest.raises(DomainError):
        extremal_all(2)


def test_width2_generator_relation():
    for m in range(4, 16):
        for sol in extremal_all(m):
            if sol.width_class != "width2":
                continue
            i = sol.generator_index
            j = (2 * i) % m
            assert sol.vector[i - 1] >= m - 2
            assert sol.vector[j - 1] >= 1
            assert is_indecomposable(sol.vector, m)


def test_width2_degenerates_at_m3():
    # i = 1 and i = 2 both produce (1, 1): one vector, not phi(3) = 2,
    # and it keeps the first i
    assert family(3, "width2") == [(1, 1)]
    assert [s.generator_index for s in extremal_all(3) if s.vector == (1, 1)] == [1]


def test_extremal_all_counts():
    assert len(list(extremal_all(6))) == 6
    assert len(list(extremal_all(7))) == 2 * euler_phi(7) == 12
    assert len(list(extremal_all(3))) == 3  # degenerate width-2 family
    for m in range(4, 24):
        expected = 6 if m == 6 else 2 * euler_phi(m)
        assert len(list(extremal_all(m))) == expected
    with pytest.raises(DomainError):
        extremal_all(2)


def test_extremal_all_past_its_budget_refuses_when_called():
    # the call itself raises, before any vector is asked for, as it does
    # for m = 2 above
    with pytest.raises(BudgetExceeded):
        extremal_all(10**6)


def test_extremal_all_holds_one_vector_at_a_time():
    # phi(2000) = 800: 1,600 vectors of 1,999 entries, about 26 MB if
    # they were all held at once
    tracemalloc.start()
    try:
        deque(extremal_all(2000), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_m6_exceptions_present():
    six = {s.vector for s in extremal_all(6) if s.width_class == "exceptional"}
    assert six == set(M6_EXCEPTIONS)
    for x in M6_EXCEPTIONS:
        assert is_indecomposable(x, 6)
        assert sum(x) + sum(1 for c in x if c) == 7


def test_verify_extremal_against_enumeration(standard_enumerations):
    for m in range(3, 24):
        assert verify_extremal(m, standard_enumerations[m])


def _fails_under_optimisation(result):
    """Whether verify_extremal(7, ...) raises AssertionError under -O on
    the enumeration of 7 passed through `result`, a Python expression
    over `full`: the check must not be an assert."""
    code = (
        "from congruence_atoms import enumerate_standard, verify_extremal\n"
        "from congruence_atoms.enumeration import EnumerationResult\n"
        "full = enumerate_standard(7)\n"
        f"verify_extremal(7, EnumerationResult(7, full.support, {result}))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    return proc.returncode != 0 and "AssertionError" in proc.stderr


def test_verify_extremal_fails_on_a_missing_solution_under_optimisation():
    # drops m*e_1 from the enumeration
    assert _fails_under_optimisation(
        "tuple(x for x in full.solutions if x != (7, 0, 0, 0, 0, 0))"
    )


def test_verify_extremal_fails_on_atoms_out_of_order_under_optimisation():
    # the same atoms, in decreasing order
    assert not _fails_under_optimisation("full.solutions")
    assert _fails_under_optimisation("full.solutions[::-1]")


def test_total_size_never_exceeds_cap(standard_enumerations):
    for m in range(4, 24):
        for x in standard_enumerations[m].solutions:
            assert sum(x) + sum(1 for c in x if c) <= m + 1


def test_no_wide_extremal_solutions(standard_enumerations):
    for m in range(7, 24):
        for x in standard_enumerations[m].solutions:
            if sum(x) + sum(1 for c in x if c) == m + 1:
                assert sum(1 for c in x if c) <= 2
