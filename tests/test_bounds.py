import math
import os
import subprocess
import sys
from itertools import combinations

import pytest

from congruence_atoms import (
    DomainError,
    bound_q,
    bound_r,
    bound_simplex,
    log2_rounded,
    naive_minimal_solutions,
    partition_count,
    stirling_central,
    support_capacity,
    table2,
)
from congruence_atoms import tables


def test_bound_simplex_examples():
    assert bound_simplex(3, 4) == 15  # n = m - 1 case: C(6, 4)
    assert bound_simplex(1, 5) == 1
    with pytest.raises(DomainError):
        bound_simplex(0, 5)


def test_bound_simplex_attained_for_all_ones():
    # with all coefficients 1 every length-m vector is indecomposable,
    # so the count meets the bound exactly
    n, m = 3, 5
    sols = naive_minimal_solutions(m, (1,) * n)
    assert len(sols) == bound_simplex(n, m) == 21
    assert all(sum(x) == m for x in sols)


def test_bound_r_reference_row():
    for m, expected in tables.R.items():
        assert bound_r(m) == expected


def test_bound_r_is_floor_of_real_bound():
    # r(4): real value is about 10.42, printed value 10
    assert bound_r(4) == 10
    import mpmath

    with mpmath.workdps(60):
        real = mpmath.mpf(4**3) / (2 * mpmath.sqrt(mpmath.pi) * mpmath.sqrt(3))
        assert 10 < real < 11


def test_bound_r_large_modulus_exact_floor():
    # stays exact well past 64-bit overflow of 4^(m-1)
    value = bound_r(40)
    assert value.bit_length() > 64
    import mpmath

    with mpmath.workdps(120):
        real = mpmath.mpf(4**39) / (2 * mpmath.sqrt(mpmath.pi) * mpmath.sqrt(39))
        assert value == int(mpmath.floor(real))


def test_bound_q_reference_row():
    for m, expected in tables.Q.items():
        assert bound_q(m) == expected
    with pytest.raises(DomainError):
        bound_q(3)


def test_bound_q_summand_identities():
    from congruence_atoms.core import binomial

    for m in range(4, 30):
        assert binomial(m - 1, 1) * binomial(m - 2, 0) == m - 1
        assert (
            binomial(m - 1, 2) * binomial(m - 3, 1)
            == (m - 1) * (m - 2) * (m - 3) // 2
        )
        # crude sanity cap
        assert bound_q(m) <= sum(
            binomial(m - 1, s) ** 2 for s in range(1, m // 2 + 1)
        )


def test_support_capacity_examples(standard_enumerations):
    assert support_capacity(8, 3) == 6
    assert support_capacity(10, 5) == 1
    with pytest.raises(DomainError):
        support_capacity(8, 2)
    with pytest.raises(DomainError):
        support_capacity(10, 6)
    # empirical: every 3-subset of {1..7} supports at most 6 solutions
    # with exactly that support, at m = 8
    sols = standard_enumerations[8].solutions
    for S in combinations(range(1, 8), 3):
        count = sum(
            1
            for x in sols
            if {i + 1 for i, c in enumerate(x) if c} == set(S)
        )
        assert count <= 6, S


def test_support_capacity_holds_everywhere(standard_enumerations):
    for m in (8, 10, 12):
        sols = standard_enumerations[m].solutions
        for s in range(3, m // 2 + 1):
            cap = support_capacity(m, s)
            counts = {}
            for x in sols:
                supp = tuple(i + 1 for i, c in enumerate(x) if c)
                if len(supp) == s:
                    counts[supp] = counts.get(supp, 0) + 1
            assert all(v <= cap for v in counts.values()), (m, s)


def test_stirling_bracket():
    for n in (1, 10, 50):
        value, (lower, upper) = stirling_central(n)
        assert value == math.comb(2 * n, n)
        assert 0 < lower < upper == 1.0
    for n in range(1, 201):
        stirling_central(n)  # raises if the bracket fails


def test_partition_function():
    assert partition_count(0) == 1
    assert partition_count(4) == 5
    assert partition_count(23) == 1255
    for m, expected in tables.M_TIMES_P.items():
        assert m * partition_count(m) == expected


def test_bound_r_floor_is_exact_past_the_table():
    # independently, without square roots and with pi at 3m digits:
    # N <= X < N + 1 for X = 4^(m-1) / (2 sqrt(pi) sqrt(m-1)) iff
    # 4 pi (m-1) N^2 <= 16^(m-1) < 4 pi (m-1) (N+1)^2
    import mpmath

    for m in range(4, 301):
        n = bound_r(m)
        with mpmath.workdps(3 * m):
            scale = 4 * mpmath.pi * (m - 1)
            assert scale * n**2 <= 16 ** (m - 1) < scale * (n + 1) ** 2, m


def test_partition_count_runs_deep_in_a_fresh_interpreter():
    # a first call at a large m must not recurse through smaller ones
    code = (
        "from congruence_atoms.bounds import partition_count\n"
        "print(partition_count(5000))\n"
        "print(partition_count(1000))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    p5000, p1000 = map(int, proc.stdout.split())
    # the coefficients of Euler's product 1/prod(1 - q^k), k = 1..1000;
    # P(5000) came from the same product taken up to k = 5000
    p = [1] + [0] * 1000
    for k in range(1, 1001):
        for j in range(k, 1001):
            p[j] += p[j - k]
    assert p1000 == p[1000]
    assert p5000 == int(
        "16982016882544212185197510168930643136"
        "1757683049829233322203824652329144349"
    )


def test_partition_function_against_brute_force():
    def partitions(n, max_part):
        if n == 0:
            return 1
        return sum(
            partitions(n - k, k) for k in range(1, min(n, max_part) + 1)
        )

    for m in range(31):
        assert partition_count(m) == partitions(m, m)


def test_log2_rounding_convention():
    # round-half-up to one decimal reproduces the published row except
    # at m = 3, where log2(3) = 1.585 rounds to 1.6 but the row says 1.5
    mismatches = {
        m
        for m, ell in tables.ELL.items()
        if log2_rounded(ell) != tables.LOG2_ELL_REFERENCE[m]
    }
    assert mismatches == {3}
    assert log2_rounded(3) == "1.6"


def test_table2_rows():
    rows = {row.m: row for row in table2(4, 23)}
    assert rows[9].ell == 118 and rows[9].q == 1016 and rows[9].m_times_p == 270
    assert rows[11].ell == 347 and rows[11].q == 8350 and rows[11].m_times_p == 616
    assert rows[23].ell == 29161
    assert rows[23].ell > rows[23].m_times_p  # ell(23) > 23 * P(23)
    with pytest.raises(DomainError):
        table2(3, 5)


def test_table2_live_enumeration():
    rows = table2(4, 23, with_enumeration=True)
    for row in rows:
        assert row.ell == tables.ELL[row.m]
        assert row.ell_source == "enumerated"


def test_enumerated_counts_below_bounds(standard_enumerations):
    for m in range(4, 24):
        ell = standard_enumerations[m].count
        assert ell <= bound_q(m)
        assert ell <= bound_r(m)
