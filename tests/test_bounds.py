import hashlib
import math
import os
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal
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
    support_capacity,
    table2,
)
from congruence_atoms import bounds, tables


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


def test_bound_q_matches_the_binomial_sum():
    # the term-ratio pass against the sum of products of binomials
    for m in range(4, 601):
        expected = sum(
            math.comb(m - 1, s) * math.comb(m - s - 1, s - 1)
            for s in range(1, m // 2 + 1)
        )
        assert bound_q(m) == expected, m


def test_bound_q_pinned_at_large_moduli():
    # the sha256 of the decimal digits of q(4000) and q(7143), as the
    # binomial sum gave them
    for m, digits, sha in (
        (4000, 1906, "30e2ff172b179808a193c704c95ae258699941684103f5793a7cbab499942c6a"),
        (7143, 3406, "f897ae6ac8c3942feb52bda520adde3135ae5a2a8a989eae0739bf4ac4d019da"),
    ):
        text = str(bound_q(m))
        assert len(text) == digits, m
        assert hashlib.sha256(text.encode()).hexdigest() == sha, m


def test_bound_q_summand_identities():
    for m in range(4, 30):
        assert math.comb(m - 1, 1) * math.comb(m - 2, 0) == m - 1
        assert (
            math.comb(m - 1, 2) * math.comb(m - 3, 1)
            == (m - 1) * (m - 2) * (m - 3) // 2
        )
        # crude sanity cap
        assert bound_q(m) <= sum(
            math.comb(m - 1, s) ** 2 for s in range(1, m // 2 + 1)
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


def test_pi_bracket_holds():
    # lo < pi * 2**bits < hi, against pi at twice the bits' precision
    import mpmath

    for bits in (*range(1, 80), 256, 1000, 4096):
        lo, hi = bounds._pi_bracket(bits)
        with mpmath.workprec(2 * bits + 64):
            assert lo < mpmath.pi * 2**bits < hi, bits


def test_bound_r_pinned_at_large_moduli():
    # the sha256 of the decimal digits of r(1000) and r(4000), as the
    # mpmath floor gave them
    for m, digits, sha in (
        (1000, 600, "80e69ad167964f2114cab03f95886e81466e308183f077131f5fbcf760ad70ca"),
        (4000, 2406, "f893760c2bc506638427c4e5ebb3fbd0308b79272187a3da9ee0c8dd0b8b3280"),
    ):
        text = str(bound_r(m))
        assert len(text) == digits, m
        assert hashlib.sha256(text.encode()).hexdigest() == sha, m


def test_floor_r_doubles_a_bracket_too_coarse_to_decide(monkeypatch):
    # at 8 bits the two ends of the pi bracket give different floors, so
    # the bits double until they agree: 3 rounds at m = 12, 8 at m = 300
    import mpmath

    rounds = []
    pi_bracket = bounds._pi_bracket

    def spy(bits):
        rounds.append(bits)
        return pi_bracket(bits)

    monkeypatch.setattr(bounds, "_pi_bracket", spy)
    assert bounds._floor_r(12, 8) == tables.R[12]
    assert rounds == [8, 16, 32]
    rounds.clear()
    n = bounds._floor_r(300, 8)
    assert rounds == [8 << k for k in range(8)]
    with mpmath.workdps(900):
        scale = 4 * mpmath.pi * 299
        assert scale * n**2 <= 16**299 < scale * (n + 1) ** 2


def test_package_never_imports_mpmath():
    # with mpmath unimportable, r(m) and a live bounds table still run: mpmath serves only the tests as an oracle
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from congruence_atoms import cli\n"
        "from congruence_atoms.bounds import bound_r\n"
        "print(bound_r(12))\n"
        "sys.exit(cli.main(['bounds', '4', '40', '--live']))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{tables.R[12]}"
    assert [line.split(",")[0] for line in lines[2:]] == [
        str(m) for m in range(4, 41)
    ]
    assert all(line.endswith(",enumerated") for line in lines[2:])


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


def test_log2_rounded_matches_the_float_rounding():
    # the float log2, quantized half up as a Decimal, is the reference;
    # the bit-length rounding is exact, and agrees with it on 1..10**5
    for v in range(1, 10**5 + 1):
        expected = Decimal(repr(math.log2(v))).quantize(Decimal("0.1"), ROUND_HALF_UP)
        assert log2_rounded(v) == str(expected), v


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
