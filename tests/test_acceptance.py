"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they happen.

Criterion 5 expects 3 extremal solutions at m = 3, not 2*phi(3) = 4,
because there the two width-2 generators collide in the single vector (1, 1).
"""

import math
import os
import random
import time

from congruence_atoms import (
    CongruenceInstance,
    NormalForm,
    bound_q,
    bound_r,
    bound_violations,
    build_plan,
    count_general,
    enumerate_naive,
    enumerate_normal_form,
    enumerate_standard,
    euler_phi,
    lift_solutions,
    naive_minimal_solutions,
    partition_count,
    verify_general,
    verify_r3,
    verify_r4,
)
from congruence_atoms import tables
from congruence_atoms.cli import main
from congruence_atoms.extremal import M6_EXCEPTIONS


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


def test_criterion_1_table1_replay():
    total_start = time.monotonic()
    failures = []
    for m in range(2, 24):
        started = time.monotonic()
        count = enumerate_standard(m).count
        elapsed = time.monotonic() - started
        if count != tables.ELL[m]:
            failures.append(f"ell({m})={count}!={tables.ELL[m]}")
        if m <= 14 and elapsed > 1.0:
            failures.append(f"m={m} took {elapsed:.2f}s > 1s")
    total = time.monotonic() - total_start
    if total > 60.0:
        failures.append(f"total {total:.1f}s > 60s")
    report(
        "criterion 1: Table 1 replay, 2 <= m <= 23, exact",
        not failures,
        "; ".join(failures) or f"total {total:.1f}s",
    )


def test_criterion_2_table2_replay():
    ok = all(bound_q(m) == tables.Q[m] for m in range(4, 15))
    ok = ok and all(bound_r(m) == tables.R[m] for m in range(4, 13))
    ok = ok and all(
        m * partition_count(m) == tables.M_TIMES_P[m] for m in range(4, 24)
    )
    report("criterion 2: Table 2 replay (q, r floored, m*P), exact", ok)


def test_criterion_3_oracle_equivalence():
    failures = []
    for m in range(2, 11):
        if enumerate_standard(m).solutions != enumerate_naive(m).solutions:
            failures.append(f"standard/naive mismatch at m={m}")
    rng = random.Random(0xC0A7)
    for _ in range(20):
        m = rng.randint(2, 8)
        n = rng.randint(1, 4)
        coeffs = tuple(rng.randint(0, m - 1) for _ in range(n))
        plan = build_plan(CongruenceInstance(m, coeffs))
        normal = enumerate_normal_form(NormalForm(m, plan.support))
        lifted = sorted(lift_solutions(plan, normal))
        direct = sorted(naive_minimal_solutions(m, coeffs))
        if lifted != direct:
            failures.append(f"lift mismatch m={m} a={coeffs}")
        if count_general(plan, normal) != len(lifted):
            failures.append(f"count mismatch m={m} a={coeffs}")
    report("criterion 3: oracle equivalence, exact", not failures, "; ".join(failures))


def test_criterion_4_bound_theorems_unpruned():
    violations = []
    for m in range(4, 17):
        for x in enumerate_standard(m).solutions:
            violations.extend((m, x, name) for name in bound_violations(x, m))
    report(
        "criterion 4: bound theorems on the unpruned engine, zero violations",
        not violations,
        f"{len(violations)} violations" if violations else "",
    )


def _extremal(m, sols):
    return [x for x in sols if sum(x) + sum(1 for c in x if c) == m + 1]


def test_criterion_5_extremal_counts():
    failures = []
    m3_expected = {(3, 0), (0, 3), (1, 1)}
    for m in range(3, 24):
        extremal = _extremal(m, enumerate_standard(m).solutions)
        if m == 3:
            oracle = _extremal(m, naive_minimal_solutions(3, (1, 2)))
            for source, found in (("engine", extremal), ("oracle", oracle)):
                if len(found) != len(set(found)) or set(found) != m3_expected:
                    failures.append(f"m=3 {source} extremal {sorted(found)}")
        elif m == 6:
            if len(extremal) != 6:
                failures.append(f"m=6 count {len(extremal)} != 6")
            for x in M6_EXCEPTIONS:
                if x not in extremal:
                    failures.append(f"m=6 missing exceptional {x}")
        else:
            if len(extremal) != 2 * euler_phi(m):
                failures.append(
                    f"m={m}: {len(extremal)} != 2*phi({m}) = {2 * euler_phi(m)}"
                )
    report(
        "criterion 5: extremal counts 2*phi(m) (m >= 4, m != 6), "
        "3 at m=3 (engine and oracle), and the m=6 exception",
        not failures,
        "; ".join(failures),
    )


def test_criterion_6_appendix_suite():
    started = time.monotonic()
    failures = []
    for m in range(6, 21):
        if not verify_r3(m).ok:
            failures.append(f"r3 at m={m}")
    for m in range(8, 17):
        if not verify_r4(m).ok:
            failures.append(f"r4 at m={m}")
    for r in (4, 5):
        for m in range(2 * r + 1, 17):
            if not verify_general(r, m).ok:
                failures.append(f"general r={r} m={m}")
    elapsed = time.monotonic() - started
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    report(
        "criterion 6: appendix suite (r=3, r=4, general), exhaustive",
        not failures,
        "; ".join(failures) or f"{elapsed:.1f}s",
    )


def test_criterion_7_thread_determinism(capsys, tmp_path):
    """stdout is byte-identical across reruns, and between a cold run that
    stores the cache and a cache hit."""
    runs = [
        ["enumerate", "12", "--format", fmt] for fmt in ("json", "csv", "text")
    ] + [["verify", "--suite", "extremal", "--m-max", "8"]]
    outputs = []
    for _ in range(2):
        for argv in runs:
            main(argv)
            outputs.append(capsys.readouterr().out)
    cached = []
    for _ in range(2):  # a cold run, which stores the cache, then a hit
        main(["enumerate", "12", "--format", "json", "--cache", str(tmp_path)])
        cached.append(capsys.readouterr().out)
    with capsys.disabled():
        report(
            "criterion 7: byte-identical output across reruns and cache hits",
            outputs[:len(runs)] == outputs[len(runs):]
            and cached[0] == cached[1] == outputs[0]
            and os.listdir(tmp_path) == ["enum-m12.json"],
        )
