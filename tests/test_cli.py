import base64
import json
import os
import subprocess
import sys

import pytest

from congruence_atoms.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_csv(capsys):
    code, out, err = run_cli(["enumerate", "4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coords,length,width,weight,total_size"
    assert len(lines) == 7  # header + 6 solutions
    assert "m=4 count=6" in err


def test_enumerate_json_stream(capsys):
    code, out, err = run_cli(["enumerate", "5", "--format", "json"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 14
    assert list(records[0].keys()) == [
        "coords", "length", "width", "weight", "total_size",
    ]
    summary = json.loads(err.splitlines()[-1])
    assert summary["m"] == 5 and summary["count"] == 14
    assert "elapsed_ms" in summary


def test_enumerate_support(capsys):
    code, out, _ = run_cli(["enumerate", "3", "--support", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["x=(3) length=3 width=1 weight=3 total_size=4"]


def test_enumerate_naive_flag(capsys):
    code, out, _ = run_cli(["enumerate", "6", "--naive", "--format", "csv"], capsys)
    assert code == 0
    code2, out2, _ = run_cli(["enumerate", "6", "--format", "csv"], capsys)
    assert out == out2


def test_enumerate_domain_error(capsys):
    code, out, err = run_cli(["enumerate", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_enumerate_budget_refusal(capsys):
    code, out, err = run_cli(
        ["enumerate", "12", "--naive", "--max-points", "10"], capsys
    )
    assert code == 3
    assert "budget" in err


def test_weight_uses_the_coefficients(capsys):
    # columns follow the sorted support J = (1, 3): x = (0, 7) weighs 3 * 7
    code, out, _ = run_cli(["enumerate", "7", "--support", "3,1"], capsys)
    assert code == 0
    assert "x=(0,7) length=7 width=1 weight=21 total_size=8" in out.splitlines()
    code, out, _ = run_cli(
        ["solve", "--modulus", "5", "--coeffs", "3,3", "--format", "csv"], capsys
    )
    assert code == 0
    assert "0;5,5,1,15,6" in out.splitlines()
    # coefficients are reduced mod m before weighing
    code, out, _ = run_cli(
        ["solve", "--modulus", "5", "--coeffs", "8", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["weight"] == 15


def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _, first, _ = run_cli(
        ["enumerate", "9", "--cache", cache, "--format", "json"], capsys
    )
    files = os.listdir(cache)
    assert files == ["enum-m9.json"]
    _, second, _ = run_cli(
        ["enumerate", "9", "--cache", cache, "--format", "json"], capsys
    )
    assert first == second
    # reload and re-store must be byte-identical
    path = os.path.join(cache, files[0])
    with open(path, "rb") as fh:
        original = fh.read()
    from congruence_atoms.cli import _cache_load, _cache_store

    solutions = _cache_load(cache, 9, None)
    _cache_store(cache, 9, None, solutions)
    with open(path, "rb") as fh:
        assert fh.read() == original


def test_cache_fingerprint_invalidation(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    run_cli(["enumerate", "7", "--cache", cache], capsys)
    path = os.path.join(cache, "enum-m7.json")
    with open(path) as fh:
        data = json.load(fh)
    data["engine"] = "someone-else"
    data["solutions"] = []
    with open(path, "w") as fh:
        json.dump(data, fh)
    _, out, err = run_cli(["enumerate", "7", "--cache", cache], capsys)
    assert "count=47" in err  # recomputed, not the tampered cache


def test_truncated_cache_is_a_miss(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _, expected, _ = run_cli(["enumerate", "7", "--cache", cache], capsys)
    path = os.path.join(cache, "enum-m7.json")
    with open(path, "rb") as fh:
        whole = fh.read()
    with open(path, "wb") as fh:
        fh.write(whole[: len(whole) // 2])
    code, out, err = run_cli(["enumerate", "7", "--cache", cache], capsys)
    assert code == 0
    assert out == expected
    assert "count=47" in err
    with open(path, "rb") as fh:
        assert fh.read() == whole  # rewritten in full
    assert os.listdir(cache) == ["enum-m7.json"]  # no temp file left behind


def _set(**fields):
    return lambda data: data.update(fields)


def _tamper_block(edit):
    def tamper(data):
        block = bytearray(base64.b64decode(data["solutions"]))
        edit(block)
        data["solutions"] = base64.b64encode(block).decode("ascii")

    return tamper


def _nested_rows(data):
    from congruence_atoms import enumerate_standard

    data["solutions"] = [list(x) for x in enumerate_standard(7).solutions]


def _one_row_counted_true(data):
    _tamper_block(lambda b: b.__delitem__(slice(6, None)))(data)
    data["count"] = True  # == 1


def _version_1(data):
    # the list-of-lists layout of the first cache version
    _nested_rows(data)
    data["version"] = 1
    del data["count"]


# each edit of a good enum-m7.json (47 rows of 6 one-byte coordinates)
# that must make it a miss; the first eight plant in the header or the
# block the kinds of bad value that list rows could hold
MALFORMED_CACHE = {
    "negative": _set(count=-1),
    "string": _set(count="47"),
    "float": _set(count=47.0),
    "nan": _set(count=float("nan")),
    "true": _one_row_counted_true,
    "null": _set(count=None),
    "nested": _nested_rows,
    "short": _tamper_block(lambda b: b.pop()),
    "row-long": _tamper_block(lambda b: b.extend(b[:6])),
    "count-one-more": _set(count=48),
    "coordinate-above-m": _tamper_block(lambda b: b.__setitem__(-1, 8)),
    # b64decode without validate=True would skip the "*"
    "invalid-base64": lambda data: data.update(solutions="*" + data["solutions"]),
    "solutions-missing": lambda data: data.pop("solutions"),
    "version-1": _version_1,
    "version-3": _set(version=3),
    "other-engine": _set(engine="someone-else"),
    "other-m": _set(m=8),
    "other-J": _set(J=[1, 2, 3, 4, 5, 6]),
}


@pytest.mark.parametrize("tamper", MALFORMED_CACHE.values(), ids=MALFORMED_CACHE)
def test_malformed_cache_entries_are_a_miss(tmp_path, capsys, tamper):
    # records are printed from the cached block without a per-row check
    cache = str(tmp_path / "cache")
    _, expected, _ = run_cli(["enumerate", "7", "--cache", cache], capsys)
    path = os.path.join(cache, "enum-m7.json")
    with open(path, "rb") as fh:
        whole = fh.read()
    data = json.loads(whole)
    tamper(data)
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, err = run_cli(["enumerate", "7", "--cache", cache], capsys)
    assert code == 0
    assert out == expected
    assert "count=47" in err
    with open(path, "rb") as fh:
        assert fh.read() == whole  # rewritten


def test_deeply_nested_cache_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "enum-m7.json").write_text("[" * 100_000)
    code, out, err = run_cli(["enumerate", "7", "--cache", str(cache)], capsys)
    assert code == 0
    assert "count=47" in err


def test_uncacheable_moduli(tmp_path, capsys):
    from congruence_atoms.cli import _cache_load, _cache_store, _cache_typecode
    from congruence_atoms.enumeration import ENGINE_FINGERPRINT

    assert [_cache_typecode(m) for m in (2, 255, 256, 65535, 65536)] == [
        "B", "B", "H", "H", _cache_typecode(2**32 - 1),
    ]
    # no unsigned typecode holds 2**64: such a modulus is never cached
    cache = str(tmp_path / "cache")
    _cache_store(cache, 2**64, (1,), [(2**64,)])
    assert not os.path.exists(cache) and _cache_load(cache, 2**64, (1,)) is None
    # a well-formed file for m = 1 (no columns) is a miss, not a crash
    os.makedirs(cache)
    with open(os.path.join(cache, "enum-m1.json"), "w") as fh:
        json.dump(
            {"version": 2, "m": 1, "J": None, "engine": ENGINE_FINGERPRINT,
             "count": 0, "solutions": ""},
            fh,
        )
    code, out, err = run_cli(["enumerate", "1", "--cache", cache], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_cache_file_layout(tmp_path, capsys):
    from congruence_atoms import enumerate_standard

    cache = str(tmp_path / "cache")
    run_cli(["enumerate", "7", "--cache", cache], capsys)
    with open(os.path.join(cache, "enum-m7.json")) as fh:
        data = json.load(fh)
    assert list(data) == ["version", "m", "J", "engine", "count", "solutions"]
    assert data["version"] == 2 and data["count"] == 47
    solutions = enumerate_standard(7).solutions
    # one byte per coordinate, row-major
    assert base64.b64decode(data["solutions"]) == bytes(
        c for x in solutions for c in x
    )


def test_wide_cache_round_trip(tmp_path, capsys):
    # m > 255: coordinates up to 300 take two bytes each, little-endian,
    # and are printed past the 0..255 digit table
    from congruence_atoms.cli import _cache_load

    cache = str(tmp_path / "cache")
    argv = ["enumerate", "300", "--support", "299,1", "--cache", cache]
    _, cold, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert cold.splitlines() == [
        "coords,length,width,weight,total_size",
        "0;300,300,1,89700,301",
        "1;1,2,2,300,4",
        "300;0,300,1,300,301",
    ]
    path = os.path.join(cache, "enum-m300-J1-299.json")
    with open(path, "rb") as fh:
        whole = fh.read()
    data = json.loads(whole)
    assert data["count"] == 3
    assert base64.b64decode(data["solutions"]) == bytes(
        [0, 0, 44, 1, 1, 0, 1, 0, 44, 1, 0, 0]
    )
    assert _cache_load(cache, 300, (1, 299)) == [(0, 300), (1, 1), (300, 0)]
    for fmt in ("json", "csv", "text"):
        _, cold, _ = run_cli(
            ["enumerate", "300", "--support", "1,299", "--format", fmt], capsys
        )
        _, hit, _ = run_cli(argv + ["--format", fmt], capsys)
        assert hit == cold, fmt
    # a coordinate above m in the wide block is a miss
    data["solutions"] = base64.b64encode(
        bytes([0, 0, 45, 1, 1, 0, 1, 0, 44, 1, 0, 0])
    ).decode("ascii")
    with open(path, "w") as fh:
        json.dump(data, fh)
    _, hit, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert "0;300,300,1,89700,301" in hit.splitlines()
    with open(path, "rb") as fh:
        assert fh.read() == whole


def test_solve_past_the_digit_table(capsys):
    coeffs = (1, 299, 299)
    code, out, _ = run_cli(
        ["solve", "--modulus", "300", "--coeffs", "1,299,299", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coords,length,width,weight,total_size"
    rows = [tuple(map(int, line.split(",")[0].split(";"))) for line in lines[1:]]
    assert lines[1:] == [_reference_record(x, "csv", coeffs) for x in rows]
    assert max(max(x) for x in rows) == 300
    _, count, _ = run_cli(
        ["solve", "--modulus", "300", "--coeffs", "1,299,299", "--count-only"],
        capsys,
    )
    assert len(rows) == int(count) == 304


def test_support_order_is_canonical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    first, second = (
        run_cli(["enumerate", "7", "--support", J, "--cache", cache], capsys)[1]
        for J in ("3,1", "1,3")
    )
    assert first == second
    assert os.listdir(cache) == ["enum-m7-J1-3.json"]


def test_unusable_cache_path_is_a_domain_error(tmp_path, capsys):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, out, err = run_cli(["enumerate", "5", "--cache", str(blocker)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_enumerate_count_only(tmp_path, capsys):
    from congruence_atoms import tables

    for m in range(2, 13):
        code, out, _ = run_cli(["enumerate", str(m), "--count-only"], capsys)
        assert code == 0 and out == f"{tables.ELL[m]}\n", m
    _, listed, err = run_cli(["enumerate", "13", "--support", "9,2,5"], capsys)
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(
        ["enumerate", "13", "--support", "9,2,5", "--count-only", "--cache", cache],
        capsys,
    )
    assert code == 0
    assert out == f"{len(listed.splitlines())}\n"
    assert f"count={len(listed.splitlines())} " in err
    assert not os.path.exists(cache)  # neither read nor written


def test_enumerate_count_only_rejects_naive(capsys):
    code, out, err = run_cli(["enumerate", "6", "--count-only", "--naive"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _reference_record(coords, fmt, letters):
    length = sum(coords)
    width = sum(1 for c in coords if c)
    weight = sum(a * c for a, c in zip(letters, coords))
    if fmt == "json":
        return json.dumps(
            {
                "coords": list(coords),
                "length": length,
                "width": width,
                "weight": weight,
                "total_size": length + width,
            },
            separators=(",", ":"),
        )
    if fmt == "csv":
        return (
            ";".join(str(c) for c in coords)
            + f",{length},{width},{weight},{length + width}"
        )
    return (
        "x=(" + ",".join(str(c) for c in coords) + f") length={length} "
        f"width={width} weight={weight} total_size={length + width}"
    )


def _golden_cases():
    from congruence_atoms import (
        CongruenceInstance,
        NormalForm,
        build_plan,
        enumerate_normal_form,
        enumerate_standard,
        lift_solutions,
    )

    yield (["enumerate", "9"], range(1, 9), enumerate_standard(9).solutions)
    yield (
        ["enumerate", "11", "--support", "7,2,5"],
        (2, 5, 7),
        enumerate_normal_form(NormalForm(11, (2, 5, 7))).solutions,
    )
    coeffs = (5, 7, 5, 0, 3, 11, 7, 0)
    plan = build_plan(CongruenceInstance(12, coeffs))
    normal = enumerate_normal_form(NormalForm(12, plan.support))
    yield (
        ["solve", "--modulus", "12", "--coeffs", ",".join(map(str, coeffs))],
        coeffs,
        list(lift_solutions(plan, normal)),
    )


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_records_match_the_reference_formatting(capsys, fmt):
    for argv, letters, solutions in _golden_cases():
        assert solutions
        code, out, _ = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0
        expected = [_reference_record(x, fmt, letters) for x in solutions]
        if fmt == "csv":
            expected.insert(0, "coords,length,width,weight,total_size")
        assert out == "".join(line + "\n" for line in expected), argv


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cached_records_match_the_reference_formatting(tmp_path, capsys, fmt):
    cache = str(tmp_path / "cache")
    for argv, letters, solutions in _golden_cases():
        if argv[0] != "enumerate":
            continue
        expected = [_reference_record(x, fmt, letters) for x in solutions]
        if fmt == "csv":
            expected.insert(0, "coords,length,width,weight,total_size")
        expected = "".join(line + "\n" for line in expected)
        for run in ("cold", "hit"):
            code, out, _ = run_cli(argv + ["--format", fmt, "--cache", cache], capsys)
            assert code == 0
            assert out == expected, (argv, run)
    assert sorted(os.listdir(cache)) == ["enum-m11-J2-5-7.json", "enum-m9.json"]


def test_solve_count_only(capsys):
    code, out, _ = run_cli(
        ["solve", "--modulus", "2", "--coeffs", "1,1", "--count-only"], capsys
    )
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(
        ["solve", "--modulus", "5", "--coeffs", "1,2,3,4", "--count-only"], capsys
    )
    assert code == 0 and out.strip() == "14"


def test_solve_stream_agrees_with_count(capsys):
    _, out, _ = run_cli(
        ["solve", "--modulus", "6", "--coeffs", "0,3,3", "--format", "json"], capsys
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    _, count_out, _ = run_cli(
        ["solve", "--modulus", "6", "--coeffs", "0,3,3", "--count-only"], capsys
    )
    assert int(count_out) == 4


def test_solve_max_rows(capsys):
    code, out, err = run_cli(
        ["solve", "--modulus", "5", "--coeffs", "1,2,3,4", "--max-rows", "3"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    assert "capped" in err


def test_solve_max_rows_caps_only_when_a_row_is_left(capsys):
    argv = ["solve", "--modulus", "5", "--coeffs", "1,2,3,4", "--format", "csv"]
    _, full, _ = run_cli(argv, capsys)
    rows = full.splitlines()
    assert len(rows) == 15  # header + ell(5) = 14 records
    for cap, capped in ((0, True), (13, True), (14, False), (15, False)):
        code, out, err = run_cli(argv + ["--max-rows", str(cap)], capsys)
        assert code == 0
        assert out.splitlines() == rows[: cap + 1]
        assert (f"output capped at {cap} rows" in err) == capped
        assert f"count={min(cap, 14)} " in err


def test_solve_negative_max_rows_is_a_domain_error(capsys):
    code, out, err = run_cli(
        ["solve", "--modulus", "5", "--coeffs", "1,2,3,4", "--max-rows", "-1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_extremal_command(capsys):
    code, out, _ = run_cli(["extremal", "6", "--format", "json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    assert sum(1 for r in rows if r["class"] == "exceptional") == 2


def test_bounds_command(capsys):
    code, out, _ = run_cli(["bounds", "4", "9"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,ell,log2_ell,q,r,m_times_p,ell_source"
    assert lines[1].startswith("4,6,2.6,6,10,20,")


def test_bounds_past_the_reference_tables(capsys):
    code, out, err = run_cli(["bounds", "4", "80"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 78
    assert lines[-1].startswith("80,,,") and lines[-1].endswith(",unknown")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "1200", "--support", "1"],
        ["enumerate", "1200", "--support", "1", "--count-only"],
        ["solve", "--modulus", "1200", "--coeffs", "1,1199", "--count-only"],
    ],
    ids=["enumerate", "count-only", "solve"],
)
def test_walk_past_the_recursion_limit_is_a_budget_refusal(capsys, argv):
    # the one atom over {1} is x = (1200): a walk 1199 letters deep
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded: ")


def test_bounds_print_oeis(capsys):
    code, out, _ = run_cli(["bounds", "--print-oeis"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "2,1"
    assert out.splitlines()[-1] == "23,29161"


def test_diversity_command(capsys):
    code, out, _ = run_cli(
        ["diversity", "--modulus", "6", "--set", "1,3,4"], capsys
    )
    assert code == 0
    assert "admissible=True" in out and "diversity=6" in out


def test_diversity_witness(capsys):
    code, out, _ = run_cli(["diversity", "--modulus", "3", "--set", "1,2"], capsys)
    assert code == 0
    assert "admissible=False" in out and "witness=1,2" in out


def test_verify_suites_pass(capsys):
    for suite, m_max in (
        ("tables", "10"),
        ("extremal", "12"),
        ("appendix", "12"),
        ("invariants", "9"),
    ):
        code, out, err = run_cli(
            ["verify", "--suite", suite, "--m-max", m_max], capsys
        )
        assert code == 0, (suite, out)
        assert "FAIL" not in out
        assert out.count("PASS") >= 1


def test_verify_appendix_stays_within_m_max(capsys):
    code, out, err = run_cli(["verify", "--suite", "appendix", "--m-max", "8"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "PASS appendix scan m=6 r=3 admissible=2 min=6 floor=6",
        "PASS appendix scan m=7 r=3 admissible=6 min=7 floor=7",
        "PASS appendix scan m=8 r=3 admissible=16 min=6 floor=6",
        "SKIP appendix scan m=8 r=4 admissible=0 min=- floor=9",
        "PASS appendix elementary lemmas m=8",
    ]
    assert err.strip() == "suite=appendix checks=5 passed=4 failed=0 skipped=1"


def test_verify_appendix_never_passes_an_empty_scan(capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "appendix", "--m-max", "32"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    empty = [line for line in lines if " admissible=0 " in line]
    assert empty and all(line.startswith("SKIP ") for line in empty)
    assert not any(line.startswith("PASS") and "admissible=0" in line for line in lines)
    assert f"skipped={len(empty)}" in err


def test_verify_appendix_scans_every_size(capsys):
    code, out, _ = run_cli(["verify", "--suite", "appendix", "--m-max", "16"], capsys)
    assert code == 0
    labels = [line.split()[3:5] for line in out.splitlines() if " scan " in line]
    # one check per m = 6..16 and r = 3..m/2
    assert labels == [
        [f"m={m}", f"r={r}"] for m in range(6, 17) for r in range(3, m // 2 + 1)
    ]
    assert out.count("elementary lemmas") == 3
    assert "PASS appendix scan m=16 r=5 admissible=120 min=14 floor=11" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from congruence_atoms import tables

    monkeypatch.setitem(tables.ELL, 5, 999)
    code, out, err = run_cli(["verify", "--suite", "tables", "--m-max", "5"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "failed=1 skipped=0" in err


def test_verify_time_budget_marks_unverified(capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "tables", "--m-max", "8", "--time-budget", "0"],
        capsys,
    )
    assert code == 0
    assert "unverified-live" in out
    assert not any(
        line.startswith("PASS") and "unverified-live" in line
        for line in out.splitlines()
    )
    assert out.count("SKIP table1 ell(") == 7
    assert err.strip() == "suite=tables checks=22 passed=15 failed=0 skipped=7"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", "enumerate", "4",
         "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 7


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", "enumerate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
