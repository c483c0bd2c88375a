import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from itertools import islice

import pytest

from congruence_atoms import NormalForm, cli, core, reduction
from congruence_atoms.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_cache(path):
    """A cache file's header, parsed from its first line, and its block."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline()), fh.read()


def write_cache(path, header, block):
    """A cache file: the header as one line of JSON, then the block."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n" + block)


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
    code, out, err = run_cli(["enumerate", "15", "--naive"], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "budget exceeded: simplex scan needs 77558760 points, budget is 50000000\n"
    )


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

    nf = NormalForm.standard(9)
    _cache_store(cache, nf, _cache_load(cache, nf))
    with open(path, "rb") as fh:
        assert fh.read() == original


def test_cache_fingerprint_invalidation(tmp_path, capsys):
    # a file is fixed by its version, m and J: one of another version is
    # recomputed, whatever its rows
    cache = str(tmp_path / "cache")
    run_cli(["enumerate", "7", "--cache", cache], capsys)
    path = os.path.join(cache, "enum-m7.json")
    header, _ = read_cache(path)
    header["version"] = 3
    write_cache(path, header, b"")
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
    return lambda header, block: header.update(fields)


def _tamper_block(edit):
    # the checksum is made to match the edited block, so that the check
    # of the block's shape or items is what must find the edit
    def tamper(header, block):
        edit(block)
        header["crc32"] = zlib.crc32(block)

    return tamper


def _nested_rows(header, block):
    from congruence_atoms import enumerate_standard

    header["solutions"] = [list(x) for x in enumerate_standard(7).solutions]
    _tamper_block(bytearray.clear)(header, block)


def _one_row_counted_true(header, block):
    _tamper_block(lambda b: b.__delitem__(slice(6, None)))(header, block)
    header["count"] = True  # == 1


def _version_1(header, block):
    # the list-of-lists layout of the first cache version
    _nested_rows(header, block)
    header["version"] = 1
    del header["count"], header["crc32"]


# each edit of a good enum-m7.json (47 rows of 6 one-byte coordinates)
# that must make it a miss; the first eight plant in the header or the
# block the kinds of bad value that list rows could hold.  A doubled
# block reads as 47 rows of two-byte digits, some above m; a tripled one
# as three-byte digits, which no row has.  Only the checksum finds a
# changed block byte that leaves every coordinate within 0..m
MALFORMED_CACHE = {
    "negative": _set(count=-1),
    "string": _set(count="47"),
    "float": _set(count=47.0),
    "nan": _set(count=float("nan")),
    "true": _one_row_counted_true,
    "null": _set(count=None),
    "nested": _nested_rows,
    "short": _tamper_block(bytearray.pop),
    "row-long": _tamper_block(lambda b: b.extend(b[:6])),
    "block-doubled": _tamper_block(lambda b: b.extend(bytes(b))),
    "block-tripled": _tamper_block(lambda b: b.extend(bytes(b) * 2)),
    "count-one-more": _set(count=48),
    "coordinate-above-m": _tamper_block(lambda b: b.__setitem__(-1, 8)),
    "block-byte-changed": lambda header, block: block.__setitem__(-1, block[-1] ^ 1),
    "crc32-missing": lambda header, block: header.pop("crc32"),
    "version-1": _version_1,
    # version 2 packed little-endian digits as wide as m needs
    "version-2": _set(version=2),
    # version 3 held the block as base64 in the JSON
    "version-3": _set(version=3),
    "version-5": _set(version=5),
    "other-m": _set(m=8),
    "other-J": _set(J=[1, 2, 3, 4, 5, 6]),
    # J is null for 1..m-1: a header without J names no alphabet
    "J-missing": lambda header, block: header.pop("J"),
}


@pytest.mark.parametrize("tamper", MALFORMED_CACHE.values(), ids=MALFORMED_CACHE)
def test_malformed_cache_entries_are_a_miss(tmp_path, capsys, tamper):
    # records are printed from the cached block without a per-row check
    cache = str(tmp_path / "cache")
    _, expected, _ = run_cli(["enumerate", "7", "--cache", cache], capsys)
    path = os.path.join(cache, "enum-m7.json")
    with open(path, "rb") as fh:
        whole = fh.read()
    header, block = read_cache(path)
    block = bytearray(block)
    tamper(header, block)
    write_cache(path, header, block)
    code, out, err = run_cli(["enumerate", "7", "--cache", cache], capsys)
    assert code == 0
    assert out == expected
    assert "count=47" in err
    with open(path, "rb") as fh:
        assert fh.read() == whole  # rewritten


@pytest.mark.parametrize("m, J", [(12, None), (13, (1, 5, 12))], ids=["m12", "m13-J1-5-12"])
def test_changed_cache_bytes_never_print_a_wrong_row(tmp_path, capsys, m, J):
    # 1 to 3 bytes of a good cache file, in its header or its block,
    # changed at random: each such file is a miss, so the run prints the
    # cold bytes and rewrites the good file
    argv = ["enumerate", str(m)]
    if J is not None:
        argv += ["--support", ",".join(map(str, J))]
    _, cold, _ = run_cli(argv, capsys)
    cache = tmp_path / "cache"
    argv += ["--cache", str(cache)]
    run_cli(argv, capsys)
    [path] = cache.iterdir()
    whole = path.read_bytes()
    rng = random.Random(31)
    for trial in range(200):
        changed = bytearray(whole)
        for i in rng.sample(range(len(whole)), rng.randint(1, 3)):
            changed[i] ^= rng.randrange(1, 256)
        path.write_bytes(changed)
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == (0, cold), (trial, bytes(changed))
        assert path.read_bytes() == whole, (trial, bytes(changed))  # rewritten


def test_deeply_nested_cache_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "enum-m7.json").write_text("[" * 100_000)
    code, out, err = run_cli(["enumerate", "7", "--cache", str(cache)], capsys)
    assert code == 0
    assert "count=47" in err


def test_uncacheable_moduli(tmp_path, capsys):
    from congruence_atoms.cli import CACHE_VERSION
    from congruence_atoms.core import DomainError, row_width

    # the cache and the lift share one width rule: the narrowest of 1, 2,
    # 4 or 8 bytes that holds the letters' largest order, here ord(1) = m
    assert [row_width(m, (1,)) for m in (2, 255, 256, 65535, 65536, 2**32 - 1)] == [
        1, 1, 2, 2, 4, 4,
    ]
    with pytest.raises(DomainError):
        row_width(2**64, (1, 2**64 - 1))
    # a well-formed file for m = 1 (no columns) is a miss, not a crash
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    write_cache(
        os.path.join(cache, "enum-m1.json"),
        {"version": CACHE_VERSION, "m": 1, "J": None, "count": 0, "crc32": 0},
        b"",
    )
    code, out, err = run_cli(["enumerate", "1", "--cache", cache], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_cache_file_layout(tmp_path, capsys):
    from congruence_atoms import enumerate_standard

    cache = str(tmp_path / "cache")
    run_cli(["enumerate", "7", "--cache", cache], capsys)
    path = os.path.join(cache, "enum-m7.json")
    header, block = read_cache(path)
    assert list(header) == ["version", "m", "J", "count", "crc32"]
    assert header["version"] == 4 and header["count"] == 47
    solutions = enumerate_standard(7).solutions
    # one byte per coordinate, row-major, after the one header line
    assert block == bytes(c for x in solutions for c in x)
    assert header["crc32"] == zlib.crc32(block)
    with open(path, "rb") as fh:
        assert fh.read() == (
            b'{"version":4,"m":7,"J":null,"count":47,"crc32":%d}\n' % zlib.crc32(block)
            + block
        )


@pytest.mark.parametrize(
    "stamp", ['"engine":"closing-letter/2",', ""], ids=["parent-key", "no-key"]
)
def test_version_3_file_is_a_miss_with_or_without_an_engine_key(
    tmp_path, capsys, stamp
):
    # version 3 held the block as base64 in the JSON, once also with an
    # "engine" key: both files are misses, print the cold bytes and are
    # rewritten in version 4
    import base64

    from congruence_atoms import enumerate_standard

    _, cold, _ = run_cli(["enumerate", "7"], capsys)
    block = bytes(c for x in enumerate_standard(7).solutions for c in x)
    whole = (
        '{"version":3,"m":7,"J":null,%s"count":47,"solutions":"%s"}\n'
        % (stamp, base64.b64encode(block).decode("ascii"))
    ).encode("ascii")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "enum-m7.json").write_bytes(whole)
    code, out, _ = run_cli(["enumerate", "7", "--cache", str(cache)], capsys)
    assert (code, out) == (0, cold)
    header, stored = read_cache(cache / "enum-m7.json")
    assert header["version"] == 4 and stored == block


@pytest.mark.parametrize("m, code", [(65536, ">I"), (2**32, ">Q")])
def test_cache_codec_at_four_and_eight_bytes(tmp_path, m, code):
    # the atoms over J = {1, m - 1}; no enumeration at such m is
    # affordable, so the rows are written and read back directly
    import struct

    from congruence_atoms.cli import _cache_load, _cache_store

    cache = str(tmp_path / "cache")
    nf = NormalForm(m, (1, m - 1))
    rows = [(0, m), (1, 1), (m, 0)]
    # row-major, one big-endian item per coordinate
    packed = b"".join(struct.pack(code, c) for x in rows for c in x)
    w = struct.calcsize(code)
    _cache_store(cache, nf, packed)
    path = os.path.join(cache, f"enum-m{m}-J1-{m - 1}.json")
    with open(path, "rb") as fh:
        whole = fh.read()
    header, block = read_cache(path)
    assert header["count"] == 3
    assert block == packed
    assert _cache_load(cache, nf) == packed
    # re-storing what was loaded writes the same bytes
    _cache_store(cache, nf, _cache_load(cache, nf))
    with open(path, "rb") as fh:
        assert fh.read() == whole
    # a coordinate of m + 1 makes the file a miss, its checksum matching:
    # the last row (m, 0) becomes (m + 1, 0)
    bad = block[: -2 * w] + struct.pack(code, m + 1) + block[-w:]
    write_cache(path, dict(header, crc32=zlib.crc32(bad)), bad)
    assert _cache_load(cache, nf) is None


@pytest.mark.parametrize(
    "m, support, wider", [(9, None, True), (300, "1,299", False)], ids=["wider", "narrower"]
)
def test_cache_block_of_another_width_is_a_miss(tmp_path, capsys, m, support, wider):
    # `count` rows at a width other than the alphabet's, checksum matching:
    # the block's length would give that width, but the file is a miss that
    # prints the cold stdout and is rewritten.  A coordinate of 300 in one
    # byte reads as 44, still within 0..m
    import struct

    argv = ["enumerate", str(m), "--format", "csv"]
    if support is not None:
        argv += ["--support", support]
    _, cold, _ = run_cli(argv + ["--cache", str(tmp_path / "cold")], capsys)
    [name] = os.listdir(tmp_path / "cold")
    whole = (tmp_path / "cold" / name).read_bytes()
    header, block = read_cache(tmp_path / "cold" / name)
    atoms = struct.iter_unpack(f">{len(block) // header['count']}B", block)
    if wider:
        other = b"".join(struct.pack(">H", c) for row in atoms for c in row)
    else:
        other = bytes(c % 256 for c in struct.unpack(f">{len(block) // 2}H", block))
    cache = tmp_path / "cache"
    cache.mkdir()
    write_cache(cache / name, dict(header, crc32=zlib.crc32(other)), other)
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert (code, out) == (0, cold)
    assert (cache / name).read_bytes() == whole


def test_cache_file_for_an_alphabet_no_width_holds_is_a_miss(tmp_path, capsys):
    # J = {1} at m = 2**64: its atom (2**64) fits no digit width, so no
    # file can hold it; one that claims to is a miss, and the listing is
    # refused as without it
    cache = tmp_path / "cache"
    cache.mkdir()
    block = (2**64 - 1).to_bytes(8, "big")
    header = {
        "version": cli.CACHE_VERSION,
        "m": 2**64,
        "J": [1],
        "count": 1,
        "crc32": zlib.crc32(block),
    }
    write_cache(cache / f"enum-m{2**64}-J1.json", header, block)
    argv = ["enumerate", str(2**64), "--support", "1", "--cache", str(cache)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ")


def test_wide_cache_round_trip(tmp_path, capsys):
    # coordinates up to 300 take two bytes each, big-endian, and are
    # printed past the 0..255 digit table
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
    header, stored = read_cache(path)
    assert header["count"] == 3
    # the rows (0, 300), (1, 1), (300, 0)
    block = bytes([0, 0, 1, 44, 0, 1, 0, 1, 1, 44, 0, 0])
    assert stored == block
    assert _cache_load(cache, NormalForm(300, (1, 299))) == block
    for fmt in ("json", "csv", "text"):
        _, cold, _ = run_cli(
            ["enumerate", "300", "--support", "1,299", "--format", fmt], capsys
        )
        _, hit, _ = run_cli(argv + ["--format", fmt], capsys)
        assert hit == cold, fmt
    # a coordinate above m in the wide block is a miss, its checksum
    # matching
    bad = bytes([0, 0, 1, 45, 0, 1, 0, 1, 1, 44, 0, 0])
    write_cache(path, dict(header, crc32=zlib.crc32(bad)), bad)
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
    # one file per alphabet: the support 1..m-1 is the standard alphabet
    _, full, _ = run_cli(["enumerate", "7", "--support", "6,5,4,3,2,1"], capsys)
    _, hit, _ = run_cli(
        ["enumerate", "7", "--support", "1,2,3,4,5,6", "--cache", cache], capsys
    )
    assert hit == full
    assert sorted(os.listdir(cache)) == ["enum-m7-J1-3.json", "enum-m7.json"]
    # 0..m-2 has m - 1 letters too, but it is not the standard alphabet:
    # it has a file of its own and never reads or writes the standard one
    run_cli(["enumerate", "5", "--cache", cache], capsys)
    standard = (tmp_path / "cache" / "enum-m5.json").read_bytes()
    _, direct, _ = run_cli(["enumerate", "5", "--support", "0,1,2,3"], capsys)
    for run in ("cold", "hit"):
        _, out, _ = run_cli(
            ["enumerate", "5", "--support", "0,1,2,3", "--cache", cache], capsys
        )
        assert out == direct and len(out.splitlines()) == 9, run
    assert (tmp_path / "cache" / "enum-m5.json").read_bytes() == standard
    assert sorted(os.listdir(cache)) == [
        "enum-m5-J0-1-2-3.json", "enum-m5.json", "enum-m7-J1-3.json", "enum-m7.json",
    ]


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


def test_naive_never_touches_the_cache(tmp_path, capsys):
    # a warm cache must not answer for the oracle, which would then
    # check nothing; nor may the oracle's rows be stored as the engine's
    cache = str(tmp_path / "cache")
    code, _, _ = run_cli(["enumerate", "9", "--cache", cache], capsys)
    assert code == 0 and os.listdir(cache) == ["enum-m9.json"]
    fresh = str(tmp_path / "fresh")
    for directory in (cache, fresh):
        code, out, err = run_cli(
            ["enumerate", "9", "--naive", "--cache", directory], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not os.path.exists(fresh)


def test_empty_cache_is_one_error_on_every_path(tmp_path, monkeypatch, capsys):
    # an empty --cache names no directory; it is not "no cache"
    monkeypatch.chdir(tmp_path)
    for extra in ([], ["--count-only"], ["--naive"]):
        code, out, err = run_cli(["enumerate", "5", "--cache", "", *extra], capsys)
        assert code == 2 and out == "", extra
        assert err == "error: --cache needs a directory name\n", extra
    assert os.listdir(tmp_path) == []


def test_repeated_letter_is_named(capsys):
    # both lists are sorted first, so the fault is the repeat, not the order
    for argv, message in (
        (["enumerate", "5", "--support", "2,1,2"], "support repeats 2"),
        (["diversity", "--modulus", "6", "--set", "1,1"], "set repeats 1"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("support", ["1,1", "-1", "5", ""])
def test_bad_support_is_one_error_on_every_path(capsys, support):
    errors = set()
    for extra in ([], ["--count-only"], ["--naive"]):
        code, out, err = run_cli(
            ["enumerate", "5", "--support", support, *extra], capsys
        )
        assert code == 2 and out == "", extra
        assert err.startswith("error: ") and len(err.splitlines()) == 1, extra
        errors.add(err)
    assert len(errors) == 1, errors


def test_bad_support_never_reads_the_cache(tmp_path, capsys):
    from congruence_atoms.cli import CACHE_VERSION

    # a well-formed file for the letter set {5}, which no path accepts;
    # no NormalForm holds it, so _cache_store cannot write it
    cache = tmp_path / "cache"
    cache.mkdir()
    header = {
        "version": CACHE_VERSION,
        "m": 5,
        "J": [5],
        "count": 1,
        "crc32": zlib.crc32(bytes([1])),
    }
    write_cache(cache / "enum-m5-J5.json", header, bytes([1]))
    code, out, err = run_cli(
        ["enumerate", "5", "--support", "5", "--cache", str(cache)], capsys
    )
    assert code == 2 and out == ""
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
    """(argv, column coefficients, expected rows): fixed cases, then
    seeded enumerate alphabets with |J| from 1 to 6, letter 0 in some,
    and seeded solve instances with --max-rows, plus cases whose
    coordinates take two bytes (m >= 256)."""
    from congruence_atoms import (
        CongruenceInstance,
        build_plan,
        count_general,
        enumerate_normal_form,
        enumerate_standard,
        lift_solutions,
        naive_minimal_solutions,
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
    # letter 0 is an ordinary letter: with 0 in J, enumerate prints the
    # records that solve prints for the coefficients J
    expected = sorted(naive_minimal_solutions(7, (0, 3, 5)))
    yield (["enumerate", "7", "--support", "5,0,3"], (0, 3, 5), expected)
    yield (["solve", "--modulus", "7", "--coeffs", "0,3,5"], (0, 3, 5), expected)

    rng = random.Random(20261019)
    alphabets = [(257, (0, 1, 128, 256)), (300, (299, 1))]
    alphabets += [(m, None) for m in rng.choices(range(2, 17), k=30)]
    for m, J in alphabets:
        if J is None:
            J = rng.sample(range(m), rng.randint(1, min(6, m)))
        letters = tuple(sorted(J))
        argv = ["enumerate", str(m), "--support", ",".join(map(str, J))]
        yield argv, letters, enumerate_normal_form(NormalForm(m, letters)).solutions
    instances = [(300, (1, 299, 299), None), (256, (1, 1, 1, 1, 1, 255), 700)]
    while len(instances) < 32:
        m = rng.randint(2, 12)
        coeffs = tuple(rng.randint(-m, 2 * m) for _ in range(rng.randint(1, 9)))
        plan = build_plan(CongruenceInstance(m, coeffs))
        count = count_general(plan, enumerate_normal_form(NormalForm(m, plan.support)))
        if count <= 2000:
            instances.append((m, coeffs, rng.choice([None, 0, 1, count // 2, count + 1])))
    for m, coeffs, cap in instances:
        plan = build_plan(CongruenceInstance(m, coeffs))
        normal = enumerate_normal_form(NormalForm(m, plan.support))
        # --coeffs=... since a list may start with a minus sign
        argv = ["solve", "--modulus", str(m), "--coeffs=" + ",".join(map(str, coeffs))]
        if cap is not None:
            argv += ["--max-rows", str(cap)]
        rows = list(islice(lift_solutions(plan, normal), cap))
        yield argv, tuple(a % m for a in coeffs), rows


def test_golden_cases_cover_every_chunk_shape():
    # the record writer cuts a row into three chunks at (0, n - 2k, n - k,
    # n), k = n // 3: |J| <= 2 leaves the last two chunks empty.  The
    # cases must hold those, letter 0, two-byte coordinates, capped
    # output and chunks that repeat at each position
    sizes, repeats, zero, wide, capped = set(), set(), False, False, False
    for argv, letters, rows in _golden_cases():
        n = len(letters)
        k = n // 3
        cuts = (0, n - 2 * k, n - k, n)
        sizes.add(n)
        for p in range(3):
            chunks = [row[cuts[p] : cuts[p + 1]] for row in rows]
            if cuts[p] < cuts[p + 1] and len(set(chunks)) < len(chunks):
                repeats.add(p)
        zero |= 0 in letters
        wide |= max(map(max, rows), default=0) > 255
        capped |= "--max-rows" in argv
    assert {1, 2, 3} <= sizes and repeats == {0, 1, 2}
    assert zero and wide and capped


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_records_match_the_reference_formatting(capsys, fmt):
    for argv, letters, solutions in _golden_cases():
        assert solutions or "--max-rows" in argv
        code, out, _ = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0
        expected = [_reference_record(x, fmt, letters) for x in solutions]
        if fmt == "csv":
            expected.insert(0, "coords,length,width,weight,total_size")
        assert out == "".join(line + "\n" for line in expected), argv


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cached_records_match_the_reference_formatting(
    tmp_path, monkeypatch, capsys, fmt
):
    # each alphabet gets a cache directory of its own, so its first run
    # is a miss that writes the one file named for m and J
    for i, (argv, letters, solutions) in enumerate(_golden_cases()):
        if argv[0] != "enumerate":
            continue
        expected = [_reference_record(x, fmt, letters) for x in solutions]
        if fmt == "csv":
            expected.insert(0, "coords,length,width,weight,total_size")
        expected = "".join(line + "\n" for line in expected)
        cache = tmp_path / f"cache{i}"
        for run in ("cold", "hit"):
            with monkeypatch.context() as patch:
                if run == "hit":
                    # a hit must not reach the engine
                    patch.setattr(cli, "enumerate_normal_form", None)
                code, out, _ = run_cli(argv + ["--format", fmt, "--cache", str(cache)], capsys)
            assert code == 0
            assert out == expected, (argv, run)
        m = int(argv[1])
        J = "" if tuple(letters) == tuple(range(1, m)) else "-J" + "-".join(map(str, letters))
        assert os.listdir(cache) == [f"enum-m{m}{J}.json"]


def test_record_writer_memos_start_over_when_full(monkeypatch, capsys):
    # a memo that starts over at every second 8-byte key, or at every
    # longer one, keeps the records right: a streamed lift's memos stay
    # bounded
    monkeypatch.setattr(core, "STREAM_BYTES", 16)
    for argv, letters, rows in islice(_golden_cases(), 3):
        code, out, _ = run_cli(argv + ["--format", "text"], capsys)
        assert code == 0
        assert out.splitlines() == [_reference_record(x, "text", letters) for x in rows]


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


def test_solve_streams_the_first_rows_of_a_huge_lift(capsys):
    # forty coefficients 1 mod 17: N = C(56, 17), about 9.8e13 rows, so
    # only a streamed lift can print the first five
    coeffs = ",".join(["1"] * 40)
    started = time.monotonic()
    code, out, err = run_cli(
        ["solve", "--modulus", "17", "--coeffs", coeffs, "--max-rows", "5"], capsys
    )
    assert time.monotonic() - started < 1.0
    assert code == 0
    zeros = "0," * 38
    assert out.splitlines() == [
        f"x=({zeros}{v},{17 - v}) length=17 width={1 + (v > 0)} weight=17 "
        f"total_size={18 + (v > 0)}"
        for v in range(5)
    ]
    assert "output capped at 5 rows" in err


def test_solve_sets_up_a_long_coefficient_list_at_once(capsys):
    # 20,001 coefficients in three classes mod 7: the lift's position
    # tables come from one backward pass and place digits by shifts, so
    # the first row comes long before 5 s; a set-up quadratic in n takes
    # about 18 s here
    coeffs = ",".join(["1,2,3"] * 6667)
    started = time.monotonic()
    code, out, err = run_cli(
        ["solve", "--modulus", "7", "--coeffs", coeffs, "--max-rows", "1"], capsys
    )
    assert time.monotonic() - started < 5.0
    assert code == 0
    # the smallest row puts 7 on the last index, whose coefficient is 3
    assert out == "x=(" + "0," * 20000 + "7) length=7 width=1 weight=21 total_size=8\n"
    assert "output capped at 1 rows" in err


def test_solve_max_rows_0_builds_only_the_first_row(capsys, buckets_built):
    # the cap note comes from the row count and the first row by its
    # closed form, so caps of 0 and 1 build no bucket: not of the other
    # 9.8e13 rows of forty 1s mod 17, nor of the rows of 20,001
    # coordinates of `1,2,3` repeated mod 7 (a row read past the cap
    # built a bucket of 3,544 of those, 71 MB)
    for modulus, coeffs in ("17", ",".join(["1"] * 40)), ("7", ",".join(["1,2,3"] * 6667)):
        for cap in 0, 1:
            code, out, err = run_cli(
                ["solve", "--modulus", modulus, "--coeffs", coeffs, "--max-rows", str(cap)],
                capsys,
            )
            assert code == 0
            assert len(out.splitlines()) == cap
            assert f"output capped at {cap} rows" in err
            assert buckets_built == [], (modulus, cap)


def test_solve_buckets_of_long_rows_are_bounded_in_bytes(capsys, buckets_built):
    # past the first row, each bucket of rows of 20,001 coordinates holds
    # at most `core.STREAM_BYTES` bytes
    coeffs = ",".join(["1,2,3"] * 6667)
    code, out, err = run_cli(
        ["solve", "--modulus", "7", "--coeffs", coeffs, "--max-rows", "5"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 5
    assert buckets_built
    assert all(rows * 20_001 <= core.STREAM_BYTES for rows in buckets_built)


def test_solve_memory_does_not_grow_with_the_rows_of_wide_records(monkeypatch, capsys):
    # 3,000 coefficients, `1,2,3` repeated mod 7: a chunk memo's keys are
    # 1,000 bytes, so it starts over within the byte budget.  A memo of
    # 16,384 entries whatever its keys kept every distinct chunk and its
    # text: 8.5 MB traced at 1,500 rows, 12.6 MB at 3,000
    coeffs = ",".join(["1,2,3"] * 1000)
    peaks = []
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        for cap in 1500, 3000:
            tracemalloc.start()
            try:
                code = main(["solve", "--modulus", "7", "--coeffs", coeffs, "--max-rows", str(cap)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            peaks.append(peak)
    assert "output capped at 3000 rows" in capsys.readouterr().err
    assert peaks[1] < peaks[0] + 2**20, peaks


@pytest.mark.parametrize(
    "head, option, value",
    [
        (["solve", "--modulus", "10", "--count-only"], "--coeffs", "-3,13,7"),
        (["solve", "--modulus", "10", "--max-rows", "3"], "--coeffs", "-3,13,7"),
        (["enumerate", "7"], "--support", "-1,2"),
        (["diversity", "--modulus", "7"], "--set", "-1,2"),
        (["solve", "--modulus", "10", "--count-only"], "--coeff", "-3,13,7"),
        (["enumerate", "7"], "--supp", "-1,2"),
        (["diversity", "--modulus", "7"], "--se", "-1,2"),
    ],
    ids=[
        "solve-count", "solve", "enumerate", "diversity",
        "solve-abbreviated", "enumerate-abbreviated", "diversity-abbreviated",
    ],
)
def test_a_list_option_takes_a_negative_first_item(capsys, head, option, value):
    # argparse would read -3,13,7 as an option: the value is joined to
    # its list option, full or abbreviated, so both forms print the same
    def run(argv):
        code, out, err = run_cli(argv, capsys)
        return code, out, re.sub(r"elapsed_ms=\d+", "", err)

    code, out, err = run(head + [option, value])
    assert (code, out, err) == run(head + [f"{option}={value}"])
    # the negative letter or set element is refused by the command itself
    assert code == (0 if head[0] == "solve" else 2)
    assert out if code == 0 else err.startswith("error: ")


def _parse_record(line, fmt):
    """(coords, (length, width, weight, total_size)) of one record."""
    if fmt == "json":
        record = json.loads(line)
        names = "length", "width", "weight", "total_size"
        return tuple(record["coords"]), tuple(record[name] for name in names)
    if fmt == "csv":
        coords, *fields = line.split(",")
        return tuple(map(int, coords.split(";"))), tuple(map(int, fields))
    match = re.fullmatch(
        r"x=\(([\d,]+)\) length=(\d+) width=(\d+) weight=(\d+) total_size=(\d+)",
        line,
    )
    coords, *fields = match.groups()
    return tuple(map(int, coords.split(","))), tuple(map(int, fields))


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_solve_fields_match_their_recomputation(capsys, fmt):
    # seeded instances with coefficients outside [0, m), zero classes and
    # repeated residues; each record's fields are recomputed from its
    # coordinates and the reduced coefficients
    rng = random.Random(20261018)
    checked = 0
    while checked < 40:
        m = rng.randint(2, 12)
        coeffs = [rng.randint(-m, 2 * m) for _ in range(rng.randint(1, 8))]
        if checked % 3 == 0:
            coeffs[rng.randrange(len(coeffs))] = 0
        # --coeffs=... since a list may start with a minus sign
        argv = ["solve", "--modulus", str(m), "--coeffs=" + ",".join(map(str, coeffs))]
        count = int(run_cli(argv + ["--count-only"], capsys)[1])
        if count > 2000:
            continue
        cap = rng.choice([None, 0, 1, count // 2, count + 1])
        extra = [] if cap is None else ["--max-rows", str(cap)]
        code, out, _ = run_cli(argv + ["--format", fmt] + extra, capsys)
        assert code == 0
        lines = out.splitlines()
        if fmt == "csv":
            assert lines.pop(0) == "coords,length,width,weight,total_size"
        assert len(lines) == (count if cap is None else min(cap, count)), argv
        reduced = [a % m for a in coeffs]
        previous = None
        for line in lines:
            coords, fields = _parse_record(line, fmt)
            length = sum(coords)
            width = sum(1 for c in coords if c)
            weight = sum(a * c for a, c in zip(reduced, coords))
            assert len(coords) == len(coeffs) and weight % m == 0, (argv, line)
            assert fields == (length, width, weight, length + width), (argv, line)
            assert previous is None or previous < coords, (argv, line)
            previous = coords
        checked += 1


EXTREMAL_TEXT = {
    3: "x=(0,3) class=width1 i=2\n"
    "x=(1,1) class=width2 i=1\n"
    "x=(3,0) class=width1 i=1\n",
    6: "x=(0,0,0,0,6) class=width1 i=5\n"
    "x=(0,0,0,1,4) class=width2 i=5\n"
    "x=(0,2,1,0,1) class=exceptional i=-\n"
    "x=(1,0,1,2,0) class=exceptional i=-\n"
    "x=(4,1,0,0,0) class=width2 i=1\n"
    "x=(6,0,0,0,0) class=width1 i=1\n",
}

EXTREMAL_JSON = {
    3: '{"coords":[0,3],"class":"width1","generator_index":2}\n'
    '{"coords":[1,1],"class":"width2","generator_index":1}\n'
    '{"coords":[3,0],"class":"width1","generator_index":1}\n',
    6: '{"coords":[0,0,0,0,6],"class":"width1","generator_index":5}\n'
    '{"coords":[0,0,0,1,4],"class":"width2","generator_index":5}\n'
    '{"coords":[0,2,1,0,1],"class":"exceptional","generator_index":null}\n'
    '{"coords":[1,0,1,2,0],"class":"exceptional","generator_index":null}\n'
    '{"coords":[4,1,0,0,0],"class":"width2","generator_index":1}\n'
    '{"coords":[6,0,0,0,0],"class":"width1","generator_index":1}\n',
}


@pytest.mark.parametrize("m", [3, 6])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_extremal_golden_records(capsys, m, fmt):
    # an exceptional solution has no generator index: json prints null,
    # text prints "-", as diversity prints a missing witness
    golden = (EXTREMAL_TEXT if fmt == "text" else EXTREMAL_JSON)[m]
    code, out, err = run_cli(["extremal", str(m), "--format", fmt], capsys)
    assert (code, out) == (0, golden)
    assert err == f"m={m} extremal_count={len(golden.splitlines())}\n"


def test_extremal_command(capsys):
    code, out, _ = run_cli(["extremal", "6", "--format", "json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    assert sum(1 for r in rows if r["class"] == "exceptional") == 2


@pytest.mark.parametrize("m", [2**64, 10**6])
def test_extremal_past_its_budget_is_refused_before_building(capsys, m):
    # 2(m - 1) vectors of m - 1 entries bound the listing from m alone;
    # past the budget nothing is built or printed
    code, out, err = run_cli(["extremal", str(m)], capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded: ")


def test_extremal_budget_bounds_the_entries(monkeypatch, capsys):
    # at a budget of 2 * 6**2 entries, m = 7 is listed and m = 8 refused
    from congruence_atoms import extremal

    _, listed, _ = run_cli(["extremal", "7"], capsys)
    monkeypatch.setattr(extremal, "ENTRY_BUDGET", 2 * 6**2)
    assert run_cli(["extremal", "7"], capsys)[:2] == (0, listed)
    assert run_cli(["extremal", "8"], capsys)[:2] == (3, "")


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
    "m_min, m_max", [(7148, 7148), (4, 10**12)], ids=["r-too-long", "huge"]
)
def test_bounds_past_the_int_printing_limit_is_a_budget_refusal(m_min, m_max):
    # r(7148) has 4,301 digits, one past Python's default limit for
    # printing an int; m_max = 10**12 would otherwise compute without end.
    # A child process, so that a hang fails the test at its timeout
    argv = ["bounds", str(m_min), str(m_max)]
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("budget exceeded: ")


@pytest.mark.parametrize(
    "m_min, m_max",
    [(1001, 1001), (7143, 7143), (4, 7143)],
    ids=["1001", "7143", "4-7143"],
)
def test_bounds_live_past_the_walks_depth_check_is_refused_before_the_header(
    m_min, m_max
):
    # the walk over 1..m-1 holds letter 1, of order m, so past the default
    # recursion limit of 1000 it is refused from m_max alone, before the
    # header and before the rows up to the limit take their endless time.
    # A child process, so that a hang fails the test at its timeout
    argv = ["bounds", str(m_min), str(m_max), "--live"]
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "budget exceeded: the closing-letter walk is deeper than the recursion limit\n"
    )


def test_bounds_prints_each_row_as_it_is_made():
    # the rows up to m = 7143 take about 90 s in all; the header and the
    # m = 4 row must come at once.  The timer kills a child that holds
    # them back
    proc = subprocess.Popen(
        [sys.executable, "-m", "congruence_atoms.cli", "bounds", "4", "7143"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    timer = threading.Timer(15, proc.kill)
    timer.start()
    try:
        header, first = proc.stdout.readline(), proc.stdout.readline()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert header == "m,ell,log2_ell,q,r,m_times_p,ell_source\n"
    assert first == "4,6,2.6,6,10,20,reference\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "100000", "--count-only"],
        ["enumerate", "100000", "--support", "1,99999"],
        ["enumerate", "100000000", "--count-only"],
    ],
    ids=["standard-count-only", "enumerate", "standard-1e8-count-only"],
)
def test_walk_that_cannot_finish_is_refused_before_its_tables(argv):
    # letter 1 has order 100000, far past the recursion limit, and the
    # step tables of 1..99999 would hold about 5 * 10**9 slots: the walk
    # is refused before they are built, well inside a 1 GB address space.
    # At m = 10**8 the alphabet 1..m-1 alone would not fit: it is refused
    # before its letters are built
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=cap,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "budget exceeded: the closing-letter walk is deeper than the recursion limit\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "988027", "--support", "991,997"],
        ["enumerate", "988027", "--support", "991,997", "--count-only"],
        ["solve", "--modulus", "988027", "--coeffs", "997,991,991"],
    ],
    ids=["enumerate", "count-only", "solve"],
)
def test_walk_that_outruns_the_recursion_limit_is_refused_as_it_runs(argv):
    # 991 and 997 are prime, and 988027 = 991 * 997, so the letters have
    # orders 997 and 991: each passes the check before the tables, yet
    # 996 letters 991 and 990 letters 997 are zero-sum-free, a walk 1,986
    # letters deep.  The RecursionError is a budget refusal, not a
    # traceback.  A 1 GB address space, as above
    import resource

    from congruence_atoms.core import refuse_walk

    refuse_walk(988027, (991, 997))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "budget exceeded: the closing-letter walk is deeper than the recursion limit\n"
    )


MASK_TOO_WIDE = "the closure mask has more bits than an int can hold"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["enumerate", str(2**64 + 1), "--support", "1", "--count-only"], ""),
        (["solve", "--modulus", str(2**64 + 1), "--coeffs", "1,0"], ""),
        (["enumerate", str(2**63), "--support", str(2**62)], MASK_TOO_WIDE),
        (["enumerate", str(2**64 + 1), "--count-only"], ""),
        (["enumerate", str(2**64 + 1), "--naive"], ""),
        (["enumerate", str(10**20), "--support", "1", "--count-only"], ""),
        (["solve", "--modulus", str(10**20), "--coeffs", "1,2", "--count-only"], ""),
        (["enumerate", str(2 * 10**20), "--support", str(10**20)], MASK_TOO_WIDE),
        (
            ["enumerate", str(2 * 10**20), "--support", str(10**20), "--count-only"],
            MASK_TOO_WIDE,
        ),
    ],
    ids=[
        "count-only", "solve", "enumerate", "standard-count-only", "standard-naive",
        "count-only-1e20", "solve-1e20", "mask-2e20", "mask-2e20-count-only",
    ],
)
def test_huge_modulus_is_a_budget_refusal(capsys, argv, reason):
    # a walk holding letter 1 (order m) is refused before its tables are
    # built; a walk with a non-zero letter past m = sys.maxsize is refused
    # before its first m-bit closure mask (the letters 2**62 and 10**20
    # have order 2); no table of the walk has m entries; and the alphabet
    # 1..m-1 at m = 2**64 + 1 is refused before its letters are built
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded: " + reason)


@pytest.mark.parametrize("m", [2**40, 2**64])
def test_letter_0_alone_is_counted_at_any_modulus(capsys, m):
    # letter 0 closes the empty multiset without a closure step, so e_0 is
    # the one atom however large m is; the count is one int, never split
    # into 2m-bit digits
    argv = ["enumerate", str(m), "--support", "0", "--count-only"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, "1\n", "")


def test_letter_0_alone_is_listed_at_any_modulus(tmp_path, capsys):
    # a row's digits are as wide as its largest coordinate needs, not m:
    # e_0 is one one-byte row at m = 2**64, cold, stored and read back
    argv = ["enumerate", str(2**64), "--support", "0"]
    cache = ["--cache", str(tmp_path / "cache")]
    outs = []
    for extra in ([], cache, cache):
        code, out, _ = run_cli(argv + extra, capsys)
        assert code == 0
        outs.append(out)
    assert outs == ["x=(1) length=1 width=1 weight=0 total_size=2\n"] * 3
    assert os.listdir(tmp_path / "cache") == [f"enum-m{2**64}-J0.json"]


@pytest.mark.parametrize("cache", [False, True], ids=["cold", "cache"])
def test_row_past_every_digit_width_is_a_budget_refusal(tmp_path, capsys, cache):
    # the one atom over J = {1} at m = 2**64 is the row (2**64), which no
    # digit width holds; letter 1 has order 2**64, so the listing is
    # refused before any row is built, and nothing is printed or cached
    from congruence_atoms.core import DomainError, row_width

    with pytest.raises(DomainError):
        row_width(2**64, (1,))
    argv = ["enumerate", str(2**64), "--support", "1"]
    if cache:
        argv += ["--cache", str(tmp_path / "cache")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded: ")
    assert not os.path.exists(tmp_path / "cache")


# (m, J): an alphabet as `enumerate --support J` takes it, and as the
# coefficients of `solve`.  Past m = 255 the rows of {150} and {0} still
# take one-byte digits, the others two
SAME_ATOMS = [
    (13, (2, 5, 9)),
    (12, (0, 3, 4, 6)),
    (300, (150,)),
    (300, (1, 299)),
    (512, (256, 511)),
    (2**64, (0,)),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_enumerate_support_prints_what_solve_prints(capsys, fmt):
    # the normal form over J is the instance with coefficients J
    for m, J in SAME_ATOMS:
        J = ",".join(map(str, J))
        listed = run_cli(["enumerate", str(m), "--support", J, "--format", fmt], capsys)
        solved = run_cli(["solve", "--modulus", str(m), "--coeffs", J, "--format", fmt], capsys)
        assert listed[:2] == solved[:2] and listed[0] == 0, (m, J)


def test_cache_stores_the_blocks_of_the_lift(tmp_path, capsys):
    # one packed-row format: the cached block is the lift's, byte for byte
    from congruence_atoms import CongruenceInstance, build_plan, enumerate_normal_form
    from congruence_atoms.reduction import lift_blocks

    for m, J in SAME_ATOMS:
        cache = tmp_path / f"cache{m}-{len(J)}"
        argv = ["enumerate", str(m), "--support", ",".join(map(str, J))]
        assert run_cli(argv + ["--cache", str(cache)], capsys)[0] == 0
        [name] = os.listdir(cache)
        result = enumerate_normal_form(NormalForm(m, J))
        plan = build_plan(CongruenceInstance(m, J))
        lifted = b"".join(lift_blocks(plan, result))
        assert read_cache(cache / name)[1] == lifted, (m, J)


def test_little_endian_version_2_file_is_a_miss(tmp_path, capsys):
    # the file that version 2 wrote for these atoms: two-byte digits,
    # little-endian.  Read as big-endian digits its rows would be (0, 2),
    # (256, 1) and (512, 0), each within 0..m
    argv = ["enumerate", "512", "--support", "256,511", "--format", "csv"]
    _, cold, _ = run_cli(argv, capsys)
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "enum-m512-J256-511.json").write_text(
        '{"version":2,"m":512,"J":[256,511],"engine":"closing-letter/2","count":3,'
        '"solutions":"AAAAAgEAAAECAAAA"}\n'
    )
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert (code, out) == (0, cold)
    assert "0;512,512,1,261632,513" in cold.splitlines()
    header, _ = read_cache(cache / "enum-m512-J256-511.json")
    assert header["version"] == cli.CACHE_VERSION  # rewritten


@pytest.mark.parametrize(
    "argv, seconds",
    [
        (["enumerate", "7", "--format", "csv"], 1),
        (["solve", "--modulus", "7", "--coeffs", "1,2,3"], 2),
    ],
    ids=["enumerate", "solve"],
)
def test_elapsed_ms_covers_every_step(capsys, monkeypatch, argv, seconds):
    # a clock that only the record writer's read past its last block and
    # solve's build_plan move, by one second each: elapsed_ms runs from
    # the first step of work to the last record
    import types

    now = [0.0]
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: now[0]))

    def slow(step):
        def run(*args):
            now[0] += 1.0
            return step(*args)

        return run

    print_records = cli._print_records

    def slow_blocks(fmt, m, letters, blocks, *rest):
        def read():
            yield from blocks
            now[0] += 1.0

        return print_records(fmt, m, letters, read(), *rest)

    monkeypatch.setattr(cli, "_print_records", slow_blocks)
    monkeypatch.setattr(cli, "build_plan", slow(cli.build_plan))
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    assert err.endswith(f" elapsed_ms={seconds * 1000}\n")


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


@pytest.mark.parametrize("option", [["--set", "7"], ["--set=-1,2"], ["--set", "0,2"]])
def test_diversity_set_out_of_range_is_one_error(capsys, option):
    # an index lies in (0, m): above it, below it and at 0 get one message
    code, out, err = run_cli(["diversity", "--modulus", "7", *option], capsys)
    assert (code, out, err) == (2, "", "error: set elements must lie in (0, m)\n")


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


@pytest.mark.parametrize(
    "suite, m_max",
    [("appendix", "3"), ("extremal", "2"), ("tables", "1"), ("invariants", "1")],
)
def test_verify_with_no_check_in_range_is_a_domain_error(suite, m_max, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, "--m-max", m_max], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: suite {suite} has no check for --m-max {m_max}\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from congruence_atoms import tables

    monkeypatch.setitem(tables.ELL, 5, 999)
    code, out, err = run_cli(["verify", "--suite", "tables", "--m-max", "5"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "failed=1 skipped=0" in err


def test_verify_appendix_reports_a_failed_lemma_check(capsys, monkeypatch):
    from congruence_atoms import subset_sums

    real = subset_sums.diversity

    def planted(T):
        # calls (1, 2) mod 8 inadmissible, so heredity fails at (1, 2, 3)
        report = real(T)
        if T.modulus == 8 and T.elements == (1, 2):
            return dataclasses.replace(report, admissible=False)
        return report

    monkeypatch.setattr(subset_sums, "diversity", planted)
    code, out, err = run_cli(["verify", "--suite", "appendix", "--m-max", "8"], capsys)
    assert code == 1
    assert out.splitlines()[-1] == "FAIL appendix elementary lemmas m=8"
    assert "Traceback" not in out + err
    assert err.strip() == "suite=appendix checks=5 passed=3 failed=1 skipped=1"


def test_verify_has_no_time_budget(capsys):
    # the tables suite takes well under a second at any --m-max
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "tables", "--m-max", "8", "--time-budget", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", "enumerate", "4",
         "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 7


def test_closed_stdout_is_not_an_error():
    # `enumerate 23 | head -n 1`: the 29161 records overfill the pipe, so
    # the writer meets the closed read end
    proc = subprocess.Popen(
        [sys.executable, "-m", "congruence_atoms.cli", "enumerate", "23"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"x=(")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == b""


def test_closed_stdout_keeps_the_exit_code(capsys, monkeypatch):
    # a reader that stops early hides no failed verification
    from congruence_atoms import tables

    monkeypatch.setitem(tables.ELL, 5, 999)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["verify", "--suite", "tables", "--m-max", "5"])
    assert code == 1
    assert "failed=1" in capsys.readouterr().err


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_stream_closed_at_start_up(capsys, monkeypatch, stream):
    # a stream closed before the interpreter starts is None in sys: what
    # would go to it is dropped, never written to the other stream, and
    # the exit code stands
    monkeypatch.setattr(sys, stream, None)
    assert main(["enumerate", "5", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    if stream == "stdout":
        assert out == "" and err.startswith("m=5 count=14 ")
    else:
        # the csv header and 14 records, without the summary
        assert len(out.splitlines()) == 15 and err == ""
    assert main(["enumerate", "5", "--support", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = "error: support elements must lie in [0, m)\n"
    assert err == (message if stream == "stdout" else "")


def test_closed_stdout_at_start_up_is_not_an_error():
    # `enumerate 23 >&-`: fd 1 is closed when the interpreter starts
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", "enumerate", "23"],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith("m=23 count=29161 ")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_atoms.cli", "enumerate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
