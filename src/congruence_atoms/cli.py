"""Command-line surface: enumerate, solve, extremal, bounds, diversity, verify.

Solution records go to stdout; summaries and diagnostics go to stderr so
that stdout is byte-identical across reruns and cache hits.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 budget refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import os
import sys
import time
import zlib
from itertools import chain, islice, starmap
from struct import Struct

from . import tables
from .bounds import bound_q, bound_r, partition_count, table2_rows
from .core import (
    BudgetExceeded,
    CongruenceInstance,
    DomainError,
    Memo,
    NormalForm,
    bound_violations,
    euler_phi,
    row_struct,
    row_width,
)
from .enumeration import (
    count_letters,
    enumerate_naive,
    enumerate_normal_form,
    enumerate_standard,
)
from .extremal import extremal_all, extremal_filter, verify_extremal
from .reduction import build_plan, count_general, lift_blocks
from .subset_sums import (
    IndexSet,
    diversity,
    diversity_floor,
    lemma_expls_checks,
    scan_admissible,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3

CACHE_VERSION = 4

# the verdict of a verify check that did not run: neither PASS nor FAIL
SKIPPED = object()


def _parse_int_list(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse {what} list: {text!r}")


# the decimal form of every coordinate up to 255: every one-byte digit
_DIGITS = tuple(map(str, range(256)))


# per format, a record is head + sep.join(coordinates) + tail % (length,
# width, weight, total size); the json form is what json.dumps with
# separators (",", ":") prints for the same dict
_TEMPLATES = {
    "json": (
        '{"coords":[',
        ",",
        '],"length":%d,"width":%d,"weight":%d,"total_size":%d}\n',
    ),
    "csv": ("", ";", ",%d,%d,%d,%d\n"),
    "text": ("x=(", ",", ") length=%d width=%d weight=%d total_size=%d\n"),
}

CSV_HEADER = "coords,length,width,weight,total_size"

def _chunk_fields(unpack, lead, sep, letters, digits):
    """The memo maker of one chunk position: a chunk's bytes to the text,
    length, width and weight of its coordinates, whose columns have the
    coefficients `letters`.  The text is `lead` and the coordinates
    joined by `sep`, or "" for an empty chunk."""

    def make(chunk):
        coords = unpack(chunk)
        if not coords:
            return "", 0, 0, 0
        return (
            lead + sep.join([digits[c] for c in coords]),
            sum(coords),
            len(coords) - coords.count(0),
            sum(map(operator.mul, letters, coords)),
        )

    return make


def _print_records(fmt, m, letters, blocks, started, cap=None, total=None):
    """The one record path of `enumerate` and `solve`: the records of the
    rows of `blocks` on stdout, at most `cap` if given (no row past it is
    read), then on stderr the cap note if the row count `total` is past
    the cap and the summary, its elapsed_ms from the time `started`.

    A row is n = len(letters) digits of `core.row_width` bytes, for the
    set of the letters, in `core`'s packed-row format; one struct splits
    it into three byte chunks at the digit cuts (0, n - 2k, n - k, n),
    k = n // 3, so the first chunk is never empty.  Per chunk position a
    memo maps the chunk's bytes to the text, length, width and weight of
    its coordinates: chunk 0's text starts with the record head, the
    others' with the separator.  One more memo maps (length, width,
    weight) to the record tail.  Rows repeat their chunks, so a row costs
    three memo hits, a few adds and a tail lookup.  A chunk memo is
    bounded by its keys' (hi - lo) * width bytes (`core.Memo`)."""
    head, sep, tail = _TEMPLATES[fmt]
    width = row_width(m, set(letters))
    # a one-byte digit is below 256; a wider one takes its decimal form
    # on first use
    digits = _DIGITS if width == 1 else Memo(str)
    n = len(letters)
    k = n // 3
    spans = [(0, n - 2 * k), (n - 2 * k, n - k), (n - k, n)]
    split = Struct("".join(f"{(hi - lo) * width}s" for lo, hi in spans)).iter_unpack
    first, second, third = [
        Memo(_chunk_fields(
            row_struct(hi - lo, width).unpack,
            sep if p else head,
            sep,
            letters[lo:hi],
            digits,
        ), (hi - lo) * width)
        for p, (lo, hi) in enumerate(spans)
    ]
    tails = Memo(lambda key: tail % (*key, key[0] + key[1]))
    write = sys.stdout.write
    if fmt == "csv":
        write(CSV_HEADER + "\n")
    rows = chain.from_iterable(map(split, blocks))
    count = 0
    for count, (a, b, c) in enumerate(rows if cap is None else islice(rows, cap), 1):
        ta, la, wa, ga = first[a]
        tb, lb, wb, gb = second[b]
        tc, lc, wc, gc = third[c]
        write(ta + tb + tc + tails[la + lb + lc, wa + wb + wc, ga + gb + gc])
    if cap is not None and total > cap:
        print(f"output capped at {cap} rows", file=sys.stderr)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    summary = {"m": m, "count": count, "elapsed_ms": elapsed_ms}
    if fmt == "json":
        line = json.dumps(summary, separators=(",", ":"))
    else:
        line = " ".join(f"{key}={value}" for key, value in summary.items())
    print(line, file=sys.stderr)


def _cache_key(nf):
    """The J of a cache file's name and header: None for 1..m-1."""
    return None if nf.is_standard else list(nf.support)


def _cache_path(directory, m, J):
    tag = f"enum-m{m}"
    if J is not None:
        tag += "-J" + "-".join(str(j) for j in J)
    return os.path.join(directory, tag + ".json")


def _cache_load(directory, nf):
    """The cached solutions over the alphabet `nf` as a block of rows in
    `core`'s packed-row format, or None on a miss.  A cache file is one
    line of JSON header, then the block as it is.  The whole file is read
    and checked first: a missing, unreadable or malformed file is a miss,
    and so is one whose version, m or J differ.  Keys besides version, m,
    J, count and crc32 are ignored."""
    m = nf.modulus
    n = len(nf.support)
    J = _cache_key(nf)
    try:
        # an alphabet that no width holds raises DomainError, a ValueError
        width = row_width(m, nf.support)
        with open(_cache_path(directory, m, J), "rb") as fh:
            data = json.loads(fh.readline())
            block = fh.read()
    except (OSError, ValueError, RecursionError):
        return None
    if (
        not isinstance(data, dict)
        or data.get("version") != CACHE_VERSION
        or data.get("m") != m
        or "J" not in data
        or data["J"] != J
    ):
        return None
    # records are printed from the rows unchecked: the block must match
    # its checksum and hold `count` rows of the alphabet's digit width,
    # none with an item above m (any m elements of Z_m hold a non-empty
    # zero-sum subsequence)
    count = data.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        return None
    if data.get("crc32") != zlib.crc32(block):
        return None
    if len(block) != count * n * width:
        return None
    if width == 1:
        # one byte per coordinate: one call finds any byte above m
        bad = block.translate(None, bytes(range(min(m, 255) + 1)))
    else:
        bad = max(map(max, row_struct(n, width).iter_unpack(block))) > m
    return None if bad else block


def _cache_store(directory, nf, block):
    """Write the solutions over the alphabet `nf`, a block of rows in
    `core`'s packed-row format, as one line of JSON header and then the
    block, checked by its CRC-32."""
    m = nf.modulus
    J = _cache_key(nf)
    header = {
        "version": CACHE_VERSION,
        "m": m,
        "J": J,
        "count": len(block) // (len(nf.support) * row_width(m, nf.support)),
        "crc32": zlib.crc32(block),
    }
    # write a temp file next to the target and rename it over, so a
    # reader never sees a partly written cache
    path = _cache_path(directory, m, J)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
                fh.write(block)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write the cache file {path}: {exc}") from exc


def cmd_enumerate(args):
    if args.cache == "":
        raise DomainError("--cache needs a directory name")
    # the oracle checks the engine: it never reads or writes its cache
    if args.naive and (args.count_only or args.cache):
        flag = "--count-only" if args.count_only else "--cache"
        raise DomainError(f"{flag} and --naive cannot be combined")
    m = args.m
    # one alphabet, checked once, for the count, the engine or oracle,
    # the columns and the cache: --support sorted, or 1..m-1
    if args.support is not None:
        nf = NormalForm(m, tuple(sorted(_parse_int_list(args.support, "support"))))
    else:
        nf = NormalForm.standard(m)
    letters = nf.support
    if args.count_only:
        print(count_letters(m, letters))
        return EXIT_OK
    started = time.monotonic()
    block = _cache_load(args.cache, nf) if args.cache else None
    if block is None:
        if args.naive:
            solutions = enumerate_naive(m, letters).solutions
        else:
            solutions = enumerate_normal_form(nf).solutions
        # packed once after the listing, which refuses first; stored and printed
        pack = row_struct(len(letters), row_width(m, letters)).pack
        block = b"".join(starmap(pack, solutions))
        if args.cache:
            _cache_store(args.cache, nf, block)
    _print_records(args.format, m, letters, [block], started)
    return EXIT_OK


def cmd_solve(args):
    if args.max_rows is not None and args.max_rows < 0:
        raise DomainError(f"--max-rows must be >= 0, got {args.max_rows}")
    coeffs = _parse_int_list(args.coeffs, "coefficient")
    inst = CongruenceInstance(args.modulus, coeffs)
    started = time.monotonic()
    plan = build_plan(inst)
    normal = enumerate_normal_form(NormalForm(plan.modulus, plan.support))
    if args.count_only:
        print(count_general(plan, normal))
        return EXIT_OK
    blocks = lift_blocks(plan, normal)
    # the cap note comes from the row count: no row past the cap is built
    total = None if args.max_rows is None else count_general(plan, normal)
    # the weight is taken over the coefficients reduced mod m
    _print_records(
        args.format, args.modulus, inst.coefficients, blocks, started,
        args.max_rows, total,
    )
    return EXIT_OK


def cmd_extremal(args):
    out, err = sys.stdout, sys.stderr
    count = 0
    # each vector is printed as it is built
    for count, sol in enumerate(extremal_all(args.m), 1):
        if args.format == "json":
            line = json.dumps(
                {
                    "coords": list(sol.vector),
                    "class": sol.width_class,
                    "generator_index": sol.generator_index,
                },
                separators=(",", ":"),
            )
        else:
            index = "-" if sol.generator_index is None else sol.generator_index
            line = (
                f"x=({','.join(str(c) for c in sol.vector)}) "
                f"class={sol.width_class} i={index}"
            )
        print(line, file=out)
    print(f"m={args.m} extremal_count={count}", file=err)
    return EXIT_OK


def cmd_bounds(args):
    out = sys.stdout
    # every number of row m is below 4^(m-1) = 2^(2m-2), and that is
    # below 10^limit, so it prints, exactly when 2m - 1 is at most the
    # bit length of 10^limit, i.e. m <= top; a limit of 0 is no limit
    limit = sys.get_int_max_str_digits()
    top = ((10**limit).bit_length() + 1) // 2
    if limit and args.m_max > top:
        raise BudgetExceeded(
            f"m_max {args.m_max} is past {top}, the largest m whose row is "
            f"sure to print under Python's {limit}-digit limit for an int"
        )
    rows = table2_rows(args.m_min, args.m_max, with_enumeration=args.live)
    print("m,ell,log2_ell,q,r,m_times_p,ell_source", file=out)
    # each row is printed as soon as it is made: a wide range shows its
    # first rows long before its last ones are computed
    for row in rows:
        ell = "" if row.ell is None else row.ell
        log2 = "" if row.log2_ell is None else row.log2_ell
        print(
            f"{row.m},{ell},{log2},{row.q},{row.r},{row.m_times_p},{row.ell_source}",
            file=out,
            flush=True,
        )
    return EXIT_OK


def cmd_diversity(args):
    out = sys.stdout
    elements = _parse_int_list(args.set, "set")
    T = IndexSet(args.modulus, tuple(sorted(elements)))
    report = diversity(T)
    classes = ",".join(str(c) for c in report.classes)
    witness = (
        "-" if report.witness is None else ",".join(str(c) for c in report.witness)
    )
    print(
        f"m={args.modulus} T=({','.join(str(e) for e in T.elements)}) "
        f"admissible={report.admissible} diversity={report.diversity} "
        f"classes=[{classes}] witness={witness}",
        file=out,
    )
    return EXIT_OK


def _verify_tables(args, checks):
    def moduli(table):
        return [m for m in sorted(table) if m <= args.m_max]

    for m in moduli(tables.ELL):
        live = count_letters(m, range(1, m))
        checks.append((f"table1 ell({m}) [live]", live == tables.ELL[m]))
    for m in moduli(tables.Q):
        checks.append((f"table2 q({m})", bound_q(m) == tables.Q[m]))
    for m in moduli(tables.R):
        checks.append((f"table2 r({m})", bound_r(m) == tables.R[m]))
    for m in moduli(tables.M_TIMES_P):
        checks.append(
            (f"table2 mP({m})", m * partition_count(m) == tables.M_TIMES_P[m])
        )


def _verify_extremal(args, checks):
    for m in range(3, args.m_max + 1):
        result = enumerate_standard(m)
        try:
            verify_extremal(m, result)
            ok = True
        except AssertionError:
            ok = False
        checks.append((f"extremal classification m={m}", ok))
        filtered = len(extremal_filter(result.solutions, m))
        expected = 6 if m == 6 else 2 * euler_phi(m)
        if m == 3:
            # the width-2 family degenerates at m = 3; the enumerated
            # count (3) is authoritative, the 2*phi(m) formula is not
            checks.append((f"extremal count m=3 (enumerated = 3)", filtered == 3))
        else:
            checks.append((f"extremal count m={m}", filtered == expected))


def _verify_appendix(args, checks):
    # one walk per m covers every size r; admissible sets have 2r <= m
    for m in range(6, min(args.m_max, 32) + 1):
        for s in scan_admissible(m, m // 2)[3:]:
            r = s.set_size
            found = "-" if s.min_diversity is None else s.min_diversity
            label = (
                f"appendix scan m={m} r={r} admissible={s.admissible_count} "
                f"min={found} floor={diversity_floor(m, r)}"
            )
            # with no admissible r-set the floor was checked on nothing
            checks.append((label, s.ok if s.admissible_count else SKIPPED))
    for m in (8, 12, 16):
        if m <= args.m_max:
            try:
                ok = lemma_expls_checks(m) > 0
            except AssertionError:
                ok = False
            checks.append((f"appendix elementary lemmas m={m}", ok))


def _verify_invariants(args, checks):
    for m in range(2, min(args.m_max, 10) + 1):
        same = enumerate_standard(m).solutions == enumerate_naive(m).solutions
        checks.append((f"oracle equivalence m={m}", same))
    for m in range(4, min(args.m_max, 16) + 1):
        ok = not any(bound_violations(x, m) for x in enumerate_standard(m).solutions)
        checks.append((f"bound theorems m={m}", ok))


# the suites of `verify --suite`, in the order its --help lists them
_SUITES = {
    "tables": _verify_tables,
    "extremal": _verify_extremal,
    "appendix": _verify_appendix,
    "invariants": _verify_invariants,
}


def cmd_verify(args):
    out, err = sys.stdout, sys.stderr
    checks = []
    _SUITES[args.suite](args, checks)
    if not checks:
        raise DomainError(f"suite {args.suite} has no check for --m-max {args.m_max}")
    tally = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for name, ok in checks:
        verdict = "SKIP" if ok is SKIPPED else "PASS" if ok else "FAIL"
        tally[verdict] += 1
        print(f"{verdict} {name}", file=out)
    print(
        f"suite={args.suite} checks={len(checks)} passed={tally['PASS']} "
        f"failed={tally['FAIL']} skipped={tally['SKIP']}",
        file=err,
    )
    return EXIT_OK if tally["FAIL"] == 0 else EXIT_VERIFY_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="congruence-atoms",
        description="Indecomposable solutions of linear congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate indecomposable solutions")
    p.add_argument("m", type=int)
    p.add_argument("--support", help="comma-separated coefficient set J")
    p.add_argument("--format", choices=tuple(_TEMPLATES), default="text")
    p.add_argument("--cache", help="directory for the result cache")
    p.add_argument("--naive", action="store_true", help="use the simplex oracle")
    p.add_argument(
        "--count-only",
        action="store_true",
        help="print the number of solutions without building them or using the cache",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="solve a general congruence instance")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=tuple(_TEMPLATES), default="text")
    p.add_argument("--max-rows", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extremal", help="list the extremal solutions")
    p.add_argument("m", type=int)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("bounds", help="emit the bound-comparison table as CSV")
    p.add_argument("m_min", type=int, nargs="?", default=4)
    p.add_argument("m_max", type=int, nargs="?", default=14)
    p.add_argument("--live", action="store_true", help="count by exhaustive search instead of using the embedded table")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("diversity", help="subset-sum diversity of an index set")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("verify", help="replay a verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.add_argument("--m-max", type=int, default=14)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    # a stream closed at start-up is None, and print(..., file=None) would
    # write to stdout: send its output to devnull instead
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w"))
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a list value such as -3,13,7 for an option: join it
    # to the --name before it, which argparse resolves, abbreviated or not
    for i in reversed(range(len(argv) - 1)):
        option, value = argv[i : i + 2]
        named = option[:2] == "--" and option[2:3].isalpha() and "=" not in option
        if named and value[:1] == "-" and value[1:2].isdigit() and "," in value:
            argv[i : i + 2] = [f"{option}={value}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`): not an error.
        # Point the descriptor at devnull so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # e.g. the m-bit closure mask of a huge modulus
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    sys.exit(main())
