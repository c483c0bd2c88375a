"""Command-line surface: enumerate, solve, extremal, bounds, diversity, verify.

Solution records go to stdout; summaries and diagnostics go to stderr so
that stdout is byte-identical across reruns and cache hits.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 budget refusal.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import json
import operator
import os
import sys
import time
from array import array
from itertools import islice

from . import tables
from .bounds import bound_q, bound_r, log2_rounded, partition_count, table2
from .core import (
    BudgetExceeded,
    CongruenceInstance,
    DomainError,
    NormalForm,
    bound_violations,
    euler_phi,
)
from .enumeration import (
    DEFAULT_POINT_BUDGET,
    ENGINE_FINGERPRINT,
    count_letters,
    enumerate_naive,
    enumerate_normal_form,
    enumerate_standard,
    naive_minimal_solutions,
)
from .extremal import extremal_all, extremal_filter, verify_extremal
from .reduction import build_plan, count_general, lift_solutions
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

CACHE_VERSION = 2

# the verdict of a verify check that did not run: neither PASS nor FAIL
SKIPPED = object()


def _parse_int_list(text, what):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse {what} list: {text!r}")
    if not values:
        raise DomainError(f"empty {what} list")
    return values


# the decimal form of every coordinate up to 255; an atom's coordinates
# are at most m, so only a modulus above 255 ever falls back to str
_DIGITS = tuple(map(str, range(256)))


def _record_line(coords, fmt, letters):
    """One solution record, its fields computed from the non-negative
    coordinates (a tuple or a bytes row) and the column coefficients
    `letters` (None stands for the standard alphabet 1..n).  The json
    form is what json.dumps with separators (",", ":") prints for the
    same dict."""
    length = sum(coords)
    width = len(coords) - coords.count(0)
    weight = sum(map(operator.mul, letters or range(1, len(coords) + 1), coords))
    try:
        digits = [_DIGITS[c] for c in coords]
    except IndexError:
        digits = list(map(str, coords))
    if fmt == "json":
        return (
            f'{{"coords":[{",".join(digits)}],"length":{length},'
            f'"width":{width},"weight":{weight},"total_size":{length + width}}}'
        )
    if fmt == "csv":
        return f'{";".join(digits)},{length},{width},{weight},{length + width}'
    return (
        f'x=({",".join(digits)}) length={length} '
        f"width={width} weight={weight} total_size={length + width}"
    )


CSV_HEADER = "coords,length,width,weight,total_size"


def _emit_solutions(solutions, fmt, letters, out):
    """Write one record per row; return the number of rows."""
    if fmt == "csv":
        out.write(CSV_HEADER + "\n")
    count = 0
    for count, coords in enumerate(solutions, 1):
        out.write(_record_line(coords, fmt, letters) + "\n")
    return count


def _emit_summary(m, count, elapsed_ms, fmt, err):
    if fmt == "json":
        line = json.dumps(
            {"m": m, "count": count, "elapsed_ms": elapsed_ms},
            separators=(",", ":"),
        )
    else:
        line = f"m={m} count={count} elapsed_ms={elapsed_ms}"
    print(line, file=err)


def _cache_path(directory, m, J):
    tag = f"enum-m{m}"
    if J is not None:
        tag += "-J" + "-".join(str(j) for j in J)
    return os.path.join(directory, tag + ".json")


def _cache_typecode(m):
    """The smallest unsigned array typecode that holds 0..m, or None.
    An atom's coordinates are at most m: any m elements of Z_m hold a
    non-empty zero-sum subsequence."""
    for code in "BHILQ":
        if m < 1 << 8 * array(code).itemsize:
            return code
    return None


def _cache_load(directory, m, J):
    """The cached solutions, or None on a miss.  A missing, unreadable,
    malformed or stale file is a miss.  Rows are bytes for m <= 255 and
    tuples otherwise."""
    code = _cache_typecode(m)
    dimension = m - 1 if J is None else len(J)
    if code is None or dimension < 1:
        return None
    try:
        with open(_cache_path(directory, m, J), "rb") as fh:
            data = json.loads(fh.read())
    except (OSError, ValueError, RecursionError):
        return None
    if (
        not isinstance(data, dict)
        or data.get("version") != CACHE_VERSION
        or data.get("engine") != ENGINE_FINGERPRINT
        or data.get("m") != m
        or data.get("J") != (list(J) if J is not None else None)
    ):
        return None
    # records are printed from the rows unchecked: the block must hold
    # `count` rows of `dimension` unsigned items, none of them above m
    count = data.get("count")
    if not isinstance(count, int) or isinstance(count, bool):
        return None
    try:
        raw = base64.b64decode(data["solutions"], validate=True)
    except (KeyError, TypeError, ValueError):
        return None
    items = array(code)
    if len(raw) != count * dimension * items.itemsize:
        return None
    if code == "B":
        if raw.translate(None, bytes(range(m + 1))):
            return None
        return [raw[i : i + dimension] for i in range(0, len(raw), dimension)]
    items.frombytes(raw)
    if sys.byteorder == "big":
        items.byteswap()
    if max(items, default=0) > m:
        return None
    return [tuple(items[i : i + dimension]) for i in range(0, len(items), dimension)]


def _cache_store(directory, m, J, solutions):
    """Write the solutions as a JSON header and a base64 block of their
    coordinates, row-major and little-endian.  A modulus too large for
    every typecode is not cached."""
    code = _cache_typecode(m)
    if code is None:
        return
    if code == "B":
        block = b"".join(map(bytes, solutions))
    else:
        items = array(code, [c for x in solutions for c in x])
        if sys.byteorder == "big":
            items.byteswap()
        block = items.tobytes()
    payload = {
        "version": CACHE_VERSION,
        "m": m,
        "J": list(J) if J is not None else None,
        "engine": ENGINE_FINGERPRINT,
        "count": len(solutions),
        "solutions": base64.b64encode(block).decode("ascii"),
    }
    # write a temp file next to the target and rename it over, so a
    # reader never sees a partly written cache
    path = _cache_path(directory, m, J)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write the cache file {path}: {exc}") from exc


def cmd_enumerate(args):
    out, err = sys.stdout, sys.stderr
    m = args.m
    # one canonical J (sorted) for the columns, the cache key and --naive
    J = None
    if args.support:
        J = tuple(sorted(_parse_int_list(args.support, "support")))
    if args.count_only:
        if args.naive:
            raise DomainError("--count-only and --naive cannot be combined")
        print(count_letters(m, J or range(1, m)), file=out)
        return EXIT_OK
    started = time.monotonic()
    solutions = None
    if args.cache:
        solutions = _cache_load(args.cache, m, J)
    if solutions is None:
        if args.naive:
            solutions = enumerate_naive(m, J, max_points=args.max_points).solutions
        elif J is not None:
            solutions = enumerate_normal_form(NormalForm(m, J)).solutions
        else:
            solutions = enumerate_standard(m).solutions
        if args.cache:
            _cache_store(args.cache, m, J, solutions)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    count = _emit_solutions(solutions, args.format, J, out)
    _emit_summary(m, count, elapsed_ms, args.format, err)
    return EXIT_OK


def cmd_solve(args):
    out, err = sys.stdout, sys.stderr
    if args.max_rows is not None and args.max_rows < 0:
        raise DomainError(f"--max-rows must be >= 0, got {args.max_rows}")
    coeffs = _parse_int_list(args.coeffs, "coefficient")
    inst = CongruenceInstance(args.modulus, coeffs)
    plan = build_plan(inst)
    normal = None
    if plan.support:
        normal = enumerate_normal_form(NormalForm(plan.modulus, plan.support))
    if args.count_only:
        print(count_general(plan, normal), file=out)
        return EXIT_OK
    started = time.monotonic()
    rows = lift_solutions(plan, normal)
    shown = rows if args.max_rows is None else islice(rows, args.max_rows)
    count = _emit_solutions(shown, args.format, inst.coefficients, out)
    # islice stops before it takes row max_rows + 1, so a row left over
    # means the output was capped
    if next(rows, None) is not None:
        print(f"output capped at {args.max_rows} rows", file=err)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    _emit_summary(args.modulus, count, elapsed_ms, args.format, err)
    return EXIT_OK


def cmd_extremal(args):
    out, err = sys.stdout, sys.stderr
    extremal = extremal_all(args.m)
    for sol in extremal:
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
            line = (
                f"x=({','.join(str(c) for c in sol.vector)}) "
                f"class={sol.width_class} i={sol.generator_index}"
            )
        print(line, file=out)
    print(f"m={args.m} extremal_count={len(extremal)}", file=err)
    return EXIT_OK


def cmd_bounds(args):
    out, err = sys.stdout, sys.stderr
    if args.print_oeis:
        # reference counts for manual comparison with OEIS A096337
        for m in sorted(tables.ELL):
            print(f"{m},{tables.ELL[m]}", file=out)
        return EXIT_OK
    rows = table2(args.m_min, args.m_max, with_enumeration=args.live)
    print("m,ell,log2_ell,q,r,m_times_p,ell_source", file=out)
    for row in rows:
        ell = "" if row.ell is None else row.ell
        log2 = "" if row.log2_ell is None else row.log2_ell
        print(
            f"{row.m},{ell},{log2},{row.q},{row.r},{row.m_times_p},{row.ell_source}",
            file=out,
        )
    return EXIT_OK


def cmd_diversity(args):
    out, err = sys.stdout, sys.stderr
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
    deadline = time.monotonic() + args.time_budget

    def moduli(table):
        return [m for m in sorted(table) if m <= args.m_max]

    for m in moduli(tables.ELL):
        if time.monotonic() < deadline:
            live = count_letters(m, range(1, m))
            checks.append((f"table1 ell({m}) [live]", live == tables.ELL[m]))
        else:
            checks.append((f"table1 ell({m}) [embedded, unverified-live]", SKIPPED))
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
            checks.append(
                (f"appendix elementary lemmas m={m}", lemma_expls_checks(m) > 0)
            )


def _verify_invariants(args, checks):
    for m in range(2, min(args.m_max, 10) + 1):
        same = enumerate_standard(m).solutions == enumerate_naive(m).solutions
        checks.append((f"oracle equivalence m={m}", same))
    for m in range(4, min(args.m_max, 16) + 1):
        ok = not any(bound_violations(x, m) for x in enumerate_standard(m).solutions)
        checks.append((f"bound theorems (unpruned engine) m={m}", ok))


def cmd_verify(args):
    out, err = sys.stdout, sys.stderr
    checks = []
    suites = {
        "tables": _verify_tables,
        "extremal": _verify_extremal,
        "appendix": _verify_appendix,
        "invariants": _verify_invariants,
    }
    suites[args.suite](args, checks)
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
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--cache", help="directory for the result cache")
    p.add_argument("--naive", action="store_true", help="use the simplex oracle")
    p.add_argument(
        "--count-only",
        action="store_true",
        help="print the number of solutions without building them or using the cache",
    )
    p.add_argument("--max-points", type=int, default=DEFAULT_POINT_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="solve a general congruence instance")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
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
    p.add_argument("--print-oeis", action="store_true", help="print the embedded counts for comparison with OEIS A096337")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("diversity", help="subset-sum diversity of an index set")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("verify", help="replay a verification suite")
    p.add_argument(
        "--suite",
        choices=("tables", "extremal", "appendix", "invariants"),
        required=True,
    )
    p.add_argument("--m-max", type=int, default=14)
    p.add_argument("--time-budget", type=float, default=120.0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
