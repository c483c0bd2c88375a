"""The four benchmark workloads.

Each workload is a closed loop with one client: the harness calls its
ops one after another, each starting after the previous one returned.
A workload knows how to set itself up, which ops make one pass, and how
to check one op's output.  Checks run outside the timed region: the
harness checks every op once on an untimed pass and then only compares
each timed op's output digest with the checked one.

The program is driven only through public entry points: bounds.table2,
cli.main and the subset_sums scans.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Output:
    """What one op produced.  `digest` is compared between the checked
    run and every timed run; `first_row` is the time from the call into
    the program until the first result record reached the caller (None
    when the result only exists once the call returns)."""

    digest: object
    first_row: float | None = None
    stdout_bytes: int = 0
    files: list = field(default_factory=list)  # captured stdout, check pass only


@dataclass
class Verdict:
    ok: bool            # output correct (counts into error_rate)
    fields_ok: bool     # every printed field matches its recomputation
    problems: list = field(default_factory=list)


@dataclass
class Op:
    label: str
    # run(keep) -> Output; on the check pass `keep` is a path prefix
    # under which a CLI op saves its stdout, otherwise None
    run: object
    key: int = 0  # the workload's index of the op's input


# -- stdout capture --------------------------------------------------------


class StdoutSink(io.TextIOBase):
    """Stand-in for sys.stdout during one cli.main call.

    It hashes what the program prints in bounded chunks and notes when
    the first record line after `skip` header lines is complete.  On the
    check pass it also copies the output to a file, so that keeping it
    for the checks costs no memory.
    """

    CHUNK = 4096

    def __init__(self, skip=0, copy=None):
        self.skip = skip
        self.copy = copy
        self.nbytes = 0
        self.first_row_at = None
        self._newlines = 0
        self._buf = []
        self._hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, s):
        if self.first_row_at is None and "\n" in s:
            self._newlines += s.count("\n")
            if self._newlines > self.skip:
                self.first_row_at = clock()
        self._buf.append(s)
        if len(self._buf) >= self.CHUNK:
            self._drain()
        return len(s)

    def _drain(self):
        data = "".join(self._buf).encode("utf-8")
        self._buf.clear()
        self.nbytes += len(data)
        self._hash.update(data)
        if self.copy is not None:
            self.copy.write(data)

    def digest(self):
        self._drain()
        return self._hash.hexdigest()


def call_cli(cli, argv, skip=0, keep=None):
    """Run cli.main(argv) in-process with stdout captured; with `keep`
    set, stdout is also saved to that path.

    Returns (exit code, Output).  Output.first_row is measured from the
    call into cli.main.
    """
    with open(keep, "wb") if keep else nullcontext() as copy:
        sink = StdoutSink(skip, copy)
        started = clock()
        with redirect_stdout(sink), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        sha = sink.digest()
    first = None if sink.first_row_at is None else sink.first_row_at - started
    return code, Output((code, sha), first, sink.nbytes, [keep] if keep else [])


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


# -- record parsing and checking --------------------------------------------

CSV_HEADER = "coords,length,width,weight,total_size"
FIELDS = ("length", "width", "weight", "total_size")


def parse_record(line, fmt):
    """(coords, printed fields) of one solution record."""
    if fmt == "json":
        rec = json.loads(line)
        return tuple(rec["coords"]), tuple(rec[f] for f in FIELDS)
    if fmt == "csv":
        head, *rest = line.split(",")
        return tuple(int(c) for c in head.split(";")), tuple(int(v) for v in rest)
    coords_part, *rest = line.split(" ")
    coords = tuple(int(c) for c in coords_part[3:-1].split(","))
    printed = dict(part.split("=") for part in rest)
    return coords, tuple(int(printed[f]) for f in FIELDS)


def true_fields(coords, letters):
    """length, width, weight and total size recomputed from the
    coordinates and the coefficient attached to each position."""
    length = sum(coords)
    width = sum(1 for c in coords if c)
    weight = sum(a * c for a, c in zip(letters, coords))
    return length, width, weight, length + width


class RecordCheck:
    """Streams over printed records: count, strict lexicographic order,
    the congruence, printed fields, and a digest of the coordinates."""

    def __init__(self, fmt, modulus, letters):
        self.fmt = fmt
        self.modulus = modulus
        self.letters = letters
        self.rows = 0
        self.field_errors = 0
        self.problems = []
        self.coords_hash = hashlib.sha256()
        self._prev = None

    def feed(self, line):
        try:
            coords, printed = parse_record(line, self.fmt)
        except (ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"unparsable record {line[:60]!r}: {exc}")
            return None
        self.rows += 1
        self.coords_hash.update(repr(coords).encode())
        if len(coords) != len(self.letters):
            self.problems.append(f"row {self.rows}: dimension {len(coords)}")
            return coords
        if self._prev is not None and not self._prev < coords:
            self.problems.append(f"row {self.rows}: not strictly lexicographic")
        self._prev = coords
        if sum(a * c for a, c in zip(self.letters, coords)) % self.modulus:
            self.problems.append(f"row {self.rows}: {coords} is not a solution")
        if printed != true_fields(coords, self.letters):
            self.field_errors += 1
        return coords


# -- workloads -------------------------------------------------------------


class Workload:
    """Base: setup is a fresh interpreter importing the package."""

    name = ""

    def __init__(self, pkg, seed, workdir, src, tiny=False):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.tiny = tiny
        self.setup_attempts = 0
        self.setup_failures = []

    def _python(self, args, stdout=subprocess.DEVNULL):
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, *args], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=120,
                              check=False)

    def _fresh_import(self):
        proc = self._python(["-c", "import congruence_atoms"])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))

    def setup(self):
        self._fresh_import()

    def ops(self):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def sizes(self):
        return {}

    def extra_layer_metrics(self):
        """Per-layer numbers the harness records outside the tracer."""
        return {"cli.cache_file_bytes": 0}


class EllTable(Workload):
    """table2(4, 23, with_enumeration=True): the paper's headline table,
    almost all of it exhaustive enumeration."""

    name = "ell-table"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.m_max = 12 if self.tiny else 23

    def ops(self):
        bounds = self.pkg.bounds
        m_max = self.m_max
        return [Op(f"table2(4, {m_max})",
                   lambda keep: Output(bounds.table2(4, m_max, with_enumeration=True)))]

    def check(self, op, out):
        tables = self.pkg.tables
        rows = out.digest
        problems = []
        if [row.m for row in rows] != list(range(4, self.m_max + 1)):
            problems.append("rows do not cover 4..m_max")
        for row in rows:
            expected = {
                "ell": tables.ELL.get(row.m),
                "q": tables.Q.get(row.m, row.q),
                "r": tables.R.get(row.m, row.r),
                "m_times_p": tables.M_TIMES_P.get(row.m),
                "log2_ell": tables.LOG2_ELL_REFERENCE.get(row.m),
                "ell_source": "enumerated",
            }
            for key, want in expected.items():
                if getattr(row, key) != want:
                    problems.append(f"m={row.m} {key}={getattr(row, key)} != {want}")
        return Verdict(not problems, True, problems)

    def sizes(self):
        ell = self.pkg.tables.ELL
        return {"moduli": self.m_max - 3,
                "atoms_per_pass": sum(ell[m] for m in range(4, self.m_max + 1))}


class CliCacheHit(Workload):
    """`enumerate M --format F --cache DIR` for json, csv and text
    against a cache warmed in set-up by a separate cold process."""

    name = "cli-cache-hit"
    FORMATS = ("json", "csv", "text")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.m = 11 if self.tiny else 23
        self.cache = os.path.join(self.workdir, "cache")
        self.cold_sha = None
        self.cold_coords = None

    def setup(self):
        # cold run in its own process: import, engine, cache store
        shutil.rmtree(self.cache, ignore_errors=True)
        cold_path = os.path.join(self.workdir, "cold.txt")
        self.setup_attempts += 1
        with open(cold_path, "wb") as fh:
            proc = self._python(["-m", "congruence_atoms.cli", "enumerate",
                                 str(self.m), "--format", "text", "--cache",
                                 self.cache], stdout=fh)
        problems = [] if proc.returncode == 0 else [f"cold run exit {proc.returncode}"]
        letters = tuple(range(1, self.m))
        check = RecordCheck("text", self.m, letters)
        for line in read_lines(cold_path):
            check.feed(line)
        with open(cold_path, "rb") as fh:
            sha = hashlib.sha256(fh.read())
        problems += check.problems
        if check.rows != self.pkg.tables.ELL[self.m]:
            problems.append(f"cold run printed {check.rows} rows")
        if problems:
            self.setup_failures.append("; ".join(problems[:5]))
        self.cold_sha = sha.hexdigest()
        self.cold_coords = check.coords_hash.hexdigest()

    def ops(self):
        cli = self.pkg.cli
        ops = []
        for fmt in self.FORMATS:
            argv = ["enumerate", str(self.m), "--format", fmt, "--cache", self.cache]
            skip = 1 if fmt == "csv" else 0
            ops.append(Op(" ".join(argv[:4]), lambda keep, argv=argv, skip=skip:
                          call_cli(cli, argv, skip, keep and keep + ".out")[1]))
        return ops

    def check(self, op, out):
        fmt = op.label.split()[-1]
        code, sha = out.digest
        lines = read_lines(out.files[0])
        problems = [] if code == 0 else [f"exit code {code}"]
        if fmt == "csv" and next(lines, None) != CSV_HEADER:
            problems.append("missing csv header")
        check = RecordCheck(fmt, self.m, tuple(range(1, self.m)))
        for line in lines:
            check.feed(line)
        problems += check.problems
        if check.rows != self.pkg.tables.ELL[self.m]:
            problems.append(f"{check.rows} records, expected ell({self.m})")
        if check.coords_hash.hexdigest() != self.cold_coords:
            problems.append("coordinates differ from the cold run")
        if fmt == "text" and sha != self.cold_sha:
            problems.append("stdout sha256 differs from the cold run")
        return Verdict(not problems, check.field_errors == 0, problems)

    def sizes(self):
        return {"records_per_op": self.pkg.tables.ELL[self.m],
                "ops_per_pass": len(self.FORMATS)}

    def extra_layer_metrics(self):
        path = os.path.join(self.cache, f"enum-m{self.m}.json")
        return {"cli.cache_file_bytes": os.path.getsize(path)}


class SolveStream(Workload):
    """Seeded general instances; each op is `solve --count-only` and then
    the streamed `solve --format csv` of the same instance."""

    name = "solve-stream"
    SAMPLE = 50  # rows per instance re-checked with is_indecomposable

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.tiny:
            self.m_range, self.k_range, self.class_size = (7, 9), (3, 4), 2
            self.windows = ((2_000, 4_000), (1_000, 2_000))
            self.pool = 20
        else:
            # k distinct residues, each taken 3 times: 24, 27 or 30 coefficients
            self.m_range, self.k_range, self.class_size = (11, 17), (8, 10), 3
            self.windows = ((1_500_000, 1_620_000), (700_000, 780_000), (620_000, 700_000))
            self.pool = 160
        self.instances = []

    def _draw(self, rng):
        m = rng.randint(*self.m_range)
        support = rng.sample(range(1, m), rng.randint(*self.k_range))
        coeffs = support * self.class_size
        rng.shuffle(coeffs)
        pkg = self.pkg
        plan = pkg.build_plan(pkg.CongruenceInstance(m, coeffs))
        normal = pkg.enumerate_normal_form(pkg.NormalForm(m, plan.support))
        return m, tuple(coeffs), pkg.count_general(plan, normal)

    def _fill(self, candidates):
        chosen = []
        for low, high in self.windows:
            fits = [c for c in candidates if low <= c[2] * len(c[1]) <= high
                    and not any(c is d for d in chosen)]
            if not fits:
                return None
            chosen.append(fits[0])
        return chosen

    def generate(self):
        """One instance per window of rows x coefficients.

        Lifting, metrics and formatting all cost about rows x
        coefficients, so every seed gives a pass of about the same work.
        The first window keeps the largest instance at 5*10^4 rows or
        more, even at 30 coefficients.  Equal class sizes matter too:
        lifting costs more per row in a larger class.  At least `pool`
        candidates are drawn, so set-up costs about the same for every
        seed.
        """
        rng = random.Random(self.seed)
        candidates = [self._draw(rng) for _ in range(self.pool)]
        while len(candidates) < 100 * self.pool:
            chosen = self._fill(candidates)
            if chosen:
                return chosen
            candidates.append(self._draw(rng))
        raise RuntimeError(f"no instance set found for seed {self.seed}")

    def setup(self):
        self._fresh_import()
        self.instances = self.generate()
        rng = random.Random(self.seed + 1)
        self.samples = [frozenset(rng.sample(range(count), min(self.SAMPLE, count)))
                        for _, _, count in self.instances]

    def ops(self):
        cli = self.pkg.cli
        ops = []
        for key, (m, coeffs, _) in enumerate(self.instances):
            text = ",".join(map(str, coeffs))
            base = ["solve", "--modulus", str(m), "--coeffs", text]

            def run(keep, base=base):
                _, counted = call_cli(cli, base + ["--count-only"], 0,
                                      keep and keep + ".count")
                _, rows = call_cli(cli, base + ["--format", "csv"], 1,
                                   keep and keep + ".rows")
                return Output((counted.digest, rows.digest), rows.first_row,
                              counted.stdout_bytes + rows.stdout_bytes,
                              counted.files + rows.files)

            ops.append(Op(f"solve m={m} n={len(coeffs)}", run, key))
        return ops

    def check(self, op, out):
        m, coeffs, expected = self.instances[op.key]
        (code1, _), (code2, _) = out.digest
        count_lines = list(read_lines(out.files[0]))
        row_lines = read_lines(out.files[1])
        problems = [f"exit code {c}" for c in (code1, code2) if c != 0]
        try:
            counted = int(count_lines[0])
        except (IndexError, ValueError):
            counted = None
            problems.append(f"count-only printed {count_lines[:1]!r}")
        if counted != expected:
            problems.append(f"count-only {counted} != {expected} from set-up")
        if next(row_lines, None) != CSV_HEADER:
            problems.append("missing csv header")
        check = RecordCheck("csv", m, coeffs)
        sample = self.samples[op.key]
        for i, line in enumerate(row_lines):
            coords = check.feed(line)
            if i in sample and coords is not None and not \
                    self.pkg.is_indecomposable(coords, m, support=coeffs):
                problems.append(f"row {i + 1}: {coords} is decomposable")
        problems += check.problems
        if check.rows != counted:
            problems.append(f"{check.rows} rows, count-only said {counted}")
        return Verdict(not problems, check.field_errors == 0, problems)

    def sizes(self):
        return {"instances": len(self.instances),
                "rows_per_pass": sum(c for _, _, c in self.instances),
                "largest_instance_rows": max(c for _, _, c in self.instances),
                "instances_m_n": [[m, len(a)] for m, a, _ in self.instances]}


class AppendixScan(Workload):
    """The exhaustive subset-sum scans behind the appendix lemmas."""

    name = "appendix-scan"
    SAMPLE = 20  # r-sets per op re-checked against diversity_closure

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        top = 11 if self.tiny else 20
        # (function name, arguments, largest set size scanned)
        self.calls = (
            [("verify_r3", (m,), 3) for m in range(6, top + 1)]
            + [("verify_r4", (m,), 4) for m in range(8, top + 1)]
            + [("verify_general", (5, m), 5) for m in range(11, top + 1)]
            + [("lemma_expls_checks", (m,), 5) for m in ((8,) if self.tiny else (8, 12, 16))]
        )

    def ops(self):
        ss = self.pkg.subset_sums
        # look the function up at call time, so the traced run sees its wrapper
        return [Op(f"{name}({', '.join(map(str, args))})",
                   lambda keep, name=name, args=args: Output(getattr(ss, name)(*args)), key)
                for key, (name, args, _) in enumerate(self.calls)]

    def check(self, op, out):
        _, args, r = self.calls[op.key]
        result = out.digest
        problems = []
        if isinstance(result, int):
            if result <= 0:
                problems.append("lemma checks covered no set")
        elif not result.ok:
            problems.append(f"scan not ok: min diversity {result.min_diversity}")
        m = args[-1]
        rng = random.Random(f"{self.seed}:{op.label}")
        ss = self.pkg.subset_sums
        for _ in range(self.SAMPLE):
            size = rng.randint(1, r)
            T = ss.IndexSet(m, tuple(sorted(rng.sample(range(1, m), size))))
            report = ss.diversity(T)
            if (report.admissible, report.diversity) != ss.diversity_closure(T):
                problems.append(f"diversity disagrees with closure on {T.elements}")
        return Verdict(not problems, True, problems)

    def sizes(self):
        # lemma_expls_checks scans every subset of size <= 5
        scanned = sum(
            sum(math.comb(args[-1] - 1, s) for s in range(r + 1))
            if name == "lemma_expls_checks" else math.comb(args[-1] - 1, r)
            for name, args, r in self.calls)
        return {"ops_per_pass": len(self.calls), "scan_sets_per_pass": scanned}


WORKLOADS = {w.name: w for w in (EllTable, CliCacheHit, SolveStream, AppendixScan)}
