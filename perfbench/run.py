"""Benchmark entry point for congruence-atoms.

    python3 perfbench/run.py --workload ell-table --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
./src.  With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, and the spans are written once, at exit, under
.perfbench_out/.  The line before it holds provenance, input sizes and
the error rates.  `--workload all` runs every workload, untraced and
traced, each in its own process, and prints one line per metric.

Exit status: 0 when a result was printed, 2 when the benchmark could not
run (for instance, no package under ./src).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys

from harness import Run
from tracer import Span
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def import_package():
    """congruence_atoms from ./src, or None when the checkout lacks it."""
    sys.path.insert(0, SRC)
    try:
        import congruence_atoms
        import congruence_atoms.cli  # not imported by the package itself
    except ImportError as exc:
        print(f"perfbench: cannot import congruence_atoms from {SRC}: {exc}",
              file=sys.stderr)
        return None
    if not os.path.abspath(congruence_atoms.__file__).startswith(SRC + os.sep):
        print(f"perfbench: congruence_atoms resolved outside {SRC}", file=sys.stderr)
        return None
    return congruence_atoms


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed):
    import mpmath
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_one(workload, seed, seconds, trace):
    pkg = import_package()
    if pkg is None:
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[workload](pkg, seed, workdir, SRC)
        run = Run(wl, pkg)
        result, report = run.execute(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": workload, "trace": trace,
            "provenance": provenance(seed), **report}
    if trace:
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**info,
                       "span_fields": [f.name for f in dataclasses.fields(Span)],
                       "spans": [dataclasses.astuple(s) for s in run.tracer.spans]}, fh)
        info["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: failed (exit {proc.returncode})")
                status = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"error_rate={info['error_rate']:.4g} "
                  f"field_error_rate={info['field_error_rate']:.4g} "
                  f"sizes={json.dumps(info['sizes'])}")
            for name, metric in result["metrics"].items():
                print(f"  {workload:14} {name:30} {metric['value']:>16.6g} {metric['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
