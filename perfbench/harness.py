"""Runs one workload: set-up, timed passes, checks, metrics.

Order inside a run:

1. set-up, repeated (see SETUP_REPEATS); `setup_s` is the median;
2. the check pass, which is also the warm-up (the first pass in a
   process runs slower): every op's output is checked in full, with
   captured stdout kept on disk so the checks cost no memory;
3. timed passes while another one fits in `seconds` (in a traced run,
   untraced and traced passes alternate); after each pass every op's
   output digest is compared with its checked twin;
4. peak RSS of the process, read after the timed passes.

End-to-end times are rescaled to a host of fixed speed.  While the
workload runs, a probe thread times a short reference loop every
PROBE_EVERY_S on the CPU the main thread last ran on (set-up is pinned
to that CPU, with its child processes); each set-up and
each op is rescaled by the mean of the probe timings taken during it
(widened to at least WINDOW_S around it) to a host on which the loop
takes REFERENCE_S.  On the shared 2-core VM this was tuned on, each CPU
switches between a fast and a ~1.8x slower state every second or so,
and the share of slow time drifts over minutes: unscaled times of the
same code spread by IQR/median 0.2-0.3 between runs.  The unscaled
medians are printed on the line before the result.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import threading
import traceback

from tracer import Tracer, clock, layer_metrics
from workloads import Verdict

# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so a cheap set-up is still timed over many repeats
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 10

# the reference loop's length, the seconds it is rescaled to (about its
# median on the tuning host), how often the probe times it, and the
# shortest stretch of time whose probe timings rescale a set-up or an op
REFERENCE_N = 3_000
REFERENCE_S = 0.0015
PROBE_EVERY_S = 0.05
WINDOW_S = 0.25

END_TO_END = {"setup_s": "s", "wall_s": "s", "first_row_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "enumeration.calls": "count",
    "enumeration.busy_s": "s",
    "enumeration.atoms": "count",
    "bounds.busy_s": "s",
    "reduction.count_s": "s",
    "reduction.lift_s": "s",
    "reduction.lift_first_s": "s",
    "reduction.rows": "count",
    "core.metrics_calls": "count",
    "core.metrics_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.cache_file_bytes": "bytes",
    "subset_sums.diversity_calls": "count",
    "subset_sums.diversity_s": "s",
    "subset_sums.scan_self_s": "s",
    "subset_sums.admissible_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
    "field_error_rate": "ratio",
}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def reference_loop(n=REFERENCE_N):
    """Fixed pure-Python work of the program's kind: integer arithmetic,
    dict updates and string formatting.  Returns its duration.  It
    allocates no container objects, so it never sets off the collector."""
    started = clock()
    acc, table, chars = 0, {}, 0
    for i in range(n):
        key = (i * 7919) % 251
        acc = (acc * 31 + key) & 0xFFFFFFFF
        table[key] = table.get(key, 0) + 1
        if not i & 7:
            chars += len(f"{key},{acc & 1023}")
    return clock() - started


class SpeedProbe:
    """A thread that times the reference loop every PROBE_EVERY_S, on the
    CPU that the thread which made the probe last ran on.

    The host's speed differs between CPUs, so a probe on another CPU
    does not follow the program; pinning the program instead would keep
    a process pool off the other CPU.  A timing holds the GIL for about
    a millisecond, so the probe samples the speed the program gets while
    an op runs, at a cost of about 2% of the op's time, the same on
    every commit.  Linux only: it reads the CPU from /proc.
    """

    def __init__(self):
        self.samples = []  # (start, duration)
        self._stat = f"/proc/self/task/{threading.get_native_id()}/stat"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def cpu(self):
        """The CPU the thread that made the probe last ran on (field 39
        of its stat)."""
        with open(self._stat, encoding="ascii") as fh:
            return int(fh.read().rpartition(")")[2].split()[36])

    def _run(self):
        while not self._stop.wait(PROBE_EVERY_S):
            os.sched_setaffinity(0, {self.cpu()})
            started = clock()
            self.samples.append((started, reference_loop()))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a run shorter than one period
            self.samples.append((clock(), reference_loop()))

    def scale(self, start, end):
        """Factor that turns seconds spent from `start` to `end` into
        seconds on a host where the reference loop takes REFERENCE_S."""
        pad = max(0.0, (WINDOW_S - (end - start)) / 2)
        lo, hi = start - pad, end + pad
        durations = [d for t, d in self.samples if lo <= t <= hi]
        return REFERENCE_S / statistics.fmean(durations or [d for _, d in self.samples])


class Run:
    def __init__(self, workload, pkg):
        self.workload = workload
        self.tracer = Tracer(pkg)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # op index -> digest of its checked output

    def _attempt(self, op, keep=None):
        """Run one op; an exception counts as a failed op."""
        self.attempted += 1
        try:
            return op.run(keep)
        except Exception:
            self.failed += 1
            self.problems.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            return None

    def _check_pass(self, ops):
        """Run and fully check every op once; returns the share of ops
        whose printed fields disagree with their recomputation."""
        wl = self.workload
        field_bad = 0
        for index, op in enumerate(ops):
            out = self._attempt(op, keep=os.path.join(wl.workdir, f"check-{index}"))
            if out is None:
                continue
            try:
                verdict = wl.check(op, out)
            except Exception:
                verdict = Verdict(False, True, [traceback.format_exc(limit=3)])
            for path in out.files:
                os.remove(path)
            field_bad += not verdict.fields_ok
            if verdict.ok:
                self.reference[index] = out.digest
            else:
                self.failed += 1
                self.problems.append(f"{op.label}: " + "; ".join(verdict.problems[:5]))
        return field_bad / len(ops)

    def _pass(self, ops, traced):
        """One timed pass over the batch: (wall seconds, per-op timings,
        stdout bytes, spans).  A timing is (start, end, first-row
        seconds or None when the op failed)."""
        tracer = self.tracer
        first_span = len(tracer.spans)
        outputs = []
        gc.collect()
        if traced:
            tracer.install()
        try:
            for index, op in enumerate(ops):
                root = tracer.begin_op(self.attempted, op.label) if traced else None
                t0 = clock()
                out = self._attempt(op)
                outputs.append((index, op, out, t0, clock()))
                if traced:
                    tracer.end_op(root)
        finally:
            if traced:
                tracer.uninstall()
        timings, stdout_bytes = [], 0
        for index, op, out, t0, t1 in outputs:
            first_row = None
            if out is not None:
                if self.reference.get(index) != out.digest:
                    self.failed += 1
                    self.problems.append(f"{op.label}: output differs from the checked run")
                first_row = t1 - t0 if out.first_row is None else out.first_row
                stdout_bytes += out.stdout_bytes
            timings.append((t0, t1, first_row))
        wall = sum(t1 - t0 for t0, t1, _ in timings)
        return wall, timings, stdout_bytes, tracer.spans[first_span:]

    def execute(self, seconds, trace):
        wl = self.workload
        with SpeedProbe() as probe:
            # set-up's child processes run on the probe's CPU, or the
            # probe would time a CPU they do not use
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {probe.cpu()})
            setups = []
            try:
                while len(setups) < SETUP_REPEATS or (
                        sum(t1 - t0 for t0, t1 in setups) < SETUP_SECONDS
                        and len(setups) < SETUP_MAX_REPEATS):
                    t0 = clock()
                    wl.setup()
                    setups.append((t0, clock()))
            finally:
                os.sched_setaffinity(0, cpus)
            self.attempted += wl.setup_attempts
            self.failed += len(wl.setup_failures)
            self.problems += wl.setup_failures
            ops = wl.ops()
            field_error_rate = self._check_pass(ops)

            # stop before a pass that would not end by the deadline, so the
            # run length stays near `seconds` whatever a pass costs
            plain, traced = [], []
            deadline = clock() + seconds
            while True:
                use_trace = trace and len(traced) < len(plain)
                (traced if use_trace else plain).append(self._pass(ops, use_trace))
                typical = _median(p[0] for p in plain + traced)
                if clock() + typical > deadline and (not trace or traced):
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def scaled(t0, t1):
            return (t1 - t0) * probe.scale(t0, t1)

        report = {
            "error_rate": self.failed / self.attempted,
            "field_error_rate": field_error_rate,
            "passes": len(plain),
            "traced_passes": len(traced),
            "first_row_samples": sum(t[2] is not None for p in plain for t in p[1]),
            "sizes": wl.sizes(),
            # unscaled seconds, for comparison with the rescaled metrics
            "reference_loop_s": _median(d for _, d in probe.samples),
            "probe_timings": len(probe.samples),
            "unscaled_setup_s": _median(t1 - t0 for t0, t1 in setups),
            "unscaled_wall_s": _median(p[0] for p in plain),
        }
        if trace:
            metrics = self._layer_metrics(plain, traced)
            metrics["error_rate"] = report["error_rate"]
            metrics["field_error_rate"] = report["field_error_rate"]
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": _median(scaled(*t) for t in setups),
                "wall_s": _median(sum(scaled(t0, t1) for t0, t1, _ in p[1]) for p in plain),
                "first_row_s": _median(scaled(t0, t0 + first) for p in plain
                                       for t0, _, first in p[1] if first is not None),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        for problem in self.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        return result, report

    def _layer_metrics(self, plain, traced):
        per_pass = [layer_metrics(p[3]) for p in traced]
        metrics = {k: _median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics.update(self.workload.extra_layer_metrics())
        metrics["cli.stdout_bytes"] = _median(p[2] for p in traced)
        untraced_wall = _median(p[0] for p in plain)
        metrics["trace.wall_s"] = _median(p[0] for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        return metrics
