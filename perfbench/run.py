"""diqpv benchmark: one closed-loop client driving the CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run-realsize --seed 1 --seconds 35 --trace 0

Every input is generated from --seed.  The client calls ``diqpv.cli.main``
one command at a time with default thread settings, checks what each
command wrote, and prints a summary of its calls, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: the median time of
each pass's first and second command and the set-up time, all scaled to a
nominal machine pace (see make_pace), and the peak resident memory.  With
--trace 1 the run makes the bootstrap and pass 0 untraced, repeats pass 0 at
least twice traced, and reports per-layer metrics from the traced passes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_TRACED_PASSES = 2
# The reference kernel's time on an unloaded benchmark machine (see README).
PACE_NOMINAL_S = 0.1
PACE_REUSE_S = 0.05


def make_pace():
    """A fixed kernel shaped like the tool's work; returns its timer.

    The host's speed drifts by tens of percent within seconds.  Timing this
    kernel right before and after a call, and scaling the call's wall time
    by PACE_NOMINAL_S over the kernel's mean time, reports every call at one
    nominal machine speed.  The kernel mixes what the tool spends its time
    on: HiGHS LPs, small dense solves, bulk sampling and counting, and
    interpreted Python.
    """
    import numpy as np
    from scipy.optimize import linprog

    rng = np.random.Generator(np.random.Philox(key=0x5EED))
    a_ub, c = rng.random((40, 64)), -rng.random(64)
    m = rng.random((16, 16))
    h = m @ m.T + np.eye(16)
    cdf = np.linspace(1.0 / 32, 1.0, 32)

    def pace() -> float:
        start = time.perf_counter()
        for _ in range(4):
            linprog(c, A_ub=a_ub, b_ub=np.ones(40), bounds=(0, 1), method="highs-ds")
        for _ in range(1000):
            np.linalg.solve(h, m[0])
        u = rng.random(1_000_000)
        np.bincount(np.searchsorted(cdf, u, side="right"), minlength=33)
        total = 0
        for i in range(100_000):
            total += i % 7
        return time.perf_counter() - start

    return pace


class Session:
    """One closed-loop client: counts calls, failures and latencies.

    A call given a slot is timed: its wall time goes to ``wall[slot]`` and,
    scaled by the pace kernel timed around it, to ``latency[slot]``.
    """

    def __init__(self, main, tracer=None, pace=None):
        self.main = main
        self.tracer = tracer
        self.pace = pace
        self.attempted = 0
        self.failed_calls: set[int] = set()
        self.problems: list[str] = []
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.paces: list[float] = []
        self._last_pace = (None, -1.0)

    def pace_now(self) -> float:
        """Kernel time, reusing a timing that ended moments ago.

        Without a kernel every pace is nominal and times stay wall times.
        """
        if self.pace is None:
            return PACE_NOMINAL_S
        value, at = self._last_pace
        if time.perf_counter() - at > PACE_REUSE_S:
            value = self.pace()
            self.paces.append(value)
        self._last_pace = (value, time.perf_counter())
        return value

    def timed(self, fn):
        """Run fn; return its wall time and that time at the nominal pace."""
        before = self.pace_now()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        after = self.pace_now()
        return elapsed, elapsed * PACE_NOMINAL_S / (0.5 * (before + after))

    def cli(self, argv, expect=0, slot=None) -> int | None:
        """Run one CLI command; a return code outside expect is a failure."""
        expect = (expect,) if isinstance(expect, int) else tuple(expect)
        self.attempted += 1
        captured = io.StringIO()
        rc = None

        def call():
            nonlocal rc
            with redirect_stdout(captured), redirect_stderr(captured):
                if self.tracer is None:
                    rc = self.main(argv)
                else:
                    self.tracer.call = self.attempted
                    with self.tracer.span(f"cli.{argv[0]}"):
                        rc = self.main(argv)

        try:
            if slot is None:
                call()
            else:
                elapsed, nominal = self.timed(call)
        except Exception:  # a crash inside the tool is one failed call
            captured.write(traceback.format_exc())
        if rc not in expect:
            self.fail(f"{' '.join(argv)}: exit {rc}, expected {expect}\n"
                      f"{captured.getvalue()[-2000:]}")
        elif slot is not None:
            self.wall[slot].append(elapsed)
            self.latency[slot].append(nominal)
        return rc

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed_calls.add(self.attempted)
        self.problems.append(message)


def import_package():
    """Import diqpv from this checkout's src/, or exit without a result."""
    if not (SRC / "diqpv" / "cli.py").is_file():
        sys.exit(f"perfbench: no diqpv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diqpv.cli

    if Path(diqpv.cli.__file__).resolve().parent != SRC / "diqpv":
        sys.exit(f"perfbench: imported diqpv from {diqpv.cli.__file__}, not {SRC}")
    return diqpv.cli.main


def tail_latency(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": 100.0 * (n - 10) / n, "value_s": ordered[n - 11], "samples": n}


def set_up(workload, session, import_s) -> float:
    """Import time plus the median of SETUP_REPEATS set-ups, at nominal pace.

    A set-up generates the workload's inputs and makes its warm-up calls.
    """
    imported = import_s * PACE_NOMINAL_S / session.pace_now()
    times = [session.timed(lambda: workload.setup(session))[1]
             for _ in range(SETUP_REPEATS)]
    return imported + statistics.median(times)


def measure(workload, session, seconds) -> int:
    """Bootstrap, then run passes until the next one would end after the budget."""
    start = time.perf_counter()
    workload.bootstrap(session)
    durations = []
    p = 0
    while True:
        t0 = time.perf_counter()
        workload.run_pass(session, p)
        durations.append(time.perf_counter() - t0)
        p += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return p


def measure_traced(workload, session, seconds):
    """Bootstrap and pass 0 untraced, then pass 0 traced until the budget is spent."""
    import spans

    before = spans.bound_objects()
    start = time.perf_counter()
    workload.bootstrap(session)
    t0 = time.perf_counter()
    workload.run_pass(session, 0)
    untraced = time.perf_counter() - t0
    expected = workload.outputs()
    per_pass, durations, missing = [], [], []
    while len(per_pass) < MIN_TRACED_PASSES or \
            time.perf_counter() - start + statistics.median(durations) <= seconds:
        tracer = spans.Tracer()
        session.tracer = tracer
        t0 = time.perf_counter()
        try:
            with tracer.installed():
                payload = workload.run_pass(session, 0)
        finally:
            session.tracer = None
        durations.append(time.perf_counter() - t0)
        missing = tracer.missing
        per_pass.append(spans.layer_metrics(tracer.spans, payload))
        session.check(workload.outputs() == expected,
                      "traced pass wrote other outputs than the untraced pass")
    after = spans.bound_objects()
    session.check(after.keys() == before.keys()
                  and all(after[k] is before[k] for k in before),
                  "a traced name was not restored")
    for name in spans.EXACT_COUNTS:
        values = {m[name] for m in per_pass}
        session.check(len(values) == 1, f"{name} differs between traced passes: {values}")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(durations) / untraced - 1.0
    return metrics, missing, len(per_pass)


def main(argv=None) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    cli_main = import_package()
    import_s = time.perf_counter() - start
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(cli_main, pace=None if args.trace else make_pace())
    workload = WORKLOADS[args.workload](str(work), args.seed)
    metrics, passes = {}, 0
    try:
        setup_s = set_up(workload, session, import_s)
        if args.trace:
            layer, missing, passes = measure_traced(workload, session, args.seconds)
            if missing:
                print(f"not traced (name not found): {', '.join(missing)}")
            metrics = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in layer.items()}
        else:
            passes = measure(workload, session, args.seconds)
            metrics = {
                "cmd1_p50_s": statistics.median(session.latency["cmd1"]),
                "cmd2_p50_s": statistics.median(session.latency["cmd2"]),
                "setup_s": setup_s,
            }
            metrics = {name: {"value": value, "unit": "s"} for name, value in metrics.items()}
        workload.final_checks(session)
    except Exception:  # a check that cannot run fails the run, not the benchmark
        session.fail(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not args.trace and metrics:
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}

    failed = len(session.failed_calls)
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {passes} pass(es), "
          f"{session.attempted} CLI calls, {failed} failed")
    for slot, values in sorted(session.wall.items()):
        print(f"  {slot}: {len(values)} calls, p50 {statistics.median(values):.4f} s wall, "
              f"{statistics.median(session.latency[slot]):.4f} s at nominal pace; "
              f"wall tail {tail_latency(values)}")
    if session.paces:
        print(f"  pace kernel: {len(session.paces)} timings, median "
              f"{statistics.median(session.paces):.4f} s, nominal {PACE_NOMINAL_S} s")
    correct = not session.problems
    print(json.dumps({"correct": correct, "attempted": max(1, session.attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_amplification", "_per_lambda_max", "_per_instance")):
        return "ratio"
    if name.endswith("_trials"):
        return "trials"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
