"""The benchmark's workloads: inputs from a seed, CLI calls, output checks.

Each workload drives ``diqpv.cli.main`` through a ``Session`` as one
closed-loop client, each call started after the previous one returns.  A
*pass* is the workload's unit of work: timed CLI calls in two slots,
``cmd1`` and ``cmd2``, each followed by checks of what it wrote.  Timing
starts with ``bootstrap``, the work that must precede pass 0.  Pass ``p`` of
seed ``s`` always does the same work on the same inputs, so the traced run
can repeat a pass and compare both its outputs and its work counts exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Published advantage ratios with their 1-sigma spreads (dimension,
# comparator) -> (centre, sigma); the acceptance suite checks the same
# values at 3 sigma.
REFERENCE_ADVANTAGE = {
    (1, "ideal"): (2.47, 0.02),
    (1, "comparable"): (4.48, 0.02),
    (2, "comparable"): (4.02, 0.03),
    (3, "comparable"): (4.53, 0.05),
}
REFERENCE_PLAN_TRIALS = {"basic": 25_907_459, "entanglement": 48_839_430}
REFERENCE_MISMATCH = 0.9118409194

CALIBRATION_FILES = 10
# Files per simulate call: one instance's worth, as a live run writes them.
FILES_PER_SIMULATE = 2
PLAN_POOL = 64
TABLE_TRIALS = 75_000_000


def sub_seed(*key: int) -> int:
    """A 32-bit seed derived from the run seed and a position in the run."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# z scores of the completeness targets the tool maps to whole numbers;
# the plans checked here use only these.
EXACT_Z = {0.84134: 1.0, 0.97725: 2.0, 0.99865: 3.0}


def achievable_bits(n: int, g: float, v: float, z: float) -> float:
    return max(0.0, n * g - z * math.sqrt(n * v))


def clt_trials(g: float, v: float, delta_log2: float, z: float) -> int:
    """Smallest n with n g - z sqrt(n v) >= delta_log2, by doubling and bisection."""
    def ok(n):
        return n * g - z * math.sqrt(n * v) - delta_log2 >= 0

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


class RunRealsize:
    """simulate real-size trial files as a live run does, and analyze them.

    The run is a stream of files written two at a time, one instance's
    worth per simulate call.  The bootstrap writes ten calibration files and
    two two-file instances; every pass writes the next instance's two files
    and then analyzes a directory of the latest sixteen files: the ten most
    recent error-free files before the last three instances, then those
    instances.  The files are moved into that directory for the call and
    back afterwards, which needs nothing of the file system but rename.
    Every sixth file after the first ten is flagged as a detector error, so
    each pass has one flagged data file, which the later calibration
    windows skip.

    Soundness 2^-16 at completeness 1 - 1e-6 plans instances of about 22M
    trials, 5.6 standard deviations of the plan below the 30M of two files,
    so no instance is padded; at 2^-20 that margin is too thin for the
    hundreds of windows a set of runs plans.  An honest instance fails with
    probability about 1e-6, so every seed passes.
    """

    name = "run-realsize"

    def __init__(self, work, seed, trials_per_file=15_000_000, instances=3,
                 delta_log2=16.0, epsilon=0.999999, require_pass=True):
        self.work = work
        self.seed = seed
        self.trials_per_file = trials_per_file
        self.files = CALIBRATION_FILES + 2 * instances
        self.instances = instances
        self.delta_log2 = delta_log2
        self.epsilon = epsilon
        self.require_pass = require_pass
        self.stream_dir = os.path.join(work, "stream")
        self.run_dir = os.path.join(work, "run")
        self.report_dir = os.path.join(work, "report")

    def setup(self, session) -> None:
        warm = os.path.join(self.work, "warm")
        session.cli(["simulate", "--out", warm, "--files", "11",
                     "--trials-per-file", "20000", "--seed", str(sub_seed(self.seed, 0))])
        session.cli(["analyze", warm, "--out", os.path.join(self.work, "warm_report"),
                     "--trials-per-instance", "20000"], expect=(0, 2))

    def _flagged(self, i: int) -> bool:
        period = 2 * self.instances
        return i >= CALIBRATION_FILES and (i - CALIBRATION_FILES) % period == self.seed % period

    def _stream(self, i: int) -> str:
        return os.path.join(self.stream_dir, f"stream-{i:06d}.qpvt")

    def _simulate(self, session, k: int) -> None:
        """Simulate call k: stream files 2k and 2k + 1."""
        first = FILES_PER_SIMULATE * k
        flagged = [i - first for i in range(first, first + FILES_PER_SIMULATE)
                   if self._flagged(i)]
        stage = os.path.join(self.work, "stage")
        session.cli(["simulate", "--out", stage, "--files", str(FILES_PER_SIMULATE),
                     "--trials-per-file", str(self.trials_per_file),
                     "--error-files", ",".join(map(str, flagged)),
                     "--seed", str(sub_seed(self.seed, k))], slot="cmd1")
        self._check_manifest(session, stage, flagged)
        for i in range(FILES_PER_SIMULATE):
            os.replace(os.path.join(stage, f"trials-{i:04d}.qpvt"), self._stream(first + i))

    def _first_call(self) -> int:
        """The simulate call that writes the last instance of pass 0."""
        return (CALIBRATION_FILES + 2 * self.instances) // FILES_PER_SIMULATE - 1

    def bootstrap(self, session) -> None:
        """Start the live run: every file before the last instance of pass 0."""
        os.makedirs(self.stream_dir, exist_ok=True)
        for k in range(self._first_call()):
            self._simulate(session, k)

    def run_pass(self, session, p: int) -> int:
        start = CALIBRATION_FILES + FILES_PER_SIMULATE * p
        end = start + 2 * self.instances
        self._simulate(session, self._first_call() + p)
        calibration = [i for i in range(start) if not self._flagged(i)][-CALIBRATION_FILES:]
        for i in range(calibration[0]):
            if os.path.exists(self._stream(i)):
                os.remove(self._stream(i))
        error_index = CALIBRATION_FILES + next(
            i - start for i in range(start, end) if self._flagged(i))
        moves = [(self._stream(i), os.path.join(self.run_dir, f"trials-{j:04d}.qpvt"))
                 for j, i in enumerate(calibration + list(range(start, end)))]
        os.makedirs(self.run_dir, exist_ok=True)
        for stream, run in moves:
            os.replace(stream, run)
        try:
            rc = session.cli(["analyze", self.run_dir, "--out", self.report_dir,
                              "--delta-log2", repr(self.delta_log2),
                              "--epsilon", repr(self.epsilon)], expect=(0, 2), slot="cmd2")
        finally:
            for stream, run in moves:
                os.replace(run, stream)
        self._check_report(session, rc, error_index)
        return self.files * self.trials_per_file

    def outputs(self) -> dict:
        return _load(os.path.join(self.report_dir, "report.json"))

    def _check_manifest(self, session, stage, flagged):
        files = _load(os.path.join(stage, "manifest.json"))["files"]
        session.check(len(files) == FILES_PER_SIMULATE, f"manifest lists {len(files)} files")
        for i, entry in enumerate(files):
            session.check(entry["trials"] == self.trials_per_file,
                          f"{entry['file']}: {entry['trials']} trials")
            session.check(entry["detector_error"] == (i in flagged),
                          f"{entry['file']}: detector flag {entry['detector_error']}")

    def _check_report(self, session, rc, error_index):
        report = _load(os.path.join(self.report_dir, "report.json"))
        rows = report["instances"]
        n = report["config"]["trials_per_instance"]
        names = [f"trials-{i:04d}.qpvt" for i in range(self.files)]
        session.check(0 < n <= 2 * self.trials_per_file, f"planned n {n} exceeds two files")
        session.check(len(rows) == self.instances, f"{len(rows)} instances scored")
        passed = 0
        for k, row in enumerate(rows):
            pos = CALIBRATION_FILES + 2 * k
            window = [j for j in range(pos) if j != error_index][-CALIBRATION_FILES:]
            session.check(row["data_files"] == names[pos:pos + 2],
                          f"instance {k} data files {row['data_files']}")
            session.check(row["calibration_files"] == [names[j] for j in window],
                          f"instance {k} calibration window {row['calibration_files']}")
            session.check(row["trials_real"] == n and row["trials_padded"] == 0,
                          f"instance {k}: {row['trials_real']} real, "
                          f"{row['trials_padded']} padded trials, planned {n}")
            if abs(row["log2_p"] - self.delta_log2) > 1e-9:
                session.check(row["passed"] == (row["log2_p"] > self.delta_log2),
                              f"instance {k}: verdict {row['passed']} at log2_p {row['log2_p']}")
            passed += bool(row["passed"])
        session.check(report["summary"]["passed"] == passed, "summary pass count")
        session.check(rc == (0 if passed == len(rows) else 2), f"analyze exit {rc}")
        if self.require_pass:
            session.check(passed == len(rows), f"{len(rows) - passed} honest instance(s) failed")

    def final_checks(self, session) -> None:
        """Soundness spot-check: local (lr:K) data never passes.

        Instances of lr:K data scored by factors fitted on honest calibration
        files must all fail; with local calibration data the automatic plan
        has no positive gain and exits 3.
        """
        vertex = self.seed % 16
        small = "200000"
        sound = os.path.join(self.work, "sound")
        lr_dir = os.path.join(self.work, "sound_lr")
        session.cli(["simulate", "--out", sound, "--files", str(CALIBRATION_FILES),
                     "--trials-per-file", small, "--seed", str(sub_seed(self.seed, 1, 0))])
        session.cli(["simulate", "--out", lr_dir, "--files", "4", "--trials-per-file", small,
                     "--model", f"lr:{vertex}", "--seed", str(sub_seed(self.seed, 1, 1))])
        for i in range(4):
            os.replace(os.path.join(lr_dir, f"trials-{i:04d}.qpvt"),
                       os.path.join(sound, f"trials-{CALIBRATION_FILES + i:04d}.qpvt"))
        out = os.path.join(self.work, "sound_report")
        session.cli(["analyze", sound, "--out", out, "--trials-per-instance", "400000"],
                    expect=2)
        summary = _load(os.path.join(out, "report.json"))["summary"]
        session.check(summary["instances"] == 2 and summary["passed"] == 0,
                      f"lr:{vertex} data passed: {summary}")

        local = os.path.join(self.work, "local")
        session.cli(["simulate", "--out", local, "--files", str(CALIBRATION_FILES + 1),
                     "--trials-per-file", small, "--model", f"lr:{vertex}",
                     "--seed", str(sub_seed(self.seed, 1, 2))])
        session.cli(["analyze", local, "--out", os.path.join(self.work, "local_report")],
                    expect=3)


class PlanSweep:
    """plan in both modes over distinct reference-size calibration tables.

    Each table holds 75M trials drawn as a multinomial sample of the honest
    model's cell probabilities, one seed per table; pass p uses table p.
    """

    name = "plan-sweep"

    def __init__(self, work, seed, pool=PLAN_POOL):
        self.work = work
        self.seed = seed
        self.pool = pool

    def _table(self, p: int) -> str:
        return os.path.join(self.work, "tables", f"counts-{p % self.pool:03d}.csv")

    def setup(self, session) -> None:
        from diqpv.estimation import cell_probabilities
        from diqpv.simulator import HonestProverModel, honest_distribution
        from diqpv.trialdata import CountsTable, JointSettingsDistribution, export_counts_csv

        probs = cell_probabilities(honest_distribution(HonestProverModel()),
                                   JointSettingsDistribution.uniform()).reshape(32)
        probs = probs / probs.sum()
        os.makedirs(os.path.join(self.work, "tables"), exist_ok=True)
        for p in range(self.pool):
            rng = np.random.Generator(np.random.Philox(key=sub_seed(self.seed, 2, p)))
            counts = rng.multinomial(TABLE_TRIALS, probs)
            export_counts_csv(CountsTable(table=counts.reshape(2, 2, 2, 2, 2)), self._table(p))
        out = os.path.join(self.work, "plan_ref_basic")
        session.cli(["plan", "--out", out, "--mode", "basic"])
        self._check_reference(session, out, "basic")

    def bootstrap(self, session) -> None:
        pass

    def run_pass(self, session, p: int) -> int:
        table = self._table(p)
        basic = os.path.join(self.work, "plan_basic")
        ent = os.path.join(self.work, "plan_entanglement")
        session.cli(["plan", "--out", basic, "--mode", "basic", "--counts", table],
                    slot="cmd1")
        basic_trials = self._check_plan(session, basic, "basic")
        session.cli(["plan", "--out", ent, "--mode", "entanglement", "--counts", table],
                    slot="cmd2")
        ent_trials = self._check_plan(session, ent, "entanglement")
        session.check(ent_trials > basic_trials,
                      f"entanglement plan {ent_trials} not above basic {basic_trials}")
        return 0

    def outputs(self) -> dict:
        return {mode: _load(os.path.join(self.work, f"plan_{mode}", "report.json"))
                for mode in ("basic", "entanglement")}

    def final_checks(self, session) -> None:
        out = os.path.join(self.work, "plan_ref_entanglement")
        session.cli(["plan", "--out", out, "--mode", "entanglement"])
        self._check_reference(session, out, "entanglement")

    def _check_reference(self, session, out, mode):
        report = _load(os.path.join(out, "report.json"))
        trials = report["operating_point"]["trials"]
        lam = report["calibration"]["mismatch_factor"]
        session.check(trials == REFERENCE_PLAN_TRIALS[mode],
                      f"reference {mode} plan: {trials} trials")
        session.check(abs(lam - REFERENCE_MISMATCH) <= 1e-4, f"reference mismatch factor {lam}")

    def _check_plan(self, session, out, mode) -> int:
        report = _load(os.path.join(out, "report.json"))
        cal, op = report["calibration"], report["operating_point"]
        g, v = cal["gain_bits"], cal["variance_bits"]
        session.check(cal["total_trials"] == TABLE_TRIALS,
                      f"{mode} plan read {cal['total_trials']} trials")
        session.check(0.0 < cal["mismatch_factor"] <= 1.0,
                      f"mismatch factor {cal['mismatch_factor']}")
        if not (g > 0 and v > 0):
            session.fail(f"{mode} plan: gain {g}, variance {v}")
            return op["trials"]
        if mode == "basic":
            expect = clt_trials(g, v, op["delta_log2"], EXACT_Z[op["epsilon"]])
            session.check(op["trials"] == expect, f"basic plan {op['trials']} != {expect}")
        else:
            session.check(op["effective_gain_bits"] > 0 and op["lam_mix"] > 0,
                          f"entanglement operating point {op}")
        rows = _rows(os.path.join(out, "tradeoff_delta.csv"))
        session.check(len(rows) == 600, f"tradeoff_delta.csv has {len(rows)} rows")
        for row in rows[::37]:
            eps = float(row["epsilon"])
            n = int(float(row["runtime_seconds"]) * 250_000.0)
            want = achievable_bits(n, g, v, EXACT_Z[eps])
            got = float(row["delta_log2"])
            session.check(abs(got - want) <= 1e-9 * max(1.0, want),
                          f"tradeoff_delta at {row}: expected {want}")
        if mode == "entanglement":
            rates = [float(r["r_th"]) for r in _rows(os.path.join(out, "tradeoff_rth.csv"))]
            session.check(len(rates) == 200, f"tradeoff_rth.csv has {len(rates)} rows")
            session.check(all(0.0 <= a <= b * (1 + 1e-9) + 1e-15
                              for a, b in zip(rates, rates[1:])),
                          "achievable r_th decreases with runtime")
        return op["trials"]


class GeometryAdvantage:
    """geometry --dim all at reduced Monte Carlo sizes, run twice per pass.

    The draws and inner points keep the CLI defaults' 1:10 ratio.  Both calls
    of a pass use the same seed, and their reports must agree bit for bit.
    """

    name = "geometry-advantage"

    def __init__(self, work, seed, mc_outer=20_000, mc_inner=200_000, mc_size=None):
        self.work = work
        self.seed = seed
        self.mc_outer = mc_outer
        self.mc_inner = mc_inner
        self.mc_size = mc_size

    def _argv(self, out, seed, outer, inner, size=None):
        argv = ["geometry", "--out", out, "--dim", "all", "--mc-outer", str(outer),
                "--mc-inner", str(inner), "--seed", str(seed)]
        return argv + (["--mc-size", str(size)] if size else [])

    def setup(self, session) -> None:
        session.cli(self._argv(os.path.join(self.work, "geo_warm"), self.seed,
                               1000, 10000, 20000))

    def bootstrap(self, session) -> None:
        pass

    def run_pass(self, session, p: int) -> int:
        seed = sub_seed(self.seed, 3, p)
        first, second = (os.path.join(self.work, f"geo_{k}") for k in ("a", "b"))
        session.cli(self._argv(first, seed, self.mc_outer, self.mc_inner, self.mc_size),
                    slot="cmd1")
        session.cli(self._argv(second, seed, self.mc_outer, self.mc_inner, self.mc_size),
                    slot="cmd2")
        a, b = (_load(os.path.join(d, "report.json")) for d in (first, second))
        for key in ("sizes", "advantage", "region_lengths_m"):
            session.check(a[key] == b[key], f"geometry {key} differs between same-seed calls")
        for name in sorted(os.listdir(first)):
            if name.endswith(".csv"):
                with open(os.path.join(first, name), "rb") as fa, \
                        open(os.path.join(second, name), "rb") as fb:
                    session.check(fa.read() == fb.read(), f"{name} differs between calls")
        for dim in (1, 2, 3):
            for comparator in ("ideal", "comparable"):
                entry = a["advantage"][f"{dim}d"][comparator]
                ref = REFERENCE_ADVANTAGE.get((dim, comparator))
                if ref is None:
                    session.check(entry["degenerate"], f"{dim}d {comparator} not degenerate")
                    continue
                centre, sigma = ref
                session.check(not entry["degenerate"]
                              and abs(entry["ratio"] - centre) <= 3.0 * sigma,
                              f"{dim}d {comparator} ratio {entry['ratio']} outside "
                              f"{centre} +- {3.0 * sigma}")
        return 0

    def outputs(self) -> dict:
        report = _load(os.path.join(self.work, "geo_a", "report.json"))
        return {key: report[key] for key in ("sizes", "advantage")}

    def final_checks(self, session) -> None:
        pass


WORKLOADS = {w.name: w for w in (RunRealsize, PlanSweep, GeometryAdvantage)}

