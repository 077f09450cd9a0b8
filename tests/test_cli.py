"""End-to-end checks of the command line pipeline.

Each test drives main() with an argv list and inspects the files the
subcommand writes.  Simulated runs are tiny (a few thousand trials per
file) so the per-instance refits stay fast; seeds are fixed, so the
expected exit codes and file layouts are reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golden import (
    REFERENCE_GAIN_BITS,
    REFERENCE_MISMATCH,
    REFERENCE_TIMING,
    REFERENCE_VARIANCE_BITS,
    behavior_array,
    factor_array,
)
import diqpv
import diqpv.polytopes
from diqpv import __version__
from diqpv.cli import PLAN_EPSILONS, build_parser, main
from diqpv.geometry import SPEED_OF_LIGHT_M_PER_NS
from diqpv.testfactor import testfactor_from_json as factor_from_json
from diqpv.trialdata import (
    CountsTable,
    export_counts_csv,
    read_trial_codes,
    read_trial_header,
    unpack_codes,
)

TSIRELSON = 2.0 * math.sqrt(2.0)
REPO_ROOT = Path(__file__).resolve().parents[1]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def honest_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("honest") / "run"
    rc = main(["simulate", "--out", str(out), "--files", "12",
               "--trials-per-file", "3000", "--model", "honest", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ideal_config(tmp_path_factory):
    # Lossless source: every trial carries a pair, so a few thousand
    # calibration trials already pin down a strongly nonlocal fit.
    path = tmp_path_factory.mktemp("cfg") / "ideal.json"
    path.write_text(json.dumps({
        "model": {"kind": "honest", "eta_a": 1.0, "eta_p": 1.0,
                  "dark_count": 0.0, "p_pair": 1.0},
    }))
    return path


@pytest.fixture(scope="module")
def ideal_dir(tmp_path_factory, ideal_config):
    out = tmp_path_factory.mktemp("ideal") / "run"
    rc = main(["simulate", "--out", str(out), "--files", "18",
               "--trials-per-file", "4000", "--config", str(ideal_config),
               "--seed", "11"])
    assert rc == 0
    return out


def test_parser_prog_and_version(capsys):
    assert build_parser().prog == "diqpv"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"diqpv {__version__}"
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required


# What a generated console-script wrapper does with an entry point
# (passed as argv[1]): load the target and exit with its return value.
_CONSOLE_SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
target = EntryPoint(name="diqpv", value=sys.argv[1], group="console_scripts").load()
sys.argv = ["diqpv", "--version"]
sys.exit(target())
"""


def _assert_prints_version(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"diqpv {__version__}"


_NO_SCIPY = """
import json, sys
import diqpv.cli
loaded = ["scipy" in sys.modules]
codes = [diqpv.cli.main(["plan", "--mode", "entanglement", "--points", "4",
                         "--out", sys.argv[1]]),
         diqpv.cli.main(["build-tf", "--out", sys.argv[2]])]
loaded.append("scipy" in sys.modules)
print(json.dumps({"codes": codes, "scipy_loaded": loaded}))
"""


def test_cli_imports_plans_and_builds_without_scipy(tmp_path):
    # scipy is a test dependency only: neither the import nor a plan or a
    # factor build may load any part of it.
    package_parent = str(Path(diqpv.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "plan"), str(tmp_path / "tf.json")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=package_parent))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy_loaded": [False, False]}


def test_console_script_entry_point(tmp_path):
    # An installed command is checked as it stands.  This half runs first
    # so that it still runs where no TOML parser can be imported.
    installed = shutil.which("diqpv")
    if installed is not None:
        _assert_prints_version(subprocess.run(
            [installed, "--version"], capture_output=True, text=True, timeout=120))

    # The command pyproject.toml declares, loaded the way the generated
    # console-script wrapper loads it, so no install is needed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == __version__
    scripts = project.get("scripts", {})
    assert "diqpv" in scripts
    # The child imports the package under test, not another copy: its
    # directory goes first on PYTHONPATH and the child runs in an empty
    # directory.
    package_parent = str(Path(diqpv.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CONSOLE_SCRIPT_WRAPPER, scripts["diqpv"]],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath))
    _assert_prints_version(proc)


def test_simulate_writes_files_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--out", str(out), "--files", "3",
               "--trials-per-file", "2000", "--model", "honest", "--seed", "7",
               "--error-files", "1"])
    assert rc == 0
    names = sorted(f for f in os.listdir(out) if f.endswith(".qpvt"))
    assert names == ["trials-0000.qpvt", "trials-0001.qpvt", "trials-0002.qpvt"]
    for i, name in enumerate(names):
        count, error = read_trial_header(out / name)
        assert count == 2000
        assert error is (i == 1)
    manifest = _read_json(out / "manifest.json")
    assert manifest["tool"] == "diqpv"
    assert manifest["version"] == __version__
    assert manifest["config"]["model"] == {"kind": "honest"}
    assert [e["file"] for e in manifest["files"]] == names
    assert [e["detector_error"] for e in manifest["files"]] == [False, True, False]
    assert all(e["trials"] == 2000 for e in manifest["files"])


def test_simulate_duration_zero_writes_manifest_only(tmp_path):
    out = tmp_path / "empty"
    rc = main(["simulate", "--out", str(out), "--duration-minutes", "0"])
    assert rc == 0
    assert _read_json(out / "manifest.json")["files"] == []
    assert not [f for f in os.listdir(out) if f.endswith(".qpvt")]


def test_simulate_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["simulate", "--out", out, "--files", "2",
                 "--duration-minutes", "1", "--trials-per-file", "100"]) == 1
    assert main(["simulate", "--out", out]) == 1
    assert main(["simulate", "--out", out, "--files", "-2",
                 "--trials-per-file", "100"]) == 1
    assert main(["simulate", "--out", out, "--files", "1",
                 "--trials-per-file", "100", "--model", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "exactly one of" in err
    assert "unknown model" in err


@pytest.mark.parametrize("model, message", [
    ({"kind": "honest", "bogus": 1}, "error: unknown honest model keys ['bogus']"),
    ({"kind": "lr_vertex"}, "error: missing lr_vertex model keys ['index']"),
    ({"kind": "honest", "eta_a": "0.5"},
     "error: honest model key 'eta_a' must be a number, got '0.5'"),
    ({"kind": "honest", "angles_a_deg": [1.0, True]},
     "error: honest model key 'angles_a_deg' must be a list of numbers"),
    ({"kind": "lr_vertex", "index": "3"}, "error: lr_vertex model key 'index' must be an int"),
], ids=["honest-unknown-key", "lr-vertex-missing-index", "honest-string-value",
        "honest-bool-angle", "lr-vertex-string-index"])
def test_simulate_rejects_bad_model_config(tmp_path, capsys, model, message):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": model}))
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--files", "1",
                 "--trials-per-file", "100", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_deterministic_and_thread_invariant(tmp_path):
    dirs = {k: tmp_path / k for k in "abcd"}
    base = ["--files", "2", "--trials-per-file", "4000", "--model", "honest"]
    assert main(["simulate", "--out", str(dirs["a"]), "--seed", "5"] + base) == 0
    assert main(["simulate", "--out", str(dirs["b"]), "--seed", "5"] + base) == 0
    assert main(["simulate", "--out", str(dirs["c"]), "--seed", "5",
                 "--threads", "2"] + base) == 0
    assert main(["simulate", "--out", str(dirs["d"]), "--seed", "6"] + base) == 0
    for name in ("trials-0000.qpvt", "trials-0001.qpvt"):
        ref = (dirs["a"] / name).read_bytes()
        assert (dirs["b"] / name).read_bytes() == ref
        assert (dirs["c"] / name).read_bytes() == ref
        assert (dirs["d"] / name).read_bytes() != ref


# sha256 of the files of `simulate --files 2 --trials-per-file 100000
# --error-files 1 --seed 5`, header included.  Computed with the float
# inverse-CDF sampler before sample_trials moved to integer thresholds and
# a bucket table; they pin the files a seeded run writes.
_PINNED_FILES = {
    "trials-0000.qpvt": "0cf16e2a1f1eb944cae034d19eeca799188358909bb4584adc5e2ec83f47a712",
    "trials-0001.qpvt": "a4019376c7f4abe6fac346424e14ee1ba363c4b56c621cff4f4c8a2f96e39302",
}


def test_simulate_files_match_pinned_digests(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--files", "2", "--trials-per-file", "100000",
                 "--error-files", "1", "--seed", "5"]) == 0
    for name, digest in _PINNED_FILES.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# sha256 of the files of `simulate --files 2 --trials-per-file 200000
# --error-files 0 --seed 23`, header included, written by the serial
# sampler before files were split among workers.
_PINNED_SPLIT_FILES = {
    "trials-0000.qpvt": "11330ef5837ca566e4715ae67b215c4da10ad84c4806b5a8913977ab3e73fe76",
    "trials-0001.qpvt": "4205ba5ce61578e5dfa8948a01542c89c6a9fd5e8689edbf02dfdad9926566af",
}


def test_simulate_files_identical_for_any_thread_count(tmp_path):
    # 200,000 trials span several chunks, so every file is split among the
    # workers; the default uses every CPU this process may run on.
    base = ["--files", "2", "--trials-per-file", "200000", "--error-files", "0", "--seed", "23"]
    for label, flags in (("one", ["--threads", "1"]), ("three", ["--threads", "3"]),
                         ("default", [])):
        out = tmp_path / label
        assert main(["simulate", "--out", str(out)] + base + flags) == 0
        for name, digest in _PINNED_SPLIT_FILES.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (label, name)


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_simulate_rejects_threads_below_one(tmp_path, capsys, threads):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--files", "2", "--trials-per-file", "100",
                 "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


def test_simulate_rejects_negative_trials_per_file(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--files", "2",
                 "--trials-per-file", "-5"]) == 1
    assert capsys.readouterr().err == "error: --trials-per-file must be nonnegative, got -5\n"
    assert not out.exists()


def test_simulate_lr_shortcut_matches_config(tmp_path):
    cfg = tmp_path / "lr.json"
    cfg.write_text(json.dumps({"model": {"kind": "lr_vertex", "index": 5}}))
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["--files", "1", "--trials-per-file", "3000", "--seed", "9"]
    assert main(["simulate", "--out", str(a), "--model", "lr:5"] + base) == 0
    assert main(["simulate", "--out", str(b), "--config", str(cfg)] + base) == 0
    assert (a / "trials-0000.qpvt").read_bytes() == (b / "trials-0000.qpvt").read_bytes()
    codes, error = read_trial_codes(a / "trials-0000.qpvt")
    fields = unpack_codes(codes)
    assert not error
    # deterministic strategy: outputs are functions of the settings draw
    assert len({tuple(row) for row in fields}) <= 4


def test_analyze_honest_basic_layout(honest_dir, tmp_path):
    out = tmp_path / "rep"
    rc = main(["analyze", str(honest_dir), "--out", str(out),
               "--trials-per-instance", "6000"])
    assert rc == 2  # honest gain is far too small for delta = 2^-64 at n = 6000
    report = _read_json(out / "report.json")
    assert report["summary"] == {"instances": 1, "passed": 0, "failed": 1,
                                 "pass_fraction": 0.0}
    inst, = report["instances"]
    assert inst["data_files"] == ["trials-0010.qpvt", "trials-0011.qpvt"]
    assert inst["calibration_files"] == [f"trials-{i:04d}.qpvt" for i in range(10)]
    assert inst["trials_real"] == 6000
    assert inst["trials_padded"] == 0
    assert inst["passed"] is False
    assert inst["r_lb"] is None and inst["lam_mix"] is None
    lines = (out / "instances.csv").read_text().splitlines()
    assert lines[0] == ("index,passed,log2_p,r_lb,trials_real,trials_padded,"
                        "lam_mix,data_files,calibration_files")
    assert len(lines) == 2
    assert lines[1].startswith("0,0,")
    assert (out / "hist_log2p.csv").read_text().splitlines()[0] == "bin_lo,bin_hi,count"
    assert not (out / "hist_rlb.csv").exists()


def test_analyze_entanglement_ideal_passes(ideal_dir, tmp_path):
    out = tmp_path / "rep"
    rc = main(["analyze", str(ideal_dir), "--out", str(out),
               "--mode", "entanglement", "--trials-per-instance", "8000",
               "--delta-log2", "4"])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["summary"]["instances"] == 2
    assert report["summary"]["passed"] == 2
    first, second = report["instances"]
    assert first["data_files"] == [f"trials-{i:04d}.qpvt" for i in range(10, 14)]
    assert second["data_files"] == [f"trials-{i:04d}.qpvt" for i in range(14, 18)]
    assert first["calibration_files"] == [f"trials-{i:04d}.qpvt" for i in range(10)]
    assert second["calibration_files"] == [f"trials-{i:04d}.qpvt" for i in range(4, 14)]
    for inst in (first, second):
        assert inst["trials_real"] == 8000 and inst["trials_padded"] == 0
        assert inst["r_lb"] is not None and inst["r_lb"] > 0.0
        assert inst["lam_mix"] is not None and inst["lam_mix"] >= 0.0
    assert (out / "hist_rlb.csv").exists()


def test_analyze_error_file_deferral(ideal_config, tmp_path):
    run = tmp_path / "run"
    rc = main(["simulate", "--out", str(run), "--files", "13",
               "--trials-per-file", "2000", "--config", str(ideal_config),
               "--seed", "21", "--error-files", "3"])
    assert rc == 0
    out = tmp_path / "rep"
    rc = main(["analyze", str(run), "--out", str(out),
               "--trials-per-instance", "4000", "--delta-log2", "4"])
    assert rc == 0
    inst, = _read_json(out / "report.json")["instances"]
    # file 3 is flagged: calibration skips it, so data starts at file 11
    assert inst["calibration_files"] == [
        f"trials-{i:04d}.qpvt" for i in range(11) if i != 3
    ]
    assert inst["data_files"] == ["trials-0011.qpvt", "trials-0012.qpvt"]


def test_analyze_rejects_short_or_empty_runs(tmp_path, capsys):
    run = tmp_path / "short"
    rc = main(["simulate", "--out", str(run), "--files", "5",
               "--trials-per-file", "1000", "--model", "honest", "--seed", "2"])
    assert rc == 0
    assert main(["analyze", str(run), "--out", str(tmp_path / "rep"),
                 "--trials-per-instance", "1000"]) == 1
    # Ten calibration files and nothing to score: an error, not a vacuous pass.
    ten = tmp_path / "ten"
    assert main(["simulate", "--out", str(ten), "--files", "10",
                 "--trials-per-file", "1000", "--model", "honest", "--seed", "2"]) == 0
    for flags in ([], ["--trials-per-instance", "1000"]):
        assert main(["analyze", str(ten), "--out", str(tmp_path / "rep1")] + flags) == 1
    assert not (tmp_path / "rep1").exists()
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["analyze", str(empty), "--out", str(tmp_path / "rep2")]) == 1
    assert main(["analyze", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "rep3")]) == 1
    err = capsys.readouterr().err
    assert "error-free" in err
    assert err.count("error: no data file after the 10 calibration files") == 2
    assert ".qpvt" in err


@pytest.fixture(scope="module")
def odd_dir(tmp_path_factory, ideal_config):
    out = tmp_path_factory.mktemp("odd") / "run"
    rc = main(["simulate", "--out", str(out), "--files", "12",
               "--trials-per-file", "2001", "--config", str(ideal_config),
               "--seed", "5"])
    assert rc == 0
    return out


@pytest.mark.parametrize("offset", [100, 101, 2000], ids=["even", "odd", "trailing"])
def test_analyze_names_the_file_with_a_byte_out_of_range(odd_dir, tmp_path, capsys, offset):
    run = tmp_path / "run"
    shutil.copytree(odd_dir, run)
    bad = run / "trials-0004.qpvt"
    data = bytearray(bad.read_bytes())
    data[14 + offset] = 32  # past the 14-byte header
    bad.write_bytes(bytes(data))
    assert main(["analyze", str(run), "--out", str(tmp_path / "rep"),
                 "--trials-per-instance", "4002"]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: payload byte out of range 0..31" in err


def test_analyze_local_data_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "mix.json"
    cfg.write_text(json.dumps({"model": {"kind": "lr_mixture",
                                         "weights": [1.0 / 16.0] * 16}}))
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--files", "12",
                 "--trials-per-file", "2500", "--config", str(cfg),
                 "--seed", "4"]) == 0
    # auto-sizing needs a positive gain, and local data has none
    assert main(["analyze", str(run), "--out", str(tmp_path / "rep")]) == 3
    assert "infeasible" in capsys.readouterr().err
    # with an explicit instance size the unity factor just never passes
    assert main(["analyze", str(run), "--out", str(tmp_path / "rep2"),
                 "--trials-per-instance", "2500"]) == 2


def _count_calls(monkeypatch, module_name, name):
    """Count calls of a diqpv function at every diqpv module binding of it."""
    original = getattr(sys.modules[module_name], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "diqpv" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def fit_calls(monkeypatch):
    """Count ML calibration fits, wherever a diqpv module looks the fit up."""
    return _count_calls(monkeypatch, "diqpv.estimation", "ml_fit_quantum")


@pytest.fixture
def plan_calls(monkeypatch):
    """Count entanglement plans, wherever a diqpv module looks the plan up."""
    return _count_calls(monkeypatch, "diqpv.protocol", "plan_entanglement")


@pytest.mark.parametrize("mode", ["basic", "entanglement"])
def test_analyze_fits_each_window_once(ideal_dir, tmp_path, fit_calls, mode):
    # Without --trials-per-instance the first window also sizes the
    # instances; it must not be fitted a second time to score them.
    rc = main(["analyze", str(ideal_dir), "--out", str(tmp_path / "rep"),
               "--mode", mode, "--delta-log2", "4"])
    assert rc == 0
    instances = _read_json(tmp_path / "rep" / "report.json")["instances"]
    assert len(instances) == {"basic": 4, "entanglement": 2}[mode]
    assert len(fit_calls) == len(instances)


def test_analyze_plans_each_window_once(ideal_dir, tmp_path, plan_calls):
    # The first window's plan sizes the instances and then scores the first
    # one; it must not be planned a second time.
    rc = main(["analyze", str(ideal_dir), "--out", str(tmp_path / "rep"),
               "--mode", "entanglement", "--delta-log2", "4"])
    assert rc == 0
    instances = _read_json(tmp_path / "rep" / "report.json")["instances"]
    assert len(instances) == 2
    assert len(plan_calls) == len(instances)


@pytest.mark.parametrize("flags, message", [
    (["--mode", "basic", "--rth", "1e-5"], "r_th applies to entanglement mode only"),
    (["--delta-log2", "0"], "need 0 < delta < epsilon <= 1"),
])
def test_analyze_rejects_operating_point_before_calibrating(
    ideal_dir, tmp_path, capsys, fit_calls, flags, message
):
    rc = main(["analyze", str(ideal_dir), "--out", str(tmp_path / "rep")] + flags)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert fit_calls == []
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("flags", [
    ["--mode", "basic", "--rth", "1e-5"],
    ["--delta-log2", "0"],
    ["--delta-log2", "-1"],
], ids=["basic-rth", "delta-one", "delta-above-one"])
def test_plan_rejects_the_operating_points_analyze_rejects(tmp_path, capsys, flags):
    run = tmp_path / "run"
    run.mkdir()
    assert main(["analyze", str(run), "--out", str(tmp_path / "rep")] + flags) == 1
    analyze_err = capsys.readouterr().err
    out = tmp_path / "plan"
    assert main(["plan", "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == analyze_err
    assert not out.exists()


def test_plan_basic_golden_operating_point(tmp_path):
    out = tmp_path / "plan"
    rc = main(["plan", "--out", str(out), "--points", "10", "--max-minutes", "2"])
    assert rc == 0
    report = _read_json(out / "report.json")
    cal = report["calibration"]
    assert cal["total_trials"] == 75_080_425
    assert cal["mismatch_factor"] == pytest.approx(REFERENCE_MISMATCH, abs=1e-4)
    assert cal["gain_bits"] == pytest.approx(REFERENCE_GAIN_BITS, rel=1e-3)
    assert cal["variance_bits"] == pytest.approx(REFERENCE_VARIANCE_BITS, rel=1e-3)
    op = report["operating_point"]
    assert op["mode"] == "basic"
    assert op["trials"] == 25_907_459
    assert op["runtime_seconds"] == pytest.approx(103.629836, abs=1e-3)
    assert op["runtime_seconds"] <= 120.0
    lines = (out / "tradeoff_delta.csv").read_text().splitlines()
    assert lines[0] == "epsilon,runtime_seconds,delta_log2"
    assert len(lines) == 1 + 3 * 10
    rows = [line.split(",") for line in lines[1:]]
    for eps in PLAN_EPSILONS:
        bits = [float(r[2]) for r in rows if float(r[0]) == eps]
        assert len(bits) == 10
        assert all(b >= 0.0 for b in bits)
        assert bits == sorted(bits)  # more runtime, more soundness
        assert bits[-1] > 0.0


def test_plan_entanglement_golden_operating_point(tmp_path):
    out = tmp_path / "plan"
    rc = main(["plan", "--out", str(out), "--mode", "entanglement",
               "--points", "4", "--max-minutes", "4"])
    assert rc == 0
    op = _read_json(out / "report.json")["operating_point"]
    assert op["mode"] == "entanglement"
    assert op["r_th"] == 8e-6
    assert op["trials"] == 48_839_430
    assert op["lam_mix"] == pytest.approx(0.5826167, abs=1e-4)
    assert op["runtime_seconds"] <= 240.0
    lines = (out / "tradeoff_rth.csv").read_text().splitlines()
    assert lines[0] == "epsilon,runtime_seconds,r_th"
    assert len(lines) == 5
    rates = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(r >= 0.0 for r in rates)
    assert rates == sorted(rates)
    # four minutes comfortably cover the reference operating point
    assert rates[-1] >= 8e-6


def test_plan_uniform_counts_infeasible(tmp_path, capsys):
    csv_path = tmp_path / "uniform.csv"
    export_counts_csv(CountsTable(np.full((2, 2, 2, 2, 2), 1000.0)), csv_path)
    out = tmp_path / "plan"
    assert main(["plan", "--out", str(out), "--counts", str(csv_path)]) == 3
    assert "infeasible" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_geometry_reference_run_1d(tmp_path):
    out = tmp_path / "geo"
    rc = main(["geometry", "--out", str(out), "--dim", "1",
               "--mc-size", "40000", "--mc-outer", "2000",
               "--mc-inner", "20000", "--seed", "5"])
    assert rc == 0
    report = _read_json(out / "report.json")
    lengths = report["region_lengths_m"]
    assert lengths["radius_a"] == pytest.approx(157.28611309, abs=1e-5)
    assert lengths["radius_b"] == pytest.approx(116.70920391, abs=1e-5)
    assert lengths["ellipse_ab"] == pytest.approx(274.81974625, abs=1e-5)
    assert lengths["ellipse_ba"] == pytest.approx(273.17088773, abs=1e-5)
    assert lengths["d_sep"] == 195.1
    sizes = report["sizes"]["1d"]
    assert sizes["quantum"][0] == pytest.approx(78.895, abs=1.0)
    assert sizes["classical_union"][0] == pytest.approx(273.993, abs=2.0)
    assert sizes["classical_comparable"][0] == pytest.approx(352.891, abs=2.0)
    assert sizes["classical_ideal"] == [195.1, 0.0]
    assert sizes["quantum_degenerate"] is False
    ideal = report["advantage"]["1d"]["ideal"]
    comp = report["advantage"]["1d"]["comparable"]
    assert ideal["degenerate"] is False and comp["degenerate"] is False
    assert ideal["ratio"] == pytest.approx(2.47, abs=0.3)
    assert comp["ratio"] == pytest.approx(4.48, abs=0.6)
    for name in ("hist_advantage_1d_ideal.csv", "hist_advantage_1d_comparable.csv"):
        assert (out / name).read_text().splitlines()[0] == "bin_lo,bin_hi,count"


def test_histogram_csvs_parse_as_numbers(ideal_dir, tmp_path):
    rep, geo = tmp_path / "rep", tmp_path / "geo"
    assert main(["analyze", str(ideal_dir), "--out", str(rep),
                 "--mode", "entanglement", "--trials-per-instance", "8000",
                 "--delta-log2", "4"]) == 0
    assert main(["geometry", "--out", str(geo), "--dim", "1",
                 "--mc-outer", "500", "--seed", "5"]) == 0
    for path, total in ((rep / "hist_log2p.csv", 2), (rep / "hist_rlb.csv", 2),
                        (geo / "hist_advantage_1d_ideal.csv", None)):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 50
        edges = [(float(lo), float(hi)) for lo, hi, _ in rows]
        assert all(lo < hi for lo, hi in edges)
        counts = [int(c) for _, _, c in rows]
        assert total is None or sum(counts) == total


def test_geometry_degenerate_ideal_above_1d(tmp_path):
    cfg = tmp_path / "timing.json"
    cfg.write_text(json.dumps(REFERENCE_TIMING))
    out = tmp_path / "geo"
    rc = main(["geometry", "--out", str(out), "--config", str(cfg), "--dim", "2",
               "--mc-size", "20000", "--mc-outer", "300", "--mc-inner", "4000",
               "--seed", "9"])
    assert rc == 0
    report = _read_json(out / "report.json")
    ideal = report["advantage"]["2d"]["ideal"]
    assert ideal["degenerate"] is True and ideal["ratio"] is None
    assert "zero size above 1D" in ideal["note"]
    comp = report["advantage"]["2d"]["comparable"]
    assert comp["degenerate"] is False
    assert 2.5 <= comp["ratio"] <= 6.0
    assert report["sizes"]["2d"]["classical_ideal"] == [0.0, 0.0]
    assert not (out / "hist_advantage_2d_ideal.csv").exists()
    assert (out / "hist_advantage_2d_comparable.csv").exists()


def test_geometry_rejects_unknown_timing_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**REFERENCE_TIMING, "bogus_ns": 1.0}))
    assert main(["geometry", "--out", str(tmp_path / "geo"), "--config", str(bad),
                 "--dim", "1", "--mc-size", "1000", "--mc-outer", "10",
                 "--mc-inner", "100"]) == 1
    assert "unknown timing keys" in capsys.readouterr().err
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({k: v for k, v in REFERENCE_TIMING.items()
                                   if k != "d_sep_m"}))
    assert main(["geometry", "--out", str(tmp_path / "geo"), "--config", str(partial),
                 "--dim", "1", "--mc-outer", "10"]) == 1
    assert "error: missing timing keys ['d_sep_m']" in capsys.readouterr().err
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps({**REFERENCE_TIMING, "s_vap_ns": "0"}))
    assert main(["geometry", "--out", str(tmp_path / "geo"), "--config", str(typed),
                 "--dim", "1", "--mc-outer", "10"]) == 1
    assert "error: timing key 's_vap_ns' must be a number, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize("mc_outer", ["0", "-3"])
def test_geometry_rejects_mc_outer_below_one(tmp_path, capsys, mc_outer):
    out = tmp_path / "geo"
    assert main(["geometry", "--out", str(out), "--mc-outer", mc_outer]) == 1
    assert "error: mc_outer must be at least 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_geometry_seeded_report(tmp_path):
    out = tmp_path / "geo"
    assert main(["geometry", "--out", str(out), "--dim", "all", "--seed", "7",
                 "--mc-outer", "20000"]) == 0
    adv = _read_json(out / "report.json")["advantage"]
    expect = {
        ("1d", "ideal"): (2.473143772122048, 0.014081561466010622),
        ("1d", "comparable"): (4.473143772122048, 0.014081561466010622),
        ("2d", "comparable"): (4.021761222280704, 0.01687693872778672),
        ("3d", "comparable"): (4.523633197065901, 0.0195565430354359),
    }
    for (dim, comparator), (ratio, sigma) in expect.items():
        entry = adv[dim][comparator]
        assert entry["degenerate"] is False
        assert entry["ratio"] == pytest.approx(ratio, rel=1e-12)
        assert entry["sigma"] == pytest.approx(sigma, rel=1e-12)
    for dim in ("2d", "3d"):
        assert adv[dim]["ideal"]["degenerate"] is True
        assert adv[dim]["ideal"]["ratio"] is None


# sha256 of the outputs of `geometry --dim all --seed 7 --mc-outer 20000`:
# every histogram CSV, and report.json with config.out replaced by "OUT".
# Computed with the per-dimension sizer (one draw and one sizing pass per
# dimension) before sizing moved to one pass for every dimension; they pin
# the report and histograms a seeded run writes, bit for bit.
_PINNED_GEOMETRY = {
    "hist_advantage_1d_comparable.csv":
        "d51b53d076cc2851e6d37d136deb76e6070be94810a8603b65bda69f26b7736c",
    "hist_advantage_1d_ideal.csv":
        "5c994357ffda56b0445176601d983c9e9e1440937704e32845b44a82c92b5a11",
    "hist_advantage_2d_comparable.csv":
        "98f62dc1fe2861432143f24b4cf1a39dfc7de251108f40d129387753faedafc9",
    "hist_advantage_3d_comparable.csv":
        "2c6007f65a8b8119f53f1a4c5bc2a3a28330d6cafec0ed437b16d008a0dc4b1a",
    "report.json": "8c08bd539580da32fa8143d202237fe124f13af7cdb2439e2163dabbdf33e629",
}


def test_geometry_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "geo"
    assert main(["geometry", "--out", str(out), "--dim", "all", "--seed", "7",
                 "--mc-outer", "20000"]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files) == sorted(_PINNED_GEOMETRY)
    raw = files["report.json"]
    assert json.loads(raw)["config"]["out"] == str(out)
    files["report.json"] = raw.replace(json.dumps(str(out)).encode(), b'"OUT"')
    for name, digest in _PINNED_GEOMETRY.items():
        assert hashlib.sha256(files[name]).hexdigest() == digest, name


@pytest.mark.parametrize("dim, area_calls", [("all", 12), ("1", 0), ("3", 0)],
                         ids=["all", "1", "3"])
def test_geometry_draws_once_for_every_dim(tmp_path, monkeypatch, dim, area_calls):
    draws = _count_calls(monkeypatch, "diqpv.geometry", "_draw_parameters")
    passes = _count_calls(monkeypatch, "diqpv.geometry", "_measure")
    areas = _count_calls(monkeypatch, "diqpv.geometry", "_antiderivative_2d")
    assert main(["geometry", "--out", str(tmp_path / "geo"), "--dim", dim,
                 "--mc-outer", "500"]) == 0
    # One sizing pass per region over the draws and one at the central
    # values; each 2D pass integrates both ends of every segment once.
    assert len(draws) == 1
    assert len(passes) == 6
    assert len(areas) == area_calls


def test_geometry_zero_area_quantum_region_above_1d(tmp_path):
    # No uncertainty and a sum cap equal to the separation: the quantum
    # region is a segment on the station axis, so it has zero area and
    # volume in every draw.
    cfg = tmp_path / "timing.json"
    cfg.write_text(json.dumps({
        "s_vap_ns": 2000.0, "s_vb_ns": 0.0, "r_vap_ns": 4000.0, "r_vb_ns": 3000.0,
        "d_sep_m": SPEED_OF_LIGHT_M_PER_NS * 1000.0,
    }))
    out = tmp_path / "geo"
    assert main(["geometry", "--out", str(out), "--config", str(cfg), "--dim", "all",
                 "--mc-outer", "200"]) == 0
    adv = _read_json(out / "report.json")["advantage"]
    assert adv["1d"]["ideal"]["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert adv["1d"]["comparable"]["ratio"] == pytest.approx(3.0, rel=1e-12)
    for dim in ("2d", "3d"):
        for comparator in ("ideal", "comparable"):
            entry = adv[dim][comparator]
            assert entry["degenerate"] is True
            assert entry["ratio"] is None and entry["sigma"] is None
            assert entry["note"] == ("empty quantum region: no parameter draw "
                                     "produced a nonempty quantum region")


def test_fit_reference_counts(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--out", str(out)]) == 0
    payload = _read_json(out)
    assert payload["format"] == "diqpv-fit" and payload["version"] == 1
    assert payload["axes"] == ["mqa", "mqp", "oqa", "oqp"]
    assert payload["total_trials"] == 75_080_425
    table = np.asarray(payload["matched"])
    assert table.shape == (2, 2, 2, 2)
    assert np.abs(table - behavior_array()).max() <= 1e-6
    chsh = payload["chsh_correlators"]
    assert len(chsh) == 8
    assert 2.0 < max(abs(c) for c in chsh) <= TSIRELSON + 1e-9


def test_build_tf_roundtrip(tmp_path, monkeypatch):
    out = tmp_path / "tf.json"
    assert main(["build-tf", "--out", str(out)]) == 0
    solves = []
    monkeypatch.setattr(diqpv.polytopes, "linprog", lambda *a, **k: solves.append(1))
    tf = factor_from_json(out.read_text())  # checks the stored certificate
    assert solves == [] and tf.cert_margin >= 0.0
    assert np.abs(tf.matched - factor_array()).max() <= 1e-4
    assert tf.mismatch == pytest.approx(REFERENCE_MISMATCH, abs=1e-4)
    assert tf.meta == {"calibration_trials": 75_080_425}
