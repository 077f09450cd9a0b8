"""End-to-end checks of the command line pipeline.

Each test drives main() with an argv list and inspects the files the
subcommand writes.  Simulated runs are tiny (a few thousand trials per
file) so the per-instance refits stay fast; seeds are fixed, so the
expected exit codes and file layouts are reproducible.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import types
import warnings
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
from helpers import pr_box
from helpers import testfactor_from_json as factor_from_json
from oracles import measure_unblocked
import diqpv
import diqpv.polytopes
from diqpv import __version__, protocol
from diqpv.cli import PLAN_EPSILONS, _write_json, build_parser, main
from diqpv.estimation import ConditionalDistribution2, ConditionalDistribution3, regularize
from diqpv.geometry import SPEED_OF_LIGHT_M_PER_NS
from diqpv.polytopes import lr_vertices
from diqpv.simulator import HonestProverModel, honest_distribution, sample_trials, stream_key
from diqpv.trialdata import (
    CountsTable,
    JointSettingsDistribution,
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


@pytest.mark.parametrize("flags, message", [
    (["--files", "2", "--error-files", "5,-1"], "--error-files indices [-1, 5] outside 0..1"),
    (["--files", "2", "--error-files", "2"], "--error-files indices [2] outside 0..1"),
    (["--files", "2", "--error-files", "1,x"], "--error-files entry 'x' is not an integer"),
    (["--duration-minutes", "inf"], "--duration-minutes must be finite and nonnegative, got inf"),
    (["--duration-minutes", "nan"], "--duration-minutes must be finite and nonnegative, got nan"),
    (["--duration-minutes", "-0.5"],
     "--duration-minutes must be finite and nonnegative, got -0.5"),
    # stream_key takes a 64-bit run seed.
    (["--files", "2", "--seed", "-1"], "--seed must lie in 0..2^64 - 1, got -1"),
    (["--files", "0", "--seed", "-5"], "--seed must lie in 0..2^64 - 1, got -5"),
    (["--files", "2", "--seed", str(2**64)], f"--seed must lie in 0..2^64 - 1, got {2**64}"),
], ids=["error-files-outside", "error-files-one-past", "error-files-not-int", "duration-inf",
        "duration-nan", "duration-negative", "seed-negative", "seed-negative-no-files",
        "seed-past-64-bits"])
def test_simulate_rejects_run_shape_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--trials-per-file", "100"] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_SKEWED = [[0.55, 0.05], [0.3, 0.1]]
_DYADIC = [0.5, 0, 0, 0.25, 0, 0, 0, 0, 0.125, 0, 0, 0, 0, 0, 0.0625, 0.0625]


def _pr_shared_with_verifier():
    """A PR box between the verifier and the first station, mu[ma, b, bp, oa, za, zb]."""
    return np.broadcast_to(0.5 * pr_box()[:, :, None, :, :, None], (2,) * 6).copy()


def _lr_behavior(sigma2):
    return regularize(ConditionalDistribution2(sigma2), 0.0)


def _ns3_behavior(mu):
    return ConditionalDistribution3(np.stack([mu[:, mp, mp] for mp in range(2)], axis=1))


# (--model, config, the behavior built directly, settings weights or None for uniform)
_SIMULATE_CONFIGS = {
    "lr-shortcut-skewed": ("lr:5", {"settings_weights": _SKEWED},
                           lambda: _lr_behavior(lr_vertices()[5]), _SKEWED),
    "lr-mixture-skewed": ("config", {"model": {"kind": "lr_mixture", "weights": _DYADIC},
                                     "settings_weights": _SKEWED},
                          lambda: _lr_behavior(np.tensordot(_DYADIC, lr_vertices(), axes=1)),
                          _SKEWED),
    "ns3": ("config", {"model": {"kind": "ns3", "mu": _pr_shared_with_verifier().tolist()}},
            lambda: _ns3_behavior(_pr_shared_with_verifier()), None),
    "honest-skewed": ("config", {"model": {"kind": "honest"}, "settings_weights": _SKEWED},
                      lambda: honest_distribution(HonestProverModel()), _SKEWED),
}


@pytest.mark.parametrize("case", sorted(_SIMULATE_CONFIGS))
def test_simulate_config_files_match_direct_sampling(tmp_path, case):
    model, config, behavior, weights = _SIMULATE_CONFIGS[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--files", "2", "--trials-per-file", "5000",
                 "--seed", "11", "--model", model, "--config", str(cfg)]) == 0
    nu = (JointSettingsDistribution.uniform() if weights is None
          else JointSettingsDistribution(np.array(weights)))
    for i in range(2):
        codes, _ = read_trial_codes(out / f"trials-{i:04d}.qpvt")
        assert np.array_equal(codes, sample_trials(behavior(), nu, 5000, stream_key(11, i)))


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"model": {"kind": "honest", "angles_a_deg": [math.nan, 29.26]}},
     "honest model key 'angles_a_deg' must be finite, got [nan, 29.26]"),
    ("simulate", {"model": {"kind": "honest", "eta_a": math.inf}},
     "honest model key 'eta_a' must be finite, got inf"),
    ("simulate", {"model": {"kind": "lr_mixture", "weights": [math.nan] * 16}},
     "probabilities must be finite and nonnegative"),
    ("simulate", {"model": {"kind": "ns3", "mu": [math.nan] * 64}},
     "behavior violates the no-signaling polytope"),
    ("simulate", {"model": {"kind": "honest"}, "setting_weights": _SKEWED},
     "unknown config keys ['setting_weights']; expected ['model', 'settings_weights']"),
    ("geometry", {**REFERENCE_TIMING, "d_sep_m": math.nan},
     "timing key 'd_sep_m' must be finite, got nan"),
    ("geometry", {**REFERENCE_TIMING, "r_vb_sigma_ns": -math.inf},
     "timing key 'r_vb_sigma_ns' must be finite, got -inf"),
], ids=["honest-nan-angle", "honest-inf-efficiency", "lr-mixture-nan", "ns3-nan",
        "unknown-top-level-key", "geometry-nan-separation", "geometry-inf-sigma"])
def test_config_rejected_before_writing(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))  # json writes nan and inf as NaN and Infinity
    out = tmp_path / "out"
    flags = ["--files", "1", "--trials-per-file", "100"] if command == "simulate" else [
        "--dim", "1", "--mc-outer", "10"]
    assert main([command, "--out", str(out), "--config", str(cfg)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_write_json_leaves_no_trace_when_serializing_fails(tmp_path):
    old = tmp_path / "report.json"
    old.write_text("kept\n")
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(old, {"ok": 1.0, "bad": [math.nan]})
    assert old.read_text() == "kept\n"
    new = tmp_path / "new.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(new, {"bad": math.inf})
    assert not new.exists()


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


@pytest.fixture(scope="module")
def flagged_dir(tmp_path_factory, ideal_config):
    out = tmp_path_factory.mktemp("flagged") / "run"
    rc = main(["simulate", "--out", str(out), "--files", "17",
               "--trials-per-file", "3000", "--config", str(ideal_config),
               "--seed", "13", "--error-files", "12"])
    assert rc == 0
    return out


def _fork_always(monkeypatch, warn=False):
    """Count ahead in forked children however small the run; returns the
    children's pids as they are forked.  warn=True makes each fork warn in
    the parent as Python 3.12+ does in a multi-threaded process."""
    monkeypatch.setattr(protocol, "_FORK_TRIALS", 0)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
            if warn:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _analyze_outputs(capsys, run, out, flags):
    """(exit code, stdout, stderr, {file name: bytes}) of one analyze call."""
    rc = main(["analyze", str(run), "--out", str(out)] + flags)
    std = capsys.readouterr()
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    return rc, std.out, std.err, files


@pytest.mark.parametrize("flags, children", [
    (["--trials-per-instance", "4000", "--delta-log2", "4"], 17),
    (["--delta-log2", "4"], 17),
    (["--mode", "entanglement", "--delta-log2", "4"], 17),
], ids=["basic-fixed-n", "basic-planned-n", "entanglement"])
def test_forked_counting_matches_in_process(flagged_dir, tmp_path, capsys, monkeypatch,
                                            flags, children):
    # children: the files the run reads, the first window's ten and every
    # file from the first data file on; all 17 in either mode.
    serial = _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags)
    assert serial[0] in (0, 2) and len(serial[3]) >= 3
    pids = _fork_always(monkeypatch)
    assert _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags) == serial
    assert len(pids) == min(protocol._cpus(), children)
    _assert_no_child_left()


@pytest.mark.parametrize("damage", [{4}, {11}, {4, 11}], ids=["bad-byte", "truncated", "both"])
def test_forked_counting_raises_the_in_process_error(flagged_dir, tmp_path, capsys,
                                                     monkeypatch, damage):
    # File 4 calibrates the first instance.  File 11 is the first
    # instance's second data file: its first 1000 trials score it, and only
    # the second window reads it in full, so its truncation shows there.
    run = tmp_path / "run"
    shutil.copytree(flagged_dir, run)
    if 4 in damage:
        bad = run / "trials-0004.qpvt"
        data = bytearray(bad.read_bytes())
        data[14 + 100] = 32
        bad.write_bytes(bytes(data))
    if 11 in damage:
        short = run / "trials-0011.qpvt"
        short.write_bytes(short.read_bytes()[:-10])
    flags = ["--trials-per-instance", "4000", "--delta-log2", "4"]
    serial = _analyze_outputs(capsys, run, tmp_path / "rep", flags)
    pids = _fork_always(monkeypatch)
    forked = _analyze_outputs(capsys, run, tmp_path / "rep", flags)
    assert pids
    assert forked == serial
    rc, _, err, _ = forked
    expected = (f"{run / 'trials-0004.qpvt'}: payload byte out of range 0..31" if 4 in damage
                else f"{run / 'trials-0011.qpvt'}: expected 3000 trials, found 2990")
    assert rc == 1 and err == f"error: {expected}\n"
    _assert_no_child_left()


@pytest.fixture(scope="module")
def roles_dir(tmp_path_factory, ideal_config):
    # At 4000 trials per instance the blocks are files 10-11, 12-13 and
    # 14-15; each second file is scored by its first 1000 trials only, and
    # file 13 carries the detector-error flag.
    out = tmp_path_factory.mktemp("roles") / "run"
    rc = main(["simulate", "--out", str(out), "--files", "16",
               "--trials-per-file", "3000", "--config", str(ideal_config),
               "--seed", "13", "--error-files", "13"])
    assert rc == 0
    return out


@pytest.mark.parametrize("damage", ["bad-byte", "truncated", "both"])
@pytest.mark.parametrize("role, index, fails", [
    ("window-1", 4, True),
    ("first-instance-second-file", 11, True),
    ("last-instance-second-file", 15, False),
    ("error-flagged-data-file", 13, False),
])
def test_forked_counting_keeps_the_outcome_of_damage_in_each_role(
        roles_dir, tmp_path, capsys, monkeypatch, role, index, fails, damage):
    # Damage lies past the first 1000 trials, so it fails the run only where
    # a calibration window reads the file in full: files 4 and 11.
    run = tmp_path / "run"
    shutil.copytree(roles_dir, run)
    path = run / f"trials-{index:04d}.qpvt"
    data = bytearray(path.read_bytes())
    if damage != "truncated":
        data[14 + 2000] = 32
    if damage != "bad-byte":
        del data[-10:]
    # A file both truncated and holding a bad byte fails on its length,
    # before any byte is counted.
    expected = (f"{path}: payload byte out of range 0..31" if damage == "bad-byte"
                else f"{path}: expected 3000 trials, found 2990")
    path.write_bytes(bytes(data))
    flags = ["--trials-per-instance", "4000", "--delta-log2", "4"]
    serial = _analyze_outputs(capsys, run, tmp_path / "rep", flags)
    if fails:
        assert serial[:3] == (1, "", f"error: {expected}\n") and serial[3] == {}
    else:
        rc, _, err, files = serial
        assert rc in (0, 2) and err == ""
        assert len(json.loads(files["report.json"])["instances"]) == 3
    pids = _fork_always(monkeypatch)
    limits = []
    real_tally = protocol.FileTrialSource._tally

    def tally(src, limit=None):
        limits.append(limit)
        return real_tally(src, limit)

    monkeypatch.setattr(protocol.FileTrialSource, "_tally", tally)
    assert _analyze_outputs(capsys, run, tmp_path / "rep", flags) == serial
    # Small chunks: a child counts some chunks of its file before the damage fails it.
    monkeypatch.setattr(protocol, "_CHUNK", 64)
    assert _analyze_outputs(capsys, run, tmp_path / "rep", flags) == serial
    assert pids
    # In each forked run the parent counted the damaged file's scored
    # prefix, if it has one, and never a whole file: a child's error is
    # raised, not found again.
    assert limits == ([] if role == "window-1" else [1000, 1000])


@pytest.mark.parametrize("flags", [
    ["--trials-per-instance", "4000", "--delta-log2", "4"],
    ["--mode", "entanglement", "--delta-log2", "4"],
], ids=["basic", "entanglement"])
def test_forked_counting_parent_counts_at_most_one_chunk_per_instance(
        flagged_dir, tmp_path, capsys, monkeypatch, flags):
    chunk = 64
    serial = _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags)
    pids = _fork_always(monkeypatch)
    monkeypatch.setattr(protocol, "_CHUNK", chunk)
    counted, read = [], []
    real_count, real_read = protocol.aggregate_counts, diqpv.trialdata.read_trial_codes

    def count(codes, *args):
        counted.append(len(codes))
        return real_count(codes, *args)

    def read_codes(*args):
        codes, error = real_read(*args)
        read.append(codes.size)
        return codes, error

    # Any count or read in the children lands in their copies of the lists.
    monkeypatch.setattr(protocol, "aggregate_counts", count)
    monkeypatch.setattr(diqpv.trialdata, "read_trial_codes", read_codes)
    forked = _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags)
    assert forked == serial and pids
    instances = len(json.loads(forked[3]["report.json"])["instances"])
    assert instances >= 2
    assert len(counted) <= instances and all(0 < t < chunk for t in counted)
    assert read == counted


def test_forked_counting_reaps_children_when_the_parent_raises(flagged_dir, tmp_path,
                                                               monkeypatch):
    pids = _fork_always(monkeypatch)
    real_calibrate = protocol.calibrate
    calls = []

    def calibrate_once(*args, **kwargs):
        if calls:
            raise RuntimeError("second calibration")
        calls.append(1)
        return real_calibrate(*args, **kwargs)

    monkeypatch.setattr(protocol, "calibrate", calibrate_once)
    with pytest.raises(RuntimeError, match="second calibration"):
        main(["analyze", str(flagged_dir), "--out", str(tmp_path / "rep"),
              "--trials-per-instance", "4000"])
    assert pids
    _assert_no_child_left()


@pytest.mark.parametrize("end, taken", [
    ("before-any-result", 0), ("after-one-result", 1), ("inside-the-second-result", 1),
], ids=["before-any-result", "after-one-result", "inside-the-second-result"])
def test_forked_counting_counts_in_process_after_a_child_dies(flagged_dir, tmp_path, capsys,
                                                             monkeypatch, end, taken):
    flags = ["--trials-per-instance", "4000", "--delta-log2", "4"]
    limits = []
    real_tally, real_count_stripe = protocol.FileTrialSource._tally, protocol._count_stripe

    def tally(src, limit=None):
        limits.append(limit)
        return real_tally(src, limit)

    def count_stripe(stripe, *args):
        # Runs in the child only, so what it patches dies with it.
        if end == "before-any-result":
            os._exit(0)
        if end == "inside-the-second-result":
            # The first result goes out whole, then half of the second's pickle.
            sent = []

            def dumps(result):
                sent.append(pickle.dumps(result))
                return sent[-1][: len(sent[-1]) // 2] if len(sent) == 2 else sent[-1]

            protocol.pickle = types.SimpleNamespace(dumps=dumps)
        real_count_stripe(stripe[: 1 if end == "after-one-result" else 2], *args)

    monkeypatch.setattr(protocol.FileTrialSource, "_tally", tally)
    serial = _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags)
    whole, limits[:] = limits.count(None), []
    pids = _fork_always(monkeypatch)
    monkeypatch.setattr(protocol, "_cpus", lambda: 2)
    monkeypatch.setattr(protocol, "_count_stripe", count_stripe)
    assert _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags) == serial
    # Each child's complete results are used, and no more.
    assert len(pids) == 2 and limits.count(None) == whole - 2 * taken
    _assert_no_child_left()


def test_forked_counting_counts_in_process_when_a_pipe_fails(flagged_dir, tmp_path, capsys,
                                                            monkeypatch):
    flags = ["--trials-per-instance", "4000", "--delta-log2", "4"]
    serial = _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags)
    pids = _fork_always(monkeypatch)
    monkeypatch.setattr(protocol, "_cpus", lambda: 2)
    real_pipe, pipes = os.pipe, []

    def pipe():
        pipes.append(1)
        if len(pipes) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()

    monkeypatch.setattr(os, "pipe", pipe)
    assert _analyze_outputs(capsys, flagged_dir, tmp_path / "rep", flags) == serial
    assert len(pids) == 1 and len(pipes) == 2
    _assert_no_child_left()


def test_forked_counting_raises_no_fork_warning(flagged_dir, tmp_path, monkeypatch):
    pids = _fork_always(monkeypatch, warn=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["analyze", str(flagged_dir), "--out", str(tmp_path / "rep"),
                   "--trials-per-instance", "4000", "--delta-log2", "4"])
    assert rc in (0, 2) and pids
    _assert_no_child_left()


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
    ["--mode", "entanglement", "--rth", "nan"],
    ["--mode", "entanglement", "--rth", "inf"],
], ids=["basic-rth", "delta-one", "delta-above-one", "rth-nan", "rth-inf"])
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


@pytest.mark.parametrize("flags, message", [
    (["--max-minutes", "inf"], "--max-minutes must be finite and positive, got inf"),
    (["--max-minutes", "nan"], "--max-minutes must be finite and positive, got nan"),
    (["--max-minutes", "-1"], "--max-minutes must be finite and positive, got -1.0"),
    (["--max-minutes", "0"], "--max-minutes must be finite and positive, got 0.0"),
    (["--points", "0"], "--points must be at least 1, got 0"),
    (["--points", "-3"], "--points must be at least 1, got -3"),
], ids=["minutes-inf", "minutes-nan", "minutes-negative", "minutes-zero", "points-zero",
        "points-negative"])
def test_plan_rejects_trade_off_grid_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "plan"
    assert main(["plan", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
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
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "past-128-bits"])
def test_geometry_rejects_seed_outside_philox_keys(tmp_path, capsys, seed):
    out = tmp_path / "geo"
    assert main(["geometry", "--out", str(out), "--dim", "1", "--mc-outer", "10",
                 "--seed", seed]) == 1
    assert capsys.readouterr().err == f"error: --seed must lie in 0..2^128 - 1, got {seed}\n"
    assert not out.exists()


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


# Timing surveys for the byte-identity gate besides the bundled one: a sum
# cap just above the separation, and a round trip at A so short that over
# 1% of quantum regions are empty (EmptyRegionError in every dim).
_GATE_CONFIGS = {
    "tight-cap": {"s_vap_ns": 0.0, "s_vb_ns": 100.0, "r_vap_ns": 400.0, "r_vb_ns": 500.0,
                  "d_sep_m": 87.36, "d_sep_sigma_m": 1.0},
    "mostly-empty": {"s_vap_ns": 1000.0, "s_vb_ns": 1000.0, "r_vap_ns": 1000.1,
                     "r_vb_ns": 2000.0, "d_sep_m": 50.0, "r_vap_sigma_ns": 0.5},
}


@pytest.mark.parametrize("config, dim, seed", [
    *(("bundled", dim, seed) for dim in ("1", "2", "3", "all") for seed in ("1", "7")),
    ("tight-cap", "all", "1"),
    ("mostly-empty", "all", "1"),
])
def test_geometry_blocked_outputs_match_unblocked_oracle(tmp_path, monkeypatch, capsys,
                                                         config, dim, seed):
    out = tmp_path / "geo"
    argv = ["geometry", "--out", str(out), "--dim", dim, "--seed", seed,
            "--mc-outer", "20000"]  # spans the 8192-draw block edge twice
    if config != "bundled":
        cfg = tmp_path / "timing.json"
        cfg.write_text(json.dumps(_GATE_CONFIGS[config]))
        argv += ["--config", str(cfg)]

    def run():
        code = main(argv)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return code, capsys.readouterr(), files

    blocked = run()
    with monkeypatch.context() as mp:
        mp.setattr("diqpv.geometry._measure_blocks", measure_unblocked)
        assert run() == blocked
    code, _, files = blocked
    assert code == 0 and "report.json" in files
    if config == "mostly-empty":
        assert b"of parameter draws give an empty quantum region" in files["report.json"]
        assert not any(name.startswith("hist_") for name in files)


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
