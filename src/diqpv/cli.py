"""Command line pipeline: simulate, analyze, plan, geometry, build-tf, fit.

One run of the verification experiment is a directory of one-minute
binary trial files.  `simulate` writes such a directory from an honest or
adversarial model, `analyze` segments it into instances and scores them,
`plan` turns a calibration counts table into runtime trade-off curves,
`geometry` sizes the spacetime target regions, and `build-tf` / `fit`
expose the factor-construction and fitting steps on their own.

Exit codes: 0 completed, 2 at least one instance failed verification,
3 infeasible operating point.  All reports embed the resolved
configuration and tool version; physical config keys carry unit suffixes
(ns, m, deg).  Every subcommand is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict

import numpy as np

from . import __version__
from .errors import DiqpvError, EmptyRegionError, InfeasiblePlanError
from .estimation import ml_fit_quantum
from .geometry import (
    TimingGeometry,
    classical_sizes,
    quantum_advantages,
    region_sizes,
    region_spec,
)
from .polytopes import chsh_values
from .protocol import (
    FileTrialSource,
    ProtocolParams,
    achievable_delta_log2,
    achievable_rth,
    calibrate,
    plan_entanglement,
    required_trials,
    segment_and_analyze,
)
from .reference import calibration_counts, timing_geometry
from .simulator import (
    HonestProverModel,
    honest_distribution,
    lr_mixture_distribution,
    lr_vertex_distribution,
    ns3_distribution,
    sample_trials,
    stream_key,
)
from .testfactor import gain_variance, testfactor_to_json
# Unused here since calibrate() and quantum_advantages() took over; kept bound
# because the benchmark's tracer (perfbench/spans.py) patches these names here.
from .geometry import quantum_advantage, region_size  # noqa: F401
from .testfactor import build_wlr, lambda_max  # noqa: F401
from .trialdata import (
    CountsTable,
    JointSettingsDistribution,
    read_counts_csv,
    write_trials,
)

TRIALS_PER_FILE = 15_000_000
TRIAL_RATE_HZ = 250_000.0
PLAN_EPSILONS = (0.84134, 0.97725, 0.99865)
# The one parameter key of each adversary model kind's config block.
_ADVERSARY_KEYS = {"lr_vertex": "index", "lr_mixture": "weights", "ns3": "mu"}


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path, payload: dict) -> None:
    """Write payload only once it has serialized, so a failure writes nothing."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_hist_csv(path, values, bins: int = 50) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        counts, edges = np.zeros(0), np.zeros(1)
    else:
        counts, edges = np.histogram(values, bins=bins)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write(f"{float(lo)!r},{float(hi)!r},{int(c)}\n")


def _provenance(args, extra: dict | None = None) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    if extra:
        config.update(extra)
    return {"tool": "diqpv", "version": __version__, "config": config}


def _counts_from_arg(path) -> CountsTable:
    return read_counts_csv(path) if path else calibration_counts()


def _check_keys(what: str, cfg: dict, required, known) -> None:
    """Reject a config block that lacks a required key or holds an unknown one."""
    missing = set(required) - set(cfg)
    if missing:
        raise ValueError(f"missing {what} keys {sorted(missing)}")
    unknown = set(cfg) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}; expected {sorted(known)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(what: str, cfg: dict, lists=()) -> None:
    """Reject a config value that is not an int or a float (bools and strings
    included), or not finite (json reads NaN and Infinity); each key in
    lists holds a list of such numbers instead."""
    for key, value in cfg.items():
        if key in lists:
            if not (isinstance(value, list) and all(map(_is_number, value))):
                raise ValueError(f"{what} key {key!r} must be a list of numbers, got {value!r}")
        elif not _is_number(value):
            raise ValueError(f"{what} key {key!r} must be a number, got {value!r}")
        if not all(isinstance(v, int) or math.isfinite(v)
                   for v in (value if key in lists else [value])):
            raise ValueError(f"{what} key {key!r} must be finite, got {value!r}")


def _timing_from_arg(path) -> TimingGeometry:
    if not path:
        return timing_geometry()
    cfg = _load_json(path)
    fields = TimingGeometry.__dataclass_fields__
    _check_keys("timing", cfg, [k for k, f in fields.items() if f.default is MISSING], fields)
    _check_numbers("timing", cfg)
    return TimingGeometry(**cfg)


def _resolve_model(shortcut, cfg: dict):
    """Model selection: --model shortcut or the config's model block."""
    spec = dict(cfg.get("model", {"kind": "honest"}))
    if shortcut and shortcut != "config":
        if shortcut == "honest":
            spec = {"kind": "honest"}
        elif shortcut.startswith("lr:"):
            spec = {"kind": "lr_vertex", "index": int(shortcut[3:])}
        else:
            raise ValueError(f"unknown model {shortcut!r} (use honest, lr:K, or config)")
    kind = spec.get("kind", "honest")
    if kind == "honest":
        _check_keys("honest model", spec, (), {"kind", *HonestProverModel.__dataclass_fields__})
        fields = {k: v for k, v in spec.items() if k != "kind"}
        angles = ("angles_a_deg", "angles_p_deg")
        _check_numbers("honest model", fields, lists=angles)
        for key in angles:
            if key in fields:
                fields[key] = tuple(fields[key])
        if "amp_a" in fields or "amp_b" in fields:
            a = fields.get("amp_a", 0.0)
            b = fields.get("amp_b", 0.0)
            norm = math.hypot(a, b)
            if norm == 0.0:
                raise ValueError("state amplitudes must not both be zero")
            fields["amp_a"], fields["amp_b"] = a / norm, b / norm
        model = HonestProverModel(**fields)
        return spec | {"kind": "honest"}, honest_distribution(model)
    if kind not in _ADVERSARY_KEYS:
        raise ValueError(f"unknown model kind {kind!r}")
    key = _ADVERSARY_KEYS[kind]
    _check_keys(f"{kind} model", spec, (key,), ("kind", key))
    if kind == "lr_vertex":
        if not isinstance(spec[key], int) or isinstance(spec[key], bool):
            raise ValueError(f"lr_vertex model key {key!r} must be an int, got {spec[key]!r}")
        return spec, lr_vertex_distribution(spec[key])
    if kind == "lr_mixture":
        return spec, lr_mixture_distribution(np.asarray(spec[key], dtype=np.float64))
    return spec, ns3_distribution(np.asarray(spec[key], dtype=np.float64))


def _settings_from_config(cfg: dict) -> JointSettingsDistribution:
    if "settings_weights" in cfg:
        return JointSettingsDistribution(
            table=np.asarray(cfg["settings_weights"], dtype=np.float64)
        )
    return JointSettingsDistribution.uniform()


def cmd_simulate(args) -> int:
    if (args.files is None) == (args.duration_minutes is None):
        raise ValueError("give exactly one of --files or --duration-minutes")
    if args.files is None and not (math.isfinite(args.duration_minutes)
                                   and args.duration_minutes >= 0):
        raise ValueError(f"--duration-minutes must be finite and nonnegative, "
                         f"got {args.duration_minutes}")
    n_files = args.files if args.files is not None else int(args.duration_minutes)
    if n_files < 0:
        raise ValueError("file count must be nonnegative")
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    if args.trials_per_file < 0:
        raise ValueError(f"--trials-per-file must be nonnegative, got {args.trials_per_file}")
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed must lie in 0..2^64 - 1, got {args.seed}")
    error_files = set()
    for tok in filter(None, map(str.strip, args.error_files.split(","))):
        try:
            error_files.add(int(tok))
        except ValueError:
            raise ValueError(f"--error-files entry {tok!r} is not an integer") from None
    outside = sorted(i for i in error_files if not 0 <= i < n_files)
    if outside:
        raise ValueError(f"--error-files indices {outside} outside 0..{n_files - 1}")
    cfg = _load_json(args.config) if args.config else {}
    _check_keys("config", cfg, (), ("model", "settings_weights"))
    model_spec, sigma3 = _resolve_model(args.model, cfg)
    nu = _settings_from_config(cfg)
    os.makedirs(args.out, exist_ok=True)

    def write_one(i: int) -> dict:
        # A function, so that one file's codes are freed before the next's
        # are drawn.
        codes = sample_trials(sigma3, nu, args.trials_per_file, stream_key(args.seed, i),
                              workers=args.threads)
        name = f"trials-{i:04d}.qpvt"
        write_trials(os.path.join(args.out, name), codes, detector_error=i in error_files)
        return {"file": name, "trials": int(codes.size), "detector_error": i in error_files}

    entries = [write_one(i) for i in range(n_files)]
    manifest = _provenance(args, {"model": model_spec})
    manifest["files"] = entries
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"wrote {n_files} file(s) x {args.trials_per_file} trials to {args.out}")
    return 0


def _params(args, n=None) -> ProtocolParams:
    """The checked operating point of analyze's and plan's protocol flags;
    --rth defaults to 8e-6 in entanglement mode and 0 in basic mode."""
    r_th = args.rth
    if r_th is None:
        r_th = 8e-6 if args.mode == "entanglement" else 0.0
    return ProtocolParams(
        delta=2.0 ** (-args.delta_log2), epsilon=args.epsilon, n=n, mode=args.mode, r_th=r_th
    )


def cmd_analyze(args) -> int:
    # Validate the operating point before any file is read; without
    # --trials-per-instance the first calibration window sizes instances.
    params = _params(args, args.trials_per_instance)
    names = sorted(f for f in os.listdir(args.data_dir) if f.endswith(".qpvt"))
    if not names:
        raise DiqpvError(f"no .qpvt files in {args.data_dir}")
    sources = [FileTrialSource(os.path.join(args.data_dir, f)) for f in names]
    instances = segment_and_analyze(sources, params, mismatch_d=args.mismatch_d)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for inst in instances:
        res = inst.result
        rows.append({
            "index": inst.index,
            "passed": res.passed,
            "log2_p": res.log2_p,
            "r_lb": res.r_lb,
            "trials_real": res.trials_real,
            "trials_padded": res.trials_padded,
            "lam_mix": inst.lam_mix,
            "data_files": list(inst.data_labels),
            "calibration_files": list(inst.calibration_labels),
        })
    n_pass = sum(r["passed"] for r in rows)
    n = instances[0].result.trials_real + instances[0].result.trials_padded
    report = _provenance(args, {"trials_per_instance": n})
    report["instances"] = rows
    report["summary"] = {
        "instances": len(rows),
        "passed": n_pass,
        "failed": len(rows) - n_pass,
        "pass_fraction": n_pass / len(rows),
    }
    _write_json(os.path.join(args.out, "report.json"), report)
    with open(os.path.join(args.out, "instances.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,passed,log2_p,r_lb,trials_real,trials_padded,lam_mix,"
                 "data_files,calibration_files\n")
        for r in rows:
            fh.write(
                f"{r['index']},{int(r['passed'])},{r['log2_p']!r},"
                f"{'' if r['r_lb'] is None else repr(r['r_lb'])},"
                f"{r['trials_real']},{r['trials_padded']},"
                f"{'' if r['lam_mix'] is None else repr(r['lam_mix'])},"
                f"{';'.join(r['data_files'])},{';'.join(r['calibration_files'])}\n"
            )
    _write_hist_csv(os.path.join(args.out, "hist_log2p.csv"), [r["log2_p"] for r in rows])
    if args.mode == "entanglement":
        _write_hist_csv(
            os.path.join(args.out, "hist_rlb.csv"),
            [r["r_lb"] for r in rows if r["r_lb"] is not None],
        )
    print(f"{len(rows)} instance(s), {n_pass} passed, {len(rows) - n_pass} failed")
    return 0 if n_pass == len(rows) else 2


def cmd_plan(args) -> int:
    params = _params(args)
    if not (math.isfinite(args.max_minutes) and args.max_minutes > 0):
        raise ValueError(f"--max-minutes must be finite and positive, got {args.max_minutes}")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    delta, r_th, epsilon = params.delta, params.r_th, params.epsilon
    counts = _counts_from_arg(args.counts)
    cal = calibrate(counts, JointSettingsDistribution.uniform(), args.mismatch_d)
    tf, sigma3 = cal.factor, cal.sigma3
    g, v = gain_variance(tf, sigma3)

    os.makedirs(args.out, exist_ok=True)
    report = _provenance(args)
    report["calibration"] = {
        "total_trials": counts.total,
        "gain_bits": g,
        "variance_bits": v,
        "mismatch_factor": tf.mismatch,
    }
    try:
        if args.mode == "entanglement":
            plan = plan_entanglement(tf, sigma3, r_th, delta, epsilon)
            n_req = plan.n
            report["operating_point"] = {
                "mode": "entanglement",
                "delta_log2": args.delta_log2,
                "epsilon": epsilon,
                "r_th": r_th,
                "trials": n_req,
                "runtime_seconds": n_req / TRIAL_RATE_HZ,
                "lam_mix": plan.lam_mix,
                "effective_gain_bits": plan.effective_gain_bits,
            }
        else:
            n_req = required_trials(g, v, delta, epsilon)
            report["operating_point"] = {
                "mode": "basic",
                "delta_log2": args.delta_log2,
                "epsilon": epsilon,
                "trials": n_req,
                "runtime_seconds": n_req / TRIAL_RATE_HZ,
            }
    except InfeasiblePlanError as exc:
        print(f"infeasible operating point: {exc}", file=sys.stderr)
        return 3

    runtimes = [float(t) for t in np.linspace(0.0, args.max_minutes * 60.0, args.points + 1)[1:]]
    with open(os.path.join(args.out, "tradeoff_delta.csv"), "w", encoding="utf-8") as fh:
        fh.write("epsilon,runtime_seconds,delta_log2\n")
        for eps in PLAN_EPSILONS:
            for t in runtimes:
                n = int(t * TRIAL_RATE_HZ)
                fh.write(f"{eps},{t!r},{achievable_delta_log2(n, g, v, eps)!r}\n")
    if args.mode == "entanglement":
        with open(os.path.join(args.out, "tradeoff_rth.csv"), "w", encoding="utf-8") as fh:
            fh.write("epsilon,runtime_seconds,r_th\n")
            ns = np.array([int(t * TRIAL_RATE_HZ) for t in runtimes])
            rates = achievable_rth(tf, sigma3, ns, delta, epsilon)
            for t, rate in zip(runtimes, rates):
                fh.write(f"{epsilon},{t!r},{float(rate)!r}\n")
    _write_json(os.path.join(args.out, "report.json"), report)
    op = report["operating_point"]
    print(f"{op['mode']} operating point: {op['trials']} trials "
          f"({op['runtime_seconds']:.1f} s at {TRIAL_RATE_HZ:.0f} Hz)")
    return 0


def cmd_geometry(args) -> int:
    tg = _timing_from_arg(args.config)
    spec = region_spec(tg)
    dims = (1, 2, 3) if args.dim == "all" else (int(args.dim),)
    if args.mc_outer < 1:
        raise ValueError("mc_outer must be at least 1")
    if not 0 <= args.seed < 1 << 128:
        raise ValueError(f"--seed must lie in 0..2^128 - 1, got {args.seed}")
    os.makedirs(args.out, exist_ok=True)

    results = quantum_advantages(tg, dims, mc_outer=args.mc_outer, seed=args.seed)
    sizes, advantage = {}, {}
    for dim, measured in region_sizes(spec, dims).items():
        classical = classical_sizes(dim, *measured.values(), spec.d_sep)
        sizes[f"{dim}d"] = {
            **{name: [size, 0.0] for name, size in measured.items()},
            **{f"classical_{name}": [size, 0.0] for name, size in classical.items()},
            "quantum_degenerate": measured["quantum"] == 0.0,
        }
        found, note = results[dim], "ideal classical region has zero size above 1D"
        if isinstance(found, EmptyRegionError):
            found, note = dict.fromkeys(("ideal", "comparable")), f"empty quantum region: {found}"
        advantage[f"{dim}d"] = {}
        for comparator, res in found.items():
            advantage[f"{dim}d"][comparator] = entry = {"comparator": comparator}
            if res is None or res.degenerate:
                entry.update({"ratio": None, "sigma": None, "degenerate": True, "note": note})
            else:
                entry.update({"ratio": res.ratio, "sigma": res.sigma, "degenerate": False,
                              "empty_fraction": res.empty_fraction})
                _write_hist_csv(os.path.join(args.out, f"hist_advantage_{dim}d_{comparator}.csv"),
                                res.samples)

    report = _provenance(args)
    report["region_lengths_m"] = asdict(spec)
    report["sizes"] = sizes
    report["advantage"] = advantage
    _write_json(os.path.join(args.out, "report.json"), report)
    for dim in dims:
        for comparator, entry in advantage[f"{dim}d"].items():
            shown = "degenerate" if entry["degenerate"] else (
                f"{entry['ratio']:.3f} +- {entry['sigma']:.3f}")
            print(f"{dim}D {comparator}: {shown}")
    return 0


def cmd_build_tf(args) -> int:
    counts = _counts_from_arg(args.counts)
    cal = calibrate(counts, JointSettingsDistribution.uniform(), args.mismatch_d,
                    meta={"calibration_trials": counts.total})
    tf = cal.factor
    g, v = gain_variance(tf, cal.sigma3)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(testfactor_to_json(tf))
        fh.write("\n")
    print(f"mismatch factor {tf.mismatch:.10f}, gain {g:.6e} bits/trial, "
          f"variance {v:.6e}; wrote {args.out}")
    return 0


def cmd_fit(args) -> int:
    counts = _counts_from_arg(args.counts)
    sigma = ml_fit_quantum(counts)
    payload = {
        "format": "diqpv-fit",
        "version": 1,
        "tool_version": __version__,
        "total_trials": counts.total,
        "matched": sigma.table.tolist(),
        "axes": ["mqa", "mqp", "oqa", "oqp"],
        "chsh_correlators": list(chsh_values(sigma.table)),
    }
    _write_json(args.out, payload)
    chsh_max = max(abs(c) for c in payload["chsh_correlators"])
    print(f"fit over {counts.total} trials, max |CHSH| = {chsh_max:.10f}; wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diqpv",
        description="Device-independent position verification pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"diqpv {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_protocol_flags(p):
        p.add_argument("--mode", choices=("basic", "entanglement"), default="basic")
        p.add_argument("--delta-log2", type=float, default=64.0,
                       help="soundness as log2(1/delta)")
        p.add_argument("--epsilon", type=float, default=0.97725,
                       help="completeness target")
        p.add_argument("--rth", type=float, default=None,
                       help="entanglement threshold (nats/trial); default 8e-6 "
                            "in entanglement mode")
        p.add_argument("--mismatch-d", type=float, default=2e-6,
                       help="mismatch mass spread during regularization")

    p = sub.add_parser("simulate", help="write one-minute binary trial files")
    p.add_argument("--out", required=True)
    p.add_argument("--files", type=int, default=None)
    p.add_argument("--duration-minutes", type=float, default=None)
    p.add_argument("--trials-per-file", type=int, default=TRIALS_PER_FILE)
    p.add_argument("--model", default="config",
                   help="honest (default), lr:K, or config to use --config")
    p.add_argument("--config", default=None, help="JSON model/settings config")
    p.add_argument("--error-files", default="",
                   help="comma-separated indices flagged as detector-error files")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=None,
                   help="most threads that sample each file (default: no limit; "
                        "never more than the CPUs this process may use, nor 4); "
                        "the files are identical for any value")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="segment a run directory into scored instances")
    p.add_argument("data_dir")
    p.add_argument("--out", required=True)
    add_protocol_flags(p)
    p.add_argument("--trials-per-instance", type=int, default=None,
                   help="override the planned per-instance trial count")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="runtime trade-off curves from calibration counts")
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default=None, help="counts CSV; default bundled reference")
    add_protocol_flags(p)
    p.add_argument("--max-minutes", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("geometry", help="target region sizes and advantage ratios")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON timing geometry (ns, m keys)")
    p.add_argument("--dim", choices=("1", "2", "3", "all"), default="all")
    p.add_argument("--mc-size", type=int, default=None,
                   help="ignored: region sizes are exact")
    p.add_argument("--mc-outer", type=int, default=100_000,
                   help="parameter draws for advantage ratios")
    p.add_argument("--mc-inner", type=int, default=None,
                   help="ignored: region sizes are exact")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("build-tf", help="build and certify a test factor from counts")
    p.add_argument("--out", required=True, help="output factor JSON path")
    p.add_argument("--counts", default=None, help="counts CSV; default bundled reference")
    p.add_argument("--mismatch-d", type=float, default=2e-6)
    p.set_defaults(func=cmd_build_tf)

    p = sub.add_parser("fit", help="maximum-likelihood fit of calibration counts")
    p.add_argument("--out", required=True, help="output fit JSON path")
    p.add_argument("--counts", default=None, help="counts CSV; default bundled reference")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasiblePlanError as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        return 3
    except (DiqpvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
