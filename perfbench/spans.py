"""Span tracing of diqpv from outside the package.

The package binds its collaborators with ``from .x import y``, so a call is
looked up in the *caller's* module namespace.  The tracer therefore patches
each name where it is looked up (see ``SITES``), records one span per call,
and puts every original object back when the traced block ends.

A span holds its name, start, end, parent span and the CLI call it belongs
to; spans stay in memory and the per-layer metrics are computed from them
after the traced pass.  A span's self time is its duration minus the part of
its interval that its children cover (children may overlap).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _result_size(args, kwargs, result):
    return {"trials": int(result.size)}


def _written_bytes(args, kwargs, result):
    records = args[1] if len(args) > 1 else kwargs["records"]
    return {"bytes": int(records.nbytes)}


def _read_bytes(args, kwargs, result):
    return {"bytes": int(result[0].nbytes)}


def _counted_trials(args, kwargs, result):
    return {"trials": int(result.total)}


def _advantage_dim(args, kwargs, result):
    return {"dim": int(args[1] if len(args) > 1 else kwargs["dim"])}


# (module, name looked up there, span name, measure).  A name is listed once
# per namespace that calls it, because each namespace holds its own binding.
SITES = (
    ("diqpv.cli", "sample_trials", "simulator.sample_trials", _result_size),
    ("diqpv.cli", "write_trials", "trialdata.write_trials", _written_bytes),
    # FileTrialSource imports read_trial_codes from the module at call time.
    ("diqpv.trialdata", "read_trial_codes", "trialdata.read_trial_codes", _read_bytes),
    ("diqpv.protocol", "aggregate_counts", "trialdata.aggregate_counts", _counted_trials),
    ("diqpv.cli", "ml_fit_quantum", "estimation.ml_fit_quantum", None),
    ("diqpv.protocol", "ml_fit_quantum", "estimation.ml_fit_quantum", None),
    ("diqpv.estimation", "maximize_log_affine", "smooth.maximize_log_affine", None),
    ("diqpv.testfactor", "maximize_log_affine", "smooth.maximize_log_affine", None),
    ("diqpv.polytopes", "linprog", "polytopes.linprog", None),
    ("diqpv.testfactor", "max_linear", "polytopes.max_linear", None),
    ("diqpv.cli", "build_wlr", "testfactor.build_wlr", None),
    ("diqpv.protocol", "build_wlr", "testfactor.build_wlr", None),
    ("diqpv.cli", "lambda_max", "testfactor.lambda_max", None),
    ("diqpv.protocol", "lambda_max", "testfactor.lambda_max", None),
    # TestFactor.__post_init__ and lambda_max_table call certify here.
    ("diqpv.testfactor", "certify", "testfactor.certify", None),
    ("diqpv.cli", "segment_and_analyze", "protocol.segment_and_analyze", None),
    ("diqpv.protocol", "run_instance_from_counts", "protocol.run_instance_from_counts", None),
    ("diqpv.cli", "plan_entanglement", "protocol.plan_entanglement", None),
    ("diqpv.protocol", "plan_entanglement", "protocol.plan_entanglement", None),
    ("diqpv.cli", "achievable_rth", "protocol.achievable_rth", None),
    ("diqpv.cli", "region_size", "geometry.region_size", None),
    ("diqpv.cli", "quantum_advantage", "geometry.quantum_advantage", _advantage_dim),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions and explicit ``span`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.call)
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if measure is not None:
                rec.attrs.update(measure(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every site; a name the package no longer has is skipped."""
        for module_name, attr, span_name, measure in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, measure))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append(s.duration - covered_length(clipped))
    return out


def ancestors(spans: list[Span], i: int):
    """Names of the spans above span i, nearest first."""
    p = spans[i].parent
    while p is not None:
        yield spans[p].name
        p = spans[p].parent


COMMANDS = ("simulate", "analyze", "plan", "geometry")

# Layer metrics that count work; the traced run checks that two passes on
# the same inputs give them exactly.
EXACT_COUNTS = (
    "polytopes.lp_solves",
    "testfactor.lp_per_lambda_max",
    "estimation.ml_fit_calls",
    "protocol.calibrations_per_instance",
    "trialdata.read_bytes",
    "trialdata.write_bytes",
    "smooth.barrier_calls",
)


def layer_metrics(spans: list[Span], payload_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    payload_bytes is the trial payload of the run directories the pass
    analyzed; read amplification is bytes read over it.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key != "dim":
                attr[s.name, key] += value

    lp_in_lambda = sum(
        1 for i, s in enumerate(spans)
        if s.name == "polytopes.linprog" and "testfactor.lambda_max" in ancestors(spans, i)
    )
    fits_in_analyze = sum(
        1 for i, s in enumerate(spans)
        if s.name == "estimation.ml_fit_quantum" and "cli.analyze" in ancestors(spans, i)
    )
    adv_by_dim = defaultdict(float)
    for s in spans:
        if s.name == "geometry.quantum_advantage":
            adv_by_dim[s.attrs["dim"]] += s.duration

    def ratio(num, den):
        return num / den if den else 0.0

    read_bytes = attr["trialdata.read_trial_codes", "bytes"]
    instances = calls["protocol.run_instance_from_counts"]
    lambda_calls = calls["testfactor.lambda_max"]
    out = {
        "trialdata.read_s": total["trialdata.read_trial_codes"],
        "trialdata.read_bytes": read_bytes,
        "trialdata.read_amplification": ratio(read_bytes, payload_bytes),
        "trialdata.count_s": total["trialdata.aggregate_counts"],
        "trialdata.count_trials": attr["trialdata.aggregate_counts", "trials"],
        "trialdata.write_s": total["trialdata.write_trials"],
        "trialdata.write_bytes": attr["trialdata.write_trials", "bytes"],
        "simulator.sample_s": total["simulator.sample_trials"],
        "simulator.sample_trials": attr["simulator.sample_trials", "trials"],
        "estimation.ml_fit_s": total["estimation.ml_fit_quantum"],
        "estimation.ml_fit_calls": calls["estimation.ml_fit_quantum"],
        "smooth.barrier_s": total["smooth.maximize_log_affine"],
        "smooth.barrier_calls": calls["smooth.maximize_log_affine"],
        "polytopes.lp_solves": calls["polytopes.linprog"],
        "polytopes.lp_s": total["polytopes.linprog"],
        "polytopes.max_linear_calls": calls["polytopes.max_linear"],
        "testfactor.build_wlr_s": total["testfactor.build_wlr"],
        "testfactor.lambda_max_s": total["testfactor.lambda_max"],
        "testfactor.lambda_max_calls": lambda_calls,
        "testfactor.lp_per_lambda_max": ratio(lp_in_lambda, lambda_calls),
        "testfactor.certify_s": total["testfactor.certify"],
        "testfactor.certify_calls": calls["testfactor.certify"],
        "protocol.segment_s": sum(
            t for s, t in zip(spans, selfs) if s.name == "protocol.segment_and_analyze"),
        "protocol.score_s": total["protocol.run_instance_from_counts"],
        "protocol.instances": instances,
        "protocol.calibrations_per_instance": ratio(fits_in_analyze, instances),
        "protocol.plan_entanglement_s": total["protocol.plan_entanglement"],
        "protocol.achievable_rth_s": total["protocol.achievable_rth"],
        "geometry.region_size_s": total["geometry.region_size"],
        "geometry.region_size_calls": calls["geometry.region_size"],
        "geometry.advantage_s": total["geometry.quantum_advantage"],
        "geometry.advantage_calls": calls["geometry.quantum_advantage"],
    }
    for dim in (1, 2, 3):
        out[f"geometry.advantage_{dim}d_s"] = adv_by_dim[dim]
    for cmd in COMMANDS:
        out[f"cli.{cmd}_self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name == f"cli.{cmd}")
    return out


def bound_objects() -> dict[str, object]:
    """The object each site's name is bound to right now."""
    out = {}
    for module_name, attr, _, _ in SITES:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out[f"{module_name}.{attr}"] = getattr(module, attr)
    return out
