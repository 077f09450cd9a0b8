"""Tests of the benchmark's own code: span arithmetic, patch restore, smoke runs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import Session, unit_of  # noqa: E402

from diqpv import cli  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("b", 3.0, 6.0, 0, 1),    # overlaps a on [3, 4]
        spans.Span("c", 8.0, 12.0, 0, 1),   # runs past its parent; clipped to [8, 10]
        spans.Span("a.x", 1.5, 2.0, 1, 1),
        spans.Span("empty", 5.0, 5.0, 2, 1),
    ]
    # root: children cover [1, 6] and [8, 10], 7 of its 10 s.
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5, 0.0])
    assert spans.covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 3.0), (4.0, 5.0)]) == 3.0


def test_layer_metrics_attribute_lp_solves_to_lambda_max():
    tree = [
        spans.Span("cli.plan", 0.0, 10.0, None, 1),
        spans.Span("testfactor.lambda_max", 1.0, 5.0, 0, 1),
        spans.Span("polytopes.linprog", 1.0, 2.0, 1, 1),
        spans.Span("polytopes.linprog", 2.0, 3.0, 1, 1),
        spans.Span("polytopes.linprog", 6.0, 7.0, 0, 1),
    ]
    m = spans.layer_metrics(tree, payload_bytes=0)
    assert m["polytopes.lp_solves"] == 3
    assert m["testfactor.lp_per_lambda_max"] == 2.0
    assert m["cli.plan_self_s"] == pytest.approx(5.0)
    assert m["trialdata.read_amplification"] == 0.0


def test_layer_metrics_match_the_declared_schema():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics([], payload_bytes=0)) | {"trace.overhead_frac"}
    assert produced == {m["name"] for m in declared["per_layer"]}
    assert all(unit_of(m["name"]) == m["unit"] for m in declared["per_layer"])
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}


def test_traced_call_restores_every_name(tmp_path):
    before = spans.bound_objects()
    assert len(before) == len(spans.SITES)
    tracer = spans.Tracer()
    session = Session(cli.main, tracer)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(spans.bound_objects()[k] is not v for k, v in before.items())
            session.cli(["fit", "--out", str(tmp_path / "fit.json")])
            raise RuntimeError("leave the block early")
    after = spans.bound_objects()
    assert all(after[k] is before[k] for k in before)
    assert session.problems == []
    m = spans.layer_metrics(tracer.spans, payload_bytes=0)
    assert m["estimation.ml_fit_calls"] == 1
    assert m["smooth.barrier_calls"] == 1
    assert m["cli.plan_self_s"] == 0.0


SMOKE = {
    # Tiny instances pass or fail at random, so only their consistency is checked.
    "run-realsize": dict(trials_per_file=500_000, instances=1, delta_log2=1.0,
                         epsilon=0.6, require_pass=False),
    "plan-sweep": dict(pool=1),
    "geometry-advantage": dict(mc_outer=5_000, mc_inner=50_000, mc_size=50_000),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_tiny_workload_passes_its_output_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), 3, **SMOKE[name])
    session = Session(cli.main)
    workload.setup(session)
    workload.bootstrap(session)
    workload.run_pass(session, 0)
    workload.final_checks(session)
    assert session.problems == []
    assert session.wall["cmd1"] and len(session.wall["cmd2"]) == 1
