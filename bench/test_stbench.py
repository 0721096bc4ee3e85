"""Tests of the benchmark's own machinery (not of stairtile)."""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from stbench import trace  # noqa: E402
from stbench.core import (REFERENCE_S, Checker, Op, Outcome,  # noqa: E402
                          at_reference_speed, digest, peak_rss_mb,
                          reset_peak_rss, run_op, run_pass)
from stbench.runner import END_TO_END, end_to_end  # noqa: E402
from stbench.workloads import WORKLOADS, Context  # noqa: E402


def _span(name, start, end, parent=-1):
    return trace.Span(name, start, end, parent, 0)


def test_self_time_subtracts_only_child_coverage():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.5, parent=0),
        # overlapping siblings are counted once, clipped to the parent
        _span("c", 8.0, 9.5, parent=0),
        _span("d", 9.0, 11.0, parent=0),
    ]
    assert trace.self_times(spans) == pytest.approx(
        [10 - (3 + 1.5 + 2), 3 - 1, 1, 1.5, 1.5, 2])


def test_traced_spans_nest_and_restore_the_library():
    import stairtile as st
    from stairtile import multiplicity

    original = multiplicity.points_in_box
    tracer = trace.Tracer()
    op = Op("tiling", lambda: st.is_exact_jfold_tiling(
        st.canonical_stair(1), st.shift_lattice(1, 1), 1), json.dumps)
    with trace.instrumented(tracer) as absent:
        outcome = tracer.run_op(op, 5.0, Checker({}))
    assert outcome.status == "ok" and not absent
    assert multiplicity.points_in_box is original
    names = [s.name for s in tracer.spans]
    assert names.count("multiplicity.multiplicity_extrema") == 1
    values = trace.layer_values(tracer, 1, [1.0])
    assert values["lattice.points_in_box.calls"] == 2
    assert values["multiplicity._exact_counts.translates"] > 0
    assert values["lattice.Lattice.constructed"] >= 1
    for span, own in zip(tracer.spans, trace.self_times(tracer.spans)):
        assert 0 <= own <= span.end - span.start


def test_a_traced_scale_op_calls_the_wrapper():
    ops = WORKLOADS["generic_scales"](0, Context(ROOT, ROOT, False))
    op = next(op for op in ops if op.name == "lambda_lower@j1:Z2")
    checker = Checker({})
    # as in a traced run: the untraced pass has run the checks already
    assert run_op(op, 10.0, checker).status == "ok"
    tracer = trace.Tracer()
    with trace.instrumented(tracer):
        outcome = tracer.run_op(op, 10.0, checker)
    assert outcome.status == "ok"
    top = [s.name for s in tracer.spans if s.parent < 0]
    assert top == ["scales.lambda"]


def test_a_removed_target_reads_absent():
    gone = ("lattice", "_no_such_function", "lattice._gone", None)
    tracer = trace.Tracer()
    with trace.instrumented(tracer, trace.TARGETS + [gone]) as absent:
        pass
    assert absent == {"lattice._gone"}
    values = trace.layer_values(tracer, 1, [])
    values.update({"import.numpy_s": 0.1, "import.stairtile_s": 0.05,
                   "trace.overhead_frac": 0.1})
    metrics = trace.layer_metrics(values, {"scales.candidate_scales"})
    assert metrics["scales.candidate_scales.candidates"]["value"] == "absent"
    assert metrics["scales.lambda.calls"]["value"] == 0


def test_timeout_is_a_failed_op():
    op = Op("sleeper", lambda: time.sleep(5), json.dumps)
    start = time.perf_counter()
    outcome = run_op(op, 0.05, Checker({}))
    assert time.perf_counter() - start < 1
    assert outcome.status == "timeout" and outcome.failed
    metrics = end_to_end([outcome], [0.2], 30.0, 0.05)
    assert metrics["op_p90_s"]["value"] == 0.05
    assert metrics["ok_frac"]["value"] == 0


def test_sweep_leaves_out_the_time_of_failed_ops():
    outcomes = [Outcome("fast", 1.0, "ok", 30.0, REFERENCE_S),
                Outcome("hung", 10.0, "timeout", 30.0, REFERENCE_S),
                Outcome("bad", 2.0, "wrong: no", 30.0, REFERENCE_S)]
    metrics = end_to_end(outcomes, [0.2], 30.0, 10.0)
    assert metrics["sweep_s"]["value"] == pytest.approx(1.0)
    assert metrics["op_p90_s"]["value"] == 10.0


def test_peak_includes_memory_freed_before_the_op_returns():
    if not reset_peak_rss():
        pytest.skip("the kernel does not allow resetting VmHWM")
    base = peak_rss_mb()

    def transient():
        block = bytearray(64 * 2**20)
        return len(block)

    outcome = run_op(Op("transient", transient, json.dumps), 5.0,
                     Checker({}))
    assert outcome.peak_mb > base + 48


def test_wrong_output_counts_as_failure():
    right = Op("two", lambda: 2, json.dumps,
               lambda r: None if r == 2 else "wrong: not two")
    wrong = Op("three", lambda: 3, json.dumps,
               lambda r: None if r == 2 else "wrong: not two")
    golden_miss = Op("four", lambda: 4, json.dumps)
    checker = Checker({"four": digest(json.dumps(5))})
    outcomes = run_pass([right, wrong, golden_miss], 5.0, checker)
    assert [o.status.split(":")[0] for o in outcomes] == ["ok", "wrong",
                                                          "wrong"]
    metrics = end_to_end(outcomes, [0.2], 30.0, 5.0)
    assert metrics["ok_frac"]["value"] == pytest.approx(1 / 3)


def test_times_are_rescaled_by_the_local_probe():
    slow = [Outcome(f"op{i}", 1.0, "ok", 30.0, 2 * REFERENCE_S)
            for i in range(30)]
    fast = [Outcome(f"op{i}", 1.0, "ok", 30.0, REFERENCE_S)
            for i in range(30, 60)]
    hung = Outcome("hung", 10.0, "timeout", 30.0, REFERENCE_S)
    scaled = at_reference_speed(slow + fast + [hung])
    assert scaled[:15] == pytest.approx([0.5] * 15)
    assert scaled[45:60] == pytest.approx([1.0] * 15)
    assert scaled[60] == 10.0  # a limit is a timer, not work


def test_benchmark_json_matches_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(name, unit) for name, unit, _ in trace.PER_LAYER])
