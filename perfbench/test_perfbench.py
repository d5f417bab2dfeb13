"""Tests of the benchmark itself: its gate, its inputs and its counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from causal_kernel import load_model  # noqa: E402
from causal_kernel.expr import eval_expr, parse, pretty  # noqa: E402

OFF = Tracer(enabled=False)


@pytest.fixture
def small_gns():
    """The sequential workload at max_len 2, so that an op takes milliseconds."""
    w = workloads.make(ROOT, "gns-sequential-L5", seed=3)
    w.max_len = 2
    return w


def _gns_capture(w, k=0):
    return w.capture(k, w.op(k, OFF), 0)


# ----------------------------------------------------------------------
# the gate catches perturbed results

def test_gns_gate_passes_unperturbed(small_gns):
    for k in range(len(small_gns.texts)):
        assert small_gns.check(_gns_capture(small_gns, k)) == []


@pytest.mark.parametrize("field,delta", [("quotientDim", 1), ("nullRank", -1),
                                         ("basisSize", 1)])
def test_gns_gate_catches_perturbed_report(small_gns, field, delta):
    cap = _gns_capture(small_gns)
    cap["result"] = dict(cap["result"], **{field: cap["result"][field] + delta})
    assert small_gns.check(cap)


def test_gns_gate_catches_perturbed_gram_entry(small_gns):
    cap = _gns_capture(small_gns)
    wa, wb, value, ref = cap["gram"][0]
    cap["gram"][0] = (wa, wb, value + 1e-8, ref)
    assert small_gns.check(cap)


def test_traced_decomposition_matches_build_gns(small_gns):
    plain = _gns_capture(small_gns)
    tracer = Tracer()
    traced = small_gns.capture(0, small_gns.op(0, tracer), 0)
    assert traced["result"] == plain["result"]
    assert small_gns.check(traced) == []
    names = {sp.name for sp in tracer.spans}
    assert {"gns.gram", "gns.null_space", "gns.check_left_ideal"} <= names


def test_verify_gate_catches_failed_report():
    w = workloads.make(ROOT, "verify-mix", seed=3)
    arg = w.prepare(0)
    cap = w.capture(arg, w.op(arg, OFF), 0)
    assert w.check(cap) == []
    failed = copy.deepcopy(cap["result"])
    failed["passed"] = False
    failed["properties"]["positivity"]["passed"] = False
    assert w.check(dict(cap, result=failed, first=failed))
    assert w.check(dict(cap, result=failed))


def test_eval_gate_catches_perturbed_values():
    w = workloads.make(ROOT, "eval-stream", seed=3)
    records, first_arg, _ = run.run_loop(w, Tracer(enabled=False), seconds=0, trace=False)
    for i in range(1, 600):
        arg = w.prepare(i)
        assert w.check(w.capture(arg, w.op(arg, OFF), i)) == []
    assert run.gate(w, records, first_arg) == {}
    assert w.repeats, "about half the requests repeat an earlier one"
    key = min(w.elements)
    m, p_terms, q_terms, value = w.elements[key]
    w.elements[key] = (m, p_terms, q_terms, value + 1e-6)
    assert key in w.oracle_failures()
    arg = w.prepare(600)
    cap = w.capture(arg, w.op(arg, OFF), 600)
    assert w.check(dict(cap, result=cap["first"] + 1e-9))


def test_gate_counts_raised_ops_and_runs_the_determinism_check(small_gns):
    records = [run.Record(False, 0.1, None), run.Record(False, 0.1, "ValueError: boom")]
    small_gns.capture(0, small_gns.op(0, OFF), 0)
    assert list(run.gate(small_gns, records, 0)) == [1]
    small_gns.firsts[0] = dict(small_gns.firsts[0], nullRank=-1)
    small_gns.repeats = 0
    assert "determinism" in run.gate(small_gns, records, 0)


# ----------------------------------------------------------------------
# generated expressions follow the README grammar

@pytest.mark.parametrize("seed", range(5))
def test_generated_expressions_are_grammar_valid(seed):
    models = [load_model(ROOT / inputs.MODEL_DIR / n) for n in inputs.ALL_MODELS]
    stream = inputs.RequestStream(seed, [m.symbols for m in models])
    for _ in range(300):
        m, b, a, _ = stream.next()
        model = models[m]
        for text in (b, a):
            assert not text.lstrip().startswith("-")
            ast = parse(text)
            assert parse(pretty(ast)) == ast
            elem = eval_expr(ast, model.symbols, model.algebra)
            assert elem.word_length() <= inputs.EXPR_MAX_LEN


def test_about_half_the_requests_repeat():
    stream = inputs.RequestStream(5, [["x1"], ["y1"]])
    pids = [stream.next()[3] for _ in range(4000)]
    repeats = 4000 - len(set(pids))
    assert 0.45 < repeats / 4000 < 0.55


# ----------------------------------------------------------------------
# the same seed gives the same inputs and the same counts

def test_same_seed_same_inputs():
    for name in ("gns-control-L2", "gns-sequential-L5"):
        assert inputs.gns_inputs(ROOT, name, 7) == inputs.gns_inputs(ROOT, name, 7)
        assert inputs.gns_inputs(ROOT, name, 7) != inputs.gns_inputs(ROOT, name, 8)
    names = [["x1", "x2", "y1"], ["u1", "v2"]]
    first = [inputs.RequestStream(7, names).next() for _ in range(1)]
    s1, s2 = inputs.RequestStream(7, names), inputs.RequestStream(7, names)
    assert [s1.next() for _ in range(200)] == [s2.next() for _ in range(200)]
    assert first[0] == inputs.RequestStream(7, names).next()
    v1, v2 = workloads.make(ROOT, "verify-mix", 7), workloads.make(ROOT, "verify-mix", 7)
    assert [v1.prepare(i)[2] for i in range(5)] == [v2.prepare(i)[2] for i in range(5)]


@pytest.mark.parametrize("name,max_len", [("gns-control-L2", 1),
                                          ("gns-sequential-L5", 2)])
def test_variant_models_pass_the_gate(name, max_len):
    for seed in range(4):
        w = workloads.make(ROOT, name, seed)
        w.max_len = max_len
        for k in range(len(w.texts)):
            assert w.check(_gns_capture(w, k)) == []


def test_exact_counts_repeat(small_gns):
    a = small_gns.counts(_gns_capture(small_gns))
    b = small_gns.counts(_gns_capture(small_gns))
    assert a == b
    counts = {k: v for k, v in layers.replay_switch_l2(ROOT, 1).items() if not k.endswith("_s")}
    again = {k: v for k, v in layers.replay_switch_l2(ROOT, 1).items() if not k.endswith("_s")}
    assert counts == again
    assert counts["algebra.multiply_calls"] == 31140
    assert counts["states.distinct_words"] == 20629
    assert layers.verify_call_counts() == {"axiom": 200, "random_element": 600,
                                           "eval_bilinear": 1000, "oracle": 50}


def test_tail_is_a_nearest_rank_percentile():
    xs = [float(i) for i in range(100, 0, -1)]
    assert run.tail(xs, 90.0) == (90.0, 10)
    assert run.tail(xs, 99.9) == (100.0, 0)
    assert run.tail([3.0, 1.0, 2.0], 50.0) == (2.0, 1)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOAD_NAMES)
