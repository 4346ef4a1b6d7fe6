"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wvlab import runner, scenario  # noqa: E402

GENERATORS = [
    lambda seed: gen.wv_timeline(seed, 3, 30, 4),
    lambda seed: gen.strong_dense(seed, 3, 8, 3),
    lambda seed: gen.strong_sparse(seed, 3, 12, 4),
    lambda seed: gen.weak_disturbance(seed, 3, 3, 8, 2, 3),
    lambda seed: gen.rejected("non-projector-site", seed),
]


@pytest.mark.parametrize("make", GENERATORS)
def test_generator_is_deterministic_per_seed(make):
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert json.dumps(make(7)) != json.dumps(make(8))


@pytest.mark.parametrize("make", GENERATORS[:4])
def test_generated_dicts_load_and_predict_the_checksum(make):
    d = make(5)
    assert scenario.from_dict(d).checksum == gen.checksum(d)


@pytest.mark.parametrize("name", gen.BUILTINS)
def test_rebuilt_three_path_family_matches_builtins(name):
    assert gen.checksum(gen.builtin_dict(name)) == scenario.builtin(name).checksum


def _op(sc, ref, mode, perturb=lambda rep: rep):
    fn = runner.run_pointers if mode == "run" else runner.run_weak_values
    return workloads.Op("op", "g", lambda: perturb(fn(sc)),
                        lambda rep: checks.check(checks.view_of_report(rep), ref, mode))


def test_perturbed_results_count_as_failed_and_do_not_abort():
    d = gen.wv_timeline(1, 0, 10, 3)
    sc, ref = scenario.from_dict(d), checks.Reference(d)

    def nudge_weak_value(rep):
        rows = list(rep.weak_values)
        rows[3] = dataclasses.replace(rows[3], value=rows[3].value + 1e-7)
        return dataclasses.replace(rep, weak_values=tuple(rows))

    def boom():
        raise RuntimeError("boom")

    ops = [_op(sc, ref, "weak-values"), _op(sc, ref, "weak-values", nudge_weak_value),
           workloads.Op("raises", "g", boom, lambda out: [])]
    m = run.measure(ops, 0)
    assert (m.attempted, m.failed) == (3, 2)


def test_perturbed_click_pattern_counts_as_failed():
    d = gen.strong_sparse(2, 0, 8, 3)
    sc, ref = scenario.from_dict(d), checks.Reference(d, pointers=True)

    def drop_pattern(rep):
        patterns = dict(rep.patterns)
        patterns.pop(next(iter(patterns)))
        return dataclasses.replace(rep, patterns=patterns)

    m = run.measure([_op(sc, ref, "run"), _op(sc, ref, "run", drop_pattern)], 0)
    assert (m.attempted, m.failed) == (2, 1)


def test_self_time_on_a_hand_built_span_tree():
    # root 0 [0,100] holds 1 [10,40] (which holds 2 [15,25]) and 3 [50,90];
    # rows arrive in the order spans close.
    ids, parents = [2, 1, 3, 0], [1, 0, 0, -1]
    starts, ends = [15, 10, 50, 0], [25, 40, 90, 100]
    self_ns = dict(zip(ids, spans.self_times(ids, parents, starts, ends).tolist()))
    assert self_ns == {0: 30, 1: 20, 2: 10, 3: 40}
    assert sum(self_ns.values()) == 100


def test_tracer_wraps_lookup_names_and_restores_them():
    original = runner.weak_value
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert runner.weak_value is not original
        with tracer.root(0):
            runner.disturbance_table(scenario.builtin("three-path-fig2"))
    assert runner.weak_value is original
    row = spans.per_op(tracer)[0]
    # 7 sites plus two 3-site sum rules; O and O' vanish, so two reruns.
    assert row["calls"]["twosv.weak_value"] == 13
    assert row["counters"][spans.RERUN_COUNTER] == 2
    assert row["calls"]["runner._simulate"] == 2
    assert 0 <= sum(row["self_ns"].values()) <= row["wall_ns"]


def test_dephasing_oracle_reproduces_fig1_and_fig2_clicks():
    fig1 = oracle.pointer_run(oracle.Model(gen.builtin_dict("three-path-fig1")))
    assert fig1["clicks"] == pytest.approx({"D": 1.0, "O": 0.0}, abs=1e-12)
    fig2 = oracle.pointer_run(oracle.Model(gen.builtin_dict("three-path-fig2")))
    rep = runner.run_pointers(scenario.builtin("three-path-fig2"))
    assert fig2["clicks"] == pytest.approx(rep.clicks, abs=1e-12)
    assert fig2["probability"] == pytest.approx(rep.postselection_probability, abs=1e-12)


def test_text_and_json_views_agree_with_the_report():
    from wvlab import cli

    rep = runner.run_pointers(scenario.builtin("three-path-fig2"))
    ref = checks.Reference(gen.builtin_dict("three-path-fig2"), pointers=True)
    for text, fmt in ((cli.render_text(rep), "text"),
                      (json.dumps(runner.report_to_dict(rep)), "json")):
        assert checks.check(checks.view_of_output(text, fmt), ref, "run") == []


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_latencies_scale_by_the_kernel_time_around_each_run():
    ops = [workloads.Op("a", "g", lambda: None, lambda out: []),
           workloads.Op("b", "g", lambda: None, lambda out: [])]
    m = run.Measurement(ops)
    ref = run.REF_KERNEL_MS / 1e3
    # The host runs at half speed: the kernel and every op take twice as long.
    for _ in range(4):
        m.record(0, 0.020, 2 * ref, [])
        m.record(1, 0.100, 2 * ref, [])
    assert m.op_ms(scaled=False) == pytest.approx([20.0, 100.0])
    assert m.op_ms() == pytest.approx([10.0, 50.0])
    assert m.kernel_ms() == pytest.approx(2 * run.REF_KERNEL_MS)
