"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json

import pytest

import run
import tracing
import workloads as W


@pytest.fixture(scope="module")
def lab():
    return W.import_ifslab(run.SRC)


def _span(fid, start, end, parent, work=None):
    return [fid, start, end, parent, 0, work]


def test_self_times_subtract_direct_children_only():
    # a [0,10] -> b [1,4] -> c [2,3]; a -> d [5,9]
    spans = [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1),
             _span(3, 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_stats_sum_self_time_per_module():
    names = ["addresses.classify_point", "geometry.contains", "core.apply_inverse"]
    stats = tracing.LayerStats(names)
    stats.fold([
        _span(0, 0.0, 10.0, -1, (7, False)),
        _span(2, 1.0, 2.0, 0),
        _span(1, 2.0, 4.0, 0, (False, True)),
        _span(1, 4.0, 5.0, 0, (False, False)),
    ])
    assert stats.self_s == [6.0, 3.0, 1.0]
    assert stats.c["addr_tests"] == 2 and stats.c["addr_children"] == 1
    assert stats.c["nodes"] == 7 and stats.c["nodes_s"] == 10.0


def test_rebinding_reaches_imported_names(lab):
    sys_ = lab.core.new_ifs(0.7, W.RIGHT_TRIANGLE)
    original = lab.addresses.contains
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lab.addresses.contains is not original
        lab.addresses.classify_point(sys_, (0.3, 0.4), 5)
    finally:
        tracer.uninstall()
    assert lab.addresses.contains is original
    spans = tracer.take()
    names = [tracer.names[s[0]] for s in spans]
    assert names[0] == "addresses.classify_point"
    children = [tracer.names[s[0]] for s in spans if s[3] == 0]
    assert "geometry.contains" in children and "core.apply_inverse" in children


@pytest.mark.parametrize("workload", list(W.GENERATORS))
def test_generation_is_deterministic_per_seed(workload):
    a = W.generate(workload, 7)
    assert a == W.generate(workload, 7)
    assert a != W.generate(workload, 8)
    assert len(a) >= 100


def test_injected_wrong_verdict_is_counted(lab, tmp_path):
    requests = W.generate("point-queries", 3)[:60]
    env = W.setup(lab, "point-queries", requests, tmp_path)
    target = next(p for k, p in requests if k == "classify-tri07")
    A = lab.addresses
    real = A.classify_point

    def wrong(sys_, x, *args, **kwargs):
        rep = real(sys_, x, *args, **kwargs)
        if tuple(x) == target:
            rep.verdict = A.Verdict.UNKNOWN
        return rep

    A.classify_point = wrong
    try:
        _, summaries, _ = run.run_pass(env, requests)
    finally:
        A.classify_point = real
    failures = run.check(env, requests, summaries)
    assert [requests[i][1] for i, _, _ in failures] == [target]


def test_raising_request_is_a_failure(lab, tmp_path):
    requests = [("classify-tri07", (2.0, 2.0))]  # outside Omega: the program raises
    env = W.setup(lab, "point-queries", requests, tmp_path)
    _, summaries, _ = run.run_pass(env, requests)
    assert isinstance(summaries[0], run.Raised)
    assert len(run.check(env, requests, summaries)) == 1


@pytest.mark.parametrize("workload", list(W.GENERATORS))
def test_digests_repeat_and_checks_pass(lab, tmp_path, workload):
    requests = W.WARMUP[workload]
    env = W.setup(lab, workload, requests, tmp_path)
    _, first, _ = run.run_pass(env, requests)
    _, second, _ = run.run_pass(env, requests)
    assert W.digest(first) == W.digest(second)
    assert run.check(env, requests, first) == []


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    names = ["core.new_ifs", "core.apply_inverse", "geometry.contains"]
    layer = tracing.LayerStats(names).metrics(1, 1.0, 0.0, tracing.LayerStats(names))
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
