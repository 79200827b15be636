"""Fast fixture tests of the benchmark's own arithmetic and accounting.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import env, harness, inputs, serve, spans, stats  # noqa: E402


# -- tail percentile selection -----------------------------------------------


@pytest.mark.parametrize("n, pct", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_leaves_at_least_ten_samples_strictly_above():
    for n in range(20, 3000, 7):
        pct = stats.tail_percentile(n)
        values = list(range(n))
        tail = stats.percentile(values, pct)
        assert sum(1 for v in values if v > tail) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        if higher:
            above = stats.percentile(values, higher[0])
            assert sum(1 for v in values if v > above) < stats.MIN_BEYOND


def test_latency_summary_reports_percentile_and_count():
    summary = stats.latency_summary([i / 1000.0 for i in range(1, 201)])
    assert summary["n"] == 200 and summary["tail_pct"] == 95.0
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["tail_ms"] == pytest.approx(190.0)
    with pytest.raises(ValueError):
        stats.latency_summary([0.1] * 5)


# -- span self time ------------------------------------------------------------


def _span(name, start, end, parent):
    s = spans.Span(name, start, parent, "u")
    s.end = end
    return s


def test_self_time_subtracts_children_and_handles_nesting():
    recorded = [
        _span("doc", 0.0, 10.0, -1),               # 0
        _span("parse", 1.0, 9.0, 0),               # 1
        _span(spans.SPECULATION, 2.0, 5.0, 1),     # 2 outermost
        _span(spans.SPECULATION, 3.0, 4.0, 2),     # 3 nested in 2
        _span(spans.SPECULATION, 6.0, 7.0, 1),     # 4 outermost
    ]
    own = spans.self_times(recorded)
    assert own["doc"] == pytest.approx(2.0)
    assert own["parse"] == pytest.approx(4.0)
    # Nested speculation is counted once: 3 + 1 seconds, not 3 + 1 + 1.
    assert own[spans.SPECULATION] == pytest.approx(4.0)
    assert spans.outermost(recorded, spans.SPECULATION) == [2, 4]


def test_self_time_counts_overlapping_children_once():
    recorded = [_span("request", 0.0, 10.0, -1),
                _span("a", 1.0, 6.0, 0), _span("b", 4.0, 8.0, 0)]
    assert spans.self_times(recorded)["request"] == pytest.approx(3.0)


def test_tracer_links_parents_and_units():
    tracer = spans.Tracer()
    with tracer.span("root", unit="doc-1"):
        with tracer.span("child"):
            pass
    root, child = tracer.spans
    assert child.parent == 0 and child.unit == "doc-1" and root.parent == -1
    assert tracer.self_times()["root"] <= root.duration


# -- open-loop timing ------------------------------------------------------------


class _Response:
    def __init__(self, status=200, body=None):
        self.status = status
        self.body = body or {}


class _BlockingService:
    """Holds the event loop for ``block`` seconds per request, as a
    request that computes on the loop thread would."""

    def __init__(self, block):
        self.block = block

    async def handle(self, method, path, body):
        time.sleep(self.block)
        return _Response()


def test_open_loop_times_from_scheduled_send():
    reqs = [{"body": b""} for _ in range(4)]
    schedule = [0.0, 0.01, 0.02, 0.03]
    results = asyncio.run(serve.open_loop(_BlockingService(0.05), reqs,
                                          schedule))
    dues = [r[0] for r in results]
    assert [round(d - dues[0], 6) for d in dues] == pytest.approx(schedule)
    for due, sent, done, _resp in results:
        assert sent >= due - 1e-3 and done >= sent
    # The first request holds the loop for 50 ms, so the second (due at
    # 10 ms) goes out about 40 ms late ...
    due, sent, _done, _ = results[1]
    assert sent - due > 0.03
    # ... and the last, due at 30 ms, finishes behind four 50 ms holds:
    # its latency counts from when it was due, not from when it was sent.
    due, sent, done, _ = results[-1]
    assert done - due >= 4 * 0.05 - 0.03 - 1e-3


# -- failed-ratio accounting --------------------------------------------------------


def _ctx():
    return harness.Context(1, 1.0, False, {}, "")


def test_over_limit_and_shed_requests_count_as_failed():
    refs = {"k": {"tree": inputs.digest("(x)")}}
    valid = {"key": "k", "invalid": False}
    tree = {"ok": True, "tree": "(x)"}
    limit = serve.LIMIT_MS / 1e3
    results = [
        (0.0, 0.0, limit / 2, _Response(200, tree)),        # fine
        (0.0, 0.0, limit * 2, _Response(200, tree)),        # too late
        (0.0, 0.0, 0.001, _Response(429, {"ok": False})),   # shed
        (0.0, 0.0, 0.001, _Response(200, {"ok": True, "tree": "(y)"})),
    ]
    ctx = _ctx()
    latencies = serve.account(ctx, [valid] * 4, results, refs)
    assert latencies == [limit / 2, limit * 2, 0.001, 0.001]
    assert (ctx.attempted, ctx.failed, ctx.wrong) == (4, 3, 1)
    assert stats.failed_ratio(ctx.attempted, ctx.failed) == 0.75


def test_invalid_request_must_be_rejected_with_recognition_error():
    req = {"key": "k", "invalid": True}
    assert serve.check(req, _Response(200, {"ok": False,
                                           "error_type": "RecognitionError"}),
                       {})[0]
    assert not serve.check(req, _Response(200, {"ok": True, "tree": "()"}),
                           {})[0]


class _EchoService:
    def __init__(self):
        self.inflight = self.peak = 0

    async def handle(self, method, path, body):
        self.inflight += 1
        self.peak = max(self.peak, self.inflight)
        await asyncio.sleep(0.001)
        self.inflight -= 1
        return _Response(200, {"body": body})


def test_closed_loop_keeps_one_request_per_client_outstanding():
    service = _EchoService()
    reqs = [{"body": i} for i in range(20)]
    results = asyncio.run(serve.closed_loop(service, reqs, 3))
    assert [r.body["body"] for _done, r in results] == list(range(20))
    assert service.peak == 3


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_calibrator_scales_by_the_local_machine_speed():
    clock = _Clock()
    cal = env.Calibrator(clock=clock)
    ref = cal.REFERENCE_S
    # At t=0 the loop ran at reference speed, at t=10 twice as slowly.
    cal.ticks = [(0.0, ref), (0.5, ref), (10.0, 2 * ref), (10.5, 2 * ref)]
    assert cal.scale(0.2) == pytest.approx(1.0)
    assert cal.scale(10.2) == pytest.approx(0.5)
    # A 40 ms operation during the slow stretch reads as 20 ms.
    assert 0.040 * cal.scale(10.2) == pytest.approx(0.020)
    # Far from every tick, all ticks count.
    assert cal.scale(100.0) == pytest.approx(ref / (1.5 * ref))


def test_report_scales_latencies_and_rates():
    ctx = _ctx()
    ref = ctx.cal.REFERENCE_S
    ctx.cal.ticks = [(0.0, 2 * ref)]  # the whole run at half speed
    latencies = [0.010 * (i + 1) for i in range(20)]
    ctx.report(latencies, [0.0] * 20, [(100, [(1.5, 0.0), (0.5, 0.0)])])
    assert ctx.e2e["op_p50_ms"] == pytest.approx(50.0)
    assert ctx.details["raw"]["op_p50_ms"] == pytest.approx(100.0)
    assert ctx.e2e["throughput_per_s"] == pytest.approx(100.0)
    assert ctx.details["raw"]["throughput_per_s"] == pytest.approx(50.0)


# -- compare mode --------------------------------------------------------------


def test_compare_needs_nine_of_ten_wins_and_a_gap_beyond_parent_iqr():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    assert stats.compare_metric(parent, faster, "lower", 0.1)["verdict"] == "gain"
    mixed = [p * (0.8 if i % 2 else 1.1) for i, p in enumerate(parent)]
    assert stats.compare_metric(parent, mixed, "lower", 0.2)["verdict"] != "gain"
    slower = [p * 1.2 for p in parent]
    assert stats.compare_metric(parent, slower, "lower", 0.1)["verdict"] == "regression"
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    assert stats.compare_metric(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"


# -- seeded inputs -------------------------------------------------------------


def _fake_keystroke_refs():
    return {d["key"]: {"scripts": [{"cost": 100 - j}
                                   for j in range(inputs.EDIT_SCRIPTS)]}
            for d in inputs.edit_docs()}


def test_edit_plan_draws_one_script_per_cost_band():
    refs = _fake_keystroke_refs()
    plan = inputs.edit_plan(7, 8, refs)
    assert plan == inputs.edit_plan(7, 8, refs)
    assert len(plan) == 8 * (1 + inputs.EDIT_CSHARP_PER_JAVA)
    for key in refs:
        picks = [j for k, j in plan if k == key]
        # Cost falls with the index, so band b holds the highest indices.
        ranked = sorted(range(inputs.EDIT_SCRIPTS), reverse=True)
        n = len(picks)
        bands = [set(ranked[len(ranked) * b // n:len(ranked) * (b + 1) // n])
                 for b in range(n)]
        assert sorted(sum(p in band for p in picks) for band in bands) == [1] * n


def test_serve_requests_send_every_member_equally_often():
    refs = {"sql/%d" % i: {"deletion": [0, 1]} for i in range(20)}
    texts = {k: "abc" for k in refs}
    reqs = inputs.serve_requests(3, 2, refs, texts)
    assert sorted(r["key"] for r in reqs) == sorted(list(refs) * 2)
    assert sum(r["invalid"] for r in reqs) == 4
    assert all(r["text"] == ("bc" if r["invalid"] else "abc") for r in reqs)
    other = inputs.serve_requests(4, 2, refs, texts)
    assert [r["key"] for r in other] != [r["key"] for r in reqs]
    assert sorted((r["key"], r["invalid"]) for r in other) == \
        sorted((r["key"], r["invalid"]) for r in reqs)
