"""What every workload shares: run context, checks, and the metric sets."""

from __future__ import annotations

import os
from typing import Dict, Optional

from pb import env, spans, stats

#: End-to-end metrics each workload reports under a name of its own; the
#: result line carries them under the workload-neutral BENCHMARK.json
#: names so every workload reports the same set.
E2E_NAMES = {
    "corpus-backtrack": {"op_p50_ms": "doc_p50_ms", "op_tail_ms": "doc_tail_ms",
                         "throughput_per_s": "parse_tokens_per_s"},
    "keystroke-edit": {"op_p50_ms": "edit_p50_ms", "op_tail_ms": "edit_tail_ms",
                       "throughput_per_s": "edits_per_s"},
    "serve-mixed": {"op_p50_ms": "req_p50_ms", "op_tail_ms": "req_tail_ms",
                    "throughput_per_s": "serve_saturation_rps"},
}
E2E_COMMON = ("setup_s", "warm_boot_ms", "peak_rss_mb")


class Context:
    """One workload run: its settings, the booted hosts, and the tallies
    of attempted and failed operations."""

    def __init__(self, seed: int, seconds: float, trace: bool, hosts: dict,
                 artifact_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.hosts = hosts
        self.artifact_dir = artifact_dir
        self.tracer: Optional[spans.Tracer] = spans.Tracer() if trace else None
        #: The run's ``env.GCMonitor``, set while the workload runs.
        self.gc = None
        self.cal = env.Calibrator()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list = []
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        #: ``raw`` holds end-to-end figures before speed scaling.
        self.details: Dict[str, object] = {"raw": {}}

    def report(self, latencies, starts, parts) -> None:
        """Set the latency metrics and ``throughput_per_s`` from raw
        per-operation ``latencies`` (seconds) that began at ``starts``,
        each scaled to the reference machine speed.  ``parts`` are
        ``(work done, [(busy seconds, began at), ...])``; the throughput
        is their median work per scaled busy second."""
        scale = self.cal.scale
        summary = stats.latency_summary(
            [lat * scale(at) for lat, at in zip(latencies, starts)])
        raw = stats.latency_summary(latencies)
        self.e2e.update(
            op_p50_ms=summary["p50_ms"], op_tail_ms=summary["tail_ms"],
            throughput_per_s=stats.median(
                [w / sum(b * scale(at) for b, at in busy) for w, busy in parts]))
        self.details["raw"].update(
            op_p50_ms=raw["p50_ms"], op_tail_ms=raw["tail_ms"],
            throughput_per_s=stats.median(
                [w / sum(b for b, _at in busy) for w, busy in parts]))
        self.details.update(tail_pct=summary["tail_pct"], samples=summary["n"])

    def attempt(self, ok: bool, what: str = "", wrong: bool = True) -> bool:
        """Count one operation; ``wrong`` marks a failure as an incorrect
        output (as opposed to one that was late or refused)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if wrong:
                self.wrong += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok


def busy(ctx, span_index: int) -> float:
    """A span's duration less the collector pauses inside it."""
    span = ctx.tracer.spans[span_index]
    return span.duration - ctx.gc.pause_between(span.start, span.end)


def parser_counters(tel) -> Dict[str, float]:
    """Per-parse counters from a ``ParseTelemetry``."""
    m = tel.metrics
    k = m.get("llstar_realized_k")
    return {
        "predictions": m.value("llstar_predictions_total"),
        "dfa_hits": m.value("llstar_dfa_hits_total"),
        "k_sum": k.sum if k is not None else 0.0,
        "rule_invocations": m.value("llstar_rule_invocations_total"),
        "synpred_invocations": m.value("llstar_synpred_invocations_total"),
        "synpred_matched": m.value("llstar_synpred_outcomes_total",
                                   {"outcome": "matched"}),
        "backtrack_predictions": m.value("llstar_backtrack_events_total"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def parser_layer_metrics(ctx, tel) -> Dict[str, float]:
    """Parser time (``parser.parse`` or ``incremental.edit`` spans), its
    outermost speculation spans, both less collector pauses, and the
    telemetry counters."""
    c = parser_counters(tel)
    recorded = ctx.tracer.spans
    parse_s = sum(busy(ctx, i) for i, s in enumerate(recorded)
                  if s.name in ("parser.parse", "incremental.edit"))
    speculation = sum(busy(ctx, i) for i in spans.outermost(
        recorded, spans.SPECULATION))
    return {
        "parser.parse_s": parse_s,
        "parser.speculation_s": speculation,
        "parser.speculation_share": _ratio(speculation, parse_s),
        "parser.predictions": c["predictions"],
        "parser.dfa_hit_ratio": _ratio(c["dfa_hits"], c["predictions"]),
        "parser.k_mean": _ratio(c["k_sum"], c["predictions"]),
        "parser.rule_invocations": c["rule_invocations"],
        "parser.synpred_invocations": c["synpred_invocations"],
        "parser.backtrack_predictions": c["backtrack_predictions"],
        "parser.synpred_match_ratio": _ratio(c["synpred_matched"],
                                             c["synpred_invocations"]),
    }


def span_layer_metrics(tracer: spans.Tracer, chars: int) -> Dict[str, float]:
    own = tracer.self_times()
    lex = own.get("lexgen.tokenize", 0.0)
    return {
        "lexgen.tokenize_s": lex,
        "lexgen.chars_per_s": _ratio(chars, lex),
        "token_stream.build_s": own.get("token_stream.build", 0.0),
        "trees.serialize_s": own.get("trees.serialize", 0.0),
    }


def count_nodes(tree) -> int:
    return sum(1 for _ in tree.walk())


def out_dir(root: str, override: Optional[str] = None) -> str:
    path = override or os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path
