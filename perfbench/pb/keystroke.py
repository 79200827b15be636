"""keystroke-edit: closed-loop edit scripts over open ``EditSession``s.

One editor keeps four 60-unit ``java`` and four 60-unit ``csharp``
documents open and works through seeded edit scripts on them, three
csharp scripts for each java one.  Identifier replacements keep a
document valid; bursts delete a word a character at a time and type it
back, so relexing, subtree reuse and error recovery all run; each script
ends by undoing its replacements.  At each checkpoint (after a burst's
deletions, after the replacements) the incremental tree must equal the
committed from-scratch digest, and after the last edit the original
document's.
"""

from __future__ import annotations

import time

from pb import harness, inputs, spans

#: Rounds (one java script and its csharp scripts) per second of
#: ``--seconds``; the work is fixed so every run has the same mix.
ROUNDS_PER_SECOND = 0.55
#: Rounds in a traced run.
TRACED_ROUNDS = 2


class Document:
    """One open document, its session(s) and its script references."""

    def __init__(self, ctx, spec: dict, ref: dict, telemetry=None):
        from repro.runtime.incremental import EditSession

        self.key = spec["key"]
        host = ctx.hosts[spec["grammar"]]
        self.original = inputs.generate(spec["grammar"], spec["units"],
                                        spec["gen_seed"])
        if inputs.digest(self.original) != ref["text"]:
            raise RuntimeError("generated document %s differs from its "
                               "reference" % self.key)
        self.ref = ref
        self.tokens = host.tokenize(self.original).tokens()[:-1]
        self.id_type = host.grammar.vocabulary.type_of("ID")
        self.broken = False
        self.session = EditSession(host, self.original)
        self.traced = (EditSession(host, self.original, telemetry=telemetry)
                       if telemetry is not None else None)

    def script(self, index: int):
        edits, checkpoints = inputs.make_script(self.tokens, self.id_type,
                                                self.key, index)
        ref = self.ref["scripts"][index]
        if len(edits) != ref["edits"]:
            raise RuntimeError("script %s#%d differs from its reference"
                               % (self.key, index))
        expected = dict(zip(checkpoints, ref["checkpoints"]))
        expected[len(edits) - 1] = self.ref["tree"]
        return edits, expected


def _run_script(ctx, doc, index, latencies, starts, tracer=None, tel=None,
                acc=None):
    edits, expected = doc.script(index)
    for i, edit in enumerate(edits):
        ctx.cal.maybe_tick()
        started = time.perf_counter()
        starts.append(started)
        try:
            doc.session.edit(*edit)
        except Exception as e:  # any exception is a failed operation
            starts.pop()
            ctx.attempt(False, "%s: %r" % (doc.key, e))
            doc.broken = True
            return
        # Traced runs compare like with like: collector pauses are their
        # own layer there.
        latencies.append(ctx.gc.busy(started) if tracer is not None
                         else time.perf_counter() - started)
        if tracer is not None:
            _traced_edit(ctx, doc, edit, tracer, tel, acc)
        want = expected.get(i)
        ok = want is None or inputs.digest(doc.session.to_spanned_sexpr()) == want
        ctx.attempt(ok, "%s script %d edit %d: tree differs from reference"
                    % (doc.key, index, i))
        if not ok:
            doc.broken = True
            return


def _traced_edit(ctx, doc, edit, tracer, tel, acc):
    from repro.runtime.token_stream import ListTokenStream

    before = harness.parser_counters(tel)
    with tracer.span("keystroke.edit", unit="edit-%d" % acc["edits"]):
        with tracer.span("incremental.edit") as span:
            doc.traced.edit(*edit)
        # The session rebuilds its token stream on every edit; rebuild
        # the same list once more to time that layer on its own.
        with tracer.span("token_stream.build"):
            ListTokenStream(doc.traced.tokens(), source=doc.traced.text)
    acc["edit_s"] += harness.busy(ctx, span)
    after = harness.parser_counters(tel)
    st = doc.traced.stats
    acc["edits"] += 1
    acc["relexed"] += st.relexed_chars
    acc["reused"] += st.reused_tokens
    acc["total"] += st.total_tokens
    acc["rules"] += after["rule_invocations"] - before["rule_invocations"]
    acc["predictions"] += after["predictions"] - before["predictions"]


def _open(ctx, telemetry=None):
    """The open documents and the run's plan of scripts."""
    refs = inputs.load_refs("keystroke")
    rounds = (TRACED_ROUNDS if ctx.trace
              else max(1, int(round(ctx.seconds * ROUNDS_PER_SECOND))))
    docs = {spec["key"]: Document(ctx, spec, refs[spec["key"]], telemetry)
            for spec in inputs.edit_docs()}
    return docs, rounds, inputs.edit_plan(ctx.seed, rounds, refs)


def run(ctx) -> None:
    (run_traced if ctx.trace else run_untraced)(ctx)


def run_untraced(ctx) -> None:
    docs, rounds, plan = _open(ctx)
    latencies, starts = [], []
    for key, index in plan:
        if not docs[key].broken:
            _run_script(ctx, docs[key], index, latencies, starts)
    # Edits per second of edit time over the whole run: the plan draws
    # every document's scripts from all of its cost bands.
    ctx.report(latencies, starts,
               [(len(latencies), list(zip(latencies, starts)))])
    ctx.details.update(rounds=rounds, scripts=len(plan))


def run_traced(ctx) -> None:
    """TRACED_ROUNDS rounds.  Every edit goes to an untraced session (the
    overhead baseline) and to a traced twin session."""
    tracer = ctx.tracer
    tel = spans.make_span_telemetry(tracer)
    docs, _rounds, plan = _open(ctx, telemetry=tel)
    latencies, starts = [], []
    acc = {"edits": 0, "relexed": 0, "reused": 0, "total": 0, "rules": 0,
           "predictions": 0, "edit_s": 0.0}
    for key, index in plan:
        if not docs[key].broken:
            _run_script(ctx, docs[key], index, latencies, starts, tracer, tel,
                        acc)
    layers = harness.parser_layer_metrics(ctx, tel)
    layers.update(harness.span_layer_metrics(tracer, 0))
    n = max(acc["edits"], 1)
    layers.update({
        "incremental.edit_s": acc["edit_s"],
        "incremental.relexed_chars_per_edit": acc["relexed"] / n,
        "incremental.reuse_ratio": acc["reused"] / max(acc["total"], 1),
        "incremental.rule_invocations_per_edit": acc["rules"] / n,
        "incremental.predictions_per_edit": acc["predictions"] / n,
        "parser.walk_s": acc["edit_s"] - layers["parser.speculation_s"],
        "trace.overhead_ratio": acc["edit_s"] / sum(latencies) - 1.0,
    })
    ctx.layers.update(layers)
    ctx.details.update(edits=acc["edits"])
