"""corpus-backtrack: closed-loop text -> tree over generated programs.

One caller parses a seeded batch of 10-60 unit programs for the three
PEG-mode grammars, where speculation is the dominant parser layer, once
each.
Every document's spanned-tree digest is checked against the committed
reference after its timed parse.
"""

from __future__ import annotations

import time

from pb import harness, inputs, spans

#: Documents per (grammar, size) per second of ``--seconds``; the work
#: is fixed so every run has the same size mix and sample count.
PICKS_PER_SECOND = 0.25


def _load_batch(ctx, picks):
    refs = inputs.load_refs("corpus")
    batch = []
    for entry in inputs.corpus_batch(ctx.seed, picks):
        text = inputs.generate(entry["grammar"], entry["units"],
                               entry["gen_seed"])
        ref = refs[entry["key"]]
        if inputs.digest(text) != ref["text"]:
            raise RuntimeError("generated input %s differs from its reference"
                               % entry["key"])
        batch.append((entry, text, ref))
    return batch


def _check(ctx, entry, tree, ref) -> None:
    ctx.attempt(inputs.digest(tree.to_spanned_sexpr()) == ref["digest"],
                "wrong tree for %s" % entry["key"])


def run(ctx) -> None:
    if ctx.trace:
        run_traced(ctx, _load_batch(ctx, 1))
    else:
        picks = max(1, int(round(ctx.seconds * PICKS_PER_SECOND)))
        run_untraced(ctx, _load_batch(ctx, min(picks, inputs.CORPUS_VARIANTS)))


def run_untraced(ctx, batch) -> None:
    latencies, starts, rates = [], [], []
    for entry, text, ref in batch:
        host = ctx.hosts[entry["grammar"]]
        ctx.cal.tick()
        started = time.perf_counter()
        try:
            tree = host.parse(host.tokenize(text))
        except Exception as e:  # any exception is a failed operation
            ctx.attempt(False, "%s: %r" % (entry["key"], e))
            continue
        latencies.append(time.perf_counter() - started)
        starts.append(started)
        rates.append((ref["tokens"], [(latencies[-1], started)]))
        _check(ctx, entry, tree, ref)
    # Tokens per second, median over documents: every run has the same
    # size mix, and a median moves little with a few slow documents.
    ctx.report(latencies, starts, rates)
    ctx.details["documents"] = len(batch)


def run_traced(ctx, batch) -> None:
    """One pass over the batch.  Each document is parsed untraced (the
    tracing-overhead baseline), traced layer by layer, and twice more
    without telemetry, with and without tree building.  Collector pauses
    are a layer of their own (``gc.collect`` spans) and are left out of
    these paired timings."""
    from repro.runtime.parser import ParserOptions
    from repro.runtime.token_stream import ListTokenStream

    tracer = ctx.tracer
    tel = spans.make_span_telemetry(tracer)
    untraced = traced = build_on = build_off = 0.0
    chars = tokens = nodes = 0
    for i, (entry, text, ref) in enumerate(batch):
        host = ctx.hosts[entry["grammar"]]
        started = time.perf_counter()
        host.parse(host.tokenize(text))
        untraced += ctx.gc.busy(started)

        with tracer.span("corpus.doc", unit="doc-%d" % i) as doc:
            with tracer.span("lexgen.tokenize"):
                toks = list(host.lexer_spec.tokenizer(text))
            with tracer.span("token_stream.build"):
                stream = ListTokenStream(toks, source=text)
            with tracer.span("parser.parse"):
                tree = host.parse(stream, options=ParserOptions(telemetry=tel))
        traced += harness.busy(ctx, doc)
        with tracer.span("trees.serialize", unit="doc-%d" % i):
            sexpr = tree.to_spanned_sexpr()
        ctx.attempt(inputs.digest(sexpr) == ref["digest"],
                    "wrong tree for %s" % entry["key"])
        chars += len(text)
        tokens += ref["tokens"]
        nodes += harness.count_nodes(tree)

        started = time.perf_counter()
        host.parse(ListTokenStream(toks, source=text),
                   options=ParserOptions(build_tree=False))
        build_off += ctx.gc.busy(started)
        started = time.perf_counter()
        host.parse(ListTokenStream(toks, source=text))
        build_on += ctx.gc.busy(started)

    layers = harness.parser_layer_metrics(ctx, tel)
    layers.update(harness.span_layer_metrics(tracer, chars))
    build = build_on - build_off
    layers.update({
        "lexgen.tokens": tokens, "trees.nodes": nodes, "trees.build_s": build,
        "parser.walk_s": layers["parser.parse_s"]
        - layers["parser.speculation_s"] - build,
        "trace.overhead_ratio": traced / untraced - 1.0,
    })
    ctx.layers.update(layers)
    ctx.details.update(documents=len(batch), untraced_s=untraced,
                       traced_s=traced)
