"""Regenerate the committed references in ``perfbench/refs/``.

    python3 perfbench/make_refs.py [corpus|keystroke|serve ...]

Each expected output is computed with the interpreter and cross-checked
before it is written: corpus and final edit documents against the
generated (codegen) parser's spanned-tree digest and the Earley
oracle's verdict; serve requests likewise, and each invalid variant must
be rejected by both the interpreter and Earley.  Keystroke checkpoints
in broken states are from-scratch ``recover=True`` parses that the
incremental session must match; valid ones are cross-checked like the
corpus.  Run it only when the inputs or the expected outputs are
meant to change; the benchmark fails on any mismatch with these files.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import inputs  # noqa: E402

_HOSTS = {}


def host(name):
    if name not in _HOSTS:
        from repro.api import compile_grammar

        _HOSTS[name] = compile_grammar(inputs.grammar_text(name))
    return _HOSTS[name]


def codegen_class(name):
    from repro.codegen import generate_python
    from repro.codegen.support import GeneratedParser

    namespace = {}
    exec(compile(generate_python(host(name).analysis), "<codegen>", "exec"),
         namespace)
    return [v for v in namespace.values()
            if isinstance(v, type) and issubclass(v, GeneratedParser)
            and v is not GeneratedParser][0]


def earley_accepts(name, text):
    from repro.baselines.earley import EarleyParser
    from repro.exceptions import RecognitionError

    try:
        EarleyParser(host(name).grammar).parse(host(name).tokenize(text))
    except RecognitionError:
        return False
    return True


def checked_digest(name, text, codegen):
    """Spanned-tree digest of a valid input, agreed by three parsers."""
    tree = host(name).parse(host(name).tokenize(text))
    d = inputs.digest(tree.to_spanned_sexpr())
    cg = inputs.digest(codegen(host(name).tokenize(text)).parse()
                       .to_spanned_sexpr())
    if cg != d:
        raise SystemExit("codegen disagrees with the interpreter on %s"
                         % name)
    if not earley_accepts(name, text):
        raise SystemExit("Earley rejects a %s input the interpreter accepts"
                         % name)
    return tree, d


def make_corpus():
    refs = {}
    codegen = {g: codegen_class(g) for g in inputs.CORPUS_GRAMMARS}
    for entry in inputs.corpus_pool():
        text = inputs.generate(entry["grammar"], entry["units"],
                               entry["gen_seed"])
        _tree, d = checked_digest(entry["grammar"], text,
                                  codegen[entry["grammar"]])
        refs[entry["key"]] = {
            "text": inputs.digest(text), "digest": d,
            "tokens": len(host(entry["grammar"]).tokenize(text).tokens()) - 1}
        print("corpus", entry["key"], d, flush=True)
    return refs


def make_keystroke():
    from repro.runtime.incremental import EditSession
    from repro.runtime.parser import ParserOptions
    from repro.runtime.telemetry import ParseTelemetry

    refs = {}
    for doc in inputs.edit_docs():
        g = doc["grammar"]
        codegen = codegen_class(g)
        text = inputs.generate(g, doc["units"], doc["gen_seed"])
        _tree, tree_digest = checked_digest(g, text, codegen)
        tokens = host(g).tokenize(text).tokens()[:-1]
        id_type = host(g).grammar.vocabulary.type_of("ID")
        telemetry = ParseTelemetry(capture_events=False)
        session = EditSession(host(g), text, telemetry=telemetry)
        scripts = []
        for j in range(inputs.EDIT_SCRIPTS):
            edits, checkpoints = inputs.make_script(tokens, id_type,
                                                    doc["key"], j)
            current = text
            cps = []
            costs = []
            for i, edit in enumerate(edits):
                rules_before = telemetry.metrics.value(
                    "llstar_rule_invocations_total")
                session.edit(*edit)
                costs.append(telemetry.metrics.value(
                    "llstar_rule_invocations_total") - rules_before)
                current = inputs.apply_edit(current, edit)
                if i not in checkpoints:
                    continue
                if i == checkpoints[-1]:  # all replacements in: valid
                    _t, d = checked_digest(g, current, codegen)
                else:
                    d = inputs.digest(host(g).parse(
                        current, options=ParserOptions(recover=True))
                        .to_spanned_sexpr())
                if d != inputs.digest(session.to_spanned_sexpr()):
                    raise SystemExit("incremental != from-scratch at %s "
                                     "script %d edit %d" % (doc["key"], j, i))
                cps.append(d)
            if (current != text
                    or inputs.digest(session.to_spanned_sexpr()) != tree_digest):
                raise SystemExit("%s script %d does not end on the original"
                                 % (doc["key"], j))
            # Rule invocations of the script's median edit: a deterministic
            # measure of its typical edit, by which runs draw a balanced
            # set of scripts.
            costs.sort()
            scripts.append({"edits": len(edits), "checkpoints": cps,
                            "cost": costs[len(costs) // 2]})
            print("keystroke", doc["key"], j, len(edits), cps, flush=True)
        refs[doc["key"]] = {"text": inputs.digest(text), "tree": tree_digest,
                            "scripts": scripts}
    return refs


def make_serve():
    from repro.exceptions import LexerError, RecognitionError

    refs = {}
    for entry in inputs.serve_pool():
        g = entry["grammar"]
        text = inputs.serve_text(entry)
        tree, _d = checked_digest(g, text, codegen_class(g))
        tokens = host(g).tokenize(text).tokens()[:-1]
        rng = random.Random(entry["key"])
        order = list(range(len(tokens)))
        rng.shuffle(order)
        deletion = None
        for i in order:
            span = (tokens[i].start, tokens[i].start + len(tokens[i].text))
            broken = inputs.delete_span(text, span)
            try:
                host(g).parse(broken)
            except LexerError:
                continue
            except RecognitionError:
                if not earley_accepts(g, broken):
                    deletion = list(span)
                    break
        if deletion is None:
            raise SystemExit("no rejected one-token deletion for %s"
                             % entry["key"])
        refs[entry["key"]] = {"text": inputs.digest(text),
                              "tree": inputs.digest(tree.to_sexpr()),
                              "tokens": len(tokens), "deletion": deletion}
        print("serve", entry["key"], refs[entry["key"]], flush=True)
    return refs


def main(argv):
    kinds = argv or ["corpus", "keystroke", "serve"]
    os.makedirs(inputs.REFS_DIR, exist_ok=True)
    for kind in kinds:
        started = time.perf_counter()
        refs = {"corpus": make_corpus, "keystroke": make_keystroke,
                "serve": make_serve}[kind]()
        with open(os.path.join(inputs.REFS_DIR, kind + ".json"), "w",
                  encoding="utf-8") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        print("%s: %d references in %.1fs" % (kind, len(refs),
                                              time.perf_counter() - started))


if __name__ == "__main__":
    main(sys.argv[1:])
