"""Seeded inputs for the three workloads and their committed references.

Every input is drawn from a fixed pool whose members are regenerated
deterministically from the suite grammars' ``generate_program``; the
references in ``perfbench/refs/`` hold each member's text digest (so a
changed generator is caught as changed input, not as a wrong parse) and
its expected output.  ``--seed`` only chooses and orders pool members,
so any seed has references.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Sequence, Tuple

REFS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "refs")

# corpus-backtrack: the three PEG-mode (auto-synpred) grammars.
CORPUS_GRAMMARS = ("java", "rats_c", "rats_java")
#: Log-spaced program sizes from 10 to 60 top-level units.
CORPUS_SIZES = tuple(sorted({int(round(10 * 6 ** (i / 11.0))) for i in range(12)}))
CORPUS_VARIANTS = 8

# keystroke-edit: 60-unit documents, each with a pool of edit scripts.
EDIT_GRAMMARS = ("java", "csharp")
EDIT_UNITS = 60
EDIT_DOCS = 4
EDIT_SCRIPTS = 16
EDIT_REPLACEMENTS = 3
EDIT_BURSTS = 2
EDIT_BURST_MAX_CHARS = 10
#: csharp scripts per java script.  A java edit costs several times a
#: csharp one, so an even mix would put the median in the gap between
#: the two grammars' latencies, where it jumps from run to run.
EDIT_CSHARP_PER_JAVA = 3

# serve-mixed: the two mostly-LL(1) grammars, SAMPLE-sized and smaller.
SERVE_GRAMMARS = ("sql", "vb")
SERVE_UNITS = (1, 2, 3, 4)
SERVE_VARIANTS = 12
SERVE_INVALID_SHARE = 0.1


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def load_refs(name: str) -> dict:
    with open(os.path.join(REFS_DIR, name + ".json"), encoding="utf-8") as f:
        return json.load(f)


def generate(grammar: str, units: int, gen_seed: int) -> str:
    from repro.grammars import load

    return load(grammar).generate_program(units, gen_seed)


# -- corpus-backtrack --------------------------------------------------------


def corpus_pool() -> List[dict]:
    return [{"key": "%s/%d/%d" % (g, units, v), "grammar": g, "units": units,
             "gen_seed": 1000 * units + v}
            for g in CORPUS_GRAMMARS for units in CORPUS_SIZES
            for v in range(CORPUS_VARIANTS)]


def corpus_batch(seed: int, picks: int) -> List[dict]:
    """``picks`` distinct members per (grammar, size) chosen by ``seed``,
    so every seed's batch has the same size mix, shuffled."""
    rng = random.Random(seed)
    by_key = {e["key"]: e for e in corpus_pool()}
    batch = [by_key["%s/%d/%d" % (g, units, v)]
             for g in CORPUS_GRAMMARS for units in CORPUS_SIZES
             for v in rng.sample(range(CORPUS_VARIANTS), picks)]
    rng.shuffle(batch)
    return batch


# -- keystroke-edit ----------------------------------------------------------


def edit_docs() -> List[dict]:
    return [{"key": "%s/%d" % (g, d), "grammar": g, "units": EDIT_UNITS,
             "gen_seed": 7700 + d}
            for g in EDIT_GRAMMARS for d in range(EDIT_DOCS)]


def edit_plan(seed: int, rounds: int, refs: Dict[str, dict]
              ) -> List[Tuple[str, int]]:
    """``(document key, script index)`` pairs: each round is one java
    script then EDIT_CSHARP_PER_JAVA csharp scripts, documents taken in
    turn.  A document used ``n`` times in the plan gets one script from
    each of ``n`` equal bands of its scripts ranked by their committed
    cost (rule invocations of the script's median edit), so every seed
    edits with the same spread of cheap and expensive scripts; ``seed``
    draws the csharp scripts within their bands and orders all of them."""
    rng = random.Random(seed)
    turn = {g: 0 for g in EDIT_GRAMMARS}
    slots = []
    for _ in range(rounds):
        for g, n in (("java", 1), ("csharp", EDIT_CSHARP_PER_JAVA)):
            for _ in range(n):
                slots.append("%s/%d" % (g, turn[g] % EDIT_DOCS))
                turn[g] += 1
    picks = {}
    for key in sorted(set(slots)):
        scripts = refs[key]["scripts"]
        ranked = sorted(range(len(scripts)),
                        key=lambda j: (scripts[j]["cost"], j))
        uses = slots.count(key)
        bands = [ranked[len(ranked) * b // uses:len(ranked) * (b + 1) // uses]
                 or ranked for b in range(uses)]
        if key.startswith("java/"):
            # The few java scripts of a run set its tail (p95 falls among
            # java edits); drawn, they made the tail depend on the draw
            # more than on the program, so each band gives its middle.
            chosen = [band[len(band) // 2] for band in bands]
        else:
            chosen = [rng.choice(band) for band in bands]
        rng.shuffle(chosen)
        picks[key] = chosen
    return [(key, picks[key].pop()) for key in slots]


def _is_word(text: str) -> bool:
    return text.replace("_", "a").isalnum()


def make_script(tokens, id_type: int, doc_key: str, index: int
                ) -> Tuple[List[Tuple[int, int, str]], List[int]]:
    """Edit script ``index`` of a document whose visible tokens (without
    EOF) are ``tokens``.

    Returns ``(edits, checkpoints)``: after each edit listed in
    ``checkpoints`` the session's tree is compared with a reference.
    Sites are visited from the end of the text backwards, so no edit
    moves a later site.  Identifier replacements keep the document
    valid; a burst deletes a word one character at a time (broken
    states) and types it back.  The script ends by undoing the
    replacements, so every script starts and ends on the original text.
    """
    rng = random.Random("%s#%d" % (doc_key, index))
    ids = [t for t in tokens if t.type == id_type]
    words = [t for t in tokens
             if _is_word(t.text) and len(t.text) <= EDIT_BURST_MAX_CHARS]
    sites = [("replace", t) for t in rng.sample(ids, EDIT_REPLACEMENTS)]
    sites += [("burst", t) for t in rng.sample(words, EDIT_BURSTS)]
    chosen = {}
    for kind, tok in sites:
        chosen.setdefault(tok.start, (kind, tok))
    edits: List[Tuple[int, int, str]] = []
    undo: List[Tuple[int, int, str]] = []
    checkpoints: List[int] = []
    for start in sorted(chosen, reverse=True):
        kind, tok = chosen[start]
        stop = start + len(tok.text)
        if kind == "replace":
            name = "%s%s" % (rng.choice("qxz"),
                             "".join(rng.choice("abcdefghijklmnop")
                                     for _ in range(rng.randint(2, 7))))
            edits.append((start, stop, name))
            undo.append((start, start + len(name), tok.text))
        else:
            for i in range(len(tok.text)):
                edits.append((stop - 1 - i, stop - i, ""))
            checkpoints.append(len(edits) - 1)
            for i, ch in enumerate(tok.text):
                edits.append((start + i, start + i, ch))
    checkpoints.append(len(edits) - 1)
    # Undo lowest site first: every site above it is then back at the
    # offsets it had when it was replaced.
    edits.extend(reversed(undo))
    return edits, checkpoints


def apply_edit(text: str, edit: Tuple[int, int, str]) -> str:
    start, end, replacement = edit
    return text[:start] + replacement + text[end:]


# -- serve-mixed -------------------------------------------------------------


def serve_pool() -> List[dict]:
    pool = []
    for g in SERVE_GRAMMARS:
        pool.append({"key": "%s/sample" % g, "grammar": g, "units": 0,
                     "gen_seed": None})
        for units in SERVE_UNITS:
            for v in range(SERVE_VARIANTS):
                pool.append({"key": "%s/%d/%d" % (g, units, v), "grammar": g,
                             "units": units, "gen_seed": 500 * units + v})
    return pool


def serve_text(entry: dict) -> str:
    if entry["gen_seed"] is None:
        from repro.grammars import load

        return load(entry["grammar"]).sample
    return generate(entry["grammar"], entry["units"], entry["gen_seed"])


def delete_span(text: str, span: Sequence[int]) -> str:
    return text[:span[0]] + text[span[1]:]


def serve_requests(seed: int, passes: int, refs: Dict[str, dict],
                   texts: Dict[str, str]) -> List[dict]:
    """Every pool member ``passes`` times, in an order drawn by ``seed``.
    In each pass a fixed tenth of the members (a different tenth per
    pass) carries its one-token deletion, so every seed sends the same
    requests and only their order and timing differ."""
    rng = random.Random(seed)
    keys = sorted(refs)
    every = int(round(1 / SERVE_INVALID_SHARE))
    out = []
    for p in range(passes):
        for rank, key in enumerate(keys):
            invalid = (rank + p) % every == 0
            text = texts[key]
            if invalid:
                text = delete_span(text, refs[key]["deletion"])
            out.append({"grammar": key.split("/", 1)[0], "key": key,
                        "invalid": invalid, "text": text})
    rng.shuffle(out)
    return out


def poisson_schedule(seed: int, rate: float, count: int) -> List[float]:
    """Send times (seconds from the start) of ``count`` Poisson arrivals."""
    rng = random.Random("arrivals#%d#%r" % (seed, rate))
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def choose_grammars(workload: str) -> Tuple[str, ...]:
    return {"corpus-backtrack": CORPUS_GRAMMARS,
            "keystroke-edit": EDIT_GRAMMARS,
            "serve-mixed": SERVE_GRAMMARS}[workload]


def grammar_text(name: str) -> str:
    from repro.grammars import load

    return load(name).grammar_text

