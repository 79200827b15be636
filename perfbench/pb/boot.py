"""Cold set-up (grammar compile into a fresh artifact directory) and
warm boot (load from that directory through the mmap path)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from pb import env, inputs, stats

SETUP_REPS = 3
BOOTS_PER_SETUP = 2
CACHE_LOAD_REPS = 5
#: Calibration ticks a child takes before and after its timed work.
CHILD_TICKS = 10
CHILD_TIMEOUT_S = 170


def compile_into(directory: str, grammars: Sequence[str], trace: bool) -> dict:
    """Cold-compile ``grammars`` into ``directory``; runs in a fresh
    process so that every repetition is cold and the workload process's
    peak memory excludes analysis."""
    from repro.api import compile_grammar

    if not trace:
        cal = env.Calibrator()
        cal.tick(CHILD_TICKS)
        started = time.perf_counter()
        for name in grammars:
            compile_grammar(inputs.grammar_text(name), cache_dir=directory)
        elapsed = time.perf_counter() - started
        cal.tick(CHILD_TICKS)
        return {"setup_s": elapsed, "scale": cal.scale()}

    # The same pipeline as a cold ``compile_grammar(cache_dir=...)``,
    # one stage at a time.
    from repro.analysis.decisions import analyze
    from repro.cache import ArtifactStore, artifact_key, artifact_to_dict
    from repro.cache import grammar_fingerprint
    from repro.grammar.leftrec import eliminate_left_recursion
    from repro.grammar.meta_parser import parse_grammar
    from repro.grammar.validation import validate_grammar
    from repro.lexgen.builder import build_lexer

    layers = {"grammar.meta_parse_s": 0.0, "analysis.analyze_s": 0.0,
              "analysis.dfa_states": 0, "lexgen.build_s": 0.0,
              "cache.save_s": 0.0}
    store = ArtifactStore(directory)
    for name in grammars:
        text = inputs.grammar_text(name)
        t0 = time.perf_counter()
        grammar = parse_grammar(text)
        eliminate_left_recursion(grammar)
        validate_grammar(grammar)
        t1 = time.perf_counter()
        analysis = analyze(grammar)
        t2 = time.perf_counter()
        lexer = build_lexer(grammar)
        t3 = time.perf_counter()
        store.save(artifact_key(text, None, None),
                   artifact_to_dict(grammar, analysis, lexer,
                                    grammar_fingerprint(text, None)),
                   source=text)
        t4 = time.perf_counter()
        layers["grammar.meta_parse_s"] += t1 - t0
        layers["analysis.analyze_s"] += t2 - t1
        layers["lexgen.build_s"] += t3 - t2
        layers["cache.save_s"] += t4 - t3
        layers["analysis.dfa_states"] += sum(len(r.dfa.states)
                                             for r in analysis.records)
    return {"setup_s": sum(v for k, v in layers.items() if k.endswith("_s")),
            "layers": layers}


def setup_and_boot(run_py: str, workdir: str, grammars: Sequence[str],
                   trace: bool):
    """Cold set-up in SETUP_REPS fresh processes (one in a traced run,
    which wants the per-stage split instead), each followed by
    BOOTS_PER_SETUP warm boots from the directory it wrote, each in a
    fresh process as a user's warm start is, and spread over the whole
    set-up phase.  Times are scaled to the reference machine speed (see
    ``env.Calibrator``); the raw medians are returned beside them.

    Returns a dict: ``directory`` (the last artifact directory),
    ``hosts`` (booted from it), ``layers`` (per-stage metrics of a traced
    run) and, untraced, ``setup_s`` and ``warm_boot_ms`` medians.
    """
    setups: List[float] = []
    boots: List[float] = []
    raw_setups: List[float] = []
    raw_boots: List[float] = []
    layers: Dict[str, float] = {}
    directory = ""
    for rep in range(1 if trace else SETUP_REPS):
        directory = os.path.join(workdir, "artifacts-%d" % rep)
        result = _child(run_py, "--setup-child", directory, grammars, trace)
        raw_setups.append(result["setup_s"])
        setups.append(result["setup_s"] * result.get("scale", 1.0))
        layers = result.get("layers", {})
        for _ in range(0 if trace else BOOTS_PER_SETUP):
            result = _child(run_py, "--boot-child", directory, grammars, False)
            raw_boots.append(result["boot_s"])
            boots.append(result["boot_s"] * result["scale"])
    # The workload's own hosts; this boot is not one of the samples.
    _elapsed, hosts = warm_boot(directory, grammars)
    out = {"directory": directory, "hosts": hosts, "layers": layers}
    if not trace:
        out.update(setup_s=stats.median(setups),
                   warm_boot_ms=stats.median(boots) * 1e3,
                   raw_setup_s=stats.median(raw_setups),
                   raw_warm_boot_ms=stats.median(raw_boots) * 1e3)
    return out


def boot_child(directory: str, grammars: Sequence[str]) -> dict:
    """One warm boot in this (fresh) process, with the machine's speed."""
    cal = env.Calibrator()
    cal.tick(CHILD_TICKS)
    elapsed, _hosts = warm_boot(directory, grammars)
    cal.tick(CHILD_TICKS)
    return {"boot_s": elapsed, "scale": cal.scale()}


def _child(run_py: str, flag: str, directory: str, grammars: Sequence[str],
           trace: bool) -> dict:
    cmd = [sys.executable, run_py, flag, directory,
           "--grammars", ",".join(grammars), "--trace", str(int(trace))]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("%s child failed:\n%s" % (flag, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def warm_boot(directory: str, grammars: Sequence[str]):
    """Boot every grammar from ``directory``; returns the seconds it took
    and the hosts.  The timing starts with the grammar texts in hand and
    the artifact-cache modules imported."""
    import repro.cache  # noqa: F401  (imported lazily on first use)
    from repro.api import compile_grammar

    texts = {name: inputs.grammar_text(name) for name in grammars}
    started = time.perf_counter()
    hosts = {name: compile_grammar(text, cache_dir=directory)
             for name, text in texts.items()}
    elapsed = time.perf_counter() - started
    if not all(h.from_cache for h in hosts.values()):
        raise RuntimeError("warm boot missed the artifact cache")
    return elapsed, hosts


def cache_load_s(directory: str, grammars: Sequence[str]) -> float:
    """Median time to map every grammar's artifact (the load half of a
    warm boot, before tables are rebuilt)."""
    from repro.cache import ArtifactStore, artifact_key

    times = []
    for _ in range(CACHE_LOAD_REPS):
        store = ArtifactStore(directory, sweep_orphans=False)
        started = time.perf_counter()
        mapped = [store.load_mapped(artifact_key(inputs.grammar_text(n), None,
                                                 None))
                  for n in grammars]
        times.append(time.perf_counter() - started)
        for m in mapped:
            m.close()
    return stats.median(times)
