"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload corpus-backtrack --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare --parent DIR --change DIR

A workload run cold-compiles its grammars into a fresh artifact
directory (``setup_s``, median of fresh processes), boots them back from
it (``warm_boot_ms``), runs the workload for ``--seconds``, checks every
output against ``perfbench/refs/``, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``).  A full record with run metadata
goes to ``perfbench/out/`` (or ``--out``); ``compare`` reads two such
directories.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("corpus-backtrack", "keystroke-edit", "serve-mixed")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("error: program source src/repro not found under %s"
                         % ROOT)
    sys.path.insert(0, src)
    import repro  # noqa: F401


def _module(workload: str):
    from pb import corpus, keystroke, serve

    return {"corpus-backtrack": corpus, "keystroke-edit": keystroke,
            "serve-mixed": serve}[workload]


def run_workload(args) -> dict:
    from pb import boot, env, harness, inputs

    grammars = inputs.choose_grammars(args.workload)
    out = harness.out_dir(ROOT, args.out)
    work = tempfile.mkdtemp(prefix="work-", dir=out)
    started = time.time()
    try:
        setup = boot.setup_and_boot(os.path.abspath(__file__), work,
                                    grammars, bool(args.trace))
        ctx = harness.Context(args.seed, args.seconds, bool(args.trace),
                              setup["hosts"], setup["directory"])
        with env.GCMonitor(ctx.tracer) as ctx.gc:
            _module(args.workload).run(ctx)
            gc_metrics = ctx.gc.metrics()
        if args.trace:
            ctx.layers.update(setup["layers"])
            ctx.layers.update(gc_metrics)
            ctx.layers["cache.load_s"] = boot.cache_load_s(setup["directory"],
                                                           grammars)
        else:
            ctx.e2e.update(setup_s=setup["setup_s"],
                           warm_boot_ms=setup["warm_boot_ms"],
                           peak_rss_mb=env.peak_rss_mb())
            ctx.details["raw"].update(setup_s=setup["raw_setup_s"],
                                      warm_boot_ms=setup["raw_warm_boot_ms"])
            ctx.details["speed"] = ctx.cal.scale()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _record(args, ctx, env.metadata(ROOT, args.workload, args.seed,
                                           bool(args.trace)), started, out)


def _record(args, ctx, meta, started, out) -> dict:
    from pb import harness, stats

    bench = spec()
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in listed:
        source = ctx.layers if args.trace else ctx.e2e
        metrics[m["name"]] = {"value": float(source.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    named = {}
    if not args.trace:
        for neutral, name in harness.E2E_NAMES[args.workload].items():
            named[name] = ctx.e2e[neutral]
        for name in harness.E2E_COMMON:
            named[name] = ctx.e2e[name]
        if "serve_max_rps" in ctx.details:
            named["serve_max_rps"] = ctx.details["serve_max_rps"]
        named["failed_ratio"] = stats.failed_ratio(ctx.attempted, ctx.failed)
    meta["started_at"] = started
    if args.trace:
        meta["trace_overhead_ratio"] = ctx.layers.get("trace.overhead_ratio")
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                     int(started * 1000))
    record = {"meta": meta, "correct": ctx.wrong == 0,
              "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": metrics, "named": named, "details": ctx.details,
              "failures": ctx.failures}
    path = os.path.join(out, stem + ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if ctx.tracer is not None:
        spans_path = os.path.join(out, stem + "-spans.jsonl.gz")
        with gzip.open(spans_path, "wt", encoding="utf-8") as f:
            for s in ctx.tracer.spans:
                f.write(json.dumps(s.to_dict()) + "\n")
    record["path"] = path
    return record


def _print_record(record: dict) -> None:
    meta = record["meta"]
    print("# %s seed=%s trace=%s sha=%s src=%s lines nproc=%s python=%s cpu=%s"
          % (meta["workload"], meta["seed"], int(meta["trace"]),
             meta["git_sha"] or meta["src_digest"], meta["src_lines"],
             meta["nproc"], meta["python"], meta["cpu_model"]))
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    for name, value in record["named"].items():
        print("%-20s %14.4f %s" % (name, value, _unit_of(name, units)))
    if record["named"]:
        print("%-20s %14s" % ("tail", "p%g of %d samples" % (
            record["details"]["tail_pct"], record["details"]["samples"])))
    for name, m in record["metrics"].items():
        print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    for why in record["failures"]:
        print("# failed: %s" % why)
    print("# record: %s" % os.path.relpath(record["path"], ROOT))


def _unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if name.endswith("_ms"):
        return "ms"
    return {"parse_tokens_per_s": "tokens/s", "edits_per_s": "edits/s",
            "serve_saturation_rps": "requests/s", "serve_max_rps": "requests/s",
            "failed_ratio": "ratio"}[name]


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary."""
    records = []
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print("error: workload %s failed" % workload, file=sys.stderr)
            return proc.returncode
        path = [ln.split(": ", 1)[1] for ln in proc.stdout.splitlines()
                if ln.startswith("# record: ")][-1]
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            records.append(json.load(f))
    print("\n# summary (seed %d, %g s per workload)" % (args.seed, args.seconds))
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    for record in records:
        for name, value in record["named"].items():
            print("%-18s %-20s %14.4f %s" % (record["meta"]["workload"], name,
                                             value, _unit_of(name, units)))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {"%s.%s" % (r["meta"]["workload"], k): v
                    for r in records for k, v in r["metrics"].items()}}))
    return 0


def compare(args) -> int:
    """Parent vs change over two directories of untraced run records."""
    from pb import stats

    def load(directory):
        runs = {}
        for path in sorted(glob.glob(os.path.join(directory, "*-trace0-*.json"))):
            with open(path, encoding="utf-8") as f:
                rec = json.load(f)
            runs.setdefault(rec["meta"]["workload"], []).append(rec)
        for recs in runs.values():
            recs.sort(key=lambda r: (r["meta"]["seed"], r["meta"]["started_at"]))
        return runs

    parent, change = load(args.parent), load(args.change)
    print("%-18s %-18s %28s %28s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        n = min(len(p_runs), len(c_runs))
        if [r["meta"]["seed"] for r in p_runs[:n]] != \
                [r["meta"]["seed"] for r in c_runs[:n]]:
            print("error: %s runs are not paired by seed" % workload,
                  file=sys.stderr)
            return 2
        for m in spec()["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs[:n]]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs[:n]]
            row = stats.compare_metric(p, c, m["better"], m["bound"])
            pq, cq = stats.quartiles(p), stats.quartiles(c)
            print("%-18s %-18s %12.4g [%.4g, %.4g] %12.4g [%.4g, %.4g] %3d/%-3d  %s"
                  % (workload, m["name"], row["parent_median"], pq[0], pq[2],
                     row["change_median"], cq[0], cq[2], row["wins"],
                     row["pairs"], row["verdict"]))
    return 0


def main(argv) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--parent", required=True)
        parser.add_argument("--change", required=True)
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for run records")
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--boot-child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--grammars", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec()  # the metric list; fail before any work without it
    import_program()
    if args.setup_child or args.boot_child:
        from pb import boot

        grammars = args.grammars.split(",")
        if args.setup_child:
            result = boot.compile_into(args.setup_child, grammars,
                                       bool(args.trace))
        else:
            result = boot.boot_child(args.boot_child, grammars)
        print(json.dumps(result))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1
    _print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
