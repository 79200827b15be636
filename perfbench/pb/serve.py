"""serve-mixed: open-loop requests into an in-process ``ParseService``.

Independent clients send ``sql`` and ``vb`` parse requests (SAMPLE-sized
and smaller) at seeded Poisson arrival times; one in ten carries a
one-token deletion and must come back ``ok: false`` with a
``RecognitionError``, the rest ask for the tree, whose digest is
checked.  Execution is inline on at most ``nproc`` executor threads.
Latency runs from each request's scheduled send time, so a stalled
generator is charged to the requests it delayed; the generator's own
lateness is reported beside it.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Sequence, Tuple

from pb import env, harness, inputs, spans, stats

#: Offered load of the fixed-rate phase (requests/s): low enough that
#: few requests overlap another, so latency and its tail are the
#: per-request fixed cost rather than contention for the interpreter
#: lock.  At 40 requests/s the overlapping share straddled the tail
#: percentile and the tail jumped between the two populations from run
#: to run; at 25 requests/s a slow stretch of the machine still raised
#: the overlap enough to move p95 by a third, hence the pacing: the rate
#: is in reference-machine time (``open_loop``'s ``pace``).
NOMINAL_RPS = 20.0
#: Length of the fixed-rate phase as a multiple of ``--seconds``, in
#: whole passes over the request pool: 4 passes (392 requests) in a 15 s
#: run, whose tail is p95 with 19 samples beyond it.  Whole passes keep
#: the heaviest requests, which set the tail, the same in every run.
#: Most requests beyond p95 overlapped another request or waited out a
#: full collection, so the tail magnifies the host's slow stretches; two
#: passes left too few samples to even them out.
NOMINAL_SCALE = 1.3
#: Fixed rate ladder (requests/s): the highest rung that holds is
#: recorded as ``serve_max_rps``; each rung sends the pool twice.
LADDER = (150.0, 300.0)
STEP_PASSES = 2
#: Saturation phase: bursts of one pass each from clients that each keep
#: one request outstanding; the median burst rate is the saturation
#: throughput, so a collector pause lands in few bursts and barely moves
#: it.
SATURATION_CLIENTS_PER_CPU = 2
SATURATION_BURSTS = 9
#: Speed samples taken before and after each burst.
SATURATION_TICKS = 5
#: Shortest gap before a send in which the open loop samples speed.
IDLE_GAP_S = 0.01
#: Latency limit on a request's tail percentile; a request slower than
#: this, refused or answered with another status than 200 fails.  It
#: sits above the longest full collection (about 150 ms with both
#: grammars loaded), which requests queued behind it wait out.
LIMIT_MS = 250.0
#: Requests of the nominal phase replayed layer by layer when traced.
REPLAY_REQUESTS = 400


def make_service(ctx, telemetry=None):
    from repro.serve.service import ParseService, ServiceConfig

    service = ParseService(
        config=ServiceConfig(jobs=0, max_concurrency=env.nproc(),
                             cache_dir=ctx.artifact_dir),
        telemetry=telemetry)
    for name in inputs.SERVE_GRAMMARS:
        service.registry.register(name, inputs.grammar_text(name))
    return service


def load_requests(seed: int, passes: int, refs: dict, texts: dict
                  ) -> List[dict]:
    reqs = inputs.serve_requests(seed, passes, refs, texts)
    for r in reqs:
        r["body"] = json.dumps({"grammar": r["grammar"], "text": r["text"],
                                "tree": not r["invalid"]}).encode("utf-8")
    return reqs


async def open_loop(service, reqs: Sequence[dict], schedule: Sequence[float],
                    idle=None, pace=None
                    ) -> List[Tuple[float, float, float, object]]:
    """Send ``reqs[i]`` at ``schedule[i]`` seconds from now, whether or not
    earlier requests have finished.  Returns ``(due, sent, done,
    response)`` per request.  ``idle()`` is called in gaps of more than
    IDLE_GAP_S before a send.  With ``pace``, the schedule is in
    reference-machine seconds: each gap is divided by ``pace()``, the
    machine's current speed relative to the reference, so a slow stretch
    of a shared host does not raise the load the program sees."""
    results: List[Tuple[float, float, float, object]] = [None] * len(reqs)

    async def one(i, body, due, sent):
        response = await service.handle("POST", "/parse", body)
        results[i] = (due, sent, time.perf_counter(), response)

    due, last = time.perf_counter() + 0.01, 0.0
    tasks = []
    for i, (req, at) in enumerate(zip(reqs, schedule)):
        due += (at - last) / (pace() if pace is not None else 1.0)
        last = at
        delay = due - time.perf_counter()
        if idle is not None and delay > IDLE_GAP_S:
            idle()
            delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(
            one(i, req["body"], due, time.perf_counter())))
    await asyncio.gather(*tasks)
    return results


def check(req: dict, response, ref: dict) -> Tuple[bool, str]:
    """Verdict and tree of one response against the committed reference."""
    if response.status != 200:
        return False, "status %d" % response.status
    body = response.body
    if req["invalid"]:
        ok = body["ok"] is False and body.get("error_type") == "RecognitionError"
    else:
        ok = body["ok"] is True and inputs.digest(body["tree"]) == ref["tree"]
    return ok, "" if ok else "wrong verdict or tree for %s" % req["key"]


def account(ctx, reqs, results, refs) -> List[float]:
    """Count the fixed-rate phase's requests into ``ctx``: a wrong answer,
    a refusal or any other status than 200, and a right answer later
    than LIMIT_MS after its scheduled send all fail.  Returns each
    request's latency from its scheduled send."""
    latencies = []
    for req, (due, _sent, done, response) in zip(reqs, results):
        latency = done - due
        latencies.append(latency)
        if response.status != 200:
            ctx.attempt(False, "status %d" % response.status, wrong=False)
            continue
        ok, why = check(req, response, refs[req["key"]])
        if ok and latency * 1e3 > LIMIT_MS:
            ctx.attempt(False, "over the latency limit", wrong=False)
        else:
            ctx.attempt(ok, why)
    return latencies


def step_passes(latencies_s: Sequence[float], statuses: Sequence[int]) -> bool:
    """A ladder step holds when its tail meets the limit, nothing was
    refused, and the backlog did not grow: the last quarter of requests
    still meets the limit at its median."""
    if any(s != 200 for s in statuses):
        return False
    if stats.latency_summary(latencies_s)["tail_ms"] > LIMIT_MS:
        return False
    last = latencies_s[-max(1, len(latencies_s) // 4):]
    return stats.median(last) * 1e3 <= LIMIT_MS


async def closed_loop(service, reqs: Sequence[dict], clients: int
                      ) -> List[Tuple[float, object]]:
    """``clients`` callers that each send their next request when the
    previous one is answered; returns ``(done, response)`` per request."""
    results: List[Tuple[float, object]] = [None] * len(reqs)
    pending = iter(range(len(reqs)))

    async def client():
        for i in pending:
            response = await service.handle("POST", "/parse", reqs[i]["body"])
            results[i] = (time.perf_counter(), response)

    await asyncio.gather(*(client() for _ in range(clients)))
    return results


def _texts(refs: dict) -> Dict[str, str]:
    texts = {}
    for entry in inputs.serve_pool():
        text = inputs.serve_text(entry)
        if inputs.digest(text) != refs[entry["key"]]["text"]:
            raise RuntimeError("generated request %s differs from its "
                               "reference" % entry["key"])
        texts[entry["key"]] = text
    return texts


def run(ctx) -> None:
    refs = inputs.load_refs("serve")
    texts = _texts(refs)
    passes = max(1, int(round(NOMINAL_RPS * ctx.seconds * NOMINAL_SCALE
                              / len(refs))))
    reqs = load_requests(ctx.seed, passes, refs, texts)
    schedule = inputs.poisson_schedule(ctx.seed, NOMINAL_RPS, len(reqs))
    asyncio.run((_traced if ctx.trace else _untraced)(ctx, refs, texts, reqs,
                                                      schedule))


async def _boot(service) -> None:
    for name in inputs.SERVE_GRAMMARS:
        await service.registry.host(name)


async def _untraced(ctx, refs, texts, reqs, schedule) -> None:
    service = make_service(ctx)
    try:
        await _boot(service)

        def idle():
            # Sample the machine's speed only while no request runs.
            if not (service.admission.executing or service.admission.queued):
                ctx.cal.maybe_tick()

        ctx.cal.tick(SATURATION_TICKS)
        results = await open_loop(service, reqs, schedule, idle,
                                  lambda: ctx.cal.scale(time.perf_counter()))
        latencies = account(ctx, reqs, results, refs)
        dues = [r[0] for r in results]
        late_ms = stats.median([sent - due for due, sent, _d, _r in results]) * 1e3
        steps = []
        for i, rate in enumerate(LADDER):
            step = load_requests(ctx.seed * 100 + i + 1, STEP_PASSES, refs,
                                 texts)
            results = await open_loop(service, step, inputs.poisson_schedule(
                ctx.seed * 100 + i + 1, rate, len(step)))
            for req, (_d, _s, _e, response) in zip(step, results):
                # Refusals are how an overloaded rung shows; every answer
                # given must still be right.
                if response.status == 200:
                    ctx.attempt(*check(req, response, refs[req["key"]]))
            lat = [done - due for due, _s, done, _r in results]
            steps.append({"rate": rate,
                          "tail_ms": stats.latency_summary(lat)["tail_ms"],
                          "passed": step_passes(
                              lat, [r[3].status for r in results])})
            await _settle(service)
        bursts = []
        for b in range(SATURATION_BURSTS):
            burst = load_requests(ctx.seed * 100 + 50 + b, 1, refs, texts)
            # The machine's speed is sampled right before and after each
            # burst: sampling during one would compete with it.
            ctx.cal.tick(SATURATION_TICKS)
            started = time.perf_counter()
            saturated = await closed_loop(
                service, burst, SATURATION_CLIENTS_PER_CPU * env.nproc())
            right = 0
            for req, (_done, response) in zip(burst, saturated):
                if response.status == 200:
                    right += ctx.attempt(*check(req, response,
                                                refs[req["key"]]))
                else:
                    ctx.attempt(False, "status %d" % response.status,
                                wrong=False)
            bursts.append((right, [(max(done for done, _r in saturated)
                                    - started, started)]))
        ctx.cal.tick(SATURATION_TICKS)
    finally:
        service.close()
    held = [s["rate"] for s in steps if s["passed"]]
    # The ladder's highest rung that holds is coarse (it moves in whole
    # rungs); the saturation rate is the steady figure the bound is on.
    ctx.report(latencies, dues, bursts)
    ctx.details.update(nominal_rps=NOMINAL_RPS, limit_ms=LIMIT_MS,
                       ladder=steps, serve_max_rps=max(held, default=0.0),
                       gen_late_p50_ms=late_ms)


async def _settle(service) -> None:
    """Let the previous step's stragglers drain before the next one."""
    while service.admission.executing or service.admission.queued:
        await asyncio.sleep(0.005)
    await asyncio.sleep(0.05)


def _queue_peak(metrics_text: str) -> float:
    for line in metrics_text.splitlines():
        if line.startswith("llstar_serve_queue_peak"):
            return float(line.split()[-1])
    return 0.0


async def _traced(ctx, refs, texts, reqs, schedule) -> None:
    """The nominal phase once more with request accounting, then a
    sequential layer-by-layer replay of its first REPLAY_REQUESTS."""
    from repro.runtime.telemetry import ParseTelemetry

    service = make_service(ctx, telemetry=ParseTelemetry(capture_events=False))
    try:
        await _boot(service)
        results = await open_loop(service, reqs, schedule)
        account(ctx, reqs, results, refs)
        acc = {"exec": 0.0, "queue": 0.0, "loop": 0.0, "late": 0.0, "bytes": 0}
        answered = [r for r in results if r[3].status == 200]
        for due, sent, done, response in answered:
            body = response.body
            acc["exec"] += body["elapsed"]
            acc["queue"] += body["service_elapsed"] - body["elapsed"]
            acc["loop"] += (done - sent) - body["service_elapsed"]
            acc["late"] += sent - due
            acc["bytes"] += len(response.body_bytes())
        metrics = await service.handle("GET", "/metrics")
    finally:
        service.close()
    n = max(len(answered), 1)
    ctx.layers.update({
        "serve.exec_ms": acc["exec"] / n * 1e3,
        "serve.queue_wait_ms": acc["queue"] / n * 1e3,
        "serve.loop_wait_ms": acc["loop"] / n * 1e3,
        "serve.gen_late_ms": acc["late"] / n * 1e3,
        "serve.response_bytes": acc["bytes"] / n,
        "serve.queue_peak": _queue_peak(metrics.body),
    })
    _replay(ctx, reqs[:REPLAY_REQUESTS])


def _replay(ctx, reqs) -> None:
    """Each request through the public layers the service calls: untraced
    (the overhead baseline), traced, and without tree building."""
    from repro.runtime.parser import ParserOptions
    from repro.runtime.token_stream import ListTokenStream

    tracer = ctx.tracer
    tel = spans.make_span_telemetry(tracer)
    untraced = traced = with_tree = no_tree = 0.0
    chars = tokens = nodes = 0
    for i, req in enumerate(reqs):
        host = ctx.hosts[req["grammar"]]
        text = req["text"]
        started = time.perf_counter()
        tree = host.parse(host.tokenize(text),
                          options=ParserOptions(recover=True))
        with_tree += ctx.gc.busy(started)
        if not req["invalid"]:
            tree.to_sexpr()
        untraced += ctx.gc.busy(started)

        with tracer.span("serve.request", unit="req-%d" % i) as root:
            with tracer.span("lexgen.tokenize"):
                toks = list(host.lexer_spec.tokenizer(text))
            with tracer.span("token_stream.build"):
                stream = ListTokenStream(toks, source=text)
            with tracer.span("parser.parse"):
                tree = host.parse(stream, options=ParserOptions(
                    recover=True, telemetry=tel))
            if not req["invalid"]:
                with tracer.span("trees.serialize"):
                    tree.to_sexpr()
        traced += harness.busy(ctx, root)
        chars += len(text)
        tokens += len(stream.tokens()) - 1
        nodes += harness.count_nodes(tree)

        started = time.perf_counter()
        host.parse(host.tokenize(text),
                   options=ParserOptions(recover=True, build_tree=False))
        no_tree += ctx.gc.busy(started)

    layers = harness.parser_layer_metrics(ctx, tel)
    layers.update(harness.span_layer_metrics(tracer, chars))
    build = with_tree - no_tree
    layers.update({
        "lexgen.tokens": tokens, "trees.nodes": nodes, "trees.build_s": build,
        "parser.walk_s": layers["parser.parse_s"]
        - layers["parser.speculation_s"] - build,
        "trace.overhead_ratio": traced / untraced - 1.0,
    })
    ctx.layers.update(layers)
    ctx.details.update(replayed=len(reqs))
