"""The serve workloads: ``warm-serve`` and ``mixed-serve``.

The system under test is the ``repro-skeleton serve`` daemon, started
with its shipped defaults except port and cache dir. The load
generator is this process: one asyncio loop holding at most ``nproc``
persistent JSON-lines connections, sending each request at its due
time (an open loop) and timing it from that due time, so a stall
counts against every request queued behind it.

Every request carries ``deadline_ms``; a reply that does not arrive
within the deadline plus a grace period counts as failed, so a wedged
pool shows in the failure count instead of hanging the benchmark.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from perfbench import spec
from perfbench.common import (
    BenchError,
    Report,
    RunDir,
    SpanRecorder,
    STATE,
    assert_empty_store,
    beyond,
    child_pids,
    mean,
    median,
    normalize,
    percentile,
    proc_peak_rss_mb,
    reference_seconds,
)
from perfbench.layers import (
    ROUNDS,
    counter,
    hist_sum,
    core_counters,
    probe_store,
    program_spans,
    sim_layers,
    span_stats,
    store_counters,
    time_calls,
)

# -- the daemon --------------------------------------------------------------


class Daemon:
    """One ``repro-skeleton serve`` process on a fresh store."""

    def __init__(self, run: RunDir, store: Path):
        self.run = run
        self.store = store
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None

    def start(self, timeout: float = 30.0) -> None:
        self._log = open(self.run.path / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(self.store)],
            cwd=str(self.run.path), env=self.run.child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        line: list = []
        reader = threading.Thread(
            target=lambda: line.append(self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout)
        text = line[0].decode("utf-8", "replace").strip() if line else ""
        if not text.startswith("serving on "):
            self.stop()
            raise BenchError(f"daemon did not become ready: {text!r}")
        self.port = int(text.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Daemon peak RSS plus its largest pool worker's."""
        if self.proc is None:
            return 0.0
        kids = [proc_peak_rss_mb(p) for p in child_pids(self.proc.pid)]
        return proc_peak_rss_mb(self.proc.pid) + max(kids, default=0.0)

    def stop(self, grace: float = 15.0) -> None:
        """SIGTERM drain, then SIGKILL; reap stray workers too."""
        if self.proc is None:
            return
        kids = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(5)
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
        self.proc = None


# -- the load generator ------------------------------------------------------


class Connection:
    """One persistent, pipelined JSON-lines connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.waiting: dict = {}
        self._task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    async def _read(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = loop.time()
                reply = json.loads(line)
                fut = self.waiting.pop(reply.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((now, reply))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for fut in self.waiting.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("connection lost"))

    def send(self, request: dict) -> "asyncio.Future":
        fut = asyncio.get_running_loop().create_future()
        self.waiting[request["id"]] = fut
        self.writer.write(json.dumps(request).encode("utf-8") + b"\n")
        return fut

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class Outcome:
    """One request's fate: latency from due time, reply, lateness."""

    __slots__ = ("index", "late", "latency", "done", "reply", "error")

    def __init__(self, index: int):
        self.index = index
        self.late = 0.0
        self.latency = math.nan
        #: Reply time, seconds after the phase started.
        self.done = math.nan
        self.reply: Optional[dict] = None
        self.error = ""

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))


async def _await_reply(fut, due: float, out: Outcome, wait: float,
                       start: float) -> None:
    try:
        t_reply, reply = await asyncio.wait_for(fut, wait)
    except asyncio.TimeoutError:
        out.error = "no reply"
        return
    except ConnectionError as exc:
        out.error = str(exc)
        return
    out.latency = t_reply - due
    out.done = t_reply - start
    out.reply = reply
    if not reply.get("ok"):
        out.error = f"code {reply.get('code')}"


async def _drive(port: int, schedule: list, tag: str,
                 trace: bool = False, concurrency: int = 0) -> list:
    """Send ``schedule`` (``{"t", "params"}`` items) on time over at
    most ``nproc`` connections; return one :class:`Outcome` each.

    ``concurrency > 0`` ignores due times and keeps that many requests
    in flight instead (the warm-up pass, a closed loop).
    """
    nconn = max(1, min(os.cpu_count() or 1, 8))
    conns = [await Connection.open(port) for _ in range(nconn)]
    loop = asyncio.get_running_loop()
    wait = spec.DEADLINE_MS / 1000.0 + spec.REPLY_GRACE_S
    outcomes = [Outcome(i) for i in range(len(schedule))]
    pending = []
    start = loop.time()
    try:
        if concurrency > 0:
            sem = asyncio.Semaphore(concurrency)

            async def one(i, item):
                async with sem:
                    due = loop.time()
                    fut = conns[i % nconn].send(_request(i, item, tag, trace))
                    await _await_reply(fut, due, outcomes[i], wait, start)

            await asyncio.gather(*(one(i, it) for i, it in
                                   enumerate(schedule)))
        else:
            start += 0.05
            for i, item in enumerate(schedule):
                due = start + item["t"]
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                outcomes[i].late = max(0.0, loop.time() - due)
                fut = conns[i % nconn].send(_request(i, item, tag, trace))
                pending.append(asyncio.ensure_future(
                    _await_reply(fut, due, outcomes[i], wait, start)))
            await asyncio.gather(*pending)
    finally:
        for c in conns:
            await c.close()
    return outcomes


def _request(i: int, item: dict, tag: str, trace: bool) -> dict:
    req = {"id": i, "verb": "predict", "params": item["params"],
           "deadline_ms": spec.DEADLINE_MS}
    # Every TRACE_EVERY-th request carries a trace context: the daemon
    # gathers a traced reply's spans by scanning its whole span ring,
    # and tracing every request overloads it.
    if trace and i % spec.TRACE_EVERY == 0:
        digest = hashlib.blake2b(f"{tag}:{i}".encode(),
                                 digest_size=16).hexdigest()
        req["trace"] = {"trace_id": digest, "span_id": digest[:16]}
    return req


def drive(port: int, schedule: list, tag: str, trace: bool = False,
          concurrency: int = 0) -> list:
    # The generator's own garbage collection would stall it mid-phase
    # and read as server latency.
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_drive(port, schedule, tag, trace, concurrency))
    finally:
        gc.enable()


def call(port: int, verb: str, params: Optional[dict] = None) -> dict:
    """One cheap request (metricz, publish) with the same deadline."""
    from repro.errors import ServeError
    from repro.serve.client import ServiceClient

    client = ServiceClient(port=port, timeout=spec.DEADLINE_MS / 1e3
                           + spec.REPLY_GRACE_S)
    try:
        reply = client.call(verb, params, deadline_ms=spec.DEADLINE_MS)
    except ServeError as exc:
        raise BenchError(f"{verb} failed: {exc}") from exc
    if not reply.get("ok"):
        raise BenchError(f"{verb} failed: {reply}")
    return reply["result"]


# -- schedules ---------------------------------------------------------------


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"perfbench:{what}:{seed}")


def alias_name(bench: str, klass: str, target: float) -> str:
    return f"{bench}.{klass}.t{target:g}"


def warm_aliases() -> list[dict]:
    return [{"alias": alias_name(b, k, spec.TARGET), "bench": b,
             "klass": k, "target": spec.TARGET}
            for b, k in spec.WARM_ALIASES]


def mixed_aliases() -> list[dict]:
    return [{"alias": alias_name(b, k, t), "bench": b, "klass": k,
             "target": t}
            for b, k in spec.MIXED_BENCHES for t in spec.MIXED_TARGETS]


def warm_working_set(workload: str) -> list[dict]:
    """The (alias, scenario, env_seed) requests warmed during set-up.
    Fixed across seeds, so the error metric measures the system, not
    the draw."""
    if workload == "warm-serve":
        return [{"alias": a["alias"], "scenario": s, "env_seed": 0}
                for a in warm_aliases() for s in spec.SCENARIOS]
    out = []
    for i, a in enumerate(mixed_aliases()):
        for j in range(spec.MIXED_SCENARIOS_PER_ALIAS):
            s = spec.SCENARIOS[(i + 2 * j) % len(spec.SCENARIOS)]
            out.append({"alias": a["alias"], "scenario": s, "env_seed": 0})
    return out


def fixed_rate(rate: float, seconds: float) -> list[float]:
    n = max(1, int(round(rate * seconds)))
    return [i / rate for i in range(n)]


def warm_schedule(seed: int, seconds: float, rate: float) -> list[dict]:
    """Uniform draws over the warm working set at a fixed rate."""
    rng = _rng(seed, f"warm:{rate:g}:{seconds:g}")
    pairs = warm_working_set("warm-serve")
    return [{"t": t, "params": dict(rng.choice(pairs))}
            for t in fixed_rate(rate, seconds)]


def mixed_schedule(seed: int, seconds: float, stress: bool = False
                   ) -> list[dict]:
    """Zipf-popular warm requests with every ``MIXED_COLD_EVERY``-th
    slot cold (a fresh env seed); every ``MIXED_PAIR_EVERY``-th cold
    request is sent twice at once, so coalescing runs.

    The shape (which slots are cold, which are pairs) is fixed; the
    seed decides alias popularity and which alias, scenario and env
    seed each request names. Cold requests walk the aliases and the
    scenarios round-robin, so every run prices the same cold mix.

    ``stress`` gives the stress phase instead: ``MIXED_STRESS_RATE``,
    the same share of cold slots but ``MIXED_STRESS_RUN`` in a row,
    and env seeds the gated phase never uses.
    """
    what, base, rate, run = "mixed", 1_000_000, spec.MIXED_RATE, 1
    if stress:
        what, base = "mixed-stress", 200_000_000
        rate, run = spec.MIXED_STRESS_RATE, spec.MIXED_STRESS_RUN
    rng = _rng(seed, f"{what}:{seconds:g}")
    by_alias = {p["alias"]: p for p in warm_working_set("mixed-serve")}
    # Popularity ranks alternate between the benchmarks, so the seed
    # reshuffles which alias is hot without changing the bench mix.
    per_bench = []
    for bench, klass in spec.MIXED_BENCHES:
        names = [a["alias"] for a in mixed_aliases() if a["bench"] == bench]
        rng.shuffle(names)
        per_bench.append(names)
    ranked = [name for group in zip(*per_bench) for name in group]
    weights = [1.0 / (rank + 1) ** spec.ZIPF_S for rank in range(len(ranked))]
    cold_aliases = sorted(by_alias)
    rng.shuffle(cold_aliases)
    cold_scenarios = list(spec.SCENARIOS)
    rng.shuffle(cold_scenarios)
    fresh = base + 1000 * (seed % 100_000)
    first_cold = spec.MIXED_COLD_EVERY // 2
    out, n_cold = [], 0
    for i, t in enumerate(fixed_rate(rate, seconds)):
        if first_cold <= i % (spec.MIXED_COLD_EVERY * run) < first_cold + run:
            fresh += 1
            params = {"alias": cold_aliases[n_cold % len(cold_aliases)],
                      "scenario": cold_scenarios[n_cold % len(cold_scenarios)],
                      "env_seed": fresh, "cold": True}
            out.append({"t": t, "params": params})
            if n_cold % spec.MIXED_PAIR_EVERY == 0:
                out.append({"t": t, "params": dict(params)})
            n_cold += 1
        else:
            alias = rng.choices(ranked, weights)[0]
            out.append({"t": t, "params": dict(by_alias[alias])})
    return out


def schedule_bytes(schedule: list) -> bytes:
    return json.dumps(schedule, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _wire(schedule: list) -> list:
    """Strip benchmark-only fields before sending."""
    return [{"t": it["t"], "params": {k: v for k, v in it["params"].items()
                                      if k != "cold"}} for it in schedule]


# -- set-up ------------------------------------------------------------------


def setup(run: RunDir, workload: str) -> tuple:
    """Fresh store, daemon start, publish every alias, warm-up pass.
    Returns ``(daemon, seconds, warm-up outcomes)``."""
    t0 = time.perf_counter()
    store = run.fresh_store(workload)
    assert_empty_store(store)
    daemon = Daemon(run, store)
    try:
        daemon.start()
        aliases = (warm_aliases() if workload == "warm-serve"
                   else mixed_aliases())
        for a in aliases:
            call(daemon.port, "publish", a)
        # warm-serve times its warm-up as cold_latency_p50_ms, so it
        # sends one request at a time; mixed-serve keeps both pool
        # workers busy.
        warm = drive(daemon.port, [{"t": 0.0, "params": p} for p in
                                   warm_working_set(workload)],
                     "warmup",
                     concurrency=1 if workload == "warm-serve" else 2)
    except BaseException:
        daemon.stop()
        raise
    bad = [o for o in warm if not o.ok]
    if bad:
        daemon.stop()
        raise BenchError(f"warm-up failed: {bad[0].error} {bad[0].reply}")
    return daemon, time.perf_counter() - t0, warm


# -- checks ------------------------------------------------------------------


class OfflineOracle:
    """Offline ``compute_prediction`` payloads on a store of its own,
    plus ``predict --verify`` reference runs for the error metric."""

    def __init__(self, run: RunDir, workload: str):
        from repro.cluster.topology import paper_testbed
        from repro.store import ArtifactStore, PipelineCache

        self.cluster = paper_testbed()
        root = run.fresh_store(f"{workload}-offline")
        assert_empty_store(root)
        self.cache = PipelineCache(ArtifactStore(root), self.cluster)
        self.aliases = {a["alias"]: a for a in
                        (warm_aliases() + mixed_aliases())}
        self._payloads: dict = {}
        self._actual: dict = {}

    def normalize(self, params: dict) -> dict:
        a = self.aliases[params["alias"]]
        return normalize(a["bench"], a["klass"], a["target"],
                         params["scenario"], int(params["env_seed"]))

    def payload(self, params: dict) -> str:
        from repro.predict.online import compute_prediction, request_key
        from repro.store import canonical_json

        req = self.normalize(params)
        key = request_key(req)
        if key not in self._payloads:
            self._payloads[key] = canonical_json(
                compute_prediction(req, self.cache, self.cluster))
        return self._payloads[key]

    def error_pct(self, params: dict, predicted: float) -> float:
        from repro.cluster import resolve_scenario
        from repro.predict.metrics import prediction_error_percent
        from repro.workloads import get_program

        a = self.aliases[params["alias"]]
        key = (a["bench"], a["klass"], params["scenario"])
        if key not in self._actual:
            program = get_program(a["bench"], a["klass"], spec.NPROCS,
                                  spec.WORKLOAD_SEED)
            self._actual[key] = reference_seconds(
                program, self.cluster, resolve_scenario(params["scenario"]))
        return abs(prediction_error_percent(predicted, self._actual[key]))


def check_payloads(oracle: OfflineOracle, schedule: list,
                   outcomes: list) -> int:
    """Compare every served payload byte for byte (canonical JSON)
    with the offline payload. A mismatch turns the outcome into a
    failure; returns the number of mismatches."""
    from repro.store import canonical_json

    bad = 0
    for item, out in zip(schedule, outcomes):
        if not out.ok:
            continue
        served = canonical_json(out.reply["result"])
        if served != oracle.payload(item["params"]):
            bad += 1
            out.reply = None
            out.error = "payload differs from offline compute_prediction"
    return bad


# -- metrics from one phase --------------------------------------------------


def latency_stats(outcomes: list) -> dict:
    lat = [o.latency * 1e3 for o in outcomes if o.ok]
    late = [o.late * 1e3 for o in outcomes]
    ok = [o for o in outcomes if o.ok]
    span = max((o.done for o in ok), default=math.nan)
    return {"n": len(lat), "p50": percentile(lat, 50),
            "rate": len(ok) / span if span > 0 else math.nan,
            "p99": percentile(lat, 99), "late_p99": percentile(late, 99),
            "failed": sum(1 for o in outcomes if not o.ok)}


def _step_passes(outcomes: list) -> bool:
    """Ladder rule: no failures, p99 within the limit, and no growing
    backlog (the last quarter's median latency is not more than twice
    the first quarter's plus 5 ms)."""
    st = latency_stats(outcomes)
    if st["failed"] or st["p99"] > spec.LATENCY_LIMIT_MS:
        return False
    q = max(1, len(outcomes) // 4)
    first = median(o.latency for o in outcomes[:q])
    last = median(o.latency for o in outcomes[-q:])
    return last <= 2.0 * first + 0.005


def sustained_rps(port: int, seed: int) -> tuple:
    """Bisect the fixed ladder for the highest passing rate. Returns
    ``(rate, steps tried, outcomes of every step)``."""
    lo, hi = -1, len(spec.LADDER)
    tried, all_outcomes = [], []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rate = spec.LADDER[mid]
        sched = warm_schedule(seed + 7919 * (mid + 1),
                              spec.LADDER_STEP_SECONDS, rate)
        outs = drive(port, _wire(sched), f"ladder{mid}")
        all_outcomes.append((sched, outs))
        ok = _step_passes(outs)
        tried.append((rate, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    rate = spec.LADDER[lo] if lo >= 0 else spec.LADDER[0] / 2.0
    return rate, tried, all_outcomes


# -- per-layer metrics from the daemon's telemetry ---------------------------


def spans_from_replies(outcomes: list, rec: SpanRecorder) -> None:
    """Adopt the server-side spans echoed on traced replies."""
    for o in outcomes:
        if o.ok and "trace" in o.reply:
            rec.spans += program_spans(o.reply["trace"].get("spans", []))


def serve_layers(rep: Report, rec: SpanRecorder, snap: dict) -> None:
    """Per-layer metrics of a serve workload from the spans echoed on
    traced replies and the daemon's ``metricz``."""
    spans = rec.spans
    for metric, name, own in (
        ("serve.request_ms", "server.request", False),
        ("serve.queue_wait_ms", "server.request", True),
        ("serve.service_ms", "service.predict", False),
        ("predict.compute_ms", "predict.compute", True),
        ("serve.worker_compute_ms", "worker.compute", False),
    ):
        m, _, n = span_stats(spans, name, own)
        rep.add(metric, m * 1e3, "ms", n,
                f"mean {'self ' if own else ''}time of {name}")
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    # The pool's share of a cold request: the service span minus the
    # worker.compute span inside it.
    pool = []
    for s in rec.by_name("service.predict"):
        work = [k["end"] - k["start"] for k in children.get(s["id"], ())
                if k["name"] == "worker.compute"]
        if work:
            pool.append(s["end"] - s["start"] - sum(work))
    rep.add("serve.pool_submit_ms", mean(pool) * 1e3 if pool else 0.0, "ms",
            len(pool), "service.predict minus worker.compute, cold requests")
    # The registry's serve.bundle_lru_* counters are not reached by the
    # predict path, so LRU hits are read off the spans: an in-process
    # predict that missed the bundle LRU rebuilds under predict.skeleton.
    computes = [s for s in rec.by_name("predict.compute")
                if s["parent"] in {p["id"] for p in
                                   rec.by_name("service.predict")}]
    rebuilt = sum(1 for s in computes
                  if any(k["name"] == "predict.skeleton"
                         for k in children.get(s["id"], ())))
    rep.add("serve.bundle_lru_hit_ratio",
            1.0 - rebuilt / len(computes) if computes else 0.0, "ratio",
            len(computes), "in-process predicts without a predict.skeleton")
    hits = counter(snap, "serve.cache_hits")
    misses = counter(snap, "serve.cache_misses")
    rep.add("serve.cache_hit_ratio", hits / (hits + misses)
            if hits + misses else 0.0, "ratio", int(hits + misses),
            "metricz serve.cache_hits over all predicts")
    rep.add("serve.coalesced", counter(snap, "serve.coalesced"), "count", 1)
    rep.add("serve.overloads", counter(snap, "serve.overload"), "count", 1)
    store_counters(rep, snap, "daemon process; pool workers count apart")
    sim_layers(rep, snap, "daemon-side simulation (publish); pool-worker "
               "time is serve.worker_compute_ms")
    busy, runs = hist_sum(snap, "engine.run_wall_seconds")
    rep.add("trace.traced_run_s", busy, "s", runs,
            "the daemon only traces (publish); cold runs are in workers")
    build, nb = hist_sum(snap, "construct.build_skeleton_seconds")
    rep.add("core.build_s", build, "s", nb, "publish-time construction")
    core_counters(rep, snap)


def probe_layers(rep: Report, store_root: Path, oracle: "OfflineOracle",
                 pairs: list) -> None:
    """Timed calls into the store, core, predict and registry layers on
    the drained daemon's store."""
    from repro.serve.registry import SkeletonRegistry
    from repro.store import ArtifactStore, PipelineCache

    cache = PipelineCache(ArtifactStore(store_root), oracle.cluster)
    probe_store(rep, cache, oracle.cluster,
                [oracle.normalize(p) for p in pairs])
    registry = SkeletonRegistry(cache.store)
    names = sorted({p["alias"] for p in pairs})
    rep.add("serve.registry_resolve_us",
            time_calls(registry.resolve, names) * 1e6, "us",
            ROUNDS * len(names), "SkeletonRegistry.resolve from the store")


def failure_causes(outcomes: list) -> dict:
    causes: dict = {}
    for o in outcomes:
        if not o.ok:
            causes[o.error] = causes.get(o.error, 0) + 1
    return causes


def stress_report(rep: Report, schedule: list, outcomes: list) -> None:
    """Printed-only metrics of the mixed-serve stress phase: how many
    requests the daemon shed (503) or failed otherwise under clustered
    cold requests at a rate above the gated one."""
    st = latency_stats(outcomes)
    n = len(outcomes)
    shed = sum(1 for o in outcomes if o.reply and o.reply.get("code") == 503)
    cold = [o.latency * 1e3 for it, o in zip(schedule, outcomes)
            if it["params"].get("cold") and o.ok]
    what = (f"{spec.MIXED_STRESS_RATE:g} req/s, cold in runs of "
            f"{spec.MIXED_STRESS_RUN}; printed only")
    rep.add("stress.overloads", shed, "count", n, "503 replies, " + what)
    rep.add("stress.failed_ratio", st["failed"] / n, "ratio", n, what)
    rep.add("stress.latency_p99_ms", st["p99"] if st["n"] else 0.0, "ms",
            st["n"], f"{beyond(st['n'], 99)} samples beyond")
    rep.add("stress.cold_latency_p50_ms", median(cold) if cold else 0.0,
            "ms", len(cold))
    rep.add("stress.generator_late_ms_p99", st["late_p99"], "ms", n)
    causes = failure_causes(outcomes)
    if causes:
        rep.note(f"stress phase failures by cause: {causes}")


# -- the workloads -----------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool,
        rep: Report, run_dir: RunDir) -> tuple:
    """Run ``warm-serve`` or ``mixed-serve``; returns
    ``(attempted, failed, correct)``."""
    setups, daemon, warmup, cold_setup = [], None, [], []
    for _ in range(1 if traced else spec.SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon, took, warmup = setup(run_dir, workload)
        setups.append(took)
        cold_setup += [o.latency * 1e3 for o in warmup]
    if workload == "warm-serve":
        schedule = warm_schedule(seed, seconds, spec.WARM_RATE)
    else:
        schedule = mixed_schedule(seed, seconds)
    half = len(schedule) // 2 if traced else len(schedule)
    rec = SpanRecorder()
    ladder = None
    try:
        outcomes = drive(daemon.port, _wire(schedule[:half]), f"{seed}:u")
        if traced:
            # The second half again, with trace contexts on the wire.
            t_half = schedule[half]["t"]
            rest = [dict(it, t=it["t"] - t_half) for it in schedule[half:]]
            tail = drive(daemon.port, _wire(rest), f"{seed}:t", trace=True)
            spans_from_replies(tail, rec)
            outcomes += tail
        elif workload == "warm-serve":
            ladder = sustained_rps(daemon.port, seed)
        snap = call(daemon.port, "metricz")
        rss = daemon.peak_rss_mb()
        stress = []
        if workload == "mixed-serve" and not traced:
            # After every gated number is taken, so it cannot move them.
            stress = mixed_schedule(seed, spec.MIXED_STRESS_SECONDS,
                                    stress=True)
            stress_out = drive(daemon.port, _wire(stress), f"{seed}:s")
    finally:
        daemon.stop()

    # -- checks, after the daemon is gone (not timed) ---------------------
    oracle = OfflineOracle(run_dir, workload)
    pairs = warm_working_set(workload)
    check_payloads(oracle, schedule, outcomes)
    side = check_payloads(oracle, [{"params": p} for p in pairs], warmup)
    for sched, outs in (ladder[2] if ladder else ()):
        side += check_payloads(oracle, sched, outs)
    if stress:
        side += check_payloads(oracle, stress, stress_out)
        stress_report(rep, stress, stress_out)
    if side:
        rep.note(f"{side} warm-up or ladder payload(s) differ from offline")
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    causes = failure_causes(outcomes)
    if causes:
        rep.note(f"failures by cause: {causes}")
    cold_now = int(counter(snap, "serve.cache_misses")) - len(warmup)
    if workload == "warm-serve" and cold_now:
        rep.note(f"{cold_now} timed request(s) were cold")
        failed += cold_now
    st = latency_stats(outcomes)
    valid = st["late_p99"] <= spec.GENERATOR_LATE_LIMIT_MS
    if not valid:
        rep.note(f"INVALID run, not scored: generator late p99 "
                 f"{st['late_p99']:.1f} ms > "
                 f"{spec.GENERATOR_LATE_LIMIT_MS:g} ms")
    rep.add("bench.generator_late_ms_p99", st["late_p99"], "ms",
            len(outcomes))
    if traced:
        base = latency_stats(outcomes[:half])
        with_trace = latency_stats(outcomes[half:])
        rep.add("bench.tracing_overhead_pct",
                (with_trace["p50"] / base["p50"] - 1.0) * 100.0, "%",
                with_trace["n"], f"latency_p50_ms, 1 in {spec.TRACE_EVERY} "
                "traced vs none")
        serve_layers(rep, rec, snap)
        probe_layers(rep, daemon.store, oracle, pairs)
        rec.write(STATE / f"spans-{workload}.json")
        return attempted, failed, valid and not side
    # Error of the predictions the warm working set serves.
    errors = [oracle.error_pct(p, o.reply["result"]["predicted_seconds"])
              for p, o in zip(pairs, warmup) if o.ok]
    if workload == "warm-serve":
        cold = cold_setup
        rate = spec.WARM_RATE
    else:
        cold = [o.latency * 1e3 for it, o in zip(schedule, outcomes)
                if it["params"].get("cold") and o.ok]
        rate = spec.MIXED_RATE
    rep.add("setup_s", median(setups), "s", len(setups))
    rep.add("throughput_per_s", st["rate"], "1/s", st["n"],
            f"successful replies per second, {rate:g} req/s offered")
    rep.add("latency_p50_ms", st["p50"], "ms", st["n"])
    rep.add("latency_p99_ms", st["p99"], "ms", st["n"],
            f"{beyond(st['n'], 99)} samples beyond")
    rep.add("cold_latency_p50_ms", median(cold), "ms", len(cold),
            "the warm-up passes" if workload == "warm-serve" else
            "cold requests of the timed phase")
    rep.add("prediction_error_pct", mean(errors), "%", len(errors),
            "warm working set against predict --verify runs")
    rep.add("peak_rss_mb", rss, "MiB", 1, "daemon + largest pool worker")
    rep.add("failed_ratio", failed / attempted, "ratio", attempted)
    if ladder is not None:
        rep.add("sustained_rps", ladder[0], "1/s", len(ladder[1]),
                "steps " + ", ".join(f"{r:g}:{'ok' if ok else 'fail'}"
                                     for r, ok in ladder[1]))
    return attempted, failed, valid and not side
