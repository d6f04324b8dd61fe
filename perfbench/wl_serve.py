"""The ``serve`` workload: a long-lived ``python -m repro.server``.

The server runs with 2 pool workers and its store in the run's
directory; 2 client threads, each with one keep-alive connection, drive
it in a closed loop.  Transport, routing, the session manager and the
store tier dominate the hit path, pool checkout the miss path; session
commands run inside the server process, so its heap growth shows.

Each client's round is 22 requests in a fixed class mix:

* one session: create (setup ``pb_envs:term_variants_env``), ``Repair
  module`` onto two pre-declared variants with fresh prefixes, a
  ``Replay`` and a ``Decompile`` of the repaired theorem, close;
* 4 ``/v1/repair`` manifests of one fresh ``Term``-variant job (store
  misses) and 12 that repeat a job this client already ran (store hits).

The mix puts the median inside the hits and the 90th percentile inside
the misses, so neither quantile sits on a boundary between classes.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import pbcommon as pc
import refcheck as rc
import wl_batch

#: Rounds per client per second of ``--seconds``.
ROUNDS_PER_SECOND = 0.6
CLIENTS = 2
SETUP_REPS = 5
HITS, MISSES = 12, 4
SETUP = "pb_envs:term_variants_env"


# -- Requests ------------------------------------------------------------------


class Req:
    """One request, its expected outcome, and what came back."""

    __slots__ = ("kind", "method", "path", "body", "expect", "status", "reply", "latency", "start", "app_s")

    def __init__(self, kind: str, method: str, path: str, body: Optional[Dict[str, Any]], expect: Any = None) -> None:
        self.kind = kind
        self.method = method
        self.path = path
        self.body = body
        self.expect = expect
        self.status = 0
        self.reply: Any = None
        self.latency = 0.0
        self.start = 0.0
        self.app_s = 0.0


def repair_request(spec: Dict[str, Any], tag: str) -> Req:
    job = dict(spec, new_name=f"{tag}.{spec['target']}")
    return Req("repair", "POST", "/v1/repair", {"batch": tag, "jobs": [job]})


def hit(miss: Req) -> Req:
    return Req("repair", "POST", "/v1/repair", miss.body)


def client_requests(seed: int, client: int, rounds: int) -> List[Req]:
    rng = random.Random(seed * 1000 + client)
    _six, term, _links, _affected = wl_batch.job_pools()
    out: List[Req] = []
    written: List[Req] = []
    for r in range(rounds):
        tag = f"c{client}r{r}"
        name = f"s{tag}"
        a, b = rng.sample(range(len(term)), 2)
        p, q = f"P{tag}", f"Q{tag}"
        session = [
            Req("session", "POST", "/v1/sessions", {"name": name, "setup": SETUP}),
            Req("command", "POST", f"/v1/sessions/{name}/command",
                {"script": f"Repair module Old.Term V{a}.Term prefix {p}"},
                ("names", [f"{p}.eval", f"{p}.eval_eq_true_or_false"])),
            Req("command", "POST", f"/v1/sessions/{name}/command",
                {"script": f"Replay {p}.eval_eq_true_or_false"},
                ("summary", f"decompiled script for {p}.eval_eq_true_or_false replays and checks")),
            Req("command", "POST", f"/v1/sessions/{name}/command",
                {"script": f"Repair module Old.Term V{b}.Term prefix {q}"},
                ("names", [f"{q}.eval", f"{q}.eval_eq_true_or_false"])),
            Req("command", "POST", f"/v1/sessions/{name}/command",
                {"script": f"Decompile {q}.eval_eq_true_or_false"},
                ("text", f"{q}.eval_eq_true_or_false")),
            Req("session", "DELETE", f"/v1/sessions/{name}", None),
        ]
        misses = [repair_request(rng.choice(term), f"m{tag}k{k}") for k in range(MISSES)]
        # Hits repeat a job this client has already run.
        written.append(misses[0])
        repairs = misses[:1] + [hit(rng.choice(written)) for _ in range(HITS // 2)]
        written += misses[1:]
        repairs += misses[1:] + [hit(rng.choice(written)) for _ in range(HITS - HITS // 2)]
        out += session[:3] + repairs[: len(repairs) // 2] + session[3:] + repairs[len(repairs) // 2:]
    return out


# -- The server ------------------------------------------------------------------------


def boot(run: pc.Run) -> Tuple["subprocess.Popen[bytes]", int, float]:
    """Start the server; time it to its listening line."""
    argv = [sys.executable, "-m", "repro.server", "--port", "0", "--workers", "2",
            "--store", run.path("store"), "--rate", "0", "--quiet"]
    started = time.perf_counter()
    child = pc.spawn(run, argv, stdout=subprocess.PIPE)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - started
    try:
        event = json.loads(line)
        if event.get("event") != "listening":
            raise ValueError(line)
    except ValueError:
        pc.kill_group(child)
        raise pc.BenchError(f"server did not report listening: {line[:200]!r}")
    return child, int(event["port"]), elapsed


def stop(child: "subprocess.Popen[bytes]", port: int) -> None:
    """SIGTERM (graceful drain), then wait for the exit.

    The server prints its listening line before it installs its signal
    handlers, so a ``/healthz`` answer comes first: it shows the serve
    loop, and with it the drain handler, is in place.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", "/healthz")
    conn.getresponse().read()
    conn.close()
    child.terminate()
    pc.wait_rusage(child, timeout_s=60)
    child.stdout.close()
    if child.returncode != 0:
        raise pc.BenchError(f"server exited {child.returncode}")


def call(conn: http.client.HTTPConnection, req: Req) -> None:
    body = json.dumps(req.body).encode() if req.body is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    req.start = time.perf_counter()
    conn.request(req.method, req.path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    req.latency = time.perf_counter() - req.start
    req.status = response.status
    req.reply = json.loads(data) if data else None


def drive(port: int, requests: List[Req], errors: List[str]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for req in requests:
            call(conn, req)
    except Exception as exc:  # noqa: BLE001 — reported by the main thread
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        conn.close()


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


# -- Checks ------------------------------------------------------------------------------


def check(req: Req, reference: wl_batch.Reference, first: Dict[str, str]) -> bool:
    """True when ``req`` succeeded and its output checks out; raises
    :class:`refcheck.CheckFailed` on a wrong output."""
    want = 201 if req.kind == "session" and req.method == "POST" else 200
    if req.status != want:
        return False
    reply = req.reply
    if req.kind == "command":
        what, value = req.expect
        result = reply["results"][0]
        if what == "names" and sorted(result["new_names"]) != sorted(value):
            raise rc.CheckFailed(f"{req.path}: repaired {result['new_names']}")
        if what == "summary" and result["summary"] != value:
            raise rc.CheckFailed(f"{req.path}: {result['summary']}")
        if what == "text" and value not in (result["text"] or ""):
            raise rc.CheckFailed(f"{req.path}: decompiled script does not name {value}")
    elif req.kind == "repair":
        from repro.service.manifest import jobs_from_manifest

        (job,) = jobs_from_manifest(req.body)
        (out,) = reply["outcomes"]
        if out["status"] not in ("ok", "cached") or out["key"] != job.key:
            raise rc.CheckFailed(f"{job.name}: {out['status']} {out['key']}")
        if (out["status"] == "cached") != (job.key in first):
            raise rc.CheckFailed(f"{job.name}: status {out['status']} on a {'repeated' if job.key in first else 'fresh'} key")
        digest = out["result_digest"]
        if digest != first.setdefault(job.key, digest):
            raise rc.CheckFailed(f"{job.name}: store hit differs from first result")
        if digest != reference.digest(job):
            raise rc.CheckFailed(f"{job.name}: digest differs from in-process run")
    return True


# -- Traced replay ----------------------------------------------------------------------------


def replay(run: pc.Run, order: List[Req], layer: Dict[str, float]) -> Tuple[List[str], pc.Tracer]:
    """The same request stream through an in-process ``RepairApp``.

    Times ``RepairApp.handle`` per request and the spans under it, and
    compares each reply with the one the server sent.
    """
    import gc

    import repro.commands as commands
    import repro.server.app as app_mod
    import repro.server.sessions as sessions_mod
    import wl_session
    from repro.core.search import swap
    from repro.kernel.stats import KERNEL_STATS
    from repro.kernel.term import intern_table_size

    tracer = pc.Tracer(True)
    pc.wrap_attr(commands, "configure", tracer, "configure")
    pc.wrap_attr(swap, "prove_swap_equivalence", tracer, "prove")
    pc.wrap_attr(commands.RepairSession, "repair_module", tracer, "repair")
    pc.wrap_attr(commands, "decompile_to_script", tracer, "decompile")
    pc.wrap_attr(commands, "run_script", tracer, "replay")
    pc.wrap_attr(sessions_mod, "boot_environment", tracer, "elaborate")
    pc.wrap_attr(app_mod, "run_batch", tracer, "batch")
    app = app_mod.RepairApp(
        app_mod.ServerConfig(workers=2, store_dir=run.path("replay-store"), rate=0, quiet=True)
    )
    for name in ("create", "run", "close"):
        pc.wrap_attr(app.sessions, name, tracer, "sessions")
    watch = wl_session.GcWatch()
    before = KERNEL_STATS.snapshot()
    gc.callbacks.append(watch)
    mismatches: List[str] = []
    try:
        for req in order:
            body = json.dumps(req.body).encode() if req.body is not None else b""
            with tracer.span("handle") as handled:
                response = app.handle(app_mod.Request(req.method, req.path, {}, body, "bench"))
            req.app_s = handled.elapsed
            if response.status != req.status or normalise(response.payload) != normalise(req.reply):
                mismatches.append(
                    f"replay of {req.method} {req.path} differs from the server's reply: "
                    f"{json.dumps(normalise(response.payload), sort_keys=True)[:300]} vs "
                    f"{json.dumps(normalise(req.reply), sort_keys=True)[:300]}"
                )
    finally:
        gc.callbacks.remove(watch)
        app.drain(10)
    layer.update(wl_session.kernel_layer(before, KERNEL_STATS.snapshot()))
    by_kind = {k: [r.app_s for r in order if r.kind == k] for k in ("repair", "command", "session")}
    layer.update(
        {
            "server.app_s.repair": statistics.median(by_kind["repair"]),
            "server.app_s.command": statistics.median(by_kind["command"]),
            "server.app_s.session": statistics.median(by_kind["session"]),
            "server.transport_s": statistics.median(r.latency for r in order)
            - statistics.median(r.app_s for r in order),
            "configure.s": tracer.total("configure"),
            "configure.prove_s": tracer.total("prove"),
            "configure.calls": tracer.count("configure"),
            "repair.s": tracer.total("repair"),
            "decompile.s": tracer.total("decompile"),
            "replay.s": tracer.total("replay"),
            "stdlib.elaborate_s": tracer.total("elaborate"),
            "gc.gen2_count": len(watch.gen2),
            "gc.gen2_pause_s": sum(watch.gen2),
            "gc.pause_s": sum(watch.pauses),
            "gc.tracked_objects": len(gc.get_objects()),
            "kernel.intern_size": intern_table_size(),
            "trace.unattributed_s": tracer.total("handle") - tracer.total("sessions") - tracer.total("batch"),
        }
    )
    return mismatches, tracer


def normalise(payload: Any) -> Any:
    """A reply without the fields that legitimately differ run to run."""
    if isinstance(payload, dict):
        return {
            k: normalise(v)
            for k, v in payload.items()
            if k not in ("wall_time_s", "created_at", "idle_s", "pool", "store", "worker_utilization",
                         "max_queue_depth", "env_boot")
        }
    if isinstance(payload, list):
        return [normalise(v) for v in payload]
    return payload


# -- The run ------------------------------------------------------------------------------------


def run(run_: pc.Run, seed: int, seconds: int, trace: bool) -> pc.Outcome:
    setups = []
    for k in range(SETUP_REPS):
        child, port, elapsed = boot(run_)
        setups.append(elapsed)
        if k < SETUP_REPS - 1:
            stop(child, port)
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    streams = [client_requests(seed, c, rounds) for c in range(CLIENTS)]
    errors: List[str] = []
    threads = [threading.Thread(target=drive, args=(port, s, errors)) for s in streams]
    started = time.perf_counter()
    for t in threads:
        t.start()
    deadline = started + 120
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.perf_counter()))
    wall = time.perf_counter() - started
    if any(t.is_alive() for t in threads):
        pc.kill_group(child)
        raise pc.BenchError("clients did not finish")
    status = None
    tracer = None
    if trace:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/v1/status")
        status = json.loads(conn.getresponse().read())
        conn.close()
    rss = vm_hwm_mb(child.pid)
    stop(child, port)

    reference = wl_batch.Reference()
    first: Dict[str, str] = {}
    order = sorted((r for s in streams for r in s), key=lambda r: r.start)
    failures: List[str] = list(errors)
    mismatches: List[str] = []
    for req in order:
        try:
            if not check(req, reference, first):
                failures.append(f"{req.method} {req.path}: HTTP {req.status} {str(req.reply)[:200]}")
        except rc.CheckFailed as exc:
            mismatches.append(str(exc))
    done = [r for r in order if r.status in (200, 201)]
    if not done:
        raise pc.BenchError("no request succeeded: " + "; ".join(failures[:3]))
    latencies = [r.latency for r in done]
    jobs = sum(1 for r in done if r.kind == "repair")
    if not trace:
        metrics = {
            "setup_s": pc.metric(statistics.median(setups), "s"),
            "op_p50_s": pc.metric(pc.p50(latencies), "s"),
            "op_p90_s": pc.metric(pc.p90(latencies), "s"),
            "ops_per_s": pc.metric(len(done) / wall, "1/s"),
            "jobs_per_s": pc.metric(jobs / wall, "1/s"),
            "peak_rss_mb": pc.metric(rss, "MiB"),
        }
    else:
        layer: Dict[str, float] = {
            "boot.import_s": pc.time_import(run_, "repro.server.http, repro.server.app"),
            "server.rss_mb": rss,
            "server.rejected": sum(1 for r in order if r.status in (429, 503)),
            "server.repair_hit_s": statistics.median(
                r.latency for r in done if r.kind == "repair" and r.reply["outcomes"][0]["status"] == "cached"),
            "server.repair_miss_s": statistics.median(
                r.latency for r in done if r.kind == "repair" and r.reply["outcomes"][0]["status"] == "ok"),
            "server.session_create_s": statistics.median(
                r.latency for r in done if r.kind == "session" and r.method == "POST"),
            "repair.constants": sum(len(r.reply["results"][0]["new_names"]) for r in done if r.kind == "command"),
            "trace.throughput": len(done) / wall,
        }
        pool = status.get("pool") or {}
        store = status.get("store") or {}
        layer.update(
            {
                "pool.spawned": pool.get("spawned", 0),
                "pool.env_boots": pool.get("env_boots", 0),
                "pool.reuse_rate": pool.get("reuse_rate", 0.0),
                "store.hit_rate": store.get("hit_rate", 0.0),
                "store.writes": sum(1 for r in done if r.kind == "repair" and r.reply["outcomes"][0]["status"] == "ok"),
            }
        )
        replay_mismatches, tracer = replay(run_, order, layer)
        mismatches += replay_mismatches
        metrics = layer
    return pc.Outcome(
        correct=not mismatches,
        attempted=len(order),
        failed=len(failures),
        metrics=metrics,
        problems=mismatches + failures,
        tracer=tracer,
    )
