"""The ``batch`` workload: cold ``python -m repro.service`` batches.

One client runs CLI batches back to back, each with pool width 2,
``--impact``, a snapshot pack built at set-up, and the run's own
result store and impact-plan store.  Interpreter boot, pool spawn,
snapshot boot, the scheduler, the impact planner and the store do most
of the work; configurations repeat across jobs that share a setup, and
the store is written and read in the same run.

Every manifest has the same make-up (25 jobs), drawn by seed:

* the eight six-case jobs;
* 2 of the 4 ``Term``-variant jobs of :mod:`pb_envs`;
* 12 of the 48 unaffected links of the ``repro.service.synth`` wide
  chain and its 3 ``list``-affected targets;

in seeded order.  Every batch after the first reuses, for the five
light six-case jobs, the keys the first batch wrote (store hits); every
other job gets a fresh key from a per-batch ``new_name``.
Which jobs hit and which compute is the same in every batch, so the
seed moves no batch's cost much.

The first batch is the warm-up: it builds the impact plans every later
batch reuses, as a user's first batch would.  It is checked like the
others but left out of the timings.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import pbcommon as pc
import refcheck as rc

#: Batches per second of ``--seconds``.
BATCHES_PER_SECOND = 1.2

#: Snapshot-pack builds timed per run (median reported).
SETUP_REPS = 3

LIGHT = ("binary/slow_add", "binary/slow_add_n_Sm", "refactor/demorgan_1",
         "refactor/demorgan_2", "galois/cork")
WIDE_SETUP = "repro.service.synth:wide_env"
TERM_SETUP = "pb_envs:term_variants_env"

_OK = ("ok", "cached")


def job_pools() -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """(six-case, Term-variant, wide links, wide affected) job specs."""
    from pb_envs import TERM_VARIANTS
    from repro.service.cases import six_case_manifest
    from repro.service.synth import AFFECTED_TARGETS, WIDE_WIDTH

    six = six_case_manifest()["jobs"]
    term = [
        {"name": f"term/V{k}", "setup": TERM_SETUP, "target": "eval_eq_true_or_false",
         "config": {"kind": "auto", "a": "Old.Term", "b": f"V{k}.Term"},
         "old": ["Old.Term"], "rename": {"kind": "prefix", "value": f"V{k}."}}
        for k in range(len(TERM_VARIANTS))
    ]

    def wide(target: str) -> Dict[str, Any]:
        return {"name": f"wide/{target}", "setup": WIDE_SETUP, "target": target,
                "config": {"kind": "auto", "a": "list", "b": "New.list"},
                "old": ["list"], "rename": {"kind": "prefix", "value": "New."}}

    links = [wide(f"wide.d{i}") for i in range(WIDE_WIDTH)]
    affected = [wide(t) for t in AFFECTED_TARGETS]
    return six, term, links, affected


def tagged(spec: Dict[str, Any], tag: int) -> Dict[str, Any]:
    """The job under batch tag ``tag``: the tag is part of the repaired
    target's name, so it is part of the job's key."""
    out = dict(spec)
    out["new_name"] = f"b{tag}.{spec.get('new_name') or spec['target']}"
    return out


def manifests(seed: int, count: int) -> List[Dict[str, Any]]:
    rng = random.Random(seed)
    six, term, links, affected = job_pools()
    out = []
    for b in range(count):
        jobs = [tagged(s, 0 if s["name"] in LIGHT else b) for s in six]
        jobs += [tagged(s, b) for s in rng.sample(term, 2)]
        jobs += rng.sample(links, 12) + [tagged(s, b) for s in affected]
        rng.shuffle(jobs)
        out.append({"batch": f"bench-{b}", "jobs": jobs})
    return out


def build_pack(run: pc.Run, path: str) -> float:
    """One snapshot-pack build (process start to exit), in seconds."""
    argv = [sys.executable, "-m", "repro.kernel.snapshot", "--six-cases",
            "--setup", TERM_SETUP, "--setup", WIDE_SETUP, path]
    started = time.perf_counter()
    child = pc.spawn(run, argv)
    pc.wait_rusage(child)
    elapsed = time.perf_counter() - started
    if child.returncode != 0:
        raise pc.BenchError("snapshot build failed")
    return elapsed


class Batch:
    """One CLI batch and what it reported."""

    def __init__(self, manifest: Dict[str, Any], wall: float, rss_mb: float,
                 code: int, report: Optional[Dict[str, Any]]) -> None:
        self.manifest = manifest
        self.wall = wall
        self.rss_mb = rss_mb
        self.code = code
        self.report = report


def run_batch(run: pc.Run, tracer: pc.Tracer, b: int, manifest: Dict[str, Any], pack: str) -> Batch:
    manifest_path = run.path(f"manifest-{b}.json")
    report_path = run.path(f"report-{b}.json")
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    argv = [sys.executable, "-m", "repro.service", manifest_path, "--jobs", "2",
            "--impact", "--impact-store", run.path("impact"), "--snapshot", pack,
            "--store", run.path("store"), "--report", report_path]
    with tracer.span("cli_batch") as batch:
        child = pc.spawn(run, argv)
        usage = pc.wait_rusage(child)
    wall = batch.elapsed
    report = None
    if child.returncode == 0:
        with open(report_path) as handle:
            report = json.load(handle)
    return Batch(manifest, wall, usage.ru_maxrss / 1024, child.returncode, report)


class Reference:
    """Each job run in-process through ``repro.service.worker``."""

    def __init__(self) -> None:
        from repro.service import worker

        self.worker = worker
        self.residents: Dict[str, Any] = {}
        self.digests: Dict[str, str] = {}
        self.elaborate_s = 0.0

    def digest(self, job: Any) -> str:
        from repro.service.job import result_digest

        if job.key not in self.digests:
            if job.setup not in self.residents:
                started = time.perf_counter()
                env, boot = self.worker.boot_environment(job.setup)
                self.elaborate_s += time.perf_counter() - started
                self.residents[job.setup] = self.worker.Resident(
                    fingerprint=job.env_fingerprint, env=env, boot=boot
                )
            try:
                record = self.worker.execute_warm(self.residents, job.payload())
            except Exception as exc:  # noqa: BLE001 — the reference itself failed
                raise rc.CheckFailed(f"{job.name}: in-process run raised {type(exc).__name__}: {exc}")
            if record.get("status") != "ok":
                raise rc.CheckFailed(f"{job.name}: in-process run failed: {record.get('error')}")
            self.digests[job.key] = result_digest(record)
        return self.digests[job.key]


def unaffected_targets() -> Set[str]:
    """Constants of the wide environment that do not mention ``list``,
    directly or through the constants they use (this module's walk)."""
    from repro.service.synth import wide_env

    env = wide_env()
    verdict: Dict[str, bool] = {}

    def affected(name: str) -> bool:
        if name not in verdict:
            verdict[name] = True  # cycles cannot occur; guard anyway
            decl = env.constant(name)
            names = rc.globals_of(decl.type)
            if decl.body is not None:
                names |= rc.globals_of(decl.body)
            verdict[name] = "list" in names or any(
                affected(n) for n in names if env.has_constant(n) and n != name
            )
        return verdict[name]

    return {n for n in env.declaration_order() if env.has_constant(n) and not affected(n)}


def check_batches(batches: List[Batch], reference: Reference) -> List[str]:
    """Every job of every successful batch against the reference."""
    from repro.service.manifest import jobs_from_manifest

    problems: List[str] = []
    first: Dict[str, str] = {}
    seen: Set[str] = set()
    unaffected = unaffected_targets()
    for b, batch in enumerate(batches):
        if batch.report is None:
            continue
        jobs = {j.name: j for j in jobs_from_manifest(batch.manifest)}
        for out in batch.report["outcomes"]:
            job = jobs[out["name"]]
            try:
                if out["key"] != job.key:
                    raise rc.CheckFailed(f"{job.name}: key {out['key']} != {job.key}")
                if job.setup == WIDE_SETUP and job.target in unaffected:
                    want = "skipped-unaffected"
                else:
                    want = "cached" if job.key in seen else "ok"
                if out["status"] != want:
                    raise rc.CheckFailed(f"{job.name}: status {out['status']}, expected {want}")
                if want in _OK:
                    digest = out["result_digest"]
                    if digest != first.setdefault(job.key, digest):
                        raise rc.CheckFailed(f"{job.name}: store hit differs from first result")
                    if digest != reference.digest(job):
                        raise rc.CheckFailed(f"{job.name}: digest differs from in-process run")
                    seen.add(job.key)
            except rc.CheckFailed as exc:
                problems.append(f"batch {b}: {exc}")
    return problems


def run(run_: pc.Run, seed: int, seconds: int, trace: bool) -> pc.Outcome:
    packs = [run_.path(f"pack-{k}.snap") for k in range(SETUP_REPS)]
    setups = [build_pack(run_, p) for p in packs]
    count = 1 + max(1, round(seconds * BATCHES_PER_SECOND))
    tracer = pc.Tracer(trace)
    batches = [run_batch(run_, tracer, b, m, packs[-1]) for b, m in enumerate(manifests(seed, count))]
    reference = Reference()
    problems = check_batches(batches, reference)
    done = [b for b in batches[1:] if b.report is not None]
    failures = [f"batch {i}: CLI exited {b.code}" for i, b in enumerate(batches) if b.report is None]
    if not done:
        raise pc.BenchError("no timed batch completed: " + "; ".join(failures))
    walls = [b.wall for b in done]
    total = sum(walls)
    repaired = sum(
        1 for b in done for o in b.report["outcomes"] if o["status"] in _OK
    )
    if not trace:
        metrics = {
            "setup_s": pc.metric(statistics.median(setups), "s"),
            "op_p50_s": pc.metric(pc.p50(walls), "s"),
            "op_p90_s": pc.metric(pc.p90(walls), "s"),
            "ops_per_s": pc.metric(len(done) / total, "1/s"),
            "jobs_per_s": pc.metric(repaired / total, "1/s"),
            "peak_rss_mb": pc.metric(statistics.median(b.rss_mb for b in done), "MiB"),
        }
    else:
        metrics = layer_metrics(run_, done, reference, repaired / total)
    return pc.Outcome(
        correct=not problems,
        attempted=len(batches),
        failed=len(failures),
        metrics=metrics,
        problems=problems + failures,
        tracer=tracer,
    )


def layer_metrics(run_: pc.Run, done: List[Batch], reference: Reference, throughput: float) -> Dict[str, float]:
    """Per-layer figures from the reports, the store and the reference."""
    from repro.service.store import ResultStore

    import_s = pc.time_import(run_, "repro.service.cli")
    reports = [b.report for b in done]
    outcomes = [o for r in reports for o in r["outcomes"]]
    pools = [r.get("pool") or {} for r in reports]
    hits = sum(r["store"]["hits"] for r in reports)
    misses = sum(r["store"]["misses"] for r in reports)
    jobs = sum(p.get("jobs", 0) for p in pools)
    store = ResultStore(run_.path("store"))
    constructions = intern_hits = events = 0
    tables: Dict[str, Dict[str, int]] = {}
    for o in outcomes:
        if o["status"] != "ok":
            continue
        with open(store.path_for(o["key"])) as handle:
            delta = json.load(handle)["result"]["kernel_delta"]
        constructions += delta["constructions"]
        intern_hits += delta["intern_hits"]
        events += sum(v for k, v in delta["events"].items() if k.startswith("machine_"))
        for name, counts in delta["tables"].items():
            table = tables.setdefault(name, {"hits": 0, "misses": 0})
            table["hits"] += counts["hits"]
            table["misses"] += counts["misses"]
    figures = {
        "boot.import_s": import_s,
        "stdlib.elaborate_s": reference.elaborate_s,
        "cli.overhead_s": statistics.median(b.wall - b.report["wall_time_s"] for b in done),
        "scheduler.wall_s": statistics.median(r["wall_time_s"] for r in reports),
        "worker.job_p50_s": statistics.median(o["wall_time_s"] for o in outcomes if o["status"] == "ok"),
        "worker.utilization": statistics.mean(r["worker_utilization"] for r in reports),
        "pool.spawned": sum(p.get("spawned", 0) for p in pools),
        "pool.env_boots": sum(p.get("env_boots", 0) for p in pools),
        "pool.reuse_rate": sum(p.get("warm_jobs", 0) for p in pools) / jobs if jobs else 0.0,
        "snapshot.boots": sum(1 for o in outcomes if o.get("env_boot") == "snapshot"),
        "store.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "store.writes": sum(1 for o in outcomes if o["status"] == "ok"),
        "impact.skipped": sum(1 for o in outcomes if o["status"] == "skipped-unaffected"),
        "repair.constants": sum(1 for o in outcomes if o["status"] in _OK),
        "trace.unattributed_s": sum(b.wall - b.report["wall_time_s"] - import_s for b in done),
        "trace.throughput": throughput,
    }
    figures.update(pc.kernel_figures(constructions, intern_hits, tables, events))
    return figures
