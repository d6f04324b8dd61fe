"""The ``session`` workload: one long-lived in-process repair session.

A stream of fresh type changes, drawn from the paper's change classes,
each Configure -> Repair module -> Decompile -> Replay inside an
``Environment.checkpoint()``/``rollback()``.  No configuration
repeats, so a cross-request equivalence cache must leave this workload
unchanged; the process lives long enough for heap and GC growth to
show.

One round is 14 operations in a fixed class mix, in seeded order:

* 9 ``Term`` changes (Figure 16): the Int/Eq swap, the Plus/Times
  swap, a rename of every constructor, a seeded 3-cycle, a seeded
  permute-and-rename (explicit mapping, as the paper passes one), and
  four seeded permutations of all 7 constructors;
* 2 Section 2 ``list`` swaps, each onto a freshly named type;
* 3 Section 6.1.3 Enum permutations, of 10/14/18, 18/22/26 and
  22/26/30 constructors.

The mix keeps the median inside the ``Term`` changes and the 90th
percentile inside the ``list`` swaps, the slowest class, below the
share of them that a gen-2 collection lands in, so neither quantile
sits on a boundary between classes.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import pbcommon as pc
import refcheck as rc

#: Rounds per second of ``--seconds``; fixes the operation count, so a
#: run is the same seeded sequence however fast the program is.
ROUNDS_PER_SECOND = 0.8

TERM_NAMES = ["Var", "Int", "Eq", "Plus", "Times", "Minus", "Choose"]
BINARY = ["Eq", "Plus", "Times", "Minus"]
ENUM_SIZES = ((10, 14, 18), (18, 22, 26), (22, 26, 30))

#: Cold session set-ups timed per run (median reported).
SETUP_REPS = 5


# -- Environments ---------------------------------------------------------------


def declare_enum(env: Any, name: str, order: Sequence[int]) -> None:
    """An enum whose j-th constructor is ``c{order[j]}``."""
    from repro.kernel.inductive import ConstructorDecl, InductiveDecl
    from repro.kernel.term import SET

    env.declare_inductive(
        InductiveDecl(
            name=name,
            params=(),
            indices=(),
            sort=SET,
            constructors=tuple(ConstructorDecl(f"c{k}", args=()) for k in order),
        )
    )


def enum_env() -> Any:
    """Old enums of every size the workload draws, each with ``to_nat``
    and a lemma about it."""
    from repro.stdlib import make_env
    from repro.syntax.parser import parse
    from repro.tactics.engine import prove
    from repro.tactics.tactics import reflexivity

    env = make_env(lists=False, vectors=False)
    for size in sorted({s for group in ENUM_SIZES for s in group}):
        old = f"Old.E{size}"
        declare_enum(env, old, range(size))
        cases = ", ".join(str(k) for k in range(size))
        env.define(
            f"to_nat{size}",
            parse(env, f"fun (e : {old}) => Elim[{old}](e; fun (_ : {old}) => nat) {{ {cases} }}"),
        )
        stmt = parse(env, f"eq nat (to_nat{size} {old}#{size - 1}) {size - 1}")
        env.define(f"to_nat{size}_last", prove(env, stmt, reflexivity()), type=stmt)
    return env


def build_envs() -> Dict[str, Any]:
    """The session's environments: Figure 16, lists, enums."""
    from repro.cases.replica import setup_environment
    from repro.stdlib import make_env

    return {
        "term": setup_environment(),
        "list": make_env(lists=True, vectors=False),
        "enum": enum_env(),
    }


# -- Operations ---------------------------------------------------------------------


@dataclass
class Change:
    """One fresh type change and what the checks expect of it."""

    kind: str  # term | list | enum
    label: str
    old: str
    new: str
    prefix: str
    #: New-type constructor order, by original constructor name/index.
    order: List[Any]
    renames: Dict[str, str] = field(default_factory=dict)
    #: The mapping the generator applied (old index -> new index).
    expected: Tuple[int, ...] = ()
    #: Passed to Configure when the intended mapping is ambiguous.
    explicit: Optional[Tuple[int, ...]] = None


def _term_change(label: str, order: List[str], renames: Dict[str, str], explicit: bool) -> Dict[str, Any]:
    expected = tuple(order.index(name) for name in TERM_NAMES)
    return dict(
        kind="term", label=label, old="Old.Term", order=order, renames=renames,
        expected=expected, explicit=expected if explicit else None,
    )


def round_changes(rng: random.Random) -> List[Dict[str, Any]]:
    """One round's 14 changes, in seeded order."""
    out = []
    swap_ie = ["Var", "Eq", "Int", "Plus", "Times", "Minus", "Choose"]
    out.append(_term_change("swap Int/Eq", swap_ie, {}, False))
    swap_pt = ["Var", "Int", "Eq", "Times", "Plus", "Minus", "Choose"]
    out.append(_term_change("swap Plus/Times", swap_pt, {}, False))
    tag = rng.randrange(10**6)
    out.append(
        _term_change(
            "rename all", list(TERM_NAMES), {n: f"{n}{tag}" for n in TERM_NAMES}, False
        )
    )
    three = rng.sample(BINARY, 3)
    order = list(TERM_NAMES)
    slots = [order.index(n) for n in three]
    for slot, name in zip(slots, three[1:] + three[:1]):
        order[slot] = name
    out.append(_term_change("3-cycle", order, {}, False))
    perm = BINARY[:]
    while perm == BINARY:
        rng.shuffle(perm)
    order = ["Var", "Int"] + perm + ["Choose"]
    renames = {n: f"{n}{tag}" for n in rng.sample(BINARY, 2)}
    out.append(_term_change("permute+rename", order, renames, True))
    for _ in range(4):
        order = list(TERM_NAMES)
        while order == TERM_NAMES:
            rng.shuffle(order)
        out.append(_term_change("permutation", order, {}, False))
    for _ in range(2):
        out.append(dict(kind="list", label="list swap", old="list", order=["cons", "nil"], expected=(1, 0)))
    for sizes in ENUM_SIZES:
        size = rng.choice(sizes)
        order = list(range(size))
        rng.shuffle(order)
        expected = tuple(order.index(k) for k in range(size))
        out.append(dict(kind="enum", label=f"enum {size}", old=f"Old.E{size}", order=order, expected=expected))
    rng.shuffle(out)
    return out


def make_changes(seed: int, seconds: int) -> List[Change]:
    rng = random.Random(seed)
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    changes = []
    for _ in range(rounds):
        for spec in round_changes(rng):
            i = len(changes)
            prefix = f"S{i}"
            suffix = {"term": "Term", "list": "list", "enum": "E"}[spec["kind"]]
            changes.append(Change(new=f"{prefix}.{suffix}", prefix=prefix, **spec))
    return changes


def declare_change(env: Any, change: Change) -> None:
    if change.kind == "term":
        from repro.cases.replica import declare_term_language

        declare_term_language(env, change.new, order=change.order, renames=change.renames)
    elif change.kind == "list":
        from repro.stdlib import declare_list_type

        declare_list_type(env, change.new, swapped=True)
    else:
        declare_enum(env, change.new, change.order)


@dataclass
class Done:
    """What one operation produced, for the checks."""

    config: Any
    results: List[Any]
    proofs: List[Any]


class Session:
    """The long-lived in-process session; :meth:`step` is one operation."""

    def __init__(self, envs: Dict[str, Any], tracer: pc.Tracer) -> None:
        from repro.core.repair import RepairSession
        from repro.core.search import configure
        from repro.decompile.decompiler import decompile_to_script
        from repro.decompile.run import run_script

        self.envs = envs
        self.tracer = tracer
        self._configure = configure
        self._session = RepairSession
        self._decompile = decompile_to_script
        self._replay = run_script

    def step(self, change: Change, check: Callable[[Any, Change, Done], None]) -> Tuple[float, int]:
        """Run one change; ``check`` sees it before rollback.  Returns
        the operation's latency (declare through replay, plus rollback)
        and the number of constants it repaired."""
        env = self.envs[change.kind]
        span = self.tracer.span
        mark = env.checkpoint()
        try:
            with span("op") as op:
                with span("declare"):
                    declare_change(env, change)
                with span("configure"):
                    config = self._configure(env, change.old, change.new, mapping=change.explicit)
                with span("repair"):
                    prefix = change.prefix
                    session = self._session(
                        env, config, old_globals=[change.old], rename=lambda n: f"{prefix}.{n}"
                    )
                    results = session.repair_module()
                with span("decompile"):
                    scripts = [self._decompile(env, r.term) for r in results]
                with span("replay"):
                    proofs = [self._replay(env, r.type, s) for r, s in zip(results, scripts)]
            check(env, change, Done(config, results, proofs))
        finally:
            with span("rollback") as rollback:
                env.rollback(mark)
        return op.elapsed + rollback.elapsed, len(results)


# -- Checks ----------------------------------------------------------------------------


class Checker:
    """Every output check of the session workload."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed ^ 0x5EC)

    def __call__(self, env: Any, change: Change, done: Done) -> None:
        from repro.kernel.context import Context
        from repro.kernel.term import TermError
        from repro.kernel.typecheck import check

        mapping = tuple(done.config.b.perm)
        if mapping != change.expected:
            raise rc.CheckFailed(f"{change.label}: mapping {mapping} != generated {change.expected}")
        repaired = {r.old_name: r for r in done.results}
        old = {change.old} | set(repaired)
        rc.check_residual_free([t for r in done.results for t in (r.term, r.type)], old)
        for r, proof in zip(done.results, done.proofs):
            try:
                check(env, Context.empty(), proof, r.type)
            except TermError as exc:
                raise rc.CheckFailed(f"{change.label}: replayed proof of {r.new_name} does not check: {exc}")
        getattr(self, f"_{change.kind}")(env, change, repaired)

    def _names(self, change: Change, repaired: Dict[str, Any], wanted: Sequence[str]) -> None:
        got = sorted(r.new_name for r in repaired.values())
        if got != sorted(f"{change.prefix}.{n}" for n in wanted):
            raise rc.CheckFailed(f"{change.label}: repaired {got}")

    def _term(self, env: Any, change: Change, repaired: Dict[str, Any]) -> None:
        from repro.core.search.swap import find_constructor_mappings
        from repro.kernel.reduce import nf

        self._names(change, repaired, ["eval", "eval_eq_true_or_false"])
        count = sum(1 for _ in find_constructor_mappings(env, change.old, change.new))
        if count != rc.type_correct_mappings(rc.TERM_LAYOUT):
            raise rc.CheckFailed(f"{change.label}: {count} type-correct mappings")
        position = {name: change.order.index(name) for name in TERM_NAMES}
        for expr, logic, offset in rc.term_cases(self.rng, 3):
            call = rc.eval_call(f"{change.prefix}.eval", expr, change.new, position, logic, offset)
            got = rc.read_nat(nf(env, call))
            want = rc.eval_expr(expr, logic, offset)
            if got != want:
                raise rc.CheckFailed(f"{change.label}: eval {expr} = {got}, expected {want}")

    def _list(self, env: Any, change: Change, repaired: Dict[str, Any]) -> None:
        from repro.kernel.reduce import nf
        from repro.kernel.term import Const, Ind

        for name in rc.LIST_FUNCTIONS:
            if name not in repaired:
                raise rc.CheckFailed(f"{change.label}: {name} was not repaired")
        nil, cons = change.order.index("nil"), change.order.index("cons")
        for name, model in rc.LIST_FUNCTIONS.items():
            xs = [self.rng.randrange(4) for _ in range(self.rng.randrange(4))]
            ys = [self.rng.randrange(4) for _ in range(self.rng.randrange(3))]
            call = Const(f"{change.prefix}.{name}").app(Ind("nat"), rc.list_term(xs, change.new, nil, cons))
            if name == "app":
                call = call.app(rc.list_term(ys, change.new, nil, cons))
            value = nf(env, call)
            want = model(xs, ys)
            got = rc.read_nat(value) if name == "length" else rc.read_list(value, change.new, nil, cons)
            if got != want:
                raise rc.CheckFailed(f"{change.label}: {name} {xs} {ys} = {got}, expected {want}")

    def _enum(self, env: Any, change: Change, repaired: Dict[str, Any]) -> None:
        from repro.kernel.reduce import nf
        from repro.kernel.term import Const, Constr

        size = len(change.order)
        self._names(change, repaired, [f"to_nat{size}", f"to_nat{size}_last"])
        for j in self.rng.sample(range(size), 4):
            got = rc.read_nat(nf(env, Const(f"{change.prefix}.to_nat{size}").app(Constr(change.new, j))))
            if got != change.order[j]:
                raise rc.CheckFailed(f"{change.label}: to_nat of constructor {j} = {got}, expected {change.order[j]}")


# -- The run -----------------------------------------------------------------------------


def cold_setup_s(run: pc.Run) -> float:
    """One cold session set-up: interpreter start to the environments
    returned (the child prints a line once ``build_envs`` returns)."""
    import subprocess

    code = "import wl_session, sys; wl_session.build_envs(); sys.stdout.write('ready\\n'); sys.stdout.flush()"
    started = time.perf_counter()
    child = pc.spawn(run, [sys.executable, "-c", code], stdout=subprocess.PIPE)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - started
    child.stdout.close()
    pc.wait_rusage(child)
    if line.strip() != b"ready" or child.returncode != 0:
        raise pc.BenchError("session set-up child failed")
    return elapsed


class GcWatch:
    """Gen-2 collections and pauses, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses: List[float] = []
        self.gen2: List[float] = []
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        pause = time.perf_counter() - self._start
        self.pauses.append(pause)
        if info.get("generation") == 2:
            self.gen2.append(pause)


def run(run_: pc.Run, seed: int, seconds: int, trace: bool) -> pc.Outcome:
    tracer = pc.Tracer(trace)
    setups = [cold_setup_s(run_) for _ in range(SETUP_REPS)]
    layer: Dict[str, Any] = {}
    if trace:
        layer["boot.import_s"] = pc.time_import(run_, "wl_session, repro.cases.replica, repro.core.search, repro.decompile.run")
    started = time.perf_counter()
    envs = build_envs()
    elaborate_s = time.perf_counter() - started

    changes = make_changes(seed, seconds)
    session = Session(envs, tracer)
    checker = Checker(seed)
    watch = GcWatch()
    if trace:
        from repro.core.search import swap
        from repro.kernel.stats import KERNEL_STATS

        pc.wrap_attr(swap, "prove_swap_equivalence", tracer, "prove")
        gc.callbacks.append(watch)
        stats_before = KERNEL_STATS.snapshot()
    latencies: List[float] = []
    repaired = 0
    failed = 0
    problems: List[str] = []
    mismatches: List[str] = []
    try:
        for change in changes:
            try:
                latency, count = session.step(change, checker)
            except rc.CheckFailed as exc:
                mismatches.append(str(exc)[:300])
            except Exception as exc:  # noqa: BLE001 — counted and reported
                failed += 1
                problems.append(f"{change.label} ({change.new}): {type(exc).__name__}: {exc}"[:300])
            else:
                latencies.append(latency)
                repaired += count
    finally:
        if trace:
            gc.callbacks.remove(watch)
    if not latencies:
        raise pc.BenchError("every change failed: " + "; ".join((mismatches + problems)[:3]))
    ok_ops = len(latencies)
    busy = sum(latencies)
    metrics: Dict[str, Any]
    if not trace:
        metrics = {
            "setup_s": pc.metric(statistics.median(setups), "s"),
            "op_p50_s": pc.metric(pc.p50(latencies), "s"),
            "op_p90_s": pc.metric(pc.p90(latencies), "s"),
            "ops_per_s": pc.metric(ok_ops / busy, "1/s"),
            "jobs_per_s": pc.metric(repaired / busy, "1/s"),
            "peak_rss_mb": pc.metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        from repro.kernel.stats import KERNEL_STATS
        from repro.kernel.term import intern_table_size

        stats_after = KERNEL_STATS.snapshot()
        attributed = sum(
            tracer.total(n) for n in ("declare", "configure", "repair", "decompile", "replay", "rollback")
        )
        metrics = dict(layer)
        metrics.update(
            {
                "stdlib.elaborate_s": elaborate_s,
                "configure.s": tracer.total("configure"),
                "configure.prove_s": tracer.total("prove"),
                "configure.calls": tracer.count("configure"),
                "repair.s": tracer.total("repair"),
                "repair.constants": repaired,
                "decompile.s": tracer.total("decompile"),
                "replay.s": tracer.total("replay"),
                "gc.gen2_count": len(watch.gen2),
                "gc.gen2_pause_s": sum(watch.gen2),
                "gc.pause_s": sum(watch.pauses),
                "gc.tracked_objects": len(gc.get_objects()),
                "kernel.intern_size": intern_table_size(),
                "trace.unattributed_s": busy - attributed,
                "trace.throughput": ok_ops / busy,
            }
        )
        metrics.update(kernel_layer(stats_before, stats_after))
    return pc.Outcome(
        correct=not mismatches,
        attempted=len(changes),
        failed=failed,
        metrics=metrics,
        problems=mismatches + problems,
        tracer=tracer,
    )


def kernel_layer(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Kernel counter movement between two ``KERNEL_STATS`` snapshots
    (checks included: they run the kernel's normaliser too)."""
    tables: Dict[str, Dict[str, int]] = {}
    for name, counts in after["tables"].items():
        base = before["tables"].get(name, {"hits": 0, "misses": 0})
        tables[name] = {"hits": counts["hits"] - base["hits"], "misses": counts["misses"] - base["misses"]}
    events = sum(
        count - before["events"].get(name, 0)
        for name, count in after["events"].items()
        if name.startswith("machine_")
    )
    return pc.kernel_figures(
        after["constructions"] - before["constructions"],
        after["intern_hits"] - before["intern_hits"],
        tables,
        events,
    )
