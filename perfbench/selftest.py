"""``python3 perfbench/run.py --self-test``: every output check must
reject a deliberately corrupted output.

Each case runs one real operation, confirms its honest output passes,
then hands the check a corrupted copy and expects a
:class:`refcheck.CheckFailed` (or, for batch reports, a reported
problem).  Prints one line per case and exits 0 only when every honest
output passed and every corruption was rejected.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace
from typing import Any, Callable, List, Tuple

import pbcommon as pc
import refcheck as rc
import wl_batch
import wl_session as ws


def _define(env: Any, name: str, text: str) -> None:
    from repro.syntax.parser import parse

    env.define(name, parse(env, text))


def _session_cases(results: List[Tuple[str, bool]]) -> None:
    from repro.kernel.term import Const, Ind

    envs = ws.build_envs()
    session = ws.Session(envs, pc.Tracer(False))
    checker = ws.Checker(7)
    changes = {c.kind: c for c in ws.make_changes(7, 1) if c.label in ("permutation", "list swap") or c.kind == "enum"}

    def expect_reject(label: str, probe: Callable[[], None]) -> None:
        try:
            probe()
        except rc.CheckFailed:
            results.append((label, True))
        else:
            results.append((label, False))

    def corrupt_term(env: Any, change: ws.Change, done: ws.Done) -> None:
        checker(env, change, done)  # the honest output passes
        wrong = dataclasses.replace(change, expected=tuple(reversed(change.expected)))
        expect_reject("mapping: reversed constructor mapping", lambda: checker(env, wrong, done))
        expect_reject(
            "residual: old type left in a repaired term",
            lambda: rc.check_residual_free([Ind(change.new).app(), Const("eval")], {"Old.Term", "eval"}),
        )
        p = change.prefix
        _define(env, f"{p}X.eval",
                f"fun (L : EpsilonLogic) (e : Identifier -> nat) (t : {change.new}) => S ({p}.eval L e t)")
        off = dataclasses.replace(change, prefix=f"{p}X")
        expect_reject("semantics: Term eval off by one", lambda: checker._term(env, off, {}))
        bad = dataclasses.replace(done, proofs=list(reversed(done.proofs)))
        expect_reject("replay: proofs swapped between constants", lambda: checker(env, change, bad))

    def corrupt_list(env: Any, change: ws.Change, done: ws.Done) -> None:
        checker(env, change, done)
        p = change.prefix
        _define(env, f"{p}X.length", f"fun (T : Type1) (l : {change.new} T) => S ({p}.length T l)")
        _define(env, f"{p}X.app", f"{p}.app")
        _define(env, f"{p}X.rev", f"{p}.rev")
        repaired = {n: None for n in rc.LIST_FUNCTIONS}
        off = dataclasses.replace(change, prefix=f"{p}X")
        expect_reject("semantics: list length off by one", lambda: checker._list(env, off, repaired))

    def corrupt_enum(env: Any, change: ws.Change, done: ws.Done) -> None:
        checker(env, change, done)
        size = len(change.order)
        p = change.prefix
        _define(env, f"{p}X.to_nat{size}", f"fun (e : {change.new}) => S ({p}.to_nat{size} e)")
        off = dataclasses.replace(change, prefix=f"{p}X")
        repaired = {
            n: SimpleNamespace(new_name=f"{p}X.{n}") for n in (f"to_nat{size}", f"to_nat{size}_last")
        }
        expect_reject("semantics: enum to_nat off by one", lambda: checker._enum(env, off, repaired))

    session.step(changes["term"], corrupt_term)
    session.step(changes["list"], corrupt_list)
    session.step(changes["enum"], corrupt_enum)


def _digest_cases(results: List[Tuple[str, bool]]) -> None:
    six, _term, links, affected = wl_batch.job_pools()
    cork = wl_batch.tagged(next(s for s in six if s["name"] == "galois/cork"), 0)
    rev = wl_batch.tagged(next(s for s in affected if s["target"] == "rev"), 0)
    manifest = {"batch": "selftest", "jobs": [cork, links[0], rev]}
    from repro.service.manifest import jobs_from_manifest

    jobs = jobs_from_manifest(manifest)
    reference = wl_batch.Reference()
    honest = [
        {"name": jobs[0].name, "key": jobs[0].key, "status": "ok", "result_digest": reference.digest(jobs[0])},
        {"name": jobs[1].name, "key": jobs[1].key, "status": "skipped-unaffected"},
        {"name": jobs[2].name, "key": jobs[2].key, "status": "ok", "result_digest": reference.digest(jobs[2])},
    ]

    def batch(outcomes: List[Any]) -> wl_batch.Batch:
        return wl_batch.Batch(manifest, 1.0, 1.0, 0, {"outcomes": outcomes})

    results.append(("honest batch report passes", not wl_batch.check_batches([batch(honest)], reference)))
    cases = [
        ("digest: result differs from the in-process run", lambda o: o[0].update(result_digest="0" * 64)),
        ("impact: affected target reported skipped", lambda o: o[2].update(status="skipped-unaffected")),
        ("store: fresh key reported as a hit", lambda o: o[0].update(status="cached")),
    ]
    for label, corrupt in cases:
        outcomes = [dict(o) for o in honest]
        corrupt(outcomes)
        results.append((label, bool(wl_batch.check_batches([batch(outcomes)], reference))))
    rerun = [dict(o) for o in honest]
    rerun[0].update(status="cached", result_digest=random.Random(0).randbytes(32).hex())
    results.append((
        "store: hit differs from the first result for its key",
        bool(wl_batch.check_batches([batch(honest), batch(rerun)], reference)),
    ))


def main() -> int:
    results: List[Tuple[str, bool]] = []
    _session_cases(results)
    _digest_cases(results)
    for label, as_expected in results:
        print(f"{'ok  ' if as_expected else 'FAIL'} {label}")
    failures = sum(1 for _, as_expected in results if not as_expected)
    print(f"{len(results) - failures}/{len(results)} self-test cases passed")
    return 1 if failures else 0
