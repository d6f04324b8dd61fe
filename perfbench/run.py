"""The repair pipeline's benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload session --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and how to
read them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

import pbcommon as pc

WORKLOADS = ("session", "batch", "serve")

#: The benchmark's contract: workloads, metrics, units and bounds.
SPEC = json.loads((pc.ROOT / "BENCHMARK.json").read_text())

#: The throughput each workload's ``trace.overhead`` compares.
THROUGHPUT = {"session": "ops_per_s", "batch": "jobs_per_s", "serve": "ops_per_s"}


def parse_args(argv: Any = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="show that every output check rejects a corrupted output",
    )
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("give --workload or --self-test")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def untraced_throughput(run: pc.Run, args: argparse.Namespace) -> float:
    """The same run without tracing, in a child, for ``trace.overhead``."""
    done = pc.run_child(
        run,
        [sys.executable, str(pc.BENCH_DIR / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        timeout_s=170,
    )
    if done.returncode != 0:
        raise pc.BenchError(f"untraced child run failed: {done.stderr[-400:]!r}")
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    return float(result["metrics"][THROUGHPUT[args.workload]]["value"])


def execute(run: pc.Run, args: argparse.Namespace) -> Dict[str, Any]:
    """One workload run; the result object the last line prints."""
    if args.workload == "session":
        import wl_session as workload
    elif args.workload == "batch":
        import wl_batch as workload
    else:
        import wl_serve as workload
    outcome = workload.run(run, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = outcome.metrics
    if args.trace:
        outcome.tracer.dump(sys.stderr)
        raw = dict(metrics)
        traced = raw.pop("trace.throughput")
        raw["trace.overhead"] = untraced_throughput(run, args) / traced - 1.0
        # A workload reports 0 for a layer it does not reach (README:
        # "Per-layer metrics").
        listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        unknown = set(raw) - set(listed)
        if unknown:
            raise pc.BenchError(f"unlisted per-layer metrics {sorted(unknown)}")
        metrics = {name: pc.metric(raw.get(name, 0.0), unit) for name, unit in listed.items()}
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: Any = None) -> int:
    args = parse_args(argv)
    pc.install_signal_exit()
    try:
        run = pc.prepare()
    except pc.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = None
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        result = execute(run, args)
    except pc.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        killed = pc.finish(run)
        if killed:
            print(f"perfbench: killed {killed} leftover process(es)", file=sys.stderr)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
