"""Shared plumbing of the benchmark: paths, hermetic environments,
child processes, spans and statistics.

Nothing here imports ``repro``: :func:`prepare` must strip ambient
``REPRO_*`` settings from the environment before the program's modules
read them at import time.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Environment variable that marks every process a run starts, so the
#: run can find (and kill) any that outlive it.
MARKER = "PERFBENCH_RUN"

#: How long one child process may take before it is killed.
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """A run could not be carried out (not an output-check failure)."""


# -- Hermetic runs -------------------------------------------------------------


@dataclass
class Run:
    """One benchmark run: its private directory, marker and children."""

    dir: Path
    token: str
    children: List["subprocess.Popen[bytes]"] = field(default_factory=list)

    def path(self, *parts: str) -> str:
        return str(self.dir.joinpath(*parts))


def prepare() -> Run:
    """Check the source tree, scrub the environment, make the run dir.

    Every cache the program would keep under ``$HOME`` (result store,
    impact plans) lands in the run's own directory, and ambient
    ``REPRO_*`` switches are dropped, so one run cannot carry results
    into the next.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {SRC}; run from the root of a checkout"
        )
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    token = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
    run_dir = ROOT / ".perfbench_run" / token
    home = run_dir / "home"
    home.mkdir(parents=True)
    os.environ["HOME"] = str(home)
    os.environ["XDG_CACHE_HOME"] = str(home / ".cache")
    # Children (and the program's own workers, which copy this
    # environment) import the program and the benchmark's setup refs,
    # and carry the run's marker.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    os.environ[MARKER] = token
    for entry in (str(BENCH_DIR), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return Run(dir=run_dir, token=token)


def _marked_pids(token: str) -> List[int]:
    needle = f"{MARKER}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


def finish(run: Run) -> int:
    """Kill every child still alive, check none is left, drop the dir.

    Returns how many marked processes had to be killed; raises when
    some survive a kill.
    """
    for child in run.children:
        if child.poll() is None:
            kill_group(child)
    leftovers = _marked_pids(run.token)
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    while _marked_pids(run.token) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = _marked_pids(run.token)
    shutil.rmtree(run.dir, ignore_errors=True)
    try:
        run.dir.parent.rmdir()
    except OSError:
        pass
    if survivors:
        raise BenchError(f"processes survived the run: {survivors}")
    return len(leftovers)


def install_signal_exit() -> None:
    """SIGTERM/SIGINT unwind through ``finally`` so children are reaped."""

    def _exit(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)


# -- Child processes -------------------------------------------------------------


def spawn(
    run: Run,
    argv: Sequence[str],
    stdout: Any = subprocess.DEVNULL,
    stderr: Any = subprocess.DEVNULL,
) -> "subprocess.Popen[bytes]":
    """Start a marked child in its own process group."""
    child = subprocess.Popen(
        list(argv),
        cwd=str(ROOT),
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        stderr=stderr,
        start_new_session=True,
    )
    run.children.append(child)
    return child


def kill_group(child: "subprocess.Popen[bytes]") -> None:
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except OSError:
        pass
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass


def wait_rusage(
    child: "subprocess.Popen[bytes]", timeout_s: float = CHILD_TIMEOUT_S
) -> Any:
    """Block until ``child`` exits; return its ``wait4`` resource usage.

    The usage covers the child and every descendant it reaped, so its
    ``ru_maxrss`` is the largest peak resident set among them.  A
    watchdog kills the group if the child overruns ``timeout_s``.
    """
    watchdog = threading.Timer(timeout_s, kill_group, args=(child,))
    watchdog.daemon = True
    watchdog.start()
    try:
        _pid, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(
    run: Run, argv: Sequence[str], timeout_s: float = CHILD_TIMEOUT_S
) -> "subprocess.CompletedProcess[bytes]":
    """Run a marked child to completion, capturing its output."""
    child = spawn(run, argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = child.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_group(child)
        raise BenchError(f"{argv} took over {timeout_s}s")
    return subprocess.CompletedProcess(list(argv), child.returncode, out, err)


def time_import(run: Run, module: str, reps: int = 3) -> float:
    """Median wall time of a fresh interpreter importing ``module``."""
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        done = run_child(run, [sys.executable, "-c", f"import {module}"])
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise BenchError(f"import {module} failed: {done.stderr[-400:]!r}")
    return statistics.median(samples)


# -- Spans -----------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Spans at layer boundaries, kept in memory, written at the end.

    When disabled, :meth:`span` still times the block (the workloads
    need the figure either way) but records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str) -> "_SpanCtx":
        return _SpanCtx(self, name)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def dump(self, stream: Any) -> None:
        """One JSON line of every span (name, start, end, parent index)."""
        stream.write(
            "perfbench-spans "
            + json.dumps(
                [
                    [s.name, round(s.start, 6), round(s.end, 6), s.parent]
                    for s in self.spans
                ],
                separators=(",", ":"),
            )
            + "\n"
        )


class _SpanCtx:
    __slots__ = ("tracer", "name", "start", "elapsed", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.start = 0.0
        self.elapsed = 0.0
        self._index: Optional[int] = None

    def __enter__(self) -> "_SpanCtx":
        tracer = self.tracer
        if tracer.enabled:
            parent = tracer._stack[-1] if tracer._stack else None
            self._index = len(tracer.spans)
            tracer.spans.append(Span(self.name, 0.0, 0.0, parent))
            tracer._stack.append(self._index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        self.elapsed = end - self.start
        if self._index is not None:
            span = self.tracer.spans[self._index]
            span.start, span.end = self.start, end
            self.tracer._stack.pop()


def wrap_attr(owner: Any, attr: str, tracer: Tracer, name: str) -> None:
    """Replace ``owner.attr`` by a version that records a span per call."""
    inner = getattr(owner, attr)

    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return inner(*args, **kwargs)

    setattr(owner, attr, traced)


# -- Statistics and results ----------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """The 90th percentile of raw samples (inclusive interpolation)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def hit_rate(table: Dict[str, int]) -> float:
    total = table.get("hits", 0) + table.get("misses", 0)
    return table.get("hits", 0) / total if total else 0.0


def kernel_figures(
    constructions: int, intern_hits: int, tables: Dict[str, Dict[str, int]], events: int
) -> Dict[str, float]:
    """Per-layer kernel figures from ``KERNEL_STATS``-shaped counts."""
    return {
        "kernel.constructions": constructions,
        "kernel.intern_hits": intern_hits,
        "kernel.whnf.hit_rate": hit_rate(tables.get("whnf", {})),
        "kernel.conv.hit_rate": hit_rate(tables.get("conv", {})),
        "kernel.infer.hit_rate": hit_rate(tables.get("infer", {})),
        "kernel.machine_events": events,
    }


@dataclass
class Outcome:
    """What a workload hands back to :mod:`run`."""

    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics as printed, or raw per-layer figures by name.
    metrics: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None
