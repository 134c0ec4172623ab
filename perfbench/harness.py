"""Shared plumbing of the benchmark: paths, scratch space, statistics, results.

Every workload module builds a :class:`Result`, and :func:`emit` prints it.
The last line of standard output is the one JSON object the benchmark
contract asks for; the lines before it are the same numbers for a human.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: All scratch of a run lives under here; each run makes and removes its own
#: subdirectory, so nothing tracked is ever written.
SCRATCH_PARENT = ROOT / ".perfbench_tmp"
#: Where a traced run writes its spans when it ends.
SPANS_DIR = ROOT / ".perfbench_out"


@contextlib.contextmanager
def scratch_dir():
    """A fresh temporary directory inside the checkout, removed on exit."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_PARENT.rmdir()  # only succeeds when no other run is using it


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


#: prctl option that makes orphaned descendants re-parent to this process
_PR_SET_CHILD_SUBREAPER = 36


def adopt_descendants() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A grandchild whose parent exits (say, a helper the daemon started) then
    becomes this process's child, so :func:`stop_children` still finds and
    waits for it instead of leaving it to init.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces and parentheses; fields follow the last ")"
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The process backend's shared memory starts multiprocessing's resource
    tracker, which by design outlives its parent; it is stopped here the way
    multiprocessing stops it (close its pipe, wait for it).  Any other child
    still alive gets SIGTERM, then SIGKILL after *grace_s*, and is waited for.
    """
    from multiprocessing import resource_tracker

    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    signalled = set()
    while pids := _children():
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    continue
            if pid not in signalled or time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGTERM if time.monotonic() <= deadline else signal.SIGKILL)
                signalled.add(pid)
        time.sleep(0.05)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, repeats: int) -> tuple[list[float], object]:
    """Run *setup* ``repeats`` times; return the wall times and the last result.

    ``setup_s`` is the median of these times, so one slow set-up (a cold
    page cache, a neighbour's burst) does not move it.
    """
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - started)
    return times, result


@dataclass
class Result:
    """What one run reports: metrics, operation counts and check outcomes."""

    workload: str
    metrics: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    #: extra human-readable lines: sample counts, definitions, tracing overhead
    notes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a failing check counts as a failed operation."""
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def emit(result: Result, names: list[str]) -> int:
    """Print *result* (human lines, then the JSON line); return the exit code.

    *names* are the metrics the JSON line carries (the ``end_to_end`` set of
    ``BENCHMARK.json`` untraced, the ``per_layer`` set traced).
    """
    for name, ok, detail in result.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for line in result.notes:
        print(line)
    for name in sorted(result.metrics):
        print(f"metric {name} = {result.metrics[name]:.6g} {result.units[name]}")
    missing = [name for name in names if name not in result.metrics]
    if missing:
        raise RuntimeError(f"workload {result.workload} did not measure {missing}")
    print(f"{result.failed} failed of {result.attempted} attempted")
    payload = {
        "correct": result.correct,
        "attempted": int(max(result.attempted, 1)),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": result.metrics[name], "unit": result.units[name]} for name in names
        },
    }
    print(json.dumps(payload), flush=True)
    return 0 if result.correct else 1
