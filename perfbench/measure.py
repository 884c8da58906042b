"""Sample statistics, memory, host facts and the host-speed kernel.

Nothing here imports the program under test: these are the
instrument's own rulers, so a change to ``src/repro`` cannot move them.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
from array import array

#: The p95 rule: the guide asks for "the highest percentile that has at
#: least ten samples beyond it"; 5% of 200 is ten.
MIN_P95_SAMPLES = 200


def p50(samples: list[float]) -> float:
    """Median; refuses an empty sample instead of inventing a number."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def p95(samples: list[float], minimum: int = MIN_P95_SAMPLES) -> float:
    """95th percentile (nearest rank), refusing fewer than 200 samples.

    Only ``--scale-ops`` smoke runs lower ``minimum``; their p95 is a
    number for plumbing tests, not for comparison.
    """
    if len(samples) < max(minimum, 1):
        raise ValueError(
            f"p95 needs at least {minimum} samples so that ten lie "
            f"beyond it, got {len(samples)}")
    ordered = sorted(samples)
    rank = -(-95 * len(ordered) // 100)  # ceil(0.95 n), 1-based
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's high-water resident set, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Another live process's ``VmHWM`` from ``/proc``, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# -- host speed ----------------------------------------------------------------------

#: Seconds the kernel below takes on the reference host.  A constant of
#: the benchmark: changing it (or the kernel) rescales every time metric.
REFERENCE_KERNEL_SECONDS = 5.0e-3

#: A stretch of a schedule is closed (and the kernel sampled again) once
#: this much of it has run, which keeps the kernel under 4% of a pass.
STRETCH_SECONDS = 0.15


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Kernel:
    """A fixed piece of interpreter work that says how fast the host is now.

    The 2-vCPU hosts this runs on change speed by 20-40% for seconds at a
    time (a busy SMT sibling, a neighbour thrashing the shared cache), so
    identical work measured ten seconds apart differs by more than any
    admissible bound.  The kernel is timed on both sides of every stretch
    of a schedule and the stretch's times are divided by
    :meth:`slowness`; see README.md "Host speed".

    Part of it is integer arithmetic (tracks clock and pipeline sharing)
    and part is scattered reads of a 3 MB array, 20 000 small objects and
    a dict (tracks cache sharing): in probes either part alone left two
    to four times the spread that the two together left.  It allocates no
    container, so neither the collector nor the state of the program's
    heap can move it.
    """

    def __init__(self) -> None:
        self.words = array("q", range(400_000))
        self.cells = [_Cell(index) for index in range(20_000)]
        self.keys = [str(index) for index in range(20_000)]
        self.table = dict(zip(self.keys, self.cells))

    def seconds(self) -> float:
        words, cells, keys, table = (self.words, self.cells, self.keys,
                                     self.table)
        started = time.perf_counter()
        total = 0
        for value in range(30_000):
            total += value * value % 7
        for value in range(3_000):
            spot = (value * 7919) % 20_000
            total += (words[(value * 104729) % 400_000] + cells[spot].value
                      + table[keys[spot]].value)
        return time.perf_counter() - started

    @staticmethod
    def slowness(before: float, after: float) -> float:
        """Host slowness over a stretch bracketed by two samples (1.0 = the
        reference host, 1.2 = everything takes 20% longer)."""
        return (before + after) / 2 / REFERENCE_KERNEL_SECONDS


# -- process hygiene -----------------------------------------------------------------

def child_pids() -> list[int]:
    """Live or unreaped direct children of this process, from ``/proc``."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid ...; comm may hold spaces and ")".
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def reap(pids: list[int], grace: float) -> None:
    """Wait for each of ``pids`` to end; kill what outlives ``grace``."""
    deadline = time.monotonic() + grace
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.005)
        except (ChildProcessError, ProcessLookupError):
            pass  # its owner (subprocess, multiprocessing) reaped it first


def stop_children(grace: float = 10.0) -> None:
    """Stop and wait for every process this one started.

    The workloads tear down what they start (pool workers, the served
    subprocess); this is the backstop for a path that skipped a teardown,
    and the only thing that ends ``multiprocessing``'s resource tracker,
    which the process pool starts, which ignores SIGTERM, and which
    otherwise outlives this process by design: it ends when the last
    holder of its pipe does.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    children = child_pids()
    others = [pid for pid in children if pid != tracker_pid]
    for pid in others:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    reap(others, grace)
    if tracker_pid in children:
        # With every worker gone this is the pipe's last write end: the
        # tracker sees end of file, unlinks what leaked, and exits.
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
        reap([tracker_pid], grace)
        tracker._pid = None


def host_facts() -> dict[str, object]:
    """What every output records about where it was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "platform": platform.platform(),
        # The program's pools pick ``fork`` where available (see
        # repro.concurrency.procpool.default_start_method).
        "start_method": os.environ.get("REPRO_START_METHOD")
        or ("fork" if "fork" in methods else "spawn"),
    }
