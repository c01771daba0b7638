"""Host-speed probe, so timings from a shared host can be compared over time.

On a small shared virtual machine each virtual CPU runs fast or slow for
seconds at a time, and the host's load changes over minutes, by up to
about 1.7x either way. The slowdown is slower execution, not time spent
descheduled, so CPU time shows it as much as wall time does, and wall time
measures the neighbours as much as the program. Each timed sample is
therefore paced by a short, fixed pure-Python probe on the same CPU:

- before the sample, the probe runs on every CPU the benchmark may use, and
  the sample (and any command it starts) is pinned to the fastest;
- while a command runs, the benchmark process probes again every
  `PROBE_EVERY_S` on that CPU (about 4% of it), between reads of the
  command's output; after the sample it probes once more;
- a probe is timed in the benchmark process's own CPU time, so the time it
  waits for the command to yield the CPU does not count;
- the sample's paced time is its wall time times `REFERENCE_S` over the
  mean of its probe times.

A paced time is the sample's wall time on a host where the probe takes
`REFERENCE_S`: it grows and shrinks with the program's own work, while the
host's speed during the sample cancels out. The probe is frozen benchmark
code and does not depend on the program under test.
"""

from __future__ import annotations

import os
import selectors
import statistics
import time
from contextlib import contextmanager

PROBE_ITERATIONS = 2_000
PROBE_EVERY_S = 0.03
# Typical probe time on a 2-vCPU host in its fast phase; it only sets the
# scale of paced times, which then read close to that host's wall times.
REFERENCE_S = 0.0010
_SET_AFFINITY = hasattr(os, "sched_setaffinity")
CPUS = sorted(os.sched_getaffinity(0)) if _SET_AFFINITY else [None]


def probe_work() -> int:
    """Fixed interpreter work of the kinds the engines do: arithmetic, tuples, dicts, sets."""
    table: dict = {}
    seen = set()
    total = 0
    for i in range(PROBE_ITERATIONS):
        key = (i % 211, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 3:
            seen.add(key)
        total += i * i % 13
    return total + len(table) + len(seen)


def probe() -> float:
    start = time.process_time()
    probe_work()
    return time.process_time() - start


def _pin(cpu) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


@contextmanager
def pinned():
    """Pin this process, and the children it starts, to the fastest CPU.

    Yields the list of probe times on that CPU, which the caller may extend
    while the sample runs; one more probe is added on exit, before all CPUs
    are allowed again.
    """
    speeds = []
    for cpu in CPUS:
        _pin(cpu)
        speeds.append((probe(), cpu))
    before, cpu = min(speeds, key=lambda s: s[0])
    _pin(cpu)
    probes = [before]
    try:
        yield probes
        probes.append(probe())
    finally:
        if _SET_AFFINITY:
            os.sched_setaffinity(0, CPUS)


def read_probing(pipe, probes: list[float]) -> bytes:
    """Read `pipe` to its end, probing every PROBE_EVERY_S while waiting for output."""
    fd = pipe.fileno()
    chunks = []
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        last = time.perf_counter()
        while True:
            if selector.select(timeout=PROBE_EVERY_S):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            if time.perf_counter() - last >= PROBE_EVERY_S:
                probes.append(probe())
                last = time.perf_counter()
    return b"".join(chunks)


def paced(wall: float, probes: list[float]) -> float:
    return wall * REFERENCE_S / statistics.fmean(probes)
