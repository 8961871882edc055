"""Host-speed sampling during a run, to scale its times to a reference speed.

On a shared virtual machine the vCPUs run slower and faster by tens of
percent while other tenants load the host, in bursts of a second and phases
of minutes, and in some phases the hypervisor also takes the vCPUs away
(steal time) for up to a fifth of a run. So neither wall nor CPU time of
one run says what the program costs.

While a ``v2grid run`` is in flight, a ``Sampler`` thread of the benchmark
driver times a fixed, tiny piece of work (``sample_s``: an integer loop and
a 1 MB numpy sum, about 3.5 ms of CPU) every ``PERIOD_S`` seconds, pinned in
turn to each CPU the driver may use. ``host_s`` is the mean over CPUs of
each CPU's median sample time. The benchmark reports a run's times
multiplied by ``REFERENCE_S / host_s``: what the run would have taken on
this host at its typical speed. A faster or slower program moves the scaled
time as it moves the raw one; a slower host slows both the run and the
samples, and cancels out. The samples take about 3.5% of each CPU, the
same for every commit measured.

The sampler also reads the kernel's per-CPU counters (``/proc/stat``) when
it starts and stops. ``steal`` is the share of the busy time of the CPUs
the driver may use that the hypervisor took away during the run; wall time
is multiplied by ``1 - steal`` as well, the time the run would have taken
had its vCPUs not been taken away. CPU time needs no such factor: the
kernel does not count stolen time as CPU time.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# host_s was 0.0028-0.0046 s, typically 0.0035-0.0037 s, over some 300 runs
# on the 2-vCPU reference machine; the value only fixes the scale, so that
# scaled times read like the seconds a run takes there
REFERENCE_S = 0.0035
PERIOD_S = 0.05
LOOP = 40000
_ARRAY = np.random.default_rng(7).random(131072)


def sample_s() -> float:
    """CPU time of one sample of the fixed work on the calling thread's CPU.
    Thread CPU time leaves out the time the thread waits while the run's
    own processes hold the CPU, but not the host's slowdown."""
    started = time.thread_time()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    float(_ARRAY.sum())
    return time.thread_time() - started


def _busy_and_steal() -> tuple[int, int]:
    """Busy and stolen clock ticks so far, summed over the allowed CPUs;
    (0, 0) where the kernel does not report them."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    busy = steal = 0
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in cpus and len(fields) > 8:
                    user, nice, system, _idle, _iowait, irq, softirq, stolen = map(int, fields[1:9])
                    busy += user + nice + system + irq + softirq
                    steal += stolen
    except OSError:
        pass
    return busy, steal


class Sampler(threading.Thread):
    """Samples host speed on each CPU in turn until ``stop()``."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._stop_event = threading.Event()
        self._samples: dict[int, list[float]] = {}
        self._ticks = _busy_and_steal()

    def run(self) -> None:
        # pins this thread only; processes the driver spawns keep its affinity
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while True:
            cpu = cpus[turn % len(cpus)]
            turn += 1
            os.sched_setaffinity(0, {cpu})
            self._samples.setdefault(cpu, []).append(sample_s())
            if self._stop_event.wait(PERIOD_S):
                return

    def stop(self) -> tuple[float, float]:
        """Stop sampling; (``host_s``, the mean over CPUs of their median
        sample, and ``steal``, the stolen share of busy CPU time)."""
        busy, steal = (b - a for a, b in zip(self._ticks, _busy_and_steal()))
        self._stop_event.set()
        self.join()
        host_s = statistics.fmean(statistics.median(s) for s in self._samples.values())
        return host_s, steal / (busy + steal) if busy + steal else 0.0
