"""Calibrated CPU time: process time scaled to the machine's full speed.

The benchmark runs on a few virtual CPUs of a shared host.  On the host it
was built on, the same Python code runs at two speeds that alternate every
few tens to hundreds of milliseconds: full speed, and about 0.6 of it,
presumably while another tenant keeps the sibling hardware thread busy.
The share of time spent slow drifts over minutes, so wall time and plain CPU
time of identical work move by a third from one run to the next.  Each
rep also reads the counters below around every op it times, so each op is
scaled by the speed over its own span.

A co-runner measures that speed while the work runs.  `Calibrator` pins the
benchmark and everything it spawns to one CPU and forks a low-priority
process onto the same CPU that runs a fixed chunk of Python work in a loop,
publishing its own CPU time and chunk count in shared memory.  The scheduler
interleaves the co-runner with the measured process in slices far shorter
than a speed phase, so over any span both see the same mix of speeds.  A
process's CPU time over a span, times REF_CHUNK_S over the co-runner's mean
CPU time per chunk in the same span, is the CPU time the process would have
taken at full speed: its calibrated time.

The co-runner's niceness gives it about a tenth of the CPU, so spans run
about 10% longer in wall time; CPU time, which is what is scaled, does not
include the co-runner's share.
"""

import mmap
import os
import signal
import struct
import time
from fractions import Fraction

# CPU seconds of one chunk at full speed on the machine the baseline was
# recorded on (2 vCPUs of an Intel Xeon, Python 3.11.7): the 1st percentile
# of 23 788 timings was 25.6 us, the minimum 24.4 us and the median 43 us.
# It only sets the scale of calibrated times; another machine's speed shows
# as another scale.
REF_CHUNK_S = 25e-6
NICENESS = 10
MIN_CHUNKS = 50  # fewest co-runner chunks a span's speed may rest on
STALL_S = 5.0  # a co-runner that makes no progress for this long has died
COUNTERS = struct.Struct("dd")  # the co-runner's CPU seconds and chunk count


def chunk():
    """A fixed bit of the kind of work loopspace does: dicts, ints, Fractions."""
    table = {}
    total = Fraction(0)
    for i in range(1, 121):
        table[i * 7919 % 251] = i * i
        if i % 30 == 0:
            total += Fraction(i, 7)
    return sum(table.values()) + total.numerator


def _co_run(shared, parent):
    os.nice(NICENESS)
    n = 0
    while os.getppid() == parent:  # ends on its own if the benchmark is killed
        for _ in range(200):
            chunk()
            n += 1
            COUNTERS.pack_into(shared, 0, time.process_time(), n)


class Counters:
    """Reads the co-runner's counters from the shared memory behind `fd`.

    The runner passes the descriptor to its reps, so that each rep scales
    every op by the speed over that op's own span.
    """

    def __init__(self, fd):
        self.fd = fd
        self._shared = mmap.mmap(fd, COUNTERS.size)

    def mark(self):
        """The co-runner's (CPU seconds, chunks) so far; starts a span."""
        return COUNTERS.unpack_from(self._shared)

    def per_chunk(self, mark):
        """The co-runner's mean CPU seconds per chunk over the span since `mark`.

        Waits, if need be, until the co-runner has done MIN_CHUNKS chunks in
        the span; once the measured process stops computing it gets the CPU.
        """
        cpu0, n0 = mark
        deadline = time.monotonic() + STALL_S
        cpu1, n1 = self.mark()
        while n1 - n0 < MIN_CHUNKS:
            if time.monotonic() > deadline:
                raise RuntimeError("the calibration co-runner has stopped")
            time.sleep(0.001)
            cpu1, n1 = self.mark()
        return (cpu1 - cpu0) / (n1 - n0)

    def scale(self, mark):
        """Full-speed seconds per CPU second over the span since `mark`."""
        return REF_CHUNK_S / self.per_chunk(mark)


class Calibrator(Counters):
    """Context manager: pins this process to one CPU and runs the co-runner.

    The co-runner is a bare fork rather than a multiprocessing child, which
    would grow this process by a few MB; every child spawned from here
    starts with this process's resident set as its peak-RSS floor.
    """

    def __init__(self):
        fd = os.memfd_create("loopspace-bench-counters")
        os.ftruncate(fd, COUNTERS.size)
        super().__init__(fd)
        self.speeds = []

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        parent = os.getpid()
        self._pid = os.fork()
        if self._pid == 0:
            try:
                _co_run(self._shared, parent)
            finally:
                os._exit(0)
        return self

    def __exit__(self, *exc):
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)
        self._shared.close()
        os.close(self.fd)

    def per_chunk(self, mark):
        per_chunk = super().per_chunk(mark)
        self.speeds.append(per_chunk)
        return per_chunk
