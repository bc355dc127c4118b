"""Machine-speed probe for rescaling timings taken on a shared VM.

The VM this benchmark was written on has contention phases, lasting
seconds to minutes, in which all work runs 20-40% slower.  Raw medians
of one repeated command moved by 15-25% between runs.  Each timing is
therefore divided by a slowdown factor taken from this fixed probe next
to it: the result reads as the time on a core where the probe takes its
reference times.

A sample has two parts, timed apart.  The CPU part mixes interpreter
loops, elementwise numpy on a 1 MB vector and a small LAPACK call; it
tracks interpreter-bound work such as ``graphkern experiment``.  The
memory part copies a 32 MB buffer there and back, which tracks work that
streams large arrays, such as the S x N x N dictionary of ``fit`` and
``predict``.  Each workload weighs the two parts by its ``cpu_share``
into one slowdown factor; a part of weight 0 is not run.

The probe runs only in a ``Helper`` process of its own, which the
measuring process asks for a sample over a pipe.  No state that the
measured program leaves in its own process (heap layout, the
allocator's mmap threshold, caches) can then change the divisor, and
the probe's buffers do not count in the measured process's memory.
Run as a script with the ``cpu_share`` as its argument, this module is
that helper: each line it reads on standard input is answered with the
slowdown factor of one sample.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# Probe times on an uncontended core of the VM the benchmark was tuned on
# (2 vCPU, OpenBLAS 0.3.31 pinned to one thread, Python 3.11).
REFERENCE_CPU_S = 0.005
REFERENCE_MEM_S = 0.008


class _Probe:
    def __init__(self):
        self.vector = np.linspace(0.0, 1.0, 1 << 17)
        spd = np.eye(150) + np.outer(np.linspace(0.0, 1.0, 150), np.linspace(1.0, 0.0, 150))
        self.spd = spd @ spd.T
        self.stream = np.linspace(0.0, 1.0, 1 << 22)
        self.stream_copy = np.empty_like(self.stream)

    def cpu(self):
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0) + i * i
        for _ in range(8):
            np.exp(self.vector)
        np.ones(1 << 17).sum()
        np.linalg.eigh(self.spd)
        return time.perf_counter() - start

    def memory(self):
        start = time.perf_counter()
        np.copyto(self.stream_copy, self.stream)
        np.copyto(self.stream, self.stream_copy)
        return time.perf_counter() - start

    def slowdown(self, cpu_share, count=3):
        """How much slower than the reference the core runs work of ``cpu_share``.

        Each part is the median of ``count`` runs; one run alone jitters by
        10-20%.
        """
        factor = 0.0
        if cpu_share > 0.0:
            cpu = statistics.median(self.cpu() for _ in range(count))
            factor += cpu_share * cpu / REFERENCE_CPU_S
        if cpu_share < 1.0:
            memory = statistics.median(self.memory() for _ in range(count))
            factor += (1.0 - cpu_share) * memory / REFERENCE_MEM_S
        return factor


def rescale(seconds, before, after):
    """``seconds`` as it would read on the reference core, from the slowdowns around it."""
    return seconds / (0.5 * (before + after))


class Helper:
    """A process of its own that takes speed samples on request.

    Use as a context manager; leaving it closes the pipe and waits for
    the process to end.
    """

    def __init__(self, cpu_share, env=None):
        self._proc = subprocess.Popen([sys.executable, __file__, repr(float(cpu_share))],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      env=env, text=True)

    def sample(self):
        """The slowdown factor of one sample, for the helper's ``cpu_share``."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed helper ended with code {self._proc.wait()}")
        return float(line)

    def close(self):
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(cpu_share):
    probe = _Probe()
    probe.slowdown(cpu_share, count=1)  # the first run in a process is slower
    for _ in sys.stdin:
        print(probe.slowdown(cpu_share), flush=True)


if __name__ == "__main__":
    _serve(float(sys.argv[1]))
