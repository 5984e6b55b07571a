"""A CPU-speed probe, so that wall times measured on a shared CPU compare.

Where other tenants share the CPU, the same job's wall time drifts by tens of
percent over minutes, and its CPU time drifts with it. The probe is a helper
process pinned to the benchmark's CPU: every PERIOD_S it runs a fixed kernel
and writes the kernel's CPU time, one 8-byte double, to its stdout, a pipe
that the benchmark reads into a preallocated buffer, so that reading allocates
no memory that could move the benchmark's peak RSS. It uses well under 1% of
the CPU. The mean kernel time over a job says how fast the CPU ran during that
job; `Probe.scale` turns it into the factor REFERENCE_S / mean that rescales the
job's wall time to a CPU running at the reference speed.

The helper is this file run as a script (python3 probe.py CPU). It ends when the
benchmark terminates it, or at its next write once the benchmark is gone.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.05
# Roughly the kernel's CPU time on the 2-vCPU x86-64 VM the benchmark was tuned
# on; it fixes only the scale of the rescaled times, not their comparisons.
REFERENCE_S = 3e-4


def _kernel(a: np.ndarray) -> None:
    for _ in range(100):
        float((np.log(a) * a + np.sqrt(a))[3])


def _loop(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    a = np.linspace(0.1, 0.9, 64)
    next_tick = time.perf_counter()
    while True:
        t0 = time.thread_time()
        _kernel(a)
        spent = time.thread_time() - t0
        try:
            os.write(1, struct.pack("d", spent))
        except BrokenPipeError:
            return
        next_tick += PERIOD_S
        delay = next_tick - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        else:
            next_tick = time.perf_counter()


class Probe:
    """Context manager running the probe process on `cpu` for its duration."""

    def __init__(self, cpu: int):
        self._cpu = cpu
        self._proc: subprocess.Popen | None = None
        self._buf = bytearray(8 * 512)  # up to 512 kernel times per read
        self._total = 0.0
        self._count = 0

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self._cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        os.set_blocking(self._proc.stdout.fileno(), False)
        try:
            self._wait_past(self.mark())
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def _drain(self) -> None:
        fd = self._proc.stdout.fileno()
        while True:
            try:
                n = os.readv(fd, [self._buf])
            except BlockingIOError:
                break
            if not n:
                break
            with memoryview(self._buf)[:n] as raw, raw.cast("d") as spent:
                self._total += sum(spent)
                self._count += len(spent)

    def mark(self) -> tuple[float, int]:
        self._drain()
        return self._total, self._count

    def _wait_past(self, since: tuple[float, int]) -> tuple[float, int]:
        deadline = time.perf_counter() + 30
        while (now := self.mark())[1] <= since[1]:
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the CPU-speed probe stopped reporting")
            time.sleep(PERIOD_S / 5)
        return now

    def scale(self, since: tuple[float, int]) -> float:
        """REFERENCE_S over the mean kernel CPU time since `since` (a mark)."""
        now = self._wait_past(since)
        return REFERENCE_S * (now[1] - since[1]) / (now[0] - since[0])


if __name__ == "__main__":
    _loop(int(sys.argv[1]))
