"""Host-speed probe: a fixed pure-Python kernel timed on one or more cores.

Shared hosts change speed from minute to minute.  The worker times this
kernel between reps and scales each rep's times to the speed of the
reference host.  A workload that keeps several cores busy is probed on as
many cores at once, by helper processes that import nothing but this
module.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List

#: Iterations of the kernel (about 50 ms on the reference host).
KERNEL_ITERATIONS = 270_000

#: Median kernel time on the reference host (2-core x86_64 container,
#: Python 3.11.7).  A rep's host speed is ``REFERENCE_KERNEL_S / kernel_s``
#: and its times are multiplied by it.
REFERENCE_KERNEL_S = 0.050


def kernel_s() -> float:
    """Time the fixed kernel once; it touches no program code."""
    started = time.perf_counter()
    acc = 0
    table = [0] * 256
    for _ in range(KERNEL_ITERATIONS):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        table[acc & 255] += 1
    return time.perf_counter() - started


def serve() -> None:
    """Helper loop: time the kernel once per input line until EOF."""
    for _ in sys.stdin:
        print(kernel_s(), flush=True)


class HostProbe:
    """Times the kernel on ``cores`` cores at once (capped at the host's)."""

    def __init__(self, cores: int = 1) -> None:
        self._helpers: List[subprocess.Popen] = []
        for _ in range(min(cores, os.cpu_count() or 1) - 1):
            self._helpers.append(subprocess.Popen(
                [sys.executable, "-c", "from ledger.host import serve; serve()"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))

    def sample(self) -> float:
        """Mean kernel time over the probed cores."""
        for helper in self._helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        times = [kernel_s()] + [float(h.stdout.readline()) for h in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        """Stop the helpers and wait for them."""
        for helper in self._helpers:
            helper.stdin.close()
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers.clear()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
