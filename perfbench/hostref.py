"""A speedometer for the shared host the benchmark runs on.

Other tenants of the host slow the core itself: while they run, the same
talgate op takes up to 1.9x as long, and its CPU time grows with its wall
time.  The slow and fast stretches last seconds to minutes, so wall times
of one op spread far more between runs than any bound a benchmark can set.

So a probe process shares the one CPU that the benchmark pins itself and
every process it starts to.  Every ``PERIOD_S`` it runs a fixed kernel (interpreted float
code and a NumPy matmul, like talgate's own mix) and records the kernel's
thread CPU time, which leaves out the time it waits for the CPU.  The
kernel does not depend on the code under test, so its samples move only
with the host.  A timed step is reported at a fixed host speed:

    adjusted = wall * REF_S / mean(samples taken during the step)

``REF_S`` is about one sample while nothing else loads the host.  The probe
costs the timed process a few percent of its CPU, the same on every commit.

    python3 perfbench/hostref.py <samples-file> <parent-pid>
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.1
REF_S = 0.001
MAX_LIFE_S = 600.0  # the probe ends by itself if nobody stops it


def _kernel(x) -> None:
    s = 0.0
    for i in range(1500):
        s += max(0.0, min(i * 0.5, 3.0) - 1.0) / (i + 1.0)
    for _ in range(4):
        x @ x


def probe(path: Path, parent: int) -> None:
    """Sample until stopped, until ``parent`` ends, or for ``MAX_LIFE_S``;
    each line of ``path`` is a sample's start (perf_counter) and CPU time."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((128, 128))
    end = time.perf_counter() + MAX_LIFE_S
    with open(path, "w") as f:
        while time.perf_counter() < end and os.getppid() == parent:
            time.sleep(PERIOD_S)
            # untimed first: the timed work must not pay for refilling the
            # caches the timed process evicted, or it would track that
            _kernel(x)
            t, c = time.perf_counter(), time.thread_time()
            _kernel(x)
            f.write(f"{t!r} {time.thread_time() - c!r}\n")
            f.flush()


class Speedometer:
    """The probe process, writing to ``path``; it inherits this process's
    CPU affinity and runs with ``env``."""

    def __init__(self, path: Path, env: dict):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(path), str(os.getpid())],
            env=env, stdin=subprocess.DEVNULL)

    def ready(self, timeout: float = 60.0) -> bool:
        """Wait for the first sample, so that the probe's own start-up
        (interpreter, NumPy) does not slow the first timed step."""
        end = time.perf_counter() + timeout
        while time.perf_counter() < end and self.proc.poll() is None:
            if self.path.exists() and self.path.stat().st_size > 0:
                return True
            time.sleep(0.05)
        return False

    def stop(self) -> list[tuple[float, float]]:
        """End the probe; returns its samples as (start, CPU seconds)."""
        self.proc.terminate()
        self.proc.wait()
        if not self.path.exists():
            return []
        rows = [line.split() for line in self.path.read_text().splitlines()]
        return [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]


def adjust(wall: float, start: float, samples: list[tuple[float, float]]) -> float:
    """``wall`` seconds that began at ``start`` (perf_counter), at the host
    speed ``REF_S`` stands for: scaled by the samples taken meanwhile, or by
    the nearest one if the step was too short to hold any."""
    inside = [c for t, c in samples if start <= t <= start + wall]
    if not inside:
        inside = [min(samples, key=lambda s: abs(s[0] - start - wall / 2))[1]]
    return wall * REF_S * len(inside) / sum(inside)


if __name__ == "__main__":
    probe(Path(sys.argv[1]), int(sys.argv[2]))
