"""Fixed work that measures the host's speed next to the ops.

The reference machine is a shared VM whose speed moves for any code, by
about 15 % from second to second and in steps of up to a third over
minutes.  The block below calls nothing from ``wolct``, so a change to the
library cannot move it, while a change in host speed moves it and the ops
alike.  It is two passes of dense chirp-kernel matrix-vector products, the
shape of the direct quadrature behind ``olct.kernel``, built in chunks as
large as the library's (about 64 MB), which leave the cache, so that the
block waits on memory as the ops do.

It runs in a process of its own, so that its arrays and threads leave the
workload process's memory, and its peak resident size, as they were.  The
process reads one thread count per line from stdin, runs one block on each
of that many threads at once, and answers one line with the wall seconds
that took.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

#: grid of the block, and the most kernel entries it builds at once
SPAN = 12.8
N = 2049
CHUNK_ENTRIES = 1 << 22


def block() -> complex:
    t = np.linspace(-SPAN, SPAN, N)[:, None]
    f = np.exp(-t[:, 0] ** 2).astype(complex)
    blk = CHUNK_ENTRIES // N
    total = 0j
    for _ in range(2):
        for lo in range(0, N, blk):
            u = t[lo:lo + blk, 0][None, :]
            phase = 0.37 * t**2 - 1.3 * t * (u - 0.2) - 0.11 * u + 0.21 * (u**2 + 0.04)
            total += np.sum(f @ (0.3 * np.exp(1j * phase)))
    return total


def timed(threads: int) -> float:
    """Wall seconds for ``threads`` threads running one ``block`` each."""
    workers = [threading.Thread(target=block) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


if __name__ == "__main__":
    for line in sys.stdin:
        print(repr(timed(int(line))), flush=True)
