"""Reference kernel for the benchmark worker, in a process of its own.

    python3 bench/pace.py

Reads a number n per line from standard input, runs a fixed kernel n times
and writes the CPU time of each pass in nanoseconds, space-separated, as one
line. The kernel (a JSON round trip and a little NumPy) uses nothing from
voxkit, and this process shares no memory with the one under test, so what
the program leaves in its heap cannot change the kernel's time; the speed of
the CPU the two share can. The worker asks for passes between operations,
drops the first of each request (it runs on caches the operation just
used) and divides operation times by the median of the rest.
"""

from __future__ import annotations

import gc
import json
import sys
import time

import numpy as np

_DATA = [{"key": f"k{i:04d}", "value": i * 0.25, "words": ["alpha", "beta", str(i)]}
         for i in range(80)]
_ARRAY = np.linspace(-3.0, 3.0, 4096).reshape(64, 64)


def kernel() -> None:
    json.loads(json.dumps(_DATA))
    y = _ARRAY
    for _ in range(12):
        y = np.maximum(y, np.roll(y, 1, axis=1)) * 0.999 + np.log1p(np.abs(_ARRAY))


def main() -> int:
    gc.disable()
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = time.process_time_ns()
            kernel()
            times.append(time.process_time_ns() - start)
        print(" ".join(map(str, times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
