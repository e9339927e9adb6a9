"""A fixed, stdlib-only reference kernel for host-speed normalisation.

The kernel does the kind of work the engines do — build dicts of tuples,
sort them, pickle and unpickle them — without importing any ``repro``
code, so its time tracks the host (frequency scaling, noisy neighbours)
and never the program under test.  The benchmark times it before every
micro-batch; a host time divided by the kernel times around it is the
*reference-normalised* form.

:class:`ReferenceHost` times the kernel where the workload's work runs.
A serial workload times it in the benchmark process itself.  When the
work runs in pool processes, or the process hosts a busy query client
that would share the interpreter lock with the kernel, it is timed in a
helper process of its own.
"""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: milliseconds the kernel is scaled to in normalised metrics: a value in
#: ``ref_ms`` is what the metric would read on a host where one kernel
#: pass takes exactly this long.
NOMINAL_MS = 3.0

_ROWS = 1500


def _kernel() -> int:
    table = {}
    for i in range(_ROWS):
        key = (i * 7919) % 10007
        table[key] = (key, str(key), (key % 13, float(key) / 7.0))
    rows = sorted(table.values(), key=lambda row: (row[2][0], row[1]))
    blob = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    back = pickle.loads(blob)
    return len(blob) + sum(row[2][0] for row in back)


_EXPECTED = _kernel()


def time_kernel() -> float:
    """Host seconds of the faster of two kernel passes (checked).

    The collector is paused: a collection triggered inside the kernel
    would charge the program's heap, not the host, to it.  The faster of
    two passes drops most one-off interference from other processes.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            out = _kernel()
            best = min(best, time.perf_counter() - start)
            if out != _EXPECTED:
                raise RuntimeError("reference kernel produced a different result")
    finally:
        gc.enable()
    return best


def _serve() -> None:
    """Helper-process loop: one kernel timing per empty input line, until
    a ``stop`` line or end of input."""
    for line in sys.stdin:
        if line.strip() == "stop":
            return
        sys.stdout.write(f"{time_kernel()!r}\n")
        sys.stdout.flush()


class ReferenceHost:
    """Where the reference kernel is timed: in this process, or on request
    in a helper process of its own.

    The helper is a plain child interpreter running this file, driven over
    its standard input and output.  ``multiprocessing`` is avoided on
    purpose: its spawn start method leaves a resource-tracker process
    that outlives the benchmark.
    """

    def __init__(self, in_process: bool) -> None:
        self._proc: Optional[subprocess.Popen] = None
        if in_process:
            return
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self) -> float:
        """Seconds of one kernel timing (the faster of two passes)."""
        if self._proc is None:
            return time_kernel()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference kernel helper exited")
        return float(line)

    def close(self) -> None:
        """Stop the helper, if any, and wait for it to end."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        # An explicit stop, not end of input: forked pool workers may
        # still hold a copy of the pipe's write end.
        try:
            proc.stdin.write("stop\n")
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ReferenceHost":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def rolling_median(samples: List[float], width: int = 5) -> List[float]:
    """Each sample replaced by the median of the ``width`` around it."""
    half = width // 2
    return [
        statistics.median(samples[max(0, i - half): i + half + 1])
        for i in range(len(samples))
    ]


if __name__ == "__main__":
    _serve()
