"""The fixed reference probe that cancels host-speed drift.

Host speed on a shared machine drifts by tens of percent over tens of
seconds, and a scenario's wall time drifts with it.  The benchmark
therefore times this loop right before and after each scenario, while
no scenario runs, and divides scenario times by it.  The loop mixes
interpreted integer/float work with small-array numpy calls, the same
mix as the simulator's hot paths, so both slow down together when the
host does.

The probe imports nothing from ``repro`` and allocates no objects the
garbage collector tracks (ints, floats and preallocated ndarrays
only), so no change to the program can change its time.

A fresh interpreter's set-up is mostly interpreter start-up, file
reads and unmarshalling, which the loop tracks poorly.  Set-up times
are therefore divided by a second probe, :func:`setup_probe_once`: a
fresh interpreter that imports numpy and nothing from ``repro``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Interpreter iterations per probe; one probe takes ~17 ms on a
#: 2-core x86 VM.
_ITERATIONS = 60_000

_A = np.linspace(0.0, 1.0, 48)
_B = np.empty(48)


def probe_once() -> float:
    """Run the probe loop once; return its wall time in seconds."""
    a, b = _A, _B
    start = time.perf_counter()
    k = 12345
    acc = 0.0
    for i in range(_ITERATIONS):
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
        acc += (k >> 16) * 1e-6
        if not i & 15:
            np.multiply(a, acc, out=b)
            np.add(b, a, out=b)
            acc = float(b[7]) * 1e-3
    return time.perf_counter() - start


def setup_probe_once() -> float:
    """Start a fresh interpreter that imports numpy and exits; return
    its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=60)
    return time.perf_counter() - start


def probe_server(conn) -> None:
    """Helper-process loop: run as many probes as each request on
    ``conn`` asks for and send their times back; stop on ``None``."""
    while True:
        count = conn.recv()
        if count is None:
            return
        conn.send([probe_once() for _ in range(count)])
