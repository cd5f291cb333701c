"""Host-speed references: a fixed kernel timed through each run, and a reference import.

The benchmark shares its host with other work, and on a shared host the
speed of one CPU can swing by 2x or more over a minute while nothing in
the benchmark changes. A time taken in a slow minute cannot be compared
with one taken in a fast minute. So a run times calls of this fixed
kernel, which is the benchmark's own code and never calls `breathline`,
in the benchmark's own process: ITERATIONS calls before the first
set-up and after every set-up, and one call every INTERVAL_S on a
background thread while the samples run. Set-up times are scaled by

    REFERENCE_S / median(kernel times around the set-ups)

and call times by the same with the kernel times taken during the
samples. The scaled time reads in seconds at the host speed at which
one kernel call takes REFERENCE_S; a change to `breathline` cannot move
the kernel. A kernel time is CPU time of the calling thread, so a
program that keeps every CPU busy does not slow the kernel's reading,
and one call every INTERVAL_S takes a few per cent of one CPU.

The kernel does what the program spends most of its time on: framing,
real FFTs, a dense projection, a log, and streaming through arrays
larger than the CPU caches.

Import time does not follow that kernel; it swings with the cost of
loading modules and shared libraries. Its reference is a fresh
interpreter importing numpy and scipy.signal, the libraries that make
up most of `import breathline.cli`:

    REFERENCE_IMPORT_S * median(import time / reference import time just before it)
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

# one kernel call's time on a quiet 2-CPU Xeon host (Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = 0.016
ITERATIONS = 10
INTERVAL_S = 0.5
# the reference import's time on the same host
REFERENCE_IMPORT_S = 0.9
_IMPORT = "import time; t = time.perf_counter(); import numpy, scipy.signal; print(time.perf_counter() - t)"
_FRAMES, _WINDOW, _BANDS = 2048, 512, 128


class Reference:
    """Holds the kernel's fixed inputs, so every probe does the same work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal(_FRAMES * _WINDOW // 2 + _WINDOW)
        self.bank = rng.random((_WINDOW // 2 + 1, _BANDS))
        self.probe()  # the first call also pays for FFT plans and first-touch memory

    def call(self) -> float:
        """CPU seconds one call of the fixed kernel takes now."""
        start = time.thread_time()
        hop = _WINDOW // 2
        frames = np.lib.stride_tricks.sliding_window_view(self.signal, _WINDOW)[::hop][:_FRAMES]
        power = np.abs(np.fft.rfft(frames * np.hanning(_WINDOW), axis=1)) ** 2
        np.log10(power @ self.bank + 1e-10).sum()
        return time.thread_time() - start

    def probe(self) -> float:
        """Median of ITERATIONS back-to-back calls."""
        return statistics.median(self.call() for _ in range(ITERATIONS))

    @contextlib.contextmanager
    def sampling(self, times: list):
        """Append one call's time to times every INTERVAL_S while the block runs."""
        stop = threading.Event()

        def loop():
            while not stop.wait(INTERVAL_S):
                times.append(self.call())

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


def reference_import(timeout: float) -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.signal."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True, text=True, check=True,
                          timeout=timeout)
    return float(proc.stdout)
