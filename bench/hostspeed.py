"""Host speed probe, for timings that stay comparable on a shared host.

A shared host can run the same code 1.5x slower for seconds to minutes
at a time. The probe times a fixed pure-Python loop next to each timed
region, and ``scaled`` converts that region's seconds into seconds at
the reference speed ``REF_PROBE_S``. The loop is the benchmark's own
code, so no change to adderlab can move it.
"""

import time

# Probe time on a 2-vCPU Xeon at 2.1 GHz with Python 3.11, in the host's fast phase.
REF_PROBE_S = 0.006


def probe_s() -> float:
    """Median of five timings of a fixed loop: the host's speed right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` measured at probe time ``probe``, at the reference speed."""
    return seconds * REF_PROBE_S / probe
