"""A fixed computation timed between items, to measure how fast the host is right now.

A shared host changes speed by up to 1.5x within seconds to minutes, and
the process's own CPU time changes with it, because the slowdown comes from
other tenants on the same physical cores. The probe's CPU time moves with
trlink's item times, so an item's CPU time divided by the probes run just
before and after it is steady where either alone is not. The gated timings
are given at the reference speed: the value the run would measure on a host
where ``probe()`` takes exactly ``REFERENCE_PROBE_S``.

The probe mixes what trlink's items spend time on: FFTs of a few thousand
samples, short numpy operations on 511-sample arrays, and interpreter work.
It is code of the benchmark, so a change to trlink cannot move it.
"""

from __future__ import annotations

from time import process_time

import numpy as np

REFERENCE_PROBE_S = 0.010

_SIGNAL = np.cos(0.01 * np.arange(16384))
_REVERSED = _SIGNAL[::-1].copy()


def _ffts() -> None:
    for _ in range(8):
        np.fft.irfft(np.fft.rfft(_SIGNAL) * np.fft.rfft(_REVERSED))


def _short_arrays() -> None:
    a = np.ones(511)
    for _ in range(400):
        a = np.abs(a * 1.0001 + 0.5) ** 0.5


def _interpreter() -> int:
    total = 0
    for i in range(30000):
        total += i * i
    return total


def probe() -> float:
    """CPU seconds of one run of the fixed computation (about 10 ms)."""
    start = process_time()
    _ffts()
    _short_arrays()
    _interpreter()
    return process_time() - start


def at_reference_speed(cpu_s: float, probe_s: float) -> float:
    """``cpu_s`` measured beside a probe of ``probe_s``, at the reference speed."""
    return cpu_s * REFERENCE_PROBE_S / probe_s
