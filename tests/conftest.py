"""Shared test helpers: seeded generators and direct-summation oracles.

The double-loop oracles below are deliberately naive O(n*m) implementations,
independent of the transform-domain fast paths they are used to check.
"""

import numpy as np
from hypothesis import HealthCheck, settings

from trlink.channel import Cir, SpatialChannelEnsemble
from trlink.precoding import FocusingReport, focusing_report, pulse_responses

settings.register_profile(
    "trlink",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("trlink")


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def random_cir(
    rng: np.random.Generator,
    num_taps: int,
    flat: bool = True,
) -> Cir:
    """Random Rayleigh-tap CIR with unit expected energy."""
    taps = complex_gaussian(rng, num_taps)
    if flat:
        taps = taps / np.sqrt(num_taps)
    else:
        pdp = np.exp(-np.arange(num_taps) / (num_taps / 3.0))
        pdp /= pdp.sum()
        taps = np.sqrt(pdp) * taps
    return Cir(taps)


def measure_focusing(
    ensemble: SpatialChannelEnsemble,
    target_index: int,
    other_index: int | None,
    spacing: int,
) -> FocusingReport:
    """The focusing report of one target, alone or with one interfering user.

    Builds the users' pulse responses at every ensemble position and passes
    their columns to :func:`focusing_report`.
    """
    users = [target_index] if other_index is None else [target_index, other_index]
    fields = pulse_responses(ensemble.cirs, [ensemble.cirs[i] for i in users])
    other = None if other_index is None else fields[:, 1]
    return focusing_report(ensemble, fields[:, 0], other, target_index, other_index, spacing)


def direct_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Textbook double-loop full convolution."""
    out = np.zeros(len(a) + len(b) - 1, dtype=complex)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return out


def direct_xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Double-loop cross-correlation, lag 0 at output index len(a) - 1."""
    la, lb = len(a), len(b)
    out = np.zeros(la + lb - 1, dtype=complex)
    for j in range(out.size):
        lag = j - (la - 1)
        acc = 0.0 + 0.0j
        for k in range(lb):
            i = k - lag
            if 0 <= i < la:
                acc += np.conj(a[i]) * b[k]
        out[j] = acc
    return out


def max_rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = np.max(np.abs(expected))
    if scale == 0.0:
        return float(np.max(np.abs(actual - expected)))
    return float(np.max(np.abs(actual - expected)) / scale)
