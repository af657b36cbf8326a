"""Shared test helpers: seeded generators, channel rows and error measures.

The slow reference implementations the tests check against live in
``oracles.py``.
"""

import numpy as np
from hypothesis import HealthCheck, settings

from trlink.channel import SpatialChannelEnsemble, energy  # noqa: F401  (re-exported to the tests)
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


def cir(taps) -> np.ndarray:
    """One channel's taps as a row of a ``(P, L)`` channel block holds them.

    A read-only 1-D complex128 copy; a list of rows, or one row, feeds the
    precoder, propagation, sounding and ``SpatialChannelEnsemble``.
    """
    row = np.array(taps, dtype=np.complex128)
    row.flags.writeable = False
    return row


def random_cir(
    rng: np.random.Generator,
    num_taps: int,
    flat: bool = True,
) -> np.ndarray:
    """Random Rayleigh-tap CIR with unit expected energy."""
    taps = complex_gaussian(rng, num_taps)
    if flat:
        taps = taps / np.sqrt(num_taps)
    else:
        pdp = np.exp(-np.arange(num_taps) / (num_taps / 3.0))
        pdp /= pdp.sum()
        taps = np.sqrt(pdp) * taps
    return cir(taps)


def measure_focusing(
    ensemble: SpatialChannelEnsemble,
    target_index: int,
    other_index: int | None,
    spacing: int,
) -> FocusingReport:
    """The focusing report of one target, alone or with one interfering user.

    Builds the users' pulse responses at every ensemble position and
    measures the one report from that block with :func:`focusing_report`.
    """
    users = [target_index] if other_index is None else [target_index, other_index]
    fields = pulse_responses(ensemble.taps, ensemble.taps[users])
    other_column = None if other_index is None else 1
    (report,) = focusing_report(ensemble, fields, users, [(0, other_column, spacing)])
    return report


def max_rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = np.max(np.abs(expected))
    if scale == 0.0:
        return float(np.max(np.abs(actual - expected)))
    return float(np.max(np.abs(actual - expected)) / scale)
