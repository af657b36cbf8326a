"""The DSP primitives everything else is built on.

A signal is a plain 1-D ``complex128`` numpy array of complex-envelope
samples at one rate, the simulated bandwidth, so no rate travels with it.
Carrier up/down-conversion is treated as ideal, so nothing here models a
passband. The functions here neither copy nor re-check their inputs: the
arrays come from validated boundaries (``Cir`` taps, the symbol matrix that
``tr_precode`` checks) or from earlier steps of the pipeline; convolution
and correlation reject only empty inputs.

Convolution and correlation are full-support linear operations. They are
computed with transform-domain fast convolution, but the contract is the
direct summation: the test suite holds the fast path to a direct
double-loop reference within ``NUMERIC_RTOL``. The committed results are
byte-identical only for one rounding, so the fast path fixes two details: a
length-1 operand is a plain scaling (no transform), and the transform length
is the smallest 2-3-5-7-11-smooth length that holds the full output.

Lag convention, fixed once and used by every caller: the output of
``xcorr(a, b)`` has length ``len(a) + len(b) - 1`` and output index ``j``
holds lag ``j - (len(a) - 1)``. Lag 0 therefore sits at index
``len(a) - 1`` and equals ``sum(conj(a[k]) * b[k])``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DomainError

#: Relative tolerance for "numerically exact" identities (energy
#: normalisation, fast-vs-direct agreement, kernel peak values).
NUMERIC_RTOL = 1e-9


def _fast_len(n: int) -> int:
    """Smallest length >= ``n`` whose only prime factors are 2, 3, 5, 7 and 11."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty 1-D arrays via the FFT."""
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    m = _fast_len(n)
    return np.fft.ifft(np.fft.fft(a, m) * np.fft.fft(b, m))[:n]


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two signals.

    Output length is ``len(a) + len(b) - 1``. Uses FFT-based fast
    convolution internally; agrees with the direct sum to ``NUMERIC_RTOL``.
    """
    if a.size == 0 or b.size == 0:
        raise DomainError("convolve: inputs must be non-empty")
    return _fftconvolve(a, b)


def xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalised cross-correlation of ``b`` against ``a`` over all lags.

    Output index ``j`` holds lag ``j - (len(a) - 1)``, whose value is
    ``sum_k conj(a[k - lag]) * b[k]``; lag 0 (index ``len(a) - 1``) is the
    plain inner product ``sum(conj(a) * b)``. Equivalent to convolving the
    conjugated time-reversed ``a`` with ``b``.
    """
    if a.size == 0 or b.size == 0:
        raise DomainError("xcorr: inputs must be non-empty")
    return _fftconvolve(np.conj(a[::-1]), b)


def complex_noise(size: int, sigma: float, rng_seed: int | list[int] | None) -> np.ndarray:
    """White circular complex Gaussian noise, ``E|n|^2 = sigma^2`` (seed/noise contract v1)."""
    z = np.random.default_rng(rng_seed).standard_normal((2, size))
    return sigma / np.sqrt(2.0) * (z[0] + 1j * z[1])


def chirp_length(duration: float, sample_rate: float) -> int:
    """Samples in a chirp of ``duration`` seconds; a ConfigurationError below 2."""
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigurationError(f"duration must be positive, got {duration}")
    num_samples = int(round(duration * sample_rate))
    if num_samples < 2:
        raise ConfigurationError(
            f"duration * sample_rate = {duration * sample_rate:.3g} gives "
            f"{num_samples} samples; need at least 2"
        )
    return num_samples


def make_chirp(
    center_freq: float,
    bandwidth: float,
    duration: float,
    sample_rate: float,
) -> np.ndarray:
    """Unit-amplitude linear-frequency-modulated probe pulse.

    The instantaneous frequency sweeps linearly from ``-bandwidth/2`` to
    ``+bandwidth/2`` over ``duration``; the carrier at ``center_freq`` is
    implicit in the baseband-equivalent model and does not affect the
    samples. ``bandwidth = 0`` degenerates to a constant-phase unit tone.

    Raises:
        ConfigurationError: if ``bandwidth > sample_rate`` (the sweep would
            alias) or the requested duration yields fewer than 2 samples.
    """
    if not (math.isfinite(center_freq) and center_freq >= 0):
        raise ConfigurationError(f"center_freq must be finite and >= 0, got {center_freq}")
    if not (math.isfinite(bandwidth) and bandwidth >= 0):
        raise ConfigurationError(f"bandwidth must be finite and >= 0, got {bandwidth}")
    if bandwidth > sample_rate:
        raise ConfigurationError(
            f"chirp bandwidth {bandwidth} Hz exceeds sample rate {sample_rate} Hz (aliasing)"
        )
    num_samples = chirp_length(duration, sample_rate)
    t = np.arange(num_samples) / sample_rate
    phase = 2.0 * np.pi * (-0.5 * bandwidth * t + bandwidth / (2.0 * duration) * t**2)
    return np.exp(1j * phase)
