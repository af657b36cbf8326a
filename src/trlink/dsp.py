"""Complex baseband signals and the DSP primitives everything else is built on.

All signals are uniformly sampled complex envelopes; the sample rate equals
the simulated bandwidth and carrier up/down-conversion is treated as ideal,
so nothing here models a passband. Convolution and correlation are
full-support linear operations. They are computed with transform-domain fast
convolution, but the contract is the direct summation: the test suite holds
the fast path to a direct double-loop reference within ``NUMERIC_RTOL``.
The committed results are byte-identical only for one rounding, so the fast
path fixes two details: a length-1 operand is a plain scaling (no transform),
and the transform length is the smallest 2-3-5-7-11-smooth length that holds
the full output.

Lag convention, fixed once and used by every caller: the output of
``xcorr(a, b)`` has length ``len(a) + len(b) - 1`` and output index ``j``
holds lag ``j - (len(a) - 1)``. Lag 0 therefore sits at index
``len(a) - 1`` and equals ``sum(conj(a[k]) * b[k])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

#: Relative tolerance for "numerically exact" identities (energy
#: normalisation, fast-vs-direct agreement, kernel peak values).
NUMERIC_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ComplexBasebandSignal:
    """Uniformly sampled complex envelope.

    Attributes:
        samples: 1-D complex amplitudes (dimensionless, baseband-normalised).
        sample_rate: samples per second; equals the simulation bandwidth.

    Instances are immutable: the sample buffer is frozen after construction
    and safe to share across concurrent workers. A zero-length signal is
    legal (it acts as an identity for concatenation) but is rejected by the
    convolution/correlation operations below.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise DomainError(f"signal samples must be 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise DomainError("signal samples must be finite (no NaN/Inf)")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ConfigurationError(f"sample_rate must be positive, got {self.sample_rate}")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def energy(self) -> float:
        """Sum of |sample|^2 over the whole signal."""
        return float(np.sum(np.abs(self.samples) ** 2))

    @property
    def duration(self) -> float:
        """Signal span in seconds."""
        return self.samples.size / self.sample_rate


def _check_pair(a: ComplexBasebandSignal, b: ComplexBasebandSignal, op: str) -> None:
    if not math.isclose(a.sample_rate, b.sample_rate, rel_tol=1e-9):
        raise ConfigurationError(
            f"{op}: sample rates differ ({a.sample_rate} vs {b.sample_rate})"
        )
    if len(a) == 0 or len(b) == 0:
        raise DomainError(f"{op}: inputs must be non-empty")


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


def convolve(a: ComplexBasebandSignal, b: ComplexBasebandSignal) -> ComplexBasebandSignal:
    """Full linear convolution of two signals.

    Output length is ``len(a) + len(b) - 1``. Uses FFT-based fast
    convolution internally; agrees with the direct sum to ``NUMERIC_RTOL``.
    """
    _check_pair(a, b, "convolve")
    out = _fftconvolve(a.samples, b.samples)
    return ComplexBasebandSignal(out, a.sample_rate)


def xcorr(a: ComplexBasebandSignal, b: ComplexBasebandSignal) -> ComplexBasebandSignal:
    """Unnormalised cross-correlation of ``b`` against ``a`` over all lags.

    Output index ``j`` holds lag ``j - (len(a) - 1)``, whose value is
    ``sum_k conj(a[k - lag]) * b[k]``; lag 0 (index ``len(a) - 1``) is the
    plain inner product ``sum(conj(a) * b)``. Equivalent to convolving the
    conjugated time-reversed ``a`` with ``b``.
    """
    _check_pair(a, b, "xcorr")
    out = _fftconvolve(np.conj(a.samples[::-1]), b.samples)
    return ComplexBasebandSignal(out, a.sample_rate)


def make_chirp(
    center_freq: float,
    bandwidth: float,
    duration: float,
    sample_rate: float,
) -> ComplexBasebandSignal:
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
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigurationError(f"duration must be positive, got {duration}")
    num_samples = int(round(duration * sample_rate))
    if num_samples < 2:
        raise ConfigurationError(
            f"duration * sample_rate = {duration * sample_rate:.3g} gives "
            f"{num_samples} samples; need at least 2"
        )
    t = np.arange(num_samples) / sample_rate
    phase = 2.0 * np.pi * (-0.5 * bandwidth * t + bandwidth / (2.0 * duration) * t**2)
    return ComplexBasebandSignal(np.exp(1j * phase), sample_rate)
