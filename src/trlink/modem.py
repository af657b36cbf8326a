"""Receive-spatial-modulation bit mapping and power-detector demodulation.

Two antenna-index keying schemes over the time-reversal link:

* RASK - each symbol targets exactly one of two receive antennas; the
  first antenna carries bit 0, the second bit 1. Detection picks the
  antenna with the largest windowed power (argmax needs no threshold).
* ERASK - each antenna is independently targeted or not, giving ``N`` bits
  per symbol; detection compares each antenna's windowed power against a
  threshold.

The modulators return the ``(N, M)`` antenna-by-symbol amplitude matrix
that :func:`trlink.precoding.received_at` takes; the pulse spacing travels
beside it, not in it.

The receiver is non-coherent: only magnitudes inside small windows around
the expected focusing peaks are used, so no phase reference or inter-antenna
synchronisation is required. The detector therefore takes just those
samples: an ``(N, M, 2w+1)`` array holding each antenna's received samples
in the ``2w+1``-sample window around each symbol's peak, never a full
received signal. Where those windows sit is
:func:`trlink.precoding.received_at`'s contract, which evaluates them.
The detector and the threshold calibration take the frame's symbol count
as a :class:`DetectionWindow`, whose ``half_width`` and ``num_symbols`` the
benchmark's sample counter reads; it stays their second argument until the
benchmark changes.

The threshold policies and :class:`RsmConfig` are a scenario's ``rsm``
block and check their values when it loads. The functions here trust their
arguments and check nothing: :class:`~trlink.harness.Scenario` has already
refused a RASK run without exactly 2 antennas, an ERASK run without a
threshold policy, and noise powers whose window powers or pilot sums would
overflow, and the bits come from a generator of 0s and 1s, framed as whole
symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError


#: Taps on each side of a focusing peak that the power detector reads.
WINDOW_HALF_WIDTH = 1


class Scheme(str, Enum):
    RASK = "rask"
    ERASK = "erask"


@dataclass(frozen=True)
class FixedThreshold:
    """Use a caller-supplied detection threshold (received power units).

    Window powers are never negative, so the value must be finite and > 0:
    a threshold at or below zero would decide every antenna "on".
    """

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ConfigurationError(
                f"a fixed threshold must be finite and > 0, got {self.value}"
            )


@dataclass(frozen=True)
class PilotThreshold:
    """Calibrate the threshold from a pilot frame of known symbols."""

    num_pilots: int

    def __post_init__(self) -> None:
        if self.num_pilots < 2:
            raise ConfigurationError("pilot calibration needs at least 2 pilot symbols")


@dataclass(frozen=True)
class RsmConfig:
    """Antenna count and threshold policy; the scheme is passed per run."""

    num_rx: int
    threshold_policy: FixedThreshold | PilotThreshold | None = None

    def __post_init__(self) -> None:
        if self.num_rx < 1:
            raise ConfigurationError(f"num_rx must be >= 1, got {self.num_rx}")


@dataclass(frozen=True)
class DetectionWindow:
    """A frame of ``num_symbols`` detection windows, one per symbol.

    Each window spans ``WINDOW_HALF_WIDTH`` taps on either side of its
    symbol's focusing peak, so windows of distinct symbols are disjoint
    whenever the pulse spacing exceeds twice the half-width.
    """

    num_symbols: int

    @property
    def half_width(self) -> int:
        """Taps read on each side of a peak: always ``WINDOW_HALF_WIDTH``."""
        return WINDOW_HALF_WIDTH


def rask_modulate(bits) -> np.ndarray:
    """``(2, M)`` amplitudes, one symbol per 0/1 bit: bit ``b`` pulses antenna ``b``."""
    bits = np.asarray(bits)
    return np.stack([bits == 0, bits == 1]).astype(np.float64)


def erask_modulate(bits, num_rx: int) -> np.ndarray:
    """``(num_rx, M)`` amplitudes from ``M * num_rx`` 0/1 bits: ``num_rx``
    bits per symbol, bit ``n`` gates antenna ``n``."""
    return np.asarray(bits).reshape(-1, num_rx).T.astype(np.float64)


def window_peak_powers(received: np.ndarray) -> np.ndarray:
    """Max |y|^2 inside each symbol window, per antenna: shape (N, M).

    ``received`` holds each antenna's samples in each symbol's window, as
    :func:`trlink.precoding.received_at` returns them: shape ``(N, M,
    2*WINDOW_HALF_WIDTH + 1)``.
    """
    power = np.abs(received) ** 2
    # Elementwise maxima over the few window columns: numpy's max reduction
    # along a 3-sample trailing axis costs several times as much.
    peak = power[:, :, 0]
    for column in range(1, power.shape[2]):
        peak = np.maximum(peak, power[:, :, column])
    return peak


def power_detect(
    received: np.ndarray,
    windows: DetectionWindow,
    scheme: Scheme,
    threshold: float | None = None,
) -> np.ndarray:
    """Non-coherent detection of the transmitted bits.

    ``received`` holds the antennas' window samples (see
    :func:`window_peak_powers`). RASK takes exactly 2 antennas and returns
    one bit per symbol, the index of the strongest antenna (ties break to
    the lowest index, i.e. bit 0). ERASK returns one bit per antenna per
    symbol, antenna-major within each symbol, set where the windowed power
    reaches the threshold, which is finite and > 0.
    """
    powers = window_peak_powers(received)
    if scheme is Scheme.RASK:
        return np.argmax(powers, axis=0).astype(np.int64)
    decisions = (powers >= threshold).astype(np.int64)
    return decisions.T.reshape(-1)


def calibrate_threshold(
    pilot_received: np.ndarray,
    windows: DetectionWindow,
    targeted: np.ndarray,
) -> float:
    """Midpoint between the targeted and untargeted pilot power class means.

    ``pilot_received`` holds the pilot frame's window samples (see
    :func:`window_peak_powers`). ``targeted`` is the boolean (num_rx,
    num_pilots) mask saying which antenna/symbol cells of the pilot frame
    carried a pulse. Both classes are represented, as in every pilot
    pattern of at least 2 pilots.
    """
    powers = window_peak_powers(pilot_received)
    mean_on = float(powers[targeted].mean())
    mean_off = float(powers[~targeted].mean())
    return 0.5 * (mean_on + mean_off)
