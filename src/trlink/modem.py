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
at :attr:`DetectionWindow.lags`, as :func:`trlink.precoding.received_at`
evaluates them, never a full received signal. Those lags derive from the
frame's three integers alone, so this module says where the detector reads.
The detector and the threshold calibration take the frame as a
:class:`DetectionWindow`, whose ``half_width`` and ``num_symbols`` the
benchmark's sample counter reads; it stays their second argument until the
benchmark changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DomainError


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

    num_pilots: int = 32

    def __post_init__(self) -> None:
        if self.num_pilots < 2:
            raise ConfigurationError("pilot calibration needs at least 2 pilot symbols")


@dataclass(frozen=True)
class RsmConfig:
    """Antenna count and threshold policy; the scheme is passed per run."""

    num_rx: int = 2
    threshold_policy: FixedThreshold | PilotThreshold | None = None

    def __post_init__(self) -> None:
        if self.num_rx < 1:
            raise ConfigurationError(f"num_rx must be >= 1, got {self.num_rx}")


@dataclass(frozen=True)
class DetectionWindow:
    """A frame of ``num_symbols`` pulses ``spacing`` taps apart through
    ``num_taps``-tap channels: symbol ``l`` peaks at ``num_taps - 1 + l*spacing``.

    Each window spans ``WINDOW_HALF_WIDTH`` taps on either side of its peak,
    so windows of distinct symbols are disjoint whenever the spacing exceeds
    twice the half-width.
    """

    num_symbols: int
    num_taps: int
    spacing: int

    def __post_init__(self) -> None:
        if self.num_symbols < 0:
            raise DomainError(f"num_symbols must be >= 0, got {self.num_symbols}")
        if self.num_taps < 1:
            raise DomainError(f"num_taps must be >= 1, got {self.num_taps}")
        if self.spacing < 1:
            raise DomainError(f"spacing must be >= 1, got {self.spacing}")

    @property
    def half_width(self) -> int:
        """Taps read on each side of a peak: always ``WINDOW_HALF_WIDTH``."""
        return WINDOW_HALF_WIDTH

    @property
    def lags(self) -> np.ndarray:
        """``(M, 2*half_width + 1)`` received sample indices the detector reads."""
        peaks = self.num_taps - 1 + np.arange(self.num_symbols, dtype=np.int64) * self.spacing
        offsets = np.arange(-self.half_width, self.half_width + 1)
        return peaks[:, None] + offsets[None, :]


def _as_bit_array(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64).ravel()
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise DomainError("bits must be 0/1 valued")
    return arr


def rask_modulate(bits) -> np.ndarray:
    """``(2, M)`` amplitudes, one symbol per bit: bit ``b`` pulses antenna ``b``."""
    arr = _as_bit_array(bits)
    return np.stack([arr == 0, arr == 1]).astype(np.complex128)


def erask_modulate(bits, num_rx: int) -> np.ndarray:
    """``(num_rx, M)`` amplitudes: ``num_rx`` bits per symbol, bit ``n`` gates antenna ``n``."""
    if num_rx < 1:
        raise ConfigurationError(f"num_rx must be >= 1, got {num_rx}")
    arr = _as_bit_array(bits)
    if arr.size % num_rx != 0:
        raise DomainError(
            f"bit count {arr.size} is not a multiple of num_rx={num_rx} (framing)"
        )
    return arr.reshape(-1, num_rx).T.astype(np.complex128)


def window_peak_powers(received: np.ndarray, windows: DetectionWindow) -> np.ndarray:
    """Max |y|^2 inside each symbol window, per antenna: shape (N, M).

    ``received`` holds each antenna's samples at ``windows.lags``: shape
    ``(N, M, 2*half_width + 1)``.
    """
    received = np.asarray(received)
    expected = (windows.num_symbols, 2 * windows.half_width + 1)
    if received.ndim != 3 or received.shape[1:] != expected:
        raise DomainError(
            f"window samples of shape {received.shape} do not match {expected[0]} "
            f"windows of {expected[1]} samples per antenna"
        )
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
    :func:`window_peak_powers`). RASK needs exactly 2 antennas and returns
    one bit per symbol, the index of the strongest antenna (ties break to
    the lowest index, i.e. bit 0). ERASK returns one bit per antenna per
    symbol, antenna-major within each symbol, set where the windowed power
    reaches the threshold, which must be finite and > 0.
    """
    rask = Scheme(scheme) is Scheme.RASK
    if rask and len(received) != 2:
        raise ConfigurationError(
            f"RASK needs exactly 2 receive antennas, got {len(received)}"
        )
    powers = window_peak_powers(received, windows)
    if rask:
        return np.argmax(powers, axis=0).astype(np.int64)
    if threshold is None:
        raise ConfigurationError("ERASK detection requires a threshold")
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise DomainError(f"the ERASK threshold must be finite and > 0, got {threshold}")
    decisions = (powers >= threshold).astype(np.int64)
    return decisions.T.reshape(-1)


def calibrate_threshold(
    pilot_received: np.ndarray,
    windows: DetectionWindow,
    targeted: np.ndarray,
) -> float:
    """Midpoint between the targeted and untargeted pilot power class means.

    ``pilot_received`` holds the pilot frame's window samples (see
    :func:`window_peak_powers`). ``targeted`` is a boolean (num_rx,
    num_pilots) mask saying which antenna/symbol cells of the pilot frame
    carried a pulse; both classes must be represented.
    """
    mask = np.asarray(targeted, dtype=bool)
    powers = window_peak_powers(pilot_received, windows)
    if mask.shape != powers.shape:
        raise ConfigurationError(
            f"targeted mask shape {mask.shape} does not match pilot powers {powers.shape}"
        )
    if not mask.any() or mask.all():
        raise ConfigurationError("pilot frame must contain both targeted and untargeted cells")
    mean_on = float(powers[mask].mean())
    mean_off = float(powers[~mask].mean())
    return 0.5 * (mean_on + mean_off)
