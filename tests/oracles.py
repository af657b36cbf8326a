"""Slow reference implementations that the tests hold the pipeline to.

The library computes the link in the kernel domain: ``pulse_responses``
gives each received unit pulse ``K_ni`` and ``received_at`` only the
samples the detector reads. The references here build the full signals
instead, the way the link is described:

* :func:`tr_precode` - the whole multi-user emission, every user's pulses
  upsampled and convolved with its conjugated, time-reversed taps;
* :func:`tr_kernel` - ``K_ni`` in closed form, as a correlation;
* :func:`received_signal` - the whole received signal: :func:`tr_precode`,
  noiseless ``propagate``, then receiver ``n``'s noise seeded
  ``[*seed_path, n]`` (seed/noise contract v1);
* :func:`window_lags` and :func:`read_at` - where the detector reads that
  signal, and the read itself, 0 past either end;
* :func:`direct_convolve` and :func:`direct_xcorr` - textbook double-loop
  sums, independent of the transform-domain fast paths in ``trlink.dsp``;
* :func:`noise_expression` and :func:`chirp_expression` - contract v1's
  noise and the probe chirp as one expression each, which ``trlink.dsp``
  builds in place with the same arithmetic, bit for bit;
* :func:`convolve_expression` and :func:`ensemble_expression` - the fast
  convolution and the cavity ensemble's taps as out-of-place expressions,
  which ``trlink.dsp`` and ``trlink.channel`` compute with fewer
  temporaries and the same arithmetic, bit for bit.
"""

import math

import numpy as np

from trlink.channel import CavityParams, _kernel_sqrt, check_positions
from trlink.dsp import _fast_len, chirp_length, complex_noise, convolve, xcorr
from trlink.modem import WINDOW_HALF_WIDTH
from trlink.precoding import propagate


def _root_energy(h: np.ndarray) -> float:
    """``sqrt(E) = sqrt(sum |h[l]|^2)`` of one row of taps."""
    return math.sqrt(float(np.sum(np.abs(h) ** 2)))


def tr_kernel(h_j: np.ndarray, h_i: np.ndarray) -> np.ndarray:
    """Closed-form correlation kernel of taps ``h_j`` against the precoding target's ``h_i``.

    The kernel spans all lags ``-(L-1) .. L-1`` with lag 0 at index
    ``L - 1``; entry ``L - 1 + m`` is
    ``sum_k conj(h_i[k - m]) * h_j[k] / sqrt(E_i)``. For the
    autocorrelation case the lag-0 value is ``sqrt(E_i)``, real and
    positive, and dominates every other lag in magnitude. It equals
    ``pulse_responses([h_j], [h_i])[0, 0]`` to ``NUMERIC_RTOL``.
    """
    h_j, h_i = np.asarray(h_j, dtype=np.complex128), np.asarray(h_i, dtype=np.complex128)
    return xcorr(h_i, h_j) / _root_energy(h_i)


def tr_precode(symbols: np.ndarray, taps: np.ndarray, spacing: int) -> np.ndarray:
    """Assemble the multi-user time-reversal emission.

    ``symbols`` is the ``(N, M)`` amplitude matrix: row ``i`` holds user
    ``i``'s pulse amplitudes, one per symbol slot, and row ``i`` of the
    ``(N, L)`` block ``taps`` is the channel toward that user. Each
    amplitude row is upsampled by ``spacing`` taps and convolved with the
    user's conjugated, time-reversed response, scaled by ``1/sqrt(E_i)``;
    the users' contributions are summed. Pulse ``l`` of any user focuses at
    received index ``L - 1 + l*spacing``. ``M == 0`` gives an empty
    emission. Amplitudes may be complex.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    num_symbols = symbols.shape[1]
    contributions: list[np.ndarray] = []
    for row, h in zip(symbols, np.asarray(taps, dtype=np.complex128)):
        if num_symbols == 0:
            continue
        train = np.zeros((num_symbols - 1) * spacing + 1, dtype=np.complex128)
        train[::spacing] = row
        flipped = np.conj(h[::-1]) / _root_energy(h)
        contributions.append(convolve(train, flipped))

    combined = np.zeros(contributions[0].size if contributions else 0, dtype=np.complex128)
    for part in contributions:
        combined += part
    return combined


def received_signal(symbols, known_taps, true_taps, spacing, noise_sigma, seed_path):
    """The full ``(N, (M-1)*spacing + 2L - 1)`` received signal, with noise.

    :func:`tr_precode` of ``symbols`` toward ``known_taps``, received by
    ``propagate`` through ``true_taps``; row ``n`` then gains white
    circular complex Gaussian noise of per-sample standard deviation
    ``noise_sigma``, seeded ``[*seed_path, n]`` (seed/noise contract v1).
    """
    received = propagate(tr_precode(symbols, known_taps, spacing), np.asarray(true_taps))
    for n, row in enumerate(received):
        row += complex_noise(row.size, noise_sigma, [*seed_path, n])
    return received


def window_lags(num_symbols: int, num_taps: int, spacing: int) -> np.ndarray:
    """``(M, 2w+1)`` received sample indices the detector reads.

    Symbol ``m``'s window is ``L-1 + m*spacing + o`` for ``|o| <= w``, with
    ``w = WINDOW_HALF_WIDTH``: its focusing peak and ``w`` samples each side.
    """
    peaks = num_taps - 1 + np.arange(num_symbols) * spacing
    return peaks[:, None] + np.arange(-WINDOW_HALF_WIDTH, WINDOW_HALF_WIDTH + 1)


def read_at(signal: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """``signal[..., lags]``, reading 0 at a lag past either end of the signal."""
    pad = [(0, 0)] * (signal.ndim - 1) + [(WINDOW_HALF_WIDTH, WINDOW_HALF_WIDTH)]
    return np.pad(signal, pad)[..., lags + WINDOW_HALF_WIDTH]


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


def noise_expression(size: int, sigma: float, rng_seed) -> np.ndarray:
    """``complex_noise`` as one expression over its ``(2, size)`` draw."""
    z = np.random.default_rng(rng_seed).standard_normal((2, size))
    return sigma / np.sqrt(2.0) * (z[0] + 1j * z[1])


def chirp_expression(bandwidth: float, duration: float) -> np.ndarray:
    """``make_chirp`` as one expression over the sample times ``t``."""
    t = np.arange(chirp_length(duration, bandwidth)) / bandwidth
    phase = 2.0 * np.pi * (-0.5 * bandwidth * t + bandwidth / (2.0 * duration) * t**2)
    return np.exp(1j * phase)


def convolve_expression(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``convolve`` with an out-of-place inverse transform of the spectra's product."""
    b = b.reshape(b.shape[:-1] + (1,) * (a.ndim - 1) + b.shape[-1:])
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    n = a.shape[-1] + b.shape[-1] - 1
    m = _fast_len(n)
    return np.fft.ifft(np.fft.fft(a, m) * np.fft.fft(b, m), axis=-1)[..., :n]


def ensemble_expression(params: CavityParams, positions_mm) -> np.ndarray:
    """``synth_cavity_ensemble(params, positions_mm).taps`` as one expression
    over its two draws: real parts, then imaginary parts, ``(L, P)`` each."""
    positions = check_positions(positions_mm)
    rng = np.random.default_rng(params.rng_seed)
    shape = (params.num_taps, positions.size)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    root = _kernel_sqrt(params.wavelength_mm, positions.tobytes())
    pdp = params.power_delay_profile()
    return (np.sqrt(pdp)[:, None] * (((re + 1j * im) / np.sqrt(2.0)) @ root)).T
