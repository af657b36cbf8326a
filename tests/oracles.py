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
* :func:`direct_convolve` and :func:`direct_xcorr` - textbook double-loop
  sums, independent of the transform-domain fast paths in ``trlink.dsp``.
"""

import math

import numpy as np

from trlink.channel import as_taps
from trlink.dsp import complex_noise, convolve, xcorr
from trlink.precoding import _check_symbols, _target_energy, propagate


def tr_kernel(h_j: np.ndarray, h_i: np.ndarray) -> np.ndarray:
    """Closed-form correlation kernel of taps ``h_j`` against the precoding target's ``h_i``.

    The kernel spans all lags ``-(L-1) .. L-1`` with lag 0 at index
    ``L - 1``; entry ``L - 1 + m`` is
    ``sum_k conj(h_i[k - m]) * h_j[k] / sqrt(E_i)``. For the
    autocorrelation case the lag-0 value is ``sqrt(E_i)``, real and
    positive, and dominates every other lag in magnitude. It equals
    ``pulse_responses([h_j], [h_i])[0, 0]`` to ``NUMERIC_RTOL``.
    """
    h_j, h_i = as_taps([h_j, h_i], "kernel CIRs")
    scale = math.sqrt(_target_energy(h_i))
    return xcorr(h_i, h_j) / scale


def tr_precode(symbols: np.ndarray, taps: np.ndarray, spacing: int) -> np.ndarray:
    """Assemble the multi-user time-reversal emission.

    ``symbols`` is the ``(N, M)`` amplitude matrix: row ``i`` holds user
    ``i``'s pulse amplitudes, one per symbol slot, and row ``i`` of the
    ``(N, L)`` block ``taps`` is the channel toward that user. Each
    amplitude row is upsampled by ``spacing`` taps and convolved with the
    user's conjugated, time-reversed response, scaled by ``1/sqrt(E_i)``;
    the users' contributions are summed. Pulse ``l`` of any user focuses at
    received index ``L - 1 + l*spacing``. ``M == 0`` gives an empty
    emission. Amplitudes may be complex. A user whose energy is zero or not
    finite (a non-finite tap) is a ``DomainError``.
    """
    symbols = _check_symbols(symbols, len(taps), spacing)
    taps = as_taps(taps, "users")
    num_symbols = symbols.shape[1]
    contributions: list[np.ndarray] = []
    for row, h in zip(symbols, taps):
        e = _target_energy(h)
        if num_symbols == 0:
            continue
        train = np.zeros((num_symbols - 1) * spacing + 1, dtype=np.complex128)
        train[::spacing] = row
        flipped = np.conj(h[::-1]) / math.sqrt(e)
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
    received = propagate(tr_precode(symbols, known_taps, spacing), true_taps)
    for n, row in enumerate(received):
        row += complex_noise(row.size, noise_sigma, [*seed_path, n])
    return received


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
