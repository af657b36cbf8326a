"""The DSP primitives: convolution, correlation, noise and the probe chirp.

Propagation (``precoding.propagate``, which builds every received unit
pulse) is the full-support convolution here. Sounding
(``channel.sound_cir``) and the BER windows (``precoding.received_at``) draw
their noise from :func:`noise_blocks`, seed/noise contract v1's one stream.
Sounding also takes its chirp, the chirp's Gram, the transform length and
:func:`xcorr`, which gives each noisy row's taps' autocorrelation and so,
with the Gram, its probe power. The noise's correlation with the chirp is
read at ``L`` lags only, so sounding transforms the chirp and the noise at
the received signal's length, not the full correlation's. The Gram
(:func:`chirp_gram`) is not transformed at all: the linear-FM chirp's
autocorrelation is a real Dirichlet kernel times a linear phase, in closed
form next to :func:`make_chirp`'s phase law.

A signal is a plain 1-D ``complex128`` numpy array of complex-envelope
samples at one rate, the simulated bandwidth, so no rate travels with it:
channel taps, the probe chirp (:func:`make_chirp` samples at its
bandwidth) and every emission share it.
Carrier up/down-conversion is treated as ideal, so nothing here models a
passband. The functions here neither copy nor check their inputs: the
arrays come from validated boundaries (an ensemble's ``(P, L)`` taps block,
checked once where it was built, at least one position by at least one
tap) or from earlier steps of the pipeline. The checks live at load: the
scenario holds its chirp to 2 .. ``_MAX_CHIRP_SAMPLES`` samples by
:func:`chirp_length`'s rule, at a bandwidth ``CavityParams`` holds to
``_CHIRP_BANDWIDTHS_HZ``. Of this module, ``trlink`` exports only
:data:`NUMERIC_RTOL`; the pipeline and the test suite reach the rest here.

``convolve``'s second operand may also be a ``(P, Lb)`` stack of ``P``
signals of one length, which convolves the first operand with every row:
one emission received through ``P`` channels. The first operand may in turn
be a ``(U, La)`` stack, ``U`` emissions, and the result is then their outer
stack, ``(P, U, La + Lb - 1)``: every emission through every channel. Each
operand is transformed once, in one batched transform along its last axis,
and the products, multiplied into one array, take one inverse transform
that overwrites that array in place; entry ``[p, u]`` equals
``convolve(a[u], b[p])`` bit for bit. The first operand's spectrum stays
the left factor of the product, as in the one-signal case, because the
complex multiply does not round the same with its factors swapped.

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
from collections.abc import Iterator

import numpy as np

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


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of one signal or a stack with one signal or a stack.

    ``a`` is one signal of length ``La`` or a ``(U, La)`` stack, ``b`` one
    signal of length ``Lb`` or a ``(P, Lb)`` stack. The output is ``La + Lb
    - 1`` samples long, with shape ``(P, U, La + Lb - 1)`` for two stacks:
    ``b``'s stack outer, ``a``'s inner, one-signal axes dropped. Uses
    FFT-based fast convolution internally; agrees with the direct sum to
    ``NUMERIC_RTOL``, and each entry of a stacked result equals the
    convolution of its two signals alone bit for bit.
    """
    # b's rows broadcast against all of a's: b's stack axes, then a's
    b = b.reshape(b.shape[:-1] + (1,) * (a.ndim - 1) + b.shape[-1:])
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    n = a.shape[-1] + b.shape[-1] - 1
    m = _fast_len(n)
    product = np.fft.fft(a, m) * np.fft.fft(b, m)
    return np.fft.ifft(product, axis=-1, out=product)[..., :n]


def xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalised cross-correlation of ``b`` against ``a`` over all lags.

    Output index ``j`` holds lag ``j - (len(a) - 1)``, whose value is
    ``sum_k conj(a[k - lag]) * b[k]``; lag 0 (index ``len(a) - 1``) is the
    plain inner product ``sum(conj(a) * b)``: the conjugated time-reversed
    ``a`` convolved with ``b``.
    """
    return convolve(np.conj(a[::-1]), b)


# Every noise draw goes through one buffer of this many doubles (64 KiB),
# below glibc's 128 KiB mmap threshold, so it is not mapped, and faulted in,
# again on every call.
_NOISE_BLOCK = 8192


def noise_blocks(rng_seed: int | list[int], size: int, stop: int) -> Iterator[tuple]:
    """Seed/noise contract v1, in blocks of at most ``_NOISE_BLOCK`` samples.

    Noise of standard deviation ``sigma`` is ``sigma / sqrt(2) * (re + 1j *
    im)``: ``numpy.random.default_rng(rng_seed)`` draws the ``size`` normals
    ``re``, then the ``size`` ``im``. Yields ``(part, start, block)`` in draw
    order, ``block`` being ``re[start:]`` (``part`` 0) or ``im[start:]``
    (``part`` 1) up to its size; ``im`` stops after the first ``stop``. Each
    block is a view of one buffer that the next overwrites; each part times
    ``sigma / sqrt(2)`` is the complex product bit for bit for ``sigma > 0``.
    """
    rng = np.random.default_rng(rng_seed)
    buffer = np.empty(_NOISE_BLOCK)
    for part, drawn in ((0, size), (1, stop)):
        for start in range(0, drawn, _NOISE_BLOCK):
            yield part, start, rng.standard_normal(out=buffer[: min(_NOISE_BLOCK, drawn - start)])


# A sounding chirp is transformed with each noisy row's noise at the
# received length, in one complex transform row; a million samples
# (time-bandwidth product 1e6) keeps that row near 16 MB.
_MAX_CHIRP_SAMPLES = 1_000_000

# make_chirp squares k / bandwidth for 1 <= k < n <= _MAX_CHIRP_SAMPLES and
# scales it by bandwidth**2 / (2 n') for n' = duration * bandwidth in [1.5,
# _MAX_CHIRP_SAMPLES + 0.5]. Between these bandwidths k / bandwidth lies in
# [2**-511, 2**511], so the square and the scale are normal doubles: every
# chirp up to the cap has a finite phase, at full precision.
_CHIRP_BANDWIDTHS_HZ = ((_MAX_CHIRP_SAMPLES - 1) * 2.0**-511, 2.0**511)


def chirp_length(duration: float, bandwidth: float) -> int:
    """Samples in a chirp of ``duration`` seconds at ``bandwidth``: the one rounding rule."""
    return round(duration * bandwidth)


def make_chirp(bandwidth: float, duration: float) -> np.ndarray:
    """Unit-amplitude linear-frequency-modulated probe pulse, at baseband.

    The chirp is sampled at ``bandwidth``, the one sample rate of the
    simulated signals, and its instantaneous frequency sweeps linearly from
    ``-bandwidth/2`` to ``+bandwidth/2`` over ``duration``; the carrier is
    implicit in the baseband-equivalent model. Nothing is checked here.
    """
    num_samples = chirp_length(duration, bandwidth)
    # phase = 2 pi (-bandwidth t / 2 + bandwidth t^2 / (2 duration)) at the
    # sample times t, built term by term in place; the returned array's real
    # half holds the quadratic term meanwhile
    phase = np.arange(num_samples, dtype=np.float64)
    phase /= bandwidth
    chirp = np.empty(num_samples, dtype=np.complex128)
    quadratic = np.square(phase, out=chirp.real)
    quadratic *= bandwidth / (2.0 * duration)
    phase *= -0.5 * bandwidth
    phase += quadratic
    phase *= 2.0 * np.pi
    chirp.real = 0.0
    chirp.imag = phase
    return np.exp(chirp, out=chirp)


def chirp_gram(bandwidth: float, duration: float, num_taps: int) -> tuple[np.ndarray, float]:
    """The Gram of :func:`make_chirp`'s probe over ``num_taps`` taps, in closed form.

    The Gram is ``G = C^H C / n`` for the ``(n + L - 1, L)`` convolution
    matrix ``C`` of the ``n``-sample chirp (energy ``n``, unit amplitude).
    The chirp's phase at sample ``j`` is ``pi (j^2 / n' - j)`` with the
    unrounded ``n' = duration * bandwidth``, so its autocorrelation at lag
    ``k`` is a geometric sum: ``G[r, c] = exp(1j * phase_step * (r - c)) *
    lags[|r - c|]``, with ``phase_step = pi ((n - 1) / n' - 1)`` and the real
    Dirichlet kernel ``lags[0] = 1``, ``lags[k] = sin(pi k (n - k) / n') /
    (n sin(pi k / n'))`` for ``1 <= k < min(L, n)`` and ``0`` beyond.
    ``sin(pi k / n')`` is never 0 there, because ``k <= n - 1 < n'``.

    Returns ``(lags, phase_step)``; nothing is checked here.
    """
    n = chirp_length(duration, bandwidth)
    n_prime = duration * bandwidth
    lags = np.zeros(num_taps)
    lags[0] = 1.0
    k = np.arange(1, min(num_taps, n))
    lags[1 : k.size + 1] = np.sin(np.pi * k * (n - k) / n_prime) / (n * np.sin(np.pi * k / n_prime))
    return lags, math.pi * ((n - 1) / n_prime - 1.0)
