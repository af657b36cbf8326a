"""Synthetic reverberation-cavity channels and chirp sounding.

A channel set is one read-only, C-contiguous ``(P, L)`` complex128 array
of taps: row ``p`` is the response at position ``p``, at the one sample
rate kept in :class:`CavityParams`, the bandwidth. A set enters the
pipeline as :class:`SpatialChannelEnsemble` ``.taps`` by one of two
entry points, and each is checked there once. :func:`load_ensemble`
reads its JSON with a scenario's readers (:func:`read_cavity`) and refuses, naming the
JSON or CSV file, a header other than the exported one, a row of the wrong
width, a non-numeric or non-finite cell, a row count or position off its
``positions_mm``, or positions that are not strictly increasing.
:func:`synth_cavity_ensemble` draws over positions the scenario has
checked, and its taps are finite normals times the finite kernel root and
``sqrt(PDP)``. The constructor only keeps frozen copies; the stage
functions that take taps (:func:`sound_cir` here, the precoder's in
:mod:`trlink.precoding`) trust their arguments, and a row they get is a
view of such a block. ``SpatialChannelEnsemble.cirs`` still builds one
:class:`Cir` per row on access, for the benchmark's focus oracle; nothing
in trlink reads it, and ``trlink`` does not export :class:`Cir`.

The physical channel is a leaking metallic cavity probed across a 1-D
receive axis. No field solver is involved; instead each impulse response is
drawn from the standard statistical model for a diffuse reverberant field:

* tap gains are zero-mean circular complex Gaussian (Rayleigh magnitudes),
* the power-delay profile decays exponentially with the cavity energy-decay
  time ``tau`` and is normalised to unit total energy,
* across receive positions separated by ``d`` the tap processes are
  correlated with the 3-D diffuse-field kernel ``sinc(2*pi*d / lambda)``,
  which sets the half-wavelength spatial focusing scale.

Generation is deterministic given the seed. The exact draw order is part of
the contract so alternate implementations can reproduce the stream
bit-for-bit: with ``rng = numpy.random.default_rng(seed)`` the real parts of
the uncorrelated field are drawn first as ``rng.standard_normal((L, P))``
(tap-major, C order), then the imaginary parts by a second identical call;
the complex field is scaled by ``1/sqrt(2)``, correlated across positions by
right-multiplying with the symmetric square root of the kernel matrix, and
finally scaled per tap by ``sqrt(PDP[l])``. Each draw is written straight
into one complex array times ``1 / sqrt(2)``, which is what numpy's
complex-by-real division computes, and the correlated taps are scaled in
place, so the result equals ``(sqrt(PDP)[:, None] * (((re + 1j * im) /
sqrt(2)) @ root)).T`` bit for bit without that expression's temporaries.

That square root depends only on the positions and the wavelength, so it is
memoised with one entry (:func:`_kernel_sqrt`): repeated draws over one
grid, such as a scenario's trials, factorise the kernel once. The cached
root is read-only and equals a fresh one bit for bit.

Sounding (:func:`sound_cir`) estimates a batch of responses under one
:class:`SoundingConfig`, the probe chirp's duration and SNR; each row has
its own seed of the :func:`~trlink.dsp.noise_blocks` stream. The
least-squares estimate from a noisy recording is the truth plus the noise
solved through the chirp's Gram, and sounding computes it in that form. A
noiseless batch is its taps, bit for bit, with no chirp built. A noisy row's
probe power is a quadratic form in the Gram, which is built in closed form
(:func:`~trlink.dsp.chirp_gram`), and only its noise is correlated with the
chirp, at the received signal's transform length, the smallest fast length
holding its ``n + L - 1`` samples, which holds lags ``0 .. L - 1`` without
aliasing. The Gram is a unitary diagonal modulation of a real symmetric
centrosymmetric Toeplitz matrix, which one fold splits into two real systems
of half the size, so two real LUs of half the size solve every noisy row.
The factorisations and solves run in LAPACK, whose last digits depend on the
number of BLAS threads, so noisy sounded estimates are reproducible bit for
bit for a fixed BLAS thread count. With one thread every row equals its
singleton batch bit for bit; with more, within ``NUMERIC_RTOL``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import _CHIRP_BANDWIDTHS_HZ, _fast_len, chirp_gram, make_chirp, noise_blocks, xcorr
from .errors import (
    ConfigurationError,
    read_integer,
    read_json,
    read_list,
    read_number,
    require_keys,
    shown,
)
from .output import write_csv, write_text

SPEED_OF_LIGHT_M_S = 299792458.0

_ENSEMBLE_SCHEMA = "trlink.ensemble/1"

#: Two receive positions closer than this (mm) are the same grid point.
POSITION_TOL_MM = 1e-6

# num_taps sizes the two (L/2) x (L/2) halves of the sounding Gram and
# their O(L^3) factorisations.
_MAX_TAPS = 4096

_SQRT_HALF = math.sqrt(0.5)


def _diffuse_correlation(
    distance_mm: float | np.ndarray, wavelength_mm: float
) -> float | np.ndarray:
    """The 3-D diffuse-field kernel ``sinc(2*pi*d / lambda)`` at distance ``d``, elementwise."""
    return np.sinc(2.0 * distance_mm / wavelength_mm)


def check_positions(values, name: str = "positions") -> np.ndarray:
    """``values`` as a 1-D float array: at least one position, strictly increasing."""
    positions = np.asarray(values, dtype=float)
    if positions.ndim != 1 or positions.size < 1:
        raise ConfigurationError(f"{name} needs at least one position")
    if not np.all(positions[1:] > positions[:-1]):
        raise ConfigurationError(
            f"{name} must be strictly increasing, got {shown(positions.tolist())}"
        )
    return positions


def grid_index(positions: np.ndarray, position_mm: float, name: str = "position") -> int:
    """Index of the grid position within ``POSITION_TOL_MM`` of ``position_mm``.

    ``positions`` is strictly increasing, so only the two neighbours of
    ``position_mm`` can be nearest; their distances are taken in Python
    floats, which overflow to ``inf`` without a warning.
    """
    position_mm = float(position_mm)
    right = int(np.searchsorted(positions, position_mm))
    neighbours = [k for k in (right - 1, right) if 0 <= k < len(positions)]
    idx = min(neighbours, key=lambda k: abs(float(positions[k]) - position_mm))
    if not abs(float(positions[idx]) - position_mm) <= POSITION_TOL_MM:
        raise ConfigurationError(f"{name} {position_mm} mm is not on the position grid")
    return idx


def energy(taps: np.ndarray) -> float:
    """Total energy ``sum |h[l]|^2`` of a row of taps."""
    return float(np.sum(np.abs(taps) ** 2))


@dataclass(frozen=True, eq=False)
class Cir:
    """One channel impulse response: complex tap gains at the bandwidth's rate.

    Only :attr:`SpatialChannelEnsemble.cirs` builds these, for the
    benchmark's focus oracle, which reads ``cirs[i].energy``; both go when
    the benchmark next changes. Channels travel as ``(P, L)`` blocks.
    """

    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.array(self.taps, dtype=np.complex128)
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def energy(self) -> float:
        return energy(self.taps)


@dataclass(frozen=True)
class CavityParams:
    """Statistical description of the reverberation cavity.

    ``num_taps`` is 1 to ``_MAX_TAPS``; the bandwidth and the carrier are
    finite and positive, the bandwidth within
    :data:`~trlink.dsp._CHIRP_BANDWIDTHS_HZ`, where every chirp's phase is
    finite: the one bandwidth check. ``decay_time_s`` defaults to
    ``num_taps / (3 * bandwidth_hz)`` so that most of the reverberant energy
    falls inside the simulated tap window; ``math.inf`` is
    accepted and yields a flat power-delay profile; ``rng_seed`` is >= 0.
    The carrier only enters through the spatial-correlation wavelength.
    """

    num_taps: int = 256
    bandwidth_hz: float = 4.0e9
    carrier_freq_hz: float = 273.6e9
    decay_time_s: float = field(default=math.nan)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {shown(self.num_taps)}")
        if self.num_taps > _MAX_TAPS:
            raise ConfigurationError(
                f"num_taps {shown(self.num_taps)} is above the cap of {_MAX_TAPS} taps"
            )
        for name in ("bandwidth_hz", "carrier_freq_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
        low, high = _CHIRP_BANDWIDTHS_HZ
        if not low <= self.bandwidth_hz <= high:
            side = "large" if self.bandwidth_hz > high else "small"
            raise ConfigurationError(
                f"bandwidth_hz {self.bandwidth_hz:g} is too {side}: bandwidths from {low:.4g} "
                f"to {high:.4g} Hz keep every chirp's phase finite"
            )
        if math.isnan(self.decay_time_s):
            object.__setattr__(self, "decay_time_s", self.num_taps / (3.0 * self.bandwidth_hz))
        if not self.decay_time_s > 0:
            raise ConfigurationError(f"decay_time_s must be > 0, got {self.decay_time_s}")
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {shown(self.rng_seed)}")

    @property
    def tap_spacing(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def wavelength_mm(self) -> float:
        """Carrier wavelength in millimetres; spatial correlation scale."""
        return 1e3 * SPEED_OF_LIGHT_M_S / self.carrier_freq_hz

    def power_delay_profile(self) -> np.ndarray:
        """Expected tap powers, exponentially decaying, unit total energy.

        A decay shorter than a thousandth of a tap gives the one-tap
        profile ``[1, 0, ...]``.
        """
        # exp(-1000) is 0 in doubles, so below 1e-3 taps every weight after
        # the first is 0 either way; the floor keeps a subnormal (or zero)
        # decay from overflowing the division
        decay = max(self.bandwidth_hz * self.decay_time_s, 1e-3)
        weights = np.exp(-np.arange(self.num_taps) / decay)
        return weights / weights.sum()


# each CavityParams field's JSON reader; decay_time_s may also be the
# Infinity of a flat power-delay profile
_CAVITY_FIELDS = dict(
    num_taps=read_integer, bandwidth_hz=read_number, carrier_freq_hz=read_number,
    decay_time_s=lambda value, name: math.inf if value == math.inf else read_number(value, name),
    rng_seed=read_integer,
)
_ENSEMBLE_KEYS = {"schema", "positions_mm", "csv", *_CAVITY_FIELDS}


def read_cavity(obj: dict, where: str) -> CavityParams:
    """:class:`CavityParams` from the fields present in a scenario's ``cavity`` or an
    ensemble file's top level (other keys are the caller's), so every default
    is the dataclass's. Each refusal is prefixed with ``where``."""
    try:
        fields = {key: read(obj[key], key) for key, read in _CAVITY_FIELDS.items() if key in obj}
        return CavityParams(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}{exc}") from None


@dataclass(frozen=True, eq=False)
class SpatialChannelEnsemble:
    """Impulse responses indexed by position on the 1-D receive axis.

    ``taps`` is the ``(P, L)`` block, row ``p`` at ``positions_mm[p]``,
    with ``L = params.num_taps``. Its two entry points,
    :func:`load_ensemble` and :func:`synth_cavity_ensemble`, check the block
    (see the module docstring); the constructor only keeps the positions
    and taps as frozen C-contiguous copies. Zero-energy rows are legal (a
    dead channel is a valid sounding subject) but are rejected wherever a
    row is precoded toward.
    """

    positions_mm: np.ndarray
    taps: np.ndarray
    params: CavityParams

    def __post_init__(self) -> None:
        taps = np.array(self.taps, dtype=np.complex128, order="C")
        taps.flags.writeable = False
        positions = np.array(self.positions_mm, dtype=float)
        positions.flags.writeable = False
        object.__setattr__(self, "positions_mm", positions)
        object.__setattr__(self, "taps", taps)

    @property
    def cirs(self) -> tuple[Cir, ...]:
        """One :class:`Cir` per row of ``taps``, built on each access.

        Kept only for the benchmark's focus oracle, which reads
        ``cirs[i].energy``; trlink itself never calls it. It goes, with
        :class:`Cir`, when the benchmark next changes.
        """
        return tuple(Cir(row) for row in self.taps)


@dataclass(frozen=True)
class SoundingConfig:
    """Chirp-sounding parameters: a scenario's ``sounding`` block, which
    :class:`~trlink.harness.Scenario` checks. ``probe_snr_db`` is the power
    ratio of the noiseless received chirp to the noise, ``math.inf`` for none.
    """

    duration_s: float
    probe_snr_db: float = math.inf


@functools.lru_cache(maxsize=1)
def _kernel_sqrt(wavelength_mm: float, position_bytes: bytes) -> np.ndarray:
    """Read-only symmetric square root of the diffuse-field kernel over the positions.

    ``position_bytes`` is the float64 positions' ``tobytes()``. The kernel
    depends only on these two keys, so the last root is kept (one entry):
    a scenario's trials draw over one grid at one carrier. The kept root,
    ``8 P**2`` bytes, is smaller than the kernel and eigenvectors a draw
    allocates anyway, so keeping it does not raise a run's peak memory.
    """
    positions = np.frombuffer(position_bytes)
    # no name for the distances: they are freed before eigh's peak
    kernel = _diffuse_correlation(np.abs(positions[:, None] - positions[None, :]), wavelength_mm)
    eigval, eigvec = np.linalg.eigh(kernel)
    eigval = np.clip(eigval, 0.0, None)
    root = (eigvec * np.sqrt(eigval)) @ eigvec.T
    root.flags.writeable = False
    return root


def synth_cavity_ensemble(
    params: CavityParams, positions_mm: np.ndarray | list[float]
) -> SpatialChannelEnsemble:
    """Draw one ensemble realisation over the given receive positions.

    Positions must be strictly increasing (millimetres) and keep the
    kernel's argument finite, as :class:`~trlink.harness.Scenario` checks;
    the taps are then finite, so nothing here checks them again. The result
    is a deterministic function of ``(params, positions_mm)``; see the
    module docstring for the exact random-draw order.
    """
    positions = np.asarray(positions_mm, dtype=float)
    num_taps = params.num_taps
    num_pos = positions.size
    pdp = params.power_delay_profile()
    sqrt_kernel = _kernel_sqrt(params.wavelength_mm, positions.tobytes())

    rng = np.random.default_rng(params.rng_seed)
    white = np.empty((num_taps, num_pos), dtype=np.complex128)
    # complex-by-real division multiplies by the reciprocal, bit for bit
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(rng.standard_normal((num_taps, num_pos)), scale, out=white.real)
    np.multiply(rng.standard_normal((num_taps, num_pos)), scale, out=white.imag)
    taps = white @ sqrt_kernel
    taps *= np.sqrt(pdp)[:, None]
    return SpatialChannelEnsemble(positions, taps.T, params)


def sound_cir(
    true_taps: np.ndarray, sounding: SoundingConfig, seeds: Sequence[int], bandwidth_hz: float
) -> np.ndarray:
    """Estimate CIRs by chirp sounding, one estimate per ``(true_taps[k], seeds[k])``.

    ``true_taps`` is an ``(R, L)`` block of finite taps and ``seeds`` holds
    one noise seed per row; the estimates are returned as another block,
    read-only and C-contiguous.

    The probe is ``make_chirp(bandwidth_hz, sounding.duration_s)``, sampled
    at the taps' rate, the bandwidth. The chirp is transmitted through each
    channel (full linear convolution), white circular complex Gaussian noise
    is added at ``sounding.probe_snr_db`` and that row's seed, and the
    recording is correlated with the chirp (pulse compression, normalised
    by the chirp energy). Because the chirp's own correlation sidelobes
    leak between taps, the compressed output over the aligned ``L``-tap
    window is then deconvolved by solving the Toeplitz normal-equation
    system built from the chirp's known autocorrelation, which makes the
    whole procedure the least-squares channel estimate.

    That estimate is computed as what it equals. For the ``(n + L - 1, L)``
    convolution matrix ``C`` of an ``n``-sample chirp of energy ``E``, the
    received signal is ``C h + w`` and the least-squares estimate is
    ``h + G^-1 (C^H w / E)`` with the Gram ``G = C^H C / E``: the truth plus
    the solved noise. So a noiseless batch (``probe_snr_db = inf``) returns
    its taps bit for bit, with no chirp, Gram, transform or solve; so does a
    row whose received power is zero. Nothing is checked here: the probe is
    a scenario's, checked when it was built, or the sounding study's. With noise the
    error falls as the time-bandwidth product grows. The Gram is the closed
    form of :func:`~trlink.dsp.chirp_gram`, ``G[r, c] = d[r] conj(d[c])
    S[|r - c|]`` for its real lags ``S`` and the modulation ``d[r] =
    exp(1j * step * r)``. A noisy row's probe power, the mean power of its ``n + L - 1``
    noiseless received samples, is ``E * Re(u^H S u) / (n + L - 1)`` for the
    demodulated taps ``u = conj(d) * h``: the two-sided lags of ``S`` dotted
    with ``u``'s autocorrelation (:func:`~trlink.dsp.xcorr`). Its noise is
    drawn in the time domain and pulse-compressed at ``m = _fast_len(n + L -
    1)``, as ``ifft(conj(fft(chirp, m)) * fft(noise, m))[:L] / E``; ``m``
    holds the whole received signal, so those circular lags equal the
    linear ones.

    Each row is handled in one pass: its probe power, then, for a noisy row,
    its :func:`~trlink.dsp.noise_blocks` stream, seeded with the row's seed
    and scaled block by block into one zero-padded ``m``-sample row, which
    the forward transform, the product with the conjugated chirp spectrum
    (itself transformed in one zero-padded ``m``-sample buffer) and the
    inverse transform overwrite in place; that row's first ``L`` lags are
    its window, and one row serves every noisy row, so the transforms do not
    grow with the batch. The noisy rows share one Gram. Demodulated by
    ``conj(d)``, their windows are solved against the real symmetric
    centrosymmetric ``S``, which one fold splits into two real systems of
    half the size (:func:`_toeplitz_solve`); each half's one LU
    factorisation takes every noisy row as a right-hand side. Nothing is
    kept between calls. With one BLAS thread each estimate equals that
    row's singleton batch bit for bit; with more, the threaded LU rounds
    with the number of noisy rows, within ``NUMERIC_RTOL``.

    Timing is assumed known (transmitter and recorder share a clock), so the
    window position is not estimated.
    """
    estimates = true_taps.copy()
    if math.isinf(sounding.probe_snr_db):
        estimates.flags.writeable = False
        return estimates
    chirp = make_chirp(bandwidth_hz, sounding.duration_s)

    num_taps = true_taps.shape[1]
    received_len = len(chirp) + num_taps - 1
    chirp_energy = energy(chirp)
    real_lags, phase_step = chirp_gram(bandwidth_hz, sounding.duration_s, num_taps)
    modulation = np.exp(1j * phase_step * np.arange(num_taps))
    # S at lags -(L - 1) .. L - 1, the order of xcorr's output
    even_lags = np.concatenate((real_lags[:0:-1], real_lags))
    snr = 10.0 ** (sounding.probe_snr_db / 10.0)
    m = _fast_len(received_len)
    matched = np.zeros(m, dtype=np.complex128)
    matched[: len(chirp)] = chirp
    np.fft.fft(matched, out=matched)
    np.conj(matched, out=matched)
    noise = np.empty(m, dtype=np.complex128)
    parts = (noise.real, noise.imag)
    rows, windows = [], np.empty_like(true_taps)
    for row, seed in enumerate(seeds):
        demodulated = np.conj(modulation) * true_taps[row]
        autocorrelation = xcorr(demodulated, demodulated).real
        rx_power = chirp_energy * float(np.dot(even_lags, autocorrelation)) / received_len
        if rx_power > 0.0:
            scale = math.sqrt(rx_power / snr) / np.sqrt(2.0)
            for part, start, block in noise_blocks(seed, received_len, received_len):
                np.multiply(block, scale, out=parts[part][start : start + block.size])
            noise[received_len:] = 0.0
            np.fft.fft(noise, out=noise)
            np.multiply(matched, noise, out=noise)
            np.fft.ifft(noise, out=noise)
            np.divide(noise[:num_taps], chirp_energy, out=windows[len(rows)])
            rows.append(row)
    if rows:
        estimates[rows] += _toeplitz_solve(real_lags, modulation, windows[: len(rows)])
    estimates.flags.writeable = False
    return estimates


def _toeplitz_solve(lags: np.ndarray, modulation: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``G x = b`` for every row ``b`` of ``rhs``, as two half-size real solves.

    ``G = D S D^H``: ``S[r, c] = lags[|r - c|]`` is the real symmetric
    Toeplitz matrix of the real ``lags`` and ``D = diag(modulation)`` is
    unitary, so ``x = D y`` for ``S y = D^H b``. ``S`` is also
    centrosymmetric (``J S J = S`` for the exchange matrix ``J``), so with
    ``k = L // 2`` the orthogonal fold ``u = (y_top + J y_bottom) / sqrt(2)``,
    ``v = (y_top - J y_bottom) / sqrt(2)`` splits it into ``T + H`` for
    ``u`` (bordered, for odd ``L``, by the middle row and column
    ``sqrt(2) * lags[k:0:-1]`` around ``lags[0]``) and ``T - H`` for ``v``
    (A. Cantoni and P. Butler, "Eigenvalues and eigenvectors of symmetric
    centrosymmetric matrices", Linear Algebra Appl. 13, 1976), with the
    Toeplitz ``T[r, c] = lags[|r - c|]`` and the Hankel
    ``H[r, c] = lags[L - 1 - r - c]`` for ``r, c < k``. Each half is one
    real LU that takes the real and imaginary parts of every folded row as
    right-hand sides.
    """
    num_taps = rhs.shape[1]
    k = num_taps // 2
    lo, hi = slice(0, k), slice(num_taps - k, num_taps)
    # windows[i, j] holds lags[|i + j - (L - 1)|]: T[r, c] is
    # windows[L - k + r, k - 1 - c] and H[r, c] is windows[r, c]
    windows = sliding_window_view(np.concatenate((lags[:0:-1], lags)), k)
    toeplitz, hankel = windows[num_taps - k : num_taps, ::-1], windows[:k]
    even = np.empty((num_taps - k, num_taps - k))
    np.add(toeplitz, hankel, out=even[lo, lo])
    if num_taps % 2:
        even[lo, k] = even[k, lo] = math.sqrt(2.0) * lags[k:0:-1]
        even[k, k] = lags[0]

    # b[k : L - k] and u[k:] are the middle row for odd L and empty for even
    b = rhs.T * np.conj(modulation)[:, None]
    flipped = b[hi][::-1]
    u = _real_solve(even, np.concatenate(((b[lo] + flipped) * _SQRT_HALF, b[k : num_taps - k])))
    v = _real_solve(toeplitz - hankel, (b[lo] - flipped) * _SQRT_HALF)
    y = np.concatenate(((u[lo] + v) * _SQRT_HALF, u[k:], ((u[lo] - v) * _SQRT_HALF)[::-1]))
    return (y * modulation[:, None]).T


def _real_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``matrix^-1 rhs`` for a real ``matrix`` and complex ``rhs``, by one real LU."""
    columns = rhs.shape[1]
    solved = np.linalg.solve(matrix, np.concatenate((rhs.real, rhs.imag), axis=1))
    return solved[:, :columns] + 1j * solved[:, columns:]


def _csv_header(num_taps: int) -> list[str]:
    """An ensemble CSV's header: ``position_mm``, then each tap's re/im pair."""
    return ["position_mm"] + [f"tap{l}_{part}" for l in range(num_taps) for part in ("re", "im")]


def export_ensemble(ensemble: SpatialChannelEnsemble, json_path: str | Path) -> None:
    """Write an ensemble as a JSON/CSV pair.

    The JSON file carries the parameters and positions; the CSV (same stem,
    ``.csv`` suffix, referenced from the JSON) carries one row per position
    with the taps as interleaved re/im columns, so a ``json_path`` ending in
    ``.csv`` is refused before anything is written. The CSV is written first
    and the JSON, the pair's entry point, last. The pair is the injection point
    for externally measured responses: anything matching the schema can be
    loaded back with :func:`load_ensemble`.
    """
    json_path = Path(json_path)
    csv_path = json_path.with_suffix(".csv")
    if csv_path == json_path:
        raise ConfigurationError(
            f"ensemble JSON path {json_path} is its own CSV path; the JSON would overwrite it"
        )
    params = ensemble.params
    meta = {
        "schema": _ENSEMBLE_SCHEMA,
        **asdict(params),
        "positions_mm": [float(p) for p in ensemble.positions_mm],
        "csv": csv_path.name,
    }
    # A complex128 array viewed as float64 interleaves real and imaginary parts.
    rows = [
        [float(pos), *taps.view(np.float64).tolist()]
        for pos, taps in zip(ensemble.positions_mm, ensemble.taps)
    ]
    write_csv(csv_path, _csv_header(params.num_taps), rows)
    write_text(json_path, json.dumps(meta, indent=2) + "\n")


def load_ensemble(json_path: str | Path) -> SpatialChannelEnsemble:
    """Load an ensemble previously written by :func:`export_ensemble`.

    Every JSON field is read strictly (integers as JSON integers, numbers finite
    but a flat profile's ``Infinity`` decay, no unknown or repeated keys); the
    CSV (UTF-8, a byte-order mark allowed) has exactly the exported header.
    """
    json_path = Path(json_path)
    json_name = f"ensemble JSON {json_path.name}"
    meta = read_json(json_path, "ensemble")
    require_keys(meta, _ENSEMBLE_KEYS, _ENSEMBLE_KEYS - {"decay_time_s", "rng_seed"}, json_name)
    if meta["schema"] != _ENSEMBLE_SCHEMA:
        raise ConfigurationError(
            f"unsupported ensemble schema {shown(meta['schema'])} in {json_path}"
        )
    params = read_cavity(meta, f"{json_name}: ")
    name = f"{json_name}: positions_mm"
    positions = check_positions(read_list(meta["positions_mm"], name, read_number), name)
    if not isinstance(meta["csv"], str):
        raise ConfigurationError(f"{json_name}: csv must be a file name, got {shown(meta['csv'])}")

    csv_path = json_path.parent / meta["csv"]
    if not csv_path.is_file():
        raise ConfigurationError(f"ensemble CSV not found: {csv_path}, named in {json_path.name}")
    csv_name = f"ensemble CSV {csv_path.name}"
    rows = []
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            header, names = next(reader, []), _csv_header(params.num_taps)
            if len(header) != len(names):
                raise ConfigurationError(
                    f"{csv_name} has {len(header)} columns, expected {len(names)}"
                )
            for column, (got, wanted) in enumerate(zip(header, names), start=1):
                if got != wanted:
                    raise ConfigurationError(
                        f"{csv_name} header column {column} is {shown(got)}, expected {wanted!r}"
                    )
            for line, row in enumerate(reader, start=2):
                where = f"{csv_name} line {line}"
                if len(row) != len(header):
                    raise ConfigurationError(
                        f"{where} has {len(row)} columns, expected {len(header)}"
                    )
                try:
                    values = np.asarray(row, dtype=float)
                except ValueError:
                    raise ConfigurationError(f"{where} has a non-numeric cell") from None
                if not np.all(np.isfinite(values)):
                    raise ConfigurationError(f"{where} has a non-finite cell")
                position, index = float(values[0]), len(rows)
                # in Python floats a distance between extreme positions is inf, not a warning
                expected = float(positions[index]) if index < positions.size else position
                if abs(position - expected) > POSITION_TOL_MM:
                    raise ConfigurationError(
                        f"{where} is at position_mm {position}, but positions_mm[{index}] "
                        f"in {json_path.name} is {expected}"
                    )
                rows.append(values[1::2] + 1j * values[2::2])
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{csv_name} is not UTF-8: {exc}") from None
    except csv.Error as exc:  # a cell longer than the csv module's field size limit
        raise ConfigurationError(
            f"{csv_name} line {reader.line_num} is unreadable: {exc}"
        ) from None
    if len(rows) != positions.size:
        raise ConfigurationError(
            f"{csv_name} has {len(rows)} rows for {positions.size} positions in {json_path.name}"
        )
    return SpatialChannelEnsemble(positions, rows, params)
