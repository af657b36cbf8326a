"""Synthetic reverberation-cavity channels and chirp sounding.

A response (:class:`Cir`) is its taps alone, at the one sample rate kept in
:class:`CavityParams`, the bandwidth; responses that meet must share one
length (:func:`check_shared`).

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
finally scaled per tap by ``sqrt(PDP[l])``.

Sounding (:func:`sound_cir`) estimates a batch of responses that share one
probe chirp: the chirp is transformed, and its Gram built and factorised,
once per batch, and each row keeps its own probe SNR and noise seed. Every
row lives in one spectrum at the received signal's own transform length,
the smallest fast length holding its ``n + L - 1`` samples: the probe power
comes from that spectrum by Parseval, and pulse compression and the Gram's
lags are circular correlations read at lags ``0 .. L - 1``, which that
length holds without aliasing. The factorisation and solve run in LAPACK,
whose last digits depend on the number of BLAS threads, so sounded
estimates are reproducible bit for bit for a fixed BLAS thread count.
With one thread every row equals its singleton batch bit for bit; with
more, within ``NUMERIC_RTOL``.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import _fast_len, complex_noise
from .errors import (
    ConfigurationError,
    DomainError,
    check_power_ratio,
    read_integer,
    read_list,
    read_number,
    require_keys,
)
from .output import write_csv, write_text

SPEED_OF_LIGHT_M_S = 299792458.0

_ENSEMBLE_SCHEMA = "trlink.ensemble/1"
_ENSEMBLE_KEYS = {
    "schema", "num_taps", "bandwidth_hz", "carrier_freq_hz", "decay_time_s", "rng_seed",
    "positions_mm", "csv",
}

#: Two receive positions closer than this (mm) are the same grid point.
POSITION_TOL_MM = 1e-6

# Sounding transforms a block of rows at a time, at most this many complex
# samples per buffer (16 MB) of spectra at the transform length
# _fast_len(n + L - 1), so memory does not grow with the batch.
_BLOCK_SAMPLES = 2**20


def check_positions(values, name: str = "positions") -> np.ndarray:
    """``values`` as a 1-D float array: at least one position, strictly increasing."""
    positions = np.asarray(values, dtype=float)
    if positions.ndim != 1 or positions.size < 1:
        raise ConfigurationError(f"{name} needs at least one position")
    if not np.all(np.diff(positions) > 0):
        raise ConfigurationError(
            f"{name} must be strictly increasing, got {positions.tolist()}"
        )
    return positions


def grid_index(positions: np.ndarray, position_mm: float, name: str = "position") -> int:
    """Index of the grid position within ``POSITION_TOL_MM`` of ``position_mm``."""
    idx = int(np.argmin(np.abs(positions - position_mm)))
    if abs(positions[idx] - position_mm) > POSITION_TOL_MM:
        raise ConfigurationError(f"{name} {position_mm} mm is not on the position grid")
    return idx


@dataclass(frozen=True, eq=False)
class Cir:
    """One channel impulse response: complex tap gains at the bandwidth's rate.

    Zero-energy responses are legal here (a dead channel is a valid
    sounding subject) but are rejected wherever a response is used as a
    precoding target. Where it was probed is its index in a
    :class:`SpatialChannelEnsemble`.
    """

    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim != 1 or taps.size < 1:
            raise DomainError("a CIR needs at least one tap")
        if not np.all(np.isfinite(taps)):
            raise DomainError("CIR taps must be finite")
        taps = taps.copy()
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def num_taps(self) -> int:
        return self.taps.size

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))


def check_shared(cirs: Sequence[Cir], what: str) -> None:
    """Raise a ConfigurationError unless ``cirs`` all have one length."""
    if len({c.num_taps for c in cirs}) > 1:
        raise ConfigurationError(f"{what} must share one CIR length")


@dataclass(frozen=True)
class CavityParams:
    """Statistical description of the reverberation cavity.

    ``decay_time_s`` defaults to ``num_taps / (3 * bandwidth_hz)`` so that
    most of the reverberant energy falls inside the simulated tap window;
    ``math.inf`` is accepted and yields a flat power-delay profile. The
    carrier frequency only enters through the spatial-correlation
    wavelength.
    """

    num_taps: int = 256
    bandwidth_hz: float = 4.0e9
    carrier_freq_hz: float = 273.6e9
    decay_time_s: float = field(default=math.nan)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {self.num_taps}")
        if not self.bandwidth_hz > 0:
            raise ConfigurationError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if not self.carrier_freq_hz > 0:
            raise ConfigurationError(f"carrier_freq_hz must be > 0, got {self.carrier_freq_hz}")
        if math.isnan(self.decay_time_s):
            object.__setattr__(
                self, "decay_time_s", self.num_taps / (3.0 * self.bandwidth_hz)
            )
        if not self.decay_time_s > 0:
            raise ConfigurationError(f"decay_time_s must be > 0, got {self.decay_time_s}")

    @property
    def tap_spacing(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def wavelength_mm(self) -> float:
        """Carrier wavelength in millimetres; spatial correlation scale."""
        return 1e3 * SPEED_OF_LIGHT_M_S / self.carrier_freq_hz

    def spatial_correlation(self, distance_mm: float | np.ndarray) -> float | np.ndarray:
        """Diffuse-field correlation ``sin(x)/x`` with ``x = 2*pi*d/lambda``, elementwise."""
        return np.sinc(2.0 * distance_mm / self.wavelength_mm)

    def power_delay_profile(self) -> np.ndarray:
        """Expected tap powers, exponentially decaying, unit total energy."""
        decay = self.bandwidth_hz * self.decay_time_s
        weights = np.exp(-np.arange(self.num_taps) / decay)
        return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class SpatialChannelEnsemble:
    """Impulse responses indexed by position on the 1-D receive axis."""

    positions_mm: np.ndarray
    cirs: tuple[Cir, ...]
    params: CavityParams

    def __post_init__(self) -> None:
        positions = check_positions(self.positions_mm)
        if len(self.cirs) != positions.size:
            raise ConfigurationError(
                f"{len(self.cirs)} CIRs for {positions.size} positions"
            )
        check_shared(self.cirs, "ensemble CIRs")
        positions = positions.copy()
        positions.flags.writeable = False
        object.__setattr__(self, "positions_mm", positions)
        object.__setattr__(self, "cirs", tuple(self.cirs))

    def __len__(self) -> int:
        return self.positions_mm.size


@dataclass(frozen=True)
class SoundingConfig:
    """Chirp-sounding parameters.

    ``probe_snr_db`` is the power ratio of the noiseless received chirp to
    the additive noise: ``math.inf`` (noiseless probing) or a ``q`` whose
    ``10**(q/10)`` is a positive finite double, about ``|q| <= 3080`` dB.
    """

    duration_s: float
    probe_snr_db: float = math.inf
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigurationError(
                f"sounding duration_s must be finite and > 0, got {self.duration_s}"
            )
        snr_db = self.probe_snr_db
        if snr_db != math.inf:
            check_power_ratio(snr_db, f"sounding.snr_db {snr_db} dB gives a power ratio")


def _kernel_sqrt(params: CavityParams, positions: np.ndarray) -> np.ndarray:
    kernel = params.spatial_correlation(np.abs(positions[:, None] - positions[None, :]))
    eigval, eigvec = np.linalg.eigh(kernel)
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


def synth_cavity_ensemble(
    params: CavityParams, positions_mm: np.ndarray | list[float]
) -> SpatialChannelEnsemble:
    """Draw one ensemble realisation over the given receive positions.

    Positions must be strictly increasing (millimetres). The result is a
    deterministic function of ``(params, positions_mm)``; see the module
    docstring for the exact random-draw order.
    """
    positions = check_positions(positions_mm)
    num_taps = params.num_taps
    num_pos = positions.size
    pdp = params.power_delay_profile()
    sqrt_kernel = _kernel_sqrt(params, positions)

    rng = np.random.default_rng(params.rng_seed)
    re = rng.standard_normal((num_taps, num_pos))
    im = rng.standard_normal((num_taps, num_pos))
    white = (re + 1j * im) / np.sqrt(2.0)
    correlated = white @ sqrt_kernel
    taps = np.sqrt(pdp)[:, None] * correlated

    cirs = tuple(Cir(taps[:, p]) for p in range(num_pos))
    return SpatialChannelEnsemble(positions, cirs, params)


def sound_cir(
    true_cirs: Sequence[Cir], cfgs: Sequence[SoundingConfig], chirp: np.ndarray
) -> list[Cir]:
    """Estimate CIRs by chirp sounding, one estimate per ``(true_cirs[k], cfgs[k])``.

    The chirp is transmitted through each channel (full linear convolution),
    white circular complex Gaussian noise is added at that row's probe SNR
    and seed, and the recording is correlated with the chirp (pulse
    compression, normalised by the chirp energy). Because the chirp's own
    correlation sidelobes leak between taps, the compressed output over the
    aligned ``L``-tap window is then deconvolved by solving the Toeplitz
    normal-equation system built from the chirp's known autocorrelation,
    which makes the whole procedure the least-squares channel estimate.
    Noiseless sounding therefore recovers the response to machine precision;
    with noise the error falls as the time-bandwidth product grows.

    Each row is one spectrum of length ``m = _fast_len(n + L - 1)`` for an
    ``n``-sample chirp ``C`` and ``L`` taps: the received spectrum is ``C``
    times the taps' spectrum, the probe power is the mean power of the
    ``n + L - 1`` received samples taken from it by Parseval, and a noisy
    row adds the spectrum of its ``n + L - 1`` noise samples (the same
    draw as in the time domain). Lags ``0 .. L - 1`` of the circular
    correlations ``ifft(conj(C) * row)`` and ``ifft(|C|**2)`` equal the
    linear ones, since ``m`` holds the whole received signal: they are the
    compressed window and the Gram's lags.

    All CIRs must share ``num_taps``. The rows are transformed as stacks,
    in blocks of at most ``_BLOCK_SAMPLES`` samples per buffer, and share
    one Gram and one LU factorisation: ``np.linalg.solve`` takes every row
    as a right-hand side.
    Estimates do not depend on the block size. With one BLAS thread each
    estimate equals that row's singleton batch bit for bit; with more, the
    threaded LU rounds with the number of rows, within ``NUMERIC_RTOL``.

    Timing is assumed known (transmitter and recorder share a clock), so the
    window position is not estimated. The chirp is sampled at the taps'
    rate, the bandwidth, as ``make_chirp(bandwidth_hz, duration_s)`` builds it.
    """
    if len(chirp) < 2:
        raise DomainError("sounding chirp must have at least 2 samples")
    if not true_cirs:
        raise DomainError("sound_cir needs at least one CIR")
    if len(cfgs) != len(true_cirs):
        raise ConfigurationError(
            f"{len(true_cirs)} CIRs but {len(cfgs)} sounding configurations"
        )
    check_shared(true_cirs, "a sounding batch")

    taps = np.stack([c.taps for c in true_cirs])
    num_taps = taps.shape[1]
    n = len(chirp)
    received_len = n + num_taps - 1
    m = _fast_len(received_len)
    chirp_spectrum = np.fft.fft(chirp, m)
    block = max(1, _BLOCK_SAMPLES // m)
    aligned = np.empty((len(true_cirs), num_taps), dtype=np.complex128)
    for start in range(0, len(true_cirs), block):
        spectra = chirp_spectrum * np.fft.fft(taps[start : start + block], m, axis=-1)
        # Parseval: the mean power of the received samples, from their spectrum
        powers = np.sum(np.abs(spectra) ** 2, axis=-1) / (m * received_len)
        for row, cfg, rx_power in zip(spectra, cfgs[start : start + block], powers):
            if not (math.isinf(cfg.probe_snr_db) or rx_power == 0.0):
                sigma = math.sqrt(rx_power / 10.0 ** (cfg.probe_snr_db / 10.0))
                row += np.fft.fft(complex_noise(received_len, sigma, cfg.rng_seed), m)
        compressed = np.fft.ifft(np.conj(chirp_spectrum) * spectra, axis=-1)
        aligned[start : start + block] = compressed[:, :num_taps]
    chirp_energy = float(np.sum(np.abs(chirp) ** 2))
    aligned /= chirp_energy

    lags = np.zeros(num_taps, dtype=np.complex128)
    span = min(num_taps, n)
    lags[:span] = np.fft.ifft(np.abs(chirp_spectrum) ** 2)[:span] / chirp_energy
    # Hermitian Toeplitz Gram: gram[r, c] is lags[r - c] on and below the
    # diagonal and conj(lags[c - r]) above it, a strided view of the lags.
    two_sided = np.concatenate((np.conj(lags[:0:-1]), lags))
    gram = sliding_window_view(two_sided, num_taps)[:, ::-1]
    estimates = np.linalg.solve(gram, aligned.T).T
    return [Cir(estimate) for estimate in estimates]


def export_ensemble(ensemble: SpatialChannelEnsemble, json_path: str | Path) -> None:
    """Write an ensemble as a JSON/CSV pair.

    The JSON file carries the parameters and positions; the CSV (same stem,
    ``.csv`` suffix, referenced from the JSON) carries one row per position
    with the taps as interleaved re/im columns. The CSV is written first and
    the JSON, the pair's entry point, last. The pair is the injection point
    for externally measured responses: anything matching the schema can be
    loaded back with :func:`load_ensemble`.
    """
    json_path = Path(json_path)
    csv_path = json_path.with_suffix(".csv")
    params = ensemble.params
    meta = {
        "schema": _ENSEMBLE_SCHEMA,
        "num_taps": params.num_taps,
        "bandwidth_hz": params.bandwidth_hz,
        "carrier_freq_hz": params.carrier_freq_hz,
        "decay_time_s": params.decay_time_s,
        "rng_seed": params.rng_seed,
        "positions_mm": [float(p) for p in ensemble.positions_mm],
        "csv": csv_path.name,
    }
    header = ["position_mm"]
    for l in range(params.num_taps):
        header += [f"tap{l}_re", f"tap{l}_im"]
    # A complex128 array viewed as float64 interleaves real and imaginary parts.
    rows = [
        [float(pos), *cir.taps.view(np.float64).tolist()]
        for pos, cir in zip(ensemble.positions_mm, ensemble.cirs)
    ]
    write_csv(csv_path, header, rows)
    write_text(json_path, json.dumps(meta, indent=2) + "\n")


def load_ensemble(json_path: str | Path) -> SpatialChannelEnsemble:
    """Load an ensemble previously written by :func:`export_ensemble`.

    Every JSON field is read strictly (integers as JSON integers, numbers
    finite, no unknown keys); ``decay_time_s`` also accepts the
    ``Infinity`` written for a flat power-delay profile.
    """
    json_path = Path(json_path)
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"ensemble file not found: {json_path}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
        raise ConfigurationError(f"ensemble JSON {json_path.name} is invalid: {exc}") from None
    require_keys(
        meta, _ENSEMBLE_KEYS, _ENSEMBLE_KEYS - {"decay_time_s", "rng_seed"},
        f"ensemble JSON {json_path.name}",
    )
    if meta["schema"] != _ENSEMBLE_SCHEMA:
        raise ConfigurationError(
            f"unsupported ensemble schema {meta['schema']!r} in {json_path}"
        )
    decay = meta.get("decay_time_s", math.nan)
    if "decay_time_s" in meta and decay != math.inf:
        decay = read_number(decay, "decay_time_s")
    params = CavityParams(
        num_taps=read_integer(meta["num_taps"], "num_taps"),
        bandwidth_hz=read_number(meta["bandwidth_hz"], "bandwidth_hz"),
        carrier_freq_hz=read_number(meta["carrier_freq_hz"], "carrier_freq_hz"),
        decay_time_s=decay,
        rng_seed=read_integer(meta.get("rng_seed", 0), "rng_seed"),
    )
    positions = check_positions(
        read_list(meta["positions_mm"], "positions_mm", read_number), "positions_mm"
    )
    if not isinstance(meta["csv"], str):
        raise ConfigurationError(f"csv must be a file name string, got {meta['csv']!r}")

    csv_path = json_path.parent / meta["csv"]
    if not csv_path.exists():
        raise ConfigurationError(f"ensemble CSV not found: {csv_path}")
    cirs = []
    try:
        with open(csv_path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            expected_cols = 1 + 2 * params.num_taps
            if len(header) != expected_cols:
                raise ConfigurationError(
                    f"ensemble CSV has {len(header)} columns, expected {expected_cols}"
                )
            for line, row in enumerate(reader, start=2):
                where = f"ensemble CSV {csv_path.name} line {line}"
                if len(row) != expected_cols:
                    raise ConfigurationError(
                        f"{where} has {len(row)} columns, expected {expected_cols}"
                    )
                try:
                    values = np.asarray(row, dtype=float)
                except ValueError:
                    raise ConfigurationError(f"{where} has a non-numeric cell") from None
                if not np.all(np.isfinite(values)):
                    raise ConfigurationError(f"{where} has a non-finite cell")
                position, index = float(values[0]), len(cirs)
                if index < positions.size and abs(position - positions[index]) > POSITION_TOL_MM:
                    raise ConfigurationError(
                        f"{where} is at position_mm {position}, but positions_mm[{index}] "
                        f"in {json_path.name} is {float(positions[index])}"
                    )
                taps = values[1::2] + 1j * values[2::2]
                cirs.append(Cir(taps))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"ensemble CSV {csv_path.name} is not UTF-8: {exc}") from None
    if len(cirs) != positions.size:
        raise ConfigurationError(
            f"ensemble CSV has {len(cirs)} rows for {positions.size} positions"
        )
    return SpatialChannelEnsemble(positions, tuple(cirs), params)
