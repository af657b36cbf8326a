"""Synthetic reverberation-cavity channels and chirp sounding.

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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import complex_noise, convolve, make_chirp, xcorr
from .errors import (
    ConfigurationError,
    DomainError,
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
    """One channel impulse response: complex tap gains at spacing 1/B.

    ``position_mm`` records where on the receive axis the response was
    probed; it is optional for standalone synthetic responses. Zero-energy
    responses are legal here (a dead channel is a valid sounding subject)
    but are rejected wherever a response is used as a precoding target.
    """

    taps: np.ndarray
    tap_spacing: float
    position_mm: float | None = None

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim != 1 or taps.size < 1:
            raise DomainError("a CIR needs at least one tap")
        if not np.all(np.isfinite(taps)):
            raise DomainError("CIR taps must be finite")
        if not (math.isfinite(self.tap_spacing) and self.tap_spacing > 0):
            raise ConfigurationError(f"tap_spacing must be positive, got {self.tap_spacing}")
        taps = taps.copy()
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "tap_spacing", float(self.tap_spacing))

    @property
    def num_taps(self) -> int:
        return self.taps.size

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))


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
        lengths = {c.num_taps for c in self.cirs}
        spacings = {c.tap_spacing for c in self.cirs}
        if len(lengths) != 1 or len(spacings) != 1:
            raise ConfigurationError("all ensemble CIRs must share length and tap spacing")
        positions = positions.copy()
        positions.flags.writeable = False
        object.__setattr__(self, "positions_mm", positions)
        object.__setattr__(self, "cirs", tuple(self.cirs))

    def __len__(self) -> int:
        return self.positions_mm.size

    def index_of(self, position_mm: float) -> int:
        """Grid index of a position; raises if it is not on the grid."""
        return grid_index(self.positions_mm, position_mm)


@dataclass(frozen=True)
class SoundingConfig:
    """Chirp-sounding parameters.

    ``probe_snr_db`` is the power ratio of the noiseless received chirp to
    the additive noise; ``math.inf`` means noiseless probing.
    """

    duration_s: float
    probe_snr_db: float = math.inf
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.duration_s > 0:
            raise ConfigurationError(f"sounding duration must be > 0, got {self.duration_s}")


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

    cirs = tuple(
        Cir(taps[:, p], params.tap_spacing, position_mm=float(positions[p]))
        for p in range(num_pos)
    )
    return SpatialChannelEnsemble(positions, cirs, params)


def sound_cir(true_cir: Cir, cfg: SoundingConfig, chirp: np.ndarray) -> Cir:
    """Estimate a CIR by chirp sounding.

    The chirp is transmitted through the channel (full linear convolution),
    white circular complex Gaussian noise is added at the configured probe
    SNR, and the recording is correlated with the chirp (pulse compression,
    normalised by the chirp energy). Because the chirp's own correlation
    sidelobes leak between taps, the compressed output over the aligned
    ``L``-tap window is then deconvolved by solving the Toeplitz
    normal-equation system built from the chirp's known autocorrelation,
    which makes the whole procedure the least-squares channel estimate.
    Noiseless sounding therefore recovers the response to machine precision;
    with noise the error falls as the time-bandwidth product grows.

    Timing is assumed known (transmitter and recorder share a clock), so the
    window position is not estimated. The chirp must be sampled at the
    CIR's tap rate, as :func:`sounding_chirp` builds it.
    """
    if len(chirp) < 2:
        raise DomainError("sounding chirp must have at least 2 samples")

    clean = convolve(chirp, true_cir.taps)
    rx_power = float(np.mean(np.abs(clean) ** 2))
    if math.isinf(cfg.probe_snr_db) or rx_power == 0.0:
        noisy = clean
    else:
        sigma = math.sqrt(rx_power / 10.0 ** (cfg.probe_snr_db / 10.0))
        noisy = clean + complex_noise(clean.size, sigma, cfg.rng_seed)

    num_taps = true_cir.num_taps
    chirp_energy = float(np.sum(np.abs(chirp) ** 2))
    compressed = xcorr(chirp, noisy) / chirp_energy
    aligned = compressed[len(chirp) - 1 : len(chirp) - 1 + num_taps]

    autocorr = xcorr(chirp, chirp) / chirp_energy
    lags = np.zeros(num_taps, dtype=np.complex128)
    span = min(num_taps, len(chirp))
    lags[:span] = autocorr[len(chirp) - 1 : len(chirp) - 1 + span]
    # Hermitian Toeplitz Gram: gram[r, c] is lags[r - c] on and below the
    # diagonal and conj(lags[c - r]) above it, a strided view of the lags.
    two_sided = np.concatenate((np.conj(lags[:0:-1]), lags))
    gram = sliding_window_view(two_sided, num_taps)[:, ::-1]
    estimate = np.linalg.solve(gram, aligned)
    return Cir(estimate, true_cir.tap_spacing, position_mm=true_cir.position_mm)


def sounding_chirp(params: CavityParams, cfg: SoundingConfig) -> np.ndarray:
    """Full-band probe chirp matching an ensemble's tap rate."""
    return make_chirp(
        params.carrier_freq_hz, params.bandwidth_hz, cfg.duration_s, params.bandwidth_hz
    )


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
    with open(csv_path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
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
            cirs.append(Cir(taps, params.tap_spacing, position_mm=position))
    if len(cirs) != positions.size:
        raise ConfigurationError(
            f"ensemble CSV has {len(cirs)} rows for {positions.size} positions"
        )
    return SpatialChannelEnsemble(positions, tuple(cirs), params)
