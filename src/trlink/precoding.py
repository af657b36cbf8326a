"""Time-reversal precoding, propagation, and spatiotemporal focusing analysis.

A single-antenna transmitter serves ``N`` receive positions. The data are
one ``(N, M)`` complex amplitude matrix ``x`` (row ``i`` is user ``i``,
column ``l`` is symbol slot ``l``; an untargeted slot is a zero) and one
pulse spacing ``D`` in taps, shared by all users. For each user the
emission is the conjugated, time-reversed impulse response toward that
user, scaled so every unit-amplitude data pulse carries unit emitted energy:

    s[k] = sum_i sum_l x[i, l] * conj(h_i)[L-1 - (k - l*D)] / sqrt(E_i)

with ``E_i = sum_l |h_i[l]|^2``. :func:`tr_precode` is where the matrix
enters: it checks its shape against the channel list, the spacing, and that
every amplitude is finite.

After propagating through channel ``h_j`` the multipath echoes recombine: a
single unit pulse toward user ``i`` arrives at position ``j`` as the
cross-correlation of ``h_j`` with ``h_i`` (normalised by ``sqrt(E_i)``),
which for ``j == i`` peaks at lag 0 with amplitude ``sqrt(E_i)``. The peak
of a pulse placed in symbol slot ``l`` forms at received sample index
``L - 1 + l*D``; that index convention is shared with the detector windows.

Everything here is pure and deterministic given the seed, and safe to fan
out across positions, seeds, and SNR points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import Cir, SpatialChannelEnsemble
from .dsp import complex_noise, convolve, xcorr
from .errors import ConfigurationError, DomainError
from .output import write_csv


def tr_kernel(h_j: Cir, h_i: Cir) -> np.ndarray:
    """Correlation kernel of ``h_j`` against the precoding target ``h_i``.

    The kernel spans all lags ``-(L-1) .. L-1`` with lag 0 at index
    ``L - 1``; entry ``L - 1 + m`` is
    ``sum_k conj(h_i[k - m]) * h_j[k] / sqrt(E_i)``. For the
    autocorrelation case the lag-0 value is ``sqrt(E_i)``, real and
    positive, and dominates every other lag in magnitude.
    """
    if h_j.num_taps != h_i.num_taps:
        raise ConfigurationError(
            f"kernel CIRs must share length ({h_j.num_taps} vs {h_i.num_taps})"
        )
    if not math.isclose(h_j.tap_spacing, h_i.tap_spacing, rel_tol=1e-9):
        raise ConfigurationError("kernel CIRs must share tap spacing")
    energy = h_i.energy
    if energy <= 0.0:
        raise DomainError("precoding target CIR has zero energy")
    return xcorr(h_i.taps, h_j.taps) / math.sqrt(energy)


def tr_precode(symbols: np.ndarray, cirs: list[Cir], spacing: int) -> np.ndarray:
    """Assemble the multi-user time-reversal emission.

    ``symbols`` is the ``(N, M)`` amplitude matrix: row ``i`` holds user
    ``i``'s pulse amplitudes, one per symbol slot, and ``cirs[i]`` is the
    channel toward that user. Each row is upsampled by ``spacing`` taps and
    convolved with the user's conjugated, time-reversed response, scaled by
    ``1/sqrt(E_i)``; the users' contributions are summed. Pulse ``l`` of any
    user focuses at received index ``L - 1 + l*spacing``. ``M == 0`` gives
    an empty emission.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 2:
        raise DomainError(f"symbols must be an (N, M) matrix, got shape {symbols.shape}")
    if symbols.shape[0] != len(cirs):
        raise ConfigurationError(f"{symbols.shape[0]} symbol rows for {len(cirs)} CIRs")
    if not cirs:
        raise ConfigurationError("need at least one user")
    if spacing < 1:
        raise ConfigurationError(f"pulse spacing must be >= 1 tap, got {spacing}")
    if not np.all(np.isfinite(symbols)):
        raise DomainError("symbols must be finite")
    lengths = {c.num_taps for c in cirs}
    taps_spacings = {c.tap_spacing for c in cirs}
    if len(lengths) != 1 or len(taps_spacings) != 1:
        raise ConfigurationError("users must share CIR length and tap spacing")

    num_symbols = symbols.shape[1]
    # One fresh train and one convolution per user, then one sum: reusing a
    # train buffer or preallocating the sum measured slower (page faults).
    contributions: list[np.ndarray] = []
    for row, cir in zip(symbols, cirs):
        energy = cir.energy
        if energy <= 0.0:
            raise DomainError("cannot precode toward a zero-energy CIR")
        if num_symbols == 0:
            continue
        train = np.zeros((num_symbols - 1) * spacing + 1, dtype=np.complex128)
        train[::spacing] = row
        flipped = np.conj(cir.taps[::-1]) / math.sqrt(energy)
        contributions.append(convolve(train, flipped))

    combined = np.zeros(contributions[0].size if contributions else 0, dtype=np.complex128)
    for part in contributions:
        combined += part
    return combined


def propagate(
    signal: np.ndarray,
    cir: Cir,
    noise_sigma: float,
    rng_seed: int | list[int] | None = None,
) -> np.ndarray:
    """Receive an emitted signal through one channel with additive white noise.

    The received signal is the full linear convolution of the emission with
    the channel plus zero-mean circular complex Gaussian noise whose
    per-sample standard deviation is ``noise_sigma`` (``E|n|^2 = sigma^2``).
    Deterministic for a given ``rng_seed``.
    """
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise DomainError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    received = convolve(signal, cir.taps)
    if noise_sigma > 0.0:
        received = received + complex_noise(received.size, noise_sigma, rng_seed)
    return received


@dataclass(frozen=True, eq=False)
class FocusingReport:
    """Measured spatiotemporal focusing and interference for one target.

    Temporal metrics (peak, sidelobe ratio, width) are measured on the
    target user's own noiseless field at the target position. The spatial
    profile holds that field's per-position peak magnitude across the whole
    receive grid. Interference bookkeeping:

    * ``isi_power`` - energy of the *total* field at the target position in
      taps congruent to other symbol slots (offsets of ``m*spacing``,
      ``m != 0``, from the focusing peak);
    * ``isi_self_power`` / ``isi_other_power`` - the same slot sampling
      applied to each user's individual field;
    * ``iui_power`` - peak-aligned power delivered to the target by the
      other user's precode (0 for a single-user run).

    ``spatial_fwhm_mm`` is ``None`` when the profile has no unique interior
    maximum or the half-power crossings cannot be bracketed.
    """

    target_index: int
    target_mm: float
    other_index: int | None
    other_mm: float | None
    spacing: int
    peak_amplitude: float
    peak_lag: int
    temporal_sidelobe_ratio_db: float
    temporal_fwhm_s: float
    spatial_profile: tuple[tuple[float, float], ...]
    spatial_fwhm_mm: float | None
    isi_power: float
    iui_power: float
    isi_self_power: float
    isi_other_power: float


def _interpolated_crossing(x0: float, y0: float, x1: float, y1: float, level: float) -> float:
    if y1 == y0:
        return x1
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def full_width_half_max(axis: np.ndarray, values: np.ndarray) -> float | None:
    """Interpolated full width at half maximum around the global peak.

    Returns ``None`` when the maximum is not unique, sits on the boundary,
    or the half-maximum level is never crossed on one side.
    """
    values = np.asarray(values, dtype=float)
    peak_idx = int(np.argmax(values))
    peak = values[peak_idx]
    if peak <= 0.0 or np.count_nonzero(values == peak) != 1:
        return None
    if peak_idx == 0 or peak_idx == values.size - 1:
        return None
    half = peak / 2.0

    left = None
    for k in range(peak_idx - 1, -1, -1):
        if values[k] <= half:
            left = _interpolated_crossing(axis[k], values[k], axis[k + 1], values[k + 1], half)
            break
    right = None
    for k in range(peak_idx + 1, values.size):
        if values[k] <= half:
            right = _interpolated_crossing(axis[k - 1], values[k - 1], axis[k], values[k], half)
            break
    if left is None or right is None:
        return None
    return float(right - left)


def _slot_indices(peak_lag: int, spacing: int, length: int) -> np.ndarray:
    offsets = np.arange(-(peak_lag // spacing), (length - 1 - peak_lag) // spacing + 1)
    offsets = offsets[offsets != 0]
    return peak_lag + offsets * spacing


def focusing_report(
    ensemble: SpatialChannelEnsemble,
    target_index: int,
    other_index: int | None,
    spacing: int,
) -> FocusingReport:
    """Precode unit pulses, propagate noiselessly, and measure.

    One unit-amplitude pulse is precoded per user (the target alone, or the
    target plus one interfering user), each normalised by its own channel
    energy so the intended received peak powers are statistically identical.
    The target's emission is received at every ensemble position, the
    interferer's at the target only, and the focusing / interference metrics
    described on :class:`FocusingReport` are extracted.
    """
    num_positions = len(ensemble)
    if not 0 <= target_index < num_positions:
        raise DomainError(f"target index {target_index} outside ensemble of {num_positions}")
    if other_index is not None and not 0 <= other_index < num_positions:
        raise DomainError(f"other index {other_index} outside ensemble of {num_positions}")
    if other_index == target_index:
        raise DomainError("target and interfering user must be distinct positions")
    if spacing < 1:
        raise ConfigurationError(f"pulse spacing must be >= 1, got {spacing}")

    pulse = np.ones((1, 1))
    own_waveform = tr_precode(pulse, [ensemble.cirs[target_index]], spacing)
    own = np.stack([propagate(own_waveform, cir, 0.0) for cir in ensemble.cirs])
    own_at_target = own[target_index]

    peak_lag = int(np.argmax(np.abs(own_at_target)))
    peak_amplitude = float(np.abs(own_at_target[peak_lag]))

    magnitude = np.abs(own_at_target)
    outside = np.ones(magnitude.size, dtype=bool)
    lo = max(0, peak_lag - 1)
    outside[lo : peak_lag + 2] = False
    if np.any(outside) and magnitude[outside].max() > 0.0:
        sidelobe_ratio_db = float(20.0 * np.log10(peak_amplitude / magnitude[outside].max()))
    else:
        sidelobe_ratio_db = math.inf

    tap_spacing = ensemble.params.tap_spacing
    time_axis = np.arange(magnitude.size) * tap_spacing
    fwhm_s = full_width_half_max(time_axis, magnitude)
    temporal_fwhm_s = float(fwhm_s) if fwhm_s is not None else math.nan

    profile_values = np.max(np.abs(own), axis=1)
    spatial_profile = tuple(
        (float(pos), float(val)) for pos, val in zip(ensemble.positions_mm, profile_values)
    )
    spatial_fwhm_mm = (
        full_width_half_max(ensemble.positions_mm, profile_values)
        if num_positions > 1
        else None
    )

    slots = _slot_indices(peak_lag, spacing, magnitude.size)
    if other_index is not None:
        other_waveform = tr_precode(pulse, [ensemble.cirs[other_index]], spacing)
        other_at_target = propagate(other_waveform, ensemble.cirs[target_index], 0.0)
        total_at_target = own_at_target + other_at_target
        iui_power = float(np.abs(other_at_target[peak_lag]) ** 2)
        isi_other = float(np.sum(np.abs(other_at_target[slots]) ** 2))
    else:
        total_at_target = own_at_target
        iui_power = 0.0
        isi_other = 0.0
    isi_self = float(np.sum(np.abs(own_at_target[slots]) ** 2))
    isi_power = float(np.sum(np.abs(total_at_target[slots]) ** 2))

    positions = ensemble.positions_mm
    return FocusingReport(
        target_index=target_index,
        target_mm=float(positions[target_index]),
        other_index=other_index,
        other_mm=float(positions[other_index]) if other_index is not None else None,
        spacing=spacing,
        peak_amplitude=peak_amplitude,
        peak_lag=peak_lag,
        temporal_sidelobe_ratio_db=sidelobe_ratio_db,
        temporal_fwhm_s=temporal_fwhm_s,
        spatial_profile=spatial_profile,
        spatial_fwhm_mm=spatial_fwhm_mm,
        isi_power=isi_power,
        iui_power=iui_power,
        isi_self_power=isi_self,
        isi_other_power=isi_other,
    )


def focusing_report_to_csv(report: FocusingReport, path: str | Path) -> None:
    """Serialise a report: '#'-prefixed scalar metrics, then the profile.

    The data section has columns ``position_mm,peak_abs``, one row per grid
    position. An undefined spatial width is written as ``nan`` with
    ``spatial_fwhm_defined=0`` so downstream tooling can tell it apart from
    a measured value.
    """
    fwhm_defined = report.spatial_fwhm_mm is not None
    scalars = [
        ("target_index", report.target_index),
        ("target_mm", report.target_mm),
        ("other_index", report.other_index if report.other_index is not None else "none"),
        ("other_mm", report.other_mm if report.other_mm is not None else "none"),
        ("spacing_taps", report.spacing),
        ("peak_amplitude", report.peak_amplitude),
        ("peak_lag", report.peak_lag),
        ("temporal_sidelobe_ratio_db", report.temporal_sidelobe_ratio_db),
        ("temporal_fwhm_s", report.temporal_fwhm_s),
        ("spatial_fwhm_mm", report.spatial_fwhm_mm if fwhm_defined else math.nan),
        ("spatial_fwhm_defined", int(fwhm_defined)),
        ("isi_power", report.isi_power),
        ("iui_power", report.iui_power),
        ("isi_self_power", report.isi_self_power),
        ("isi_other_power", report.isi_other_power),
    ]
    comments = ["schema=trlink.focusing/1", *(f"{name}={value}" for name, value in scalars)]
    write_csv(path, ["position_mm", "peak_abs"], report.spatial_profile, comments)
