"""Time-reversal precoding, propagation, and spatiotemporal focusing analysis.

A single-antenna transmitter serves ``N`` receive positions. The data are
one ``(N, M)`` amplitude matrix ``x`` (row ``i`` is user ``i``,
column ``l`` is symbol slot ``l``; an untargeted slot is a zero) and one
pulse spacing ``D`` in taps, shared by all users. For each user the
emission is the conjugated, time-reversed impulse response toward that
user, scaled so every unit-amplitude data pulse carries unit emitted energy:

    s[k] = sum_i sum_l x[i, l] * conj(h_i)[L-1 - (k - l*D)] / sqrt(E_i)

with ``E_i = sum_l |h_i[l]|^2``. :func:`received_at` is where the matrix
enters, as the real ``float64`` or boolean amplitudes that both modulators
and the pilot pattern emit. Nothing here builds ``s`` itself: the link is
computed from its unit pulses, below.

Channels are ``(P, L)`` tap blocks, one row per channel, as
:class:`~trlink.channel.SpatialChannelEnsemble` holds them; a user or a
receiver is a row, and a subset of positions is a row selection. The
functions here trust their arguments and check nothing. Every block they
get was checked once, at load: the ensemble's constructor refuses
non-finite taps and ragged rows, :class:`~trlink.harness.Scenario` refuses
targets of zero or overflowing energy, spacings below 3 taps and noise
powers the detector cannot sum, and the harness refuses sounded estimates
whose energy is not finite before it precodes toward them.

After propagating through channel ``h_j`` the multipath echoes recombine: a
single unit pulse toward user ``i`` arrives at position ``j`` as the
cross-correlation of ``h_j`` with ``h_i`` (normalised by ``sqrt(E_i)``),
which for ``j == i`` peaks at lag 0 with amplitude ``sqrt(E_i)``. The peak
of a pulse placed in symbol slot ``l`` forms at received sample index
``L - 1 + l*D``, the centre of symbol ``l``'s detection window.

:func:`propagate` is the one receive path: one emission or a block of
them, one row per receiver, one stacked :func:`~trlink.dsp.convolve`, no
noise. :func:`pulse_responses` receives every ``conj(h_i[::-1]) /
sqrt(E_i)`` through it in one call as ``K_ni``, the noiseless field at
receiver ``n`` of one unit pulse toward user ``i`` (``2L - 1`` samples):
the focusing maps read it over the grid, the BER sweep at its antennas.

:func:`focusing_report` measures a focusing experiment from the
``(P, U, 2L - 1)`` block of those fields alone: each report reads its
target's column over the grid and, for two users, the interferer's column at
the target, so one :func:`pulse_responses` call serves every report. A
report joins what its target's own field fixes alone, which no spacing or
interferer changes and which is computed once per target, to the slot sums
at its spacing. Given paths, it writes each report's file, each target's
profile rows rendered once. It checks nothing: its caller,
:func:`~trlink.harness.run_focusing_experiment`, measures a
:class:`~trlink.harness.Scenario` that has already refused every target and
spacing it could not measure.

By linearity the field at antenna ``n`` is ``sum_i upsample_D(x[i]) *
K_ni``, so :func:`received_at` gives the BER sweep the samples at the
detector's windows only, never the ``(M-1)*D + 2L - 1``-sample signal:
each window is the few real symbol amplitudes whose pulses reach it times
a fixed matrix of ``K_ni`` samples, computed as blocked real matrix products.
Its noise is antenna ``n``'s full-length draw seeded ``[*seed_path, n]``
(seed/noise contract v1) read at the windows, streamed through one small
buffer and added in place, so no frame's draw is ever held whole.

The full-signal references the tests hold these paths to (the emission
``s``, ``K_ni`` as a correlation, and the whole noisy received signal) live
with the tests, in ``tests/oracles.py``.

Everything here is pure and deterministic given the seed, and safe to fan
out across positions, seeds, and SNR points.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import SpatialChannelEnsemble, energy
from .dsp import convolve
from .modem import WINDOW_HALF_WIDTH
from .output import comment_lines, write_text

# The window engine copies at most this many symbol-window entries (256 KiB
# of doubles) into each block it multiplies, so memory does not grow with
# the frame.
_BLOCK_ELEMENTS = 2**15

# The receiver noise is drawn through one buffer of this many doubles (64
# KiB). It and every temporary of the noise path stay below glibc's 128 KiB
# mmap threshold, so they come from the heap and are not mapped, and faulted
# in, again on every call.
_NOISE_BLOCK = 8192


def _add_window_noise(
    field: np.ndarray, peak: int, spacing: int, length: int, sigma: float, seed_path
) -> None:
    """Add each antenna's contract-v1 noise to its ``(M, 2w+1)`` windows, in place.

    Antenna ``n``'s noise is ``complex_noise(length, sigma, [*seed_path, n])``
    read at the window lags; a lag past either end gets none. Its generator
    draws ``length`` real parts, then the imaginary parts. The stream is
    drawn in blocks of ``_NOISE_BLOCK`` into one buffer and never held
    whole, and the imaginary parts stop after the last lag. Offset
    ``k``'s lags ``peak - w + k + m*spacing`` fall in a block as one strided
    slice of it, scaled by ``sigma / sqrt(2)`` and added to the field's real
    or imaginary parts, which is ``complex_noise``'s arithmetic bit for bit.
    """
    num_rx, num_symbols, width = field.shape
    firsts = [peak - width // 2 + k for k in range(width)]  # offset k's lag at m = 0
    stop = min(firsts[-1] + (num_symbols - 1) * spacing, length - 1) + 1
    scale = sigma / np.sqrt(2.0)
    buffer = np.empty(_NOISE_BLOCK)
    for n in range(num_rx):
        rng = np.random.default_rng([*seed_path, n])
        for part, drawn in ((field[n].real, length), (field[n].imag, stop)):
            for start in range(0, drawn, _NOISE_BLOCK):
                end = min(start + _NOISE_BLOCK, drawn)
                block = rng.standard_normal(out=buffer[: end - start])
                if start >= stop:
                    continue
                for k, first in enumerate(firsts):
                    # m in [lo, hi) reads the block
                    lo = max(0, -((first - start) // spacing))
                    hi = min(num_symbols, -((first - end) // spacing))
                    if lo < hi:
                        at = first + lo * spacing - start
                        part[lo:hi, k] += scale * block[at::spacing][: hi - lo]


def propagate(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Receive one emission or a block of them, noiselessly, at a list of receivers.

    ``signal`` is one emission of ``Ls`` samples or a ``(U, Ls)`` block of
    emissions. Row ``n`` is the full linear convolution of the emission
    with row ``n`` of the ``(R, L)`` block ``taps``, and entry ``[n, u]``
    that of emission ``u``. Every emission and receiver is taken in one
    stacked :func:`~trlink.dsp.convolve`; each entry equals propagating that
    emission through that channel alone bit for bit. Returns shape ``(R,
    Ls + L - 1)``, or ``(R, U, Ls + L - 1)`` for a block.
    """
    return convolve(signal, taps)


def pulse_responses(true_taps: np.ndarray, known_taps: np.ndarray) -> np.ndarray:
    """Noiseless received unit pulses ``K_ni``, shape ``(N, U, 2L - 1)``.

    ``true_taps`` is the ``(N, L)`` block of receivers, ``known_taps`` the
    ``(U, L)`` block of the precoder's channel knowledge. Entry ``[:, i]``
    is user ``i``'s unit-pulse emission ``conj(h_i[::-1]) / sqrt(E_i)``
    received through the ``N`` true channels. The ``(U, L)`` block of
    emissions takes one :func:`propagate` call: one transform of the
    receivers, one of the emissions and one inverse transform. Every user's
    energy must be finite and nonzero, as the scenario and the harness
    ensure.
    """
    emissions = np.stack([np.conj(h_i[::-1]) / math.sqrt(energy(h_i)) for h_i in known_taps])
    return propagate(emissions, true_taps)


def received_at(
    symbols: np.ndarray,
    kernels: np.ndarray,
    spacing: int,
    noise_sigma: float,
    seed_path: Sequence[int],
) -> np.ndarray:
    """Received samples at the detector's windows, one slice per receive antenna.

    ``symbols`` is the ``(U, M)`` matrix of real amplitudes, ``float64`` or
    boolean, and ``kernels`` is ``pulse_responses(true_taps, known_taps)``,
    shape ``(N, U, 2L-1)``. With ``w = WINDOW_HALF_WIDTH``, entry ``[n, m, w + o]`` equals,
    to ``NUMERIC_RTOL``, sample ``L-1 + m*spacing + o`` (``|o| <= w``; these
    are the lags the detector reads) of antenna ``n``'s received signal: the
    emission toward ``known_taps`` received through ``true_taps``, plus
    white circular complex Gaussian noise of per-sample standard deviation
    ``noise_sigma`` seeded ``[*seed_path, n]``. A lag past either end of
    that ``(M-1)*spacing + 2L - 1``-sample signal, which a one-tap channel's
    first and last windows reach, is exactly 0: nothing is received there,
    neither signal nor noise.

    Only those samples are computed. Pulse ``m - s`` reaches window ``m``
    only for ``|s| <= S = (L-1 + w) // spacing``, so user ``i`` adds to
    window ``m`` its ``2S+1`` amplitudes around slot ``m`` (zero outside the
    frame) times one ``(2S+1, N(2w+1))`` matrix of ``K_ni`` samples. The
    amplitudes are real, so the arithmetic is real: each matrix is stored
    with real and imaginary parts interleaved, the users' windows sit side
    by side, and one real matrix product per block of at most
    ``_BLOCK_ELEMENTS`` window entries gives those windows' samples. The
    noise (contract v1) is each antenna's full-length draw read at the
    windows, streamed ``_NOISE_BLOCK`` samples at a time and added in place,
    so its memory does not grow with the frame. The full-signal reference is
    ``tests/oracles.py``'s ``received_signal``.
    Returns shape ``(N, M, 2w+1)``.
    """
    num_rx, num_users, size = kernels.shape
    num_symbols = symbols.shape[1]
    peak = size // 2  # L - 1
    offsets = np.arange(-WINDOW_HALF_WIDTH, WINDOW_HALF_WIDTH + 1)
    span = (peak + WINDOW_HALF_WIDTH) // spacing
    width = 2 * span + 1
    if num_symbols == 0:
        return np.zeros((num_rx, 0, offsets.size), dtype=np.complex128)

    # gathered[i, c, n, o] = K_ni[L-1 + (span - c)*spacing + o], zero off the
    # kernel; viewed as float64 it is user i's real matrix, and antenna n's
    # interleaved (re, im) columns are the field's row n viewed as float64.
    taps = peak + np.arange(span, -span - 1, -1)[:, None] * spacing + offsets
    gathered = np.where((taps >= 0) & (taps < size), kernels[:, :, np.clip(taps, 0, size - 1)], 0)
    gathered = np.ascontiguousarray(gathered.transpose(1, 2, 0, 3), dtype=np.complex128)
    matrix = gathered.view(np.float64).reshape(num_users * width, -1)
    padded = np.zeros((num_users, num_symbols + 2 * span))
    padded[:, span : span + num_symbols] = symbols
    windows = sliding_window_view(padded, width, axis=1)

    # antennas[n] is antenna n's columns; each block of windows is written
    # straight into the field, one matrix product per antenna
    antennas = matrix.reshape(matrix.shape[0], num_rx, -1).transpose(1, 0, 2)
    field = np.empty((num_rx, num_symbols, offsets.size), dtype=np.complex128)
    columns = field.view(np.float64)
    rows = max(1, _BLOCK_ELEMENTS // matrix.shape[0])
    for start in range(0, num_symbols, rows):
        stop = min(start + rows, num_symbols)
        # one user's reshape is still a view of overlapping windows, which
        # numpy's matmul cannot hand to BLAS; two or more are copied anyway
        block = windows[:, start:stop].transpose(1, 0, 2).reshape(stop - start, -1)
        np.matmul(np.ascontiguousarray(block), antennas, out=columns[:, start:stop])

    if noise_sigma > 0.0:
        length = (num_symbols - 1) * spacing + size
        _add_window_noise(field, peak, spacing, length, noise_sigma, seed_path)
    return field


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

    ``spatial_fwhm_mm`` is the width of the focal spot around the target:
    it is ``None`` unless the profile's unique maximum sits at the target
    position, away from the grid ends, and the half-power crossings can be
    bracketed on both sides.
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


def _target_focus(ensemble: SpatialChannelEnsemble, own: np.ndarray, target_index: int) -> dict:
    """What the target's field ``own`` fixes alone, as :class:`FocusingReport`
    fields: peak, sidelobe ratio, temporal FWHM, spatial profile and spatial
    FWHM. No spacing or interferer changes it."""
    own_at_target = own[target_index]
    magnitude = np.abs(own_at_target)
    peak_lag = int(np.argmax(magnitude))
    peak_amplitude = float(magnitude[peak_lag])

    outside = np.ones(magnitude.size, dtype=bool)
    lo = max(0, peak_lag - 1)
    outside[lo : peak_lag + 2] = False
    if np.any(outside) and magnitude[outside].max() > 0.0:
        sidelobe_ratio_db = float(20.0 * np.log10(peak_amplitude / magnitude[outside].max()))
    else:
        sidelobe_ratio_db = math.inf

    time_axis = np.arange(magnitude.size) * ensemble.params.tap_spacing
    fwhm_s = full_width_half_max(time_axis, magnitude)
    temporal_fwhm_s = float(fwhm_s) if fwhm_s is not None else math.nan

    profile_values = np.max(np.abs(own), axis=1)
    spatial_profile = tuple(
        (float(pos), float(val)) for pos, val in zip(ensemble.positions_mm, profile_values)
    )
    spatial_fwhm_mm = (
        full_width_half_max(ensemble.positions_mm, profile_values)
        if int(np.argmax(profile_values)) == target_index
        else None
    )
    return {
        "peak_amplitude": peak_amplitude,
        "peak_lag": peak_lag,
        "temporal_sidelobe_ratio_db": sidelobe_ratio_db,
        "temporal_fwhm_s": temporal_fwhm_s,
        "spatial_profile": spatial_profile,
        "spatial_fwhm_mm": spatial_fwhm_mm,
    }


def focusing_report(
    ensemble: SpatialChannelEnsemble,
    fields: np.ndarray,
    users: Sequence[int],
    jobs: Sequence[tuple[int, int | None, int]],
    paths: Sequence[str | Path] | None = None,
) -> list[FocusingReport]:
    """Measure spatiotemporal focusing and interference: one report per job.

    ``fields`` is ``pulse_responses(ensemble.taps, ensemble.taps[users])``,
    shape ``(P, U, 2L - 1)``: column ``k`` is the noiseless field over the
    grid of a unit pulse toward position ``users[k]``, normalised by that
    channel's energy so the intended received peak powers are statistically
    identical. Each job is a ``(column, other column or None, spacing)``
    triple: its target is ``users[column]``, and the interfering user's
    field, for two users, is read at the target only. A report joins what
    its target's own field fixes alone (peak, sidelobe ratio, temporal
    width, spatial profile and spatial width), computed once per column, to
    the slot sums at its spacing (ISI, IUI, self and other ISI); the
    metrics are described on :class:`FocusingReport`.

    Nothing is checked here. The columns of a job must be distinct and the
    spacing at least 1 tap, as :class:`~trlink.harness.Scenario` ensures for
    :func:`~trlink.harness.run_focusing_experiment`, the one caller.

    With ``paths``, one per job, every report is computed before the first
    file is written through :func:`~trlink.output.write_text`. A file holds
    its report's scalar metrics as ``# key=value`` lines, then the spatial
    profile with columns ``position_mm,peak_abs``, one row per grid
    position, rendered once per target. An undefined spatial width is
    written as ``nan`` with ``spatial_fwhm_defined=0``, so downstream
    tooling can tell it apart from a measured value.
    """
    positions = ensemble.positions_mm
    focus: dict[int, dict] = {}
    reports = []
    for column, other_column, spacing in jobs:
        target_index = users[column]
        if column not in focus:
            focus[column] = _target_focus(ensemble, fields[:, column], target_index)
        peak_lag = focus[column]["peak_lag"]
        own_at_target = fields[target_index, column]
        slots = _slot_indices(peak_lag, spacing, own_at_target.size)
        if other_column is not None:
            other_index = users[other_column]
            other_at_target = fields[target_index, other_column]
            total_at_target = own_at_target + other_at_target
            iui_power = float(np.abs(other_at_target[peak_lag]) ** 2)
            isi_other = float(np.sum(np.abs(other_at_target[slots]) ** 2))
        else:
            other_index = None
            total_at_target = own_at_target
            iui_power = 0.0
            isi_other = 0.0
        reports.append(
            FocusingReport(
                target_index=target_index,
                target_mm=float(positions[target_index]),
                other_index=other_index,
                other_mm=float(positions[other_index]) if other_index is not None else None,
                spacing=spacing,
                isi_power=float(np.sum(np.abs(total_at_target[slots]) ** 2)),
                iui_power=iui_power,
                isi_self_power=float(np.sum(np.abs(own_at_target[slots]) ** 2)),
                isi_other_power=isi_other,
                **focus[column],
            )
        )
    if paths is not None:
        profiles: dict[int, str] = {}
        for (column, _, _), report, path in zip(jobs, reports, paths, strict=True):
            if column not in profiles:
                # the rows csv.writer writes for floats: repr, comma, CRLF
                profiles[column] = "position_mm,peak_abs\r\n" + "".join(
                    f"{position!r},{value!r}\r\n" for position, value in report.spatial_profile
                )
            write_text(path, comment_lines(_report_comments(report)) + profiles[column])
    return reports


def _report_comments(report: FocusingReport) -> list[str]:
    """A report's ``# key=value`` lines: the schema, then its scalar metrics."""
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
    return ["schema=trlink.focusing/1", *(f"{name}={value}" for name, value in scalars)]
