"""Scenario-driven experiment engine: focusing maps, BER sweeps, CSV output.

Scenarios are versioned UTF-8 JSON files (schema below), read as ensemble
files are; unknown and repeated keys are rejected so typos fail fast. All randomness derives from
one master seed through a documented counter scheme, so identical scenario +
seed produce byte-identical CSV artifacts regardless of how the work is split
up, with one qualification: the Toeplitz solve of chirp sounding rounds with
the number of BLAS threads, so ``trlink sound`` and sweeps with a sounded
``sounding`` block are byte-reproducible for a fixed BLAS thread count
(``results/sound`` was made with ``OPENBLAS_NUM_THREADS=1``). The seeds are:

* ensemble for trial ``t``      <- seed_of(master, 0, t)
* BER cell (scheme s, spacing d, SNR point q, trial t)
                                <- cell = seed_of(master, 1, s, d_index, q, t)
  with sub-streams ``[cell, 0]`` for payload bits, ``[cell, 1, n]`` for
  receiver-``n`` noise and ``[cell, 2, n]`` for pilot noise
* sounding noise for trial ``t``, the target at grid index ``g``
                                <- seed_of(master, 2, t, g),
  the same stream in the BER sweep's channel estimates and in
  ``run_sounding_study``

where ``seed_of`` feeds its arguments to ``numpy.random.SeedSequence`` and
scheme indices are fixed (RASK=0, ERASK=1). The SNR axis is the inverse
noise power: a grid point of ``q`` dB means per-sample noise variance
``sigma^2 = 10**(-q/10)`` against the unit per-pulse emitted energy of the
precoder.

How low ``q`` may go is set by the largest number the detector forms. A
window power ``|y|^2`` is about ``sigma^2 |z|^2`` once the noise dominates,
for the per-sample noise ``sigma * z``: each of ``z``'s parts is a
``standard_normal`` draw over ``sqrt(2)``, and numpy's ziggurat never draws
one beyond 12.23 in magnitude (a tail draw is ``3.655 + x``, accepted only
where ``x**2 < 2 * 36.74``, twice the largest ``-log(1 - u)`` of a 53-bit
uniform ``u``), so ``|z|^2 < 151``. The ERASK pilot calibration sums each
power class, at most ``num_rx * num_pilots`` window powers, and adds the
two class means; RASK and a fixed threshold sum none. A factor of 2 for
the means' sum and 2 for the signal's share of a window (``|s + n|^2 <=
2|s|^2 + 2|n|^2``, the signal of order one at the unit emitted energy per
pulse) take the 151 to 604, and ``_NOISE_HEADROOM`` rounds it up to 1024.
So a scenario refuses a grid point whose ``sigma^2 * 1024 * cells``
overflows a double, with ``cells`` that largest sum's count of window
powers, 1 without a pilot sum: about ``q < -3034`` dB for 2 antennas and
32 pilots, ``q < -3052`` dB with no sum. The signal part of a window
sample is at most ``num_rx * L * sqrt(E)`` for the receiving target's
energy ``E`` (per user, its pulses read distinct lags of ``K_ni``, whose
magnitudes sum to at most ``L * sqrt(E)`` by Cauchy-Schwarz). A
synthesised channel's ``E`` is of order one, but an imported target's is
held to ``16 * cells * (num_rx * L)**2 * E`` below the largest double, so
its share of a sum stays below a sixteenth of it. Every window power,
pilot sum and threshold is then finite, and an ERASK threshold is finite
and > 0.

Scenario JSON schema (version 1)::

    {
      "version": 1,
      "cavity": {"num_taps": .., "bandwidth_hz": .., "carrier_freq_hz": ..,
                 "decay_time_s": .. (optional; Infinity is a flat profile)},
      "grid_mm": {"start": .., "stop": .., "step": ..}   # or "positions_mm": [..]
                                                         #   (strictly increasing)
                                                         # or "ensemble_file": "path"
      "targets_mm": [..],                # receive-antenna positions, on the grid
      "rsm": {"scheme": "rask"|"erask"|"both", "num_rx": 2,   # RASK needs num_rx 2
              "threshold": {"policy": "fixed", "value": .. (> 0)} |
                           {"policy": "pilot", "num_pilots": ..} (optional)},
      "d_values": [..],                  # distinct pulse spacings in taps, each >= 3
      "snr_grid_db": [..],
      "bits_per_point": ..,
      "trials": ..,
      "sounding": "genie" | {"duration_s": .., "snr_db": .. (optional)},
                                         # chirp of 2 .. 1_000_000 samples
                                         #   at bandwidth_hz, the one sample
                                         #   rate of taps and signals; with
                                         #   no snr_db the probe is noiseless
      "master_seed": ..                  # >= 0
    }

Counts, spacings and seeds (``num_taps``, ``num_rx``, ``num_pilots``,
``d_values``, ``bits_per_point``, ``trials``, ``master_seed``, ``version``)
must be JSON integers; every other number but ``decay_time_s`` must be
finite. :func:`~trlink.channel.read_cavity` reads ``cavity`` as it reads
an ensemble file's parameters, naming ``cavity.<field>``. Nothing is
coerced: ``15.7``, ``"15"`` or ``true`` in an integer field is an error,
and ``rsm.scheme`` is one of the three lower-case strings shown. Each
``snr_grid_db`` entry must give a positive noise power ``10**(-q/10)``
(``q`` below about 3233 dB) that the detector can sum (above about -3034
dB; see the bound above), and a finite ``sounding.snr_db`` a probe power
ratio ``10**(q/10)`` that is a positive finite double (about ``|q| <=
3080`` dB). :class:`Scenario` checks that probe SNR and the chirp's length
once; the sounding stages check nothing. ``bandwidth_hz``, here or in an
ensemble file, lies between about 1.5e-148 and 6.7e153 Hz, where every
chirp's phase is finite. A probe SNR far below 0 dB can still give channel
estimates whose energy overflows a double, at a bound that depends on the chirp and
the taps; the sweep and the sounding study refuse those with a
``ConfigurationError`` naming ``sounding.snr_db`` once the estimates are
made, before any output file is opened. Sizes are capped at load:
``num_taps`` at 4096, and a BER frame of ``(M-1)*max(d_values) + 2*num_taps
- 1`` samples at 10,000,000, where ``M`` is ``bits_per_point`` for RASK,
``ceil(bits_per_point / num_rx)`` for ERASK and ``num_pilots`` for a pilot
frame, and the ``trials * num_rx**2 * (2*num_taps - 1)`` pulse-response
samples a sweep holds at the same 10,000,000. A synthesised grid
(``grid_mm`` or ``positions_mm``) holds at most 10,000 positions and must
keep the spatial-correlation argument
``2*pi*2*(last - first)/wavelength`` finite; an imported ensemble is held
to neither, since its responses are never correlated across positions.
A focusing experiment alone holds the ``P * num_rx * (2*num_taps - 1)``
field samples over a grid of ``P`` positions (imported or synthesised);
:func:`run_focusing_experiment` caps them at the same 10,000,000 before
anything is drawn, so a grid that ``ber`` and ``sound`` run may be too
large for ``focus``.

Channels pass between the stages as row selections of the trial's
ensemble ``taps``, one ``(P, L)`` block checked where it entered: by
:func:`~trlink.channel.load_ensemble` for a file, or over the positions
checked here for a draw (:func:`~trlink.channel.synth_cavity_ensemble`); no
experiment builds a per-position :class:`~trlink.channel.Cir` (that
unexported class and its accessor, ``SpatialChannelEnsemble.cirs``, are
kept for the benchmark's focus oracle only). Every trial of a synthesised
scenario draws over one grid at one carrier, so the kernel root its draws
share is factorised once and memoised (:func:`trlink.channel.synth_cavity_ensemble`).

Each trial's pulse responses (:func:`trlink.precoding.pulse_responses`,
one :func:`~trlink.precoding.propagate` of all its users' emissions)
are built once, before the first cell, and every data and pilot frame of
that trial reuses them. Each BER cell evaluates the received field only at
its detector's window samples (:func:`trlink.precoding.received_at`) as
blocked real matrix products, so a cell costs ``2*(2*(L // D) + 1)`` real
multiply-adds per user for each sample the detector reads, plus one
full-length noise draw per antenna and frame (noise contract v1,
unchanged), streamed through a fixed buffer and read at the windows, so
the cell's memory does not grow with the frame.

BER CSV columns are fixed: ``scheme,D,snr_db,bits_sent,bit_errors,ber,seed``
with one file per (scheme, spacing) and one row per (SNR point, trial).
Each run builds its channels before its first result and writes each output
file whole through :mod:`trlink.output` once its contents are known, so a
file appears only complete.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import (
    CavityParams,
    SoundingConfig,
    SpatialChannelEnsemble,
    check_positions,
    energy,
    grid_index,
    load_ensemble,
    read_cavity,
    sound_cir,
    synth_cavity_ensemble,
)
from .dsp import _MAX_CHIRP_SAMPLES, chirp_length
from .errors import (
    ConfigurationError,
    DomainError,
    check_power_ratio,
    read_integer,
    read_json,
    read_list,
    read_number,
    require_keys,
    shown,
)
from .modem import (
    WINDOW_HALF_WIDTH,
    DetectionWindow,
    FixedThreshold,
    PilotThreshold,
    RsmConfig,
    Scheme,
    calibrate_threshold,
    erask_modulate,
    power_detect,
    rask_modulate,
)
from .output import comment_lines, csv_text, write_csv, write_text
from .precoding import FocusingReport, focusing_report, pulse_responses, received_at

_STREAM_ENSEMBLE = 0
_STREAM_CELL = 1
_STREAM_SOUNDING = 2

_SCHEME_INDEX = {Scheme.RASK: 0, Scheme.ERASK: 1}

# One column per ``BerRecord`` field, in field order.
BER_CSV_HEADER = ["scheme", "D", "snr_db", "bits_sent", "bit_errors", "ber", "seed"]

# sigma^2 |z|^2 bounds a noise-dominated window power within this factor
# (see the module docstring); a noise power that many times the largest
# pilot sum's count of window powers must stay below the largest double.
_NOISE_HEADROOM = 1024

# Each grid position adds a row and a column to the dense spatial-correlation
# kernel that the ensemble draw factorises, so a synthesised grid is capped
# well below the point where that matrix stops fitting in memory:
# grid_positions refuses before it allocates, and Scenario holds an explicit
# positions_mm list to the same cap.
_MAX_GRID_POSITIONS = 10_000

# A BER frame of (M-1)*max(d_values) + 2L - 1 samples sets the length of
# each antenna's noise draw (noise contract v1), which is streamed, so it
# bounds the draw's time, not its memory; a sweep holds every trial's
# (N, N, 2L - 1) pulse responses before its first cell, and a focusing
# experiment holds the (P, N, 2L - 1) field of every target over the grid,
# with transform buffers of about that size; ten million samples keeps each
# of those near 160 MB.
_MAX_FRAME_SAMPLES = 10_000_000

#: Time-bandwidth products of the sounding study's probe chirps.
SOUNDING_TB_VALUES = (100, 1000, 10000)


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for a counter path under the master seed."""
    seq = np.random.SeedSequence([int(master_seed), *(int(p) for p in path)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def grid_positions(start_mm: float, stop_mm: float, step_mm: float) -> np.ndarray:
    """Regular position grid ``start, start+step, ...`` up to ``stop`` inclusive."""
    if step_mm <= 0:
        raise ConfigurationError(f"grid step must be > 0, got {step_mm}")
    if stop_mm < start_mm:
        raise ConfigurationError("grid stop must be >= start")
    span = (stop_mm - start_mm) / step_mm
    # an infinite or NaN span fails the first test; the tolerance that keeps
    # a stop on the grid can still add the position past the cap
    count = int(math.floor(span + 1e-9)) + 1 if span < _MAX_GRID_POSITIONS else math.inf
    if count > _MAX_GRID_POSITIONS:
        raise ConfigurationError(
            f"grid from {start_mm} to {stop_mm} mm in steps of {step_mm} mm has more "
            f"than {_MAX_GRID_POSITIONS} positions"
        )
    return start_mm + step_mm * np.arange(count)


@dataclass(frozen=True)
class BerRecord:
    scheme: str
    d: int
    snr_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    seed: int

    def __post_init__(self) -> None:
        if self.bits_sent < 1:
            raise DomainError("bits_sent must be >= 1")
        if not 0 <= self.bit_errors <= self.bits_sent:
            raise DomainError("bit_errors must lie in [0, bits_sent]")
        expected = self.bit_errors / self.bits_sent
        if not math.isclose(self.ber, expected, rel_tol=0, abs_tol=1e-12):
            raise DomainError("ber must equal bit_errors / bits_sent")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully resolved experiment description (see module docstring)."""

    cavity: CavityParams
    positions_mm: np.ndarray
    target_indices: tuple[int, ...]
    rsm: RsmConfig
    schemes: tuple[Scheme, ...]
    d_values: tuple[int, ...]
    snr_grid_db: tuple[float, ...]
    bits_per_point: int
    trials: int
    sounding: SoundingConfig | None
    master_seed: int
    imported_ensemble: SpatialChannelEnsemble | None = None

    def __post_init__(self) -> None:
        positions = check_positions(self.positions_mm, "positions_mm")
        # an imported ensemble fixes the sample rate, tap count and grid that
        # sounding, the frame cap and the reports read from the scenario
        imported = self.imported_ensemble
        if imported is not None and self.cavity != imported.params:
            raise ConfigurationError(
                f"cavity {self.cavity} differs from the imported ensemble's {imported.params}"
            )
        if imported is not None and not np.array_equal(positions, imported.positions_mm):
            raise ConfigurationError("positions_mm differ from the imported ensemble's positions")
        # a synthesised draw correlates every pair of positions, out to the
        # extent, in one kernel; an imported ensemble is never correlated
        first, last = float(positions[0]), float(positions[-1])
        extent = 2 * math.pi * 2 * (last - first) / self.cavity.wavelength_mm
        if self.imported_ensemble is None and not math.isfinite(extent):
            raise ConfigurationError(
                f"positions_mm from {first} to {last} mm overflow the spatial correlation "
                "argument 2*pi*2*(last - first)/wavelength"
            )
        if self.imported_ensemble is None and positions.size > _MAX_GRID_POSITIONS:
            raise ConfigurationError(
                f"positions_mm has {positions.size} positions; a synthesised grid holds "
                f"at most {_MAX_GRID_POSITIONS}"
            )
        if len(set(self.target_indices)) != len(self.target_indices):
            raise ConfigurationError("targets must be distinct")
        for idx in self.target_indices:
            if not 0 <= idx < positions.size:
                raise ConfigurationError(f"target index {idx} is off the grid")
        if not self.schemes:
            raise ConfigurationError("scenario needs at least one scheme")
        if Scheme.RASK in self.schemes and self.rsm.num_rx != 2:
            raise ConfigurationError(
                f"RASK needs exactly 2 receive antennas, got num_rx={self.rsm.num_rx}"
            )
        if len(self.target_indices) != self.rsm.num_rx:
            raise ConfigurationError(
                f"{len(self.target_indices)} targets for num_rx={self.rsm.num_rx}"
            )
        if Scheme.ERASK in self.schemes and self.rsm.threshold_policy is None:
            raise ConfigurationError("ERASK runs need a threshold policy")
        min_spacing = 2 * WINDOW_HALF_WIDTH + 1
        if not self.d_values or any(d < min_spacing for d in self.d_values):
            raise ConfigurationError(
                f"d_values must be a non-empty list of spacings >= {min_spacing} taps, "
                f"so that detection windows do not overlap; got {list(self.d_values)}"
            )
        if len(set(self.d_values)) != len(self.d_values):
            raise ConfigurationError(f"d_values must be distinct, got {list(self.d_values)}")
        if not self.snr_grid_db:
            raise ConfigurationError("snr_grid_db must be non-empty")
        for snr_db in self.snr_grid_db:
            check_power_ratio(-snr_db, f"snr_grid_db entry {snr_db} dB gives a noise power")
        if self.bits_per_point < 1:
            raise ConfigurationError("bits_per_point must be >= 1")
        num_taps = self.cavity.num_taps
        frame_symbols = max(
            self.bits_per_point if scheme is Scheme.RASK
            else -(-self.bits_per_point // self.rsm.num_rx)
            for scheme in self.schemes
        )
        frames = [("bits_per_point", self.bits_per_point, frame_symbols, "BER frame")]
        policy = self.rsm.threshold_policy
        if isinstance(policy, PilotThreshold):
            frames.append(
                ("rsm.threshold.num_pilots", policy.num_pilots, policy.num_pilots, "pilot frame")
            )
        for field, value, symbols, what in frames:
            frame_samples = (symbols - 1) * max(self.d_values) + 2 * num_taps - 1
            if frame_samples > _MAX_FRAME_SAMPLES:
                raise ConfigurationError(
                    f"{field} {value} at D={max(self.d_values)} gives a {frame_samples}-sample "
                    f"{what}; the cap is {_MAX_FRAME_SAMPLES}"
                )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        kernel_samples = self.trials * self.rsm.num_rx**2 * (2 * num_taps - 1)
        if kernel_samples > _MAX_FRAME_SAMPLES:
            raise ConfigurationError(
                f"trials {self.trials} at num_rx={self.rsm.num_rx} and num_taps={num_taps} "
                f"hold {kernel_samples} pulse-response samples; the cap is {_MAX_FRAME_SAMPLES}"
            )
        # The detector's largest number (module docstring): a sum of ``cells``
        # window powers, each at most 2|s|^2 + 2|n|^2. Counts are capped by now.
        pilot_sum = Scheme.ERASK in self.schemes and isinstance(policy, PilotThreshold)
        cells = self.rsm.num_rx * policy.num_pilots if pilot_sum else 1
        lowest_snr_db = -10.0 * math.log10(sys.float_info.max / (_NOISE_HEADROOM * cells))
        for snr_db in self.snr_grid_db:
            if snr_db < lowest_snr_db:
                raise ConfigurationError(
                    f"snr_grid_db entry {snr_db} dB is below {lowest_snr_db:.1f} dB: the "
                    "detector's window powers at that noise power would overflow a double"
                )
        if imported is not None:
            max_energy = sys.float_info.max / (16 * cells * (self.rsm.num_rx * num_taps) ** 2)
            for idx in self.target_indices:
                # finite taps can still hold more energy than a double: that
                # is an inf here, not an overflow warning
                with np.errstate(over="ignore"):
                    target_energy = energy(imported.taps[idx])
                if not 0.0 < target_energy < max_energy:
                    what = "CIR with overflowing energy" if target_energy else "zero-energy CIR"
                    raise ConfigurationError(
                        f"target {float(positions[idx])} mm has a {what} in the imported "
                        f"ensemble (the detector's window powers need an energy in (0, "
                        f"{max_energy:.3g})); cannot precode toward it"
                    )
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.sounding is not None:
            duration, snr_db = astuple(self.sounding)
            if snr_db != math.inf:
                check_power_ratio(snr_db, f"sounding.snr_db {snr_db} dB gives a power ratio")
            bandwidth = self.cavity.bandwidth_hz
            product = duration * bandwidth
            # bounded first: a NaN or infinite product has no integer
            if not (0 < product <= _MAX_CHIRP_SAMPLES + 1
                    and 2 <= chirp_length(duration, bandwidth) <= _MAX_CHIRP_SAMPLES):
                raise ConfigurationError(
                    f"sounding.duration_s {duration} gives duration * bandwidth_hz = {product:.7g}"
                    f" samples; a chirp holds 2 to {_MAX_CHIRP_SAMPLES}"
                )
        positions = positions.copy()
        positions.flags.writeable = False
        object.__setattr__(self, "positions_mm", positions)

    def ensemble_for_trial(self, trial: int) -> SpatialChannelEnsemble:
        """Trial ``t``'s channel: imported (fixed) or freshly synthesised."""
        if self.imported_ensemble is not None:
            return self.imported_ensemble
        seed = derive_seed(self.master_seed, _STREAM_ENSEMBLE, trial)
        params = replace(self.cavity, rng_seed=seed)
        return synth_cavity_ensemble(params, self.positions_mm)


def _parse_threshold(obj) -> FixedThreshold | PilotThreshold:
    if not isinstance(obj, dict) or "policy" not in obj:
        raise ConfigurationError("rsm.threshold must be an object with a 'policy'")
    policy = obj["policy"]
    if policy == "fixed":
        require_keys(obj, {"policy", "value"}, {"policy", "value"}, "rsm.threshold")
        return FixedThreshold(read_number(obj["value"], "rsm.threshold.value"))
    if policy == "pilot":
        require_keys(obj, {"policy", "num_pilots"}, {"policy"}, "rsm.threshold")
        return PilotThreshold(read_integer(obj.get("num_pilots", 32), "rsm.threshold.num_pilots"))
    raise ConfigurationError(f"unknown threshold policy {shown(policy)}")


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    """Build and validate a scenario from parsed JSON."""
    top_allowed = {
        "version",
        "cavity",
        "grid_mm",
        "positions_mm",
        "ensemble_file",
        "targets_mm",
        "rsm",
        "d_values",
        "snr_grid_db",
        "bits_per_point",
        "trials",
        "sounding",
        "master_seed",
    }
    require_keys(
        data,
        top_allowed,
        {"version", "targets_mm", "rsm", "d_values", "snr_grid_db",
         "bits_per_point", "trials", "sounding", "master_seed"},
        "scenario",
    )
    if read_integer(data["version"], "version") != 1:
        raise ConfigurationError(f"unsupported scenario version {shown(data['version'])}")

    grid_keys = [k for k in ("grid_mm", "positions_mm", "ensemble_file") if k in data]
    if len(grid_keys) != 1:
        raise ConfigurationError(
            "scenario needs exactly one of grid_mm / positions_mm / ensemble_file"
        )

    imported = None
    if "ensemble_file" in data:
        if "cavity" in data:
            raise ConfigurationError("ensemble_file scenarios must not also define cavity")
        if not isinstance(data["ensemble_file"], str):
            raise ConfigurationError(
                f"ensemble_file must be a path string, got {shown(data['ensemble_file'])}"
            )
        path = Path(data["ensemble_file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        imported = load_ensemble(path)
        cavity = imported.params
        positions = np.asarray(imported.positions_mm, dtype=float)
    else:
        if "cavity" not in data:
            raise ConfigurationError("missing keys in scenario: ['cavity']")
        required = {"num_taps", "bandwidth_hz", "carrier_freq_hz"}
        require_keys(data["cavity"], required | {"decay_time_s"}, required, "cavity")
        cavity = read_cavity(data["cavity"], "cavity.")
        if "grid_mm" in data:
            grid = data["grid_mm"]
            require_keys(grid, {"start", "stop", "step"}, {"start", "stop", "step"}, "grid_mm")
            positions = grid_positions(
                *(read_number(grid[k], f"grid_mm.{k}") for k in ("start", "stop", "step"))
            )
        else:
            # strictly increasing before the targets are looked up on it
            positions = check_positions(
                read_list(data["positions_mm"], "positions_mm", read_number), "positions_mm"
            )

    rsm_obj = data["rsm"]
    require_keys(rsm_obj, {"scheme", "num_rx", "threshold"}, {"scheme"}, "rsm")
    scheme_name = rsm_obj["scheme"]
    if scheme_name == "both":
        schemes = (Scheme.RASK, Scheme.ERASK)
    elif scheme_name in ("rask", "erask"):
        schemes = (Scheme(scheme_name),)
    else:
        raise ConfigurationError(
            f'rsm.scheme must be "rask", "erask" or "both", got {shown(scheme_name)}'
        )
    threshold = _parse_threshold(rsm_obj["threshold"]) if "threshold" in rsm_obj else None
    rsm = RsmConfig(
        num_rx=read_integer(rsm_obj.get("num_rx", 2), "rsm.num_rx"),
        threshold_policy=threshold,
    )

    target_indices = [
        grid_index(positions, target_mm, "target")
        for target_mm in read_list(data["targets_mm"], "targets_mm", read_number)
    ]

    sounding_obj = data["sounding"]
    if sounding_obj == "genie":
        sounding = None
    elif isinstance(sounding_obj, dict):
        require_keys(sounding_obj, {"duration_s", "snr_db"}, {"duration_s"}, "sounding")
        sounding = SoundingConfig(
            duration_s=read_number(sounding_obj["duration_s"], "sounding.duration_s"),
            probe_snr_db=(
                read_number(sounding_obj["snr_db"], "sounding.snr_db")
                if "snr_db" in sounding_obj
                else math.inf
            ),
        )
    else:
        raise ConfigurationError("sounding must be \"genie\" or an object")

    return Scenario(
        cavity=cavity,
        positions_mm=positions,
        target_indices=tuple(target_indices),
        rsm=rsm,
        schemes=schemes,
        d_values=tuple(read_list(data["d_values"], "d_values", read_integer)),
        snr_grid_db=tuple(read_list(data["snr_grid_db"], "snr_grid_db", read_number)),
        bits_per_point=read_integer(data["bits_per_point"], "bits_per_point"),
        trials=read_integer(data["trials"], "trials"),
        sounding=sounding,
        master_seed=read_integer(data["master_seed"], "master_seed"),
        imported_ensemble=imported,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(read_json(path, "scenario"), base_dir=path.parent)


def _trial_kernels(scenario: Scenario, trial: int) -> np.ndarray:
    """Trial ``t``'s ``(N, N, 2L-1)`` pulse responses at its receive antennas.

    The precoder targets each antenna with its channel knowledge: the truth
    for a genie, else sounded estimates.
    """
    true_taps = scenario.ensemble_for_trial(trial).taps[list(scenario.target_indices)]
    known_taps = true_taps
    if scenario.sounding is not None:
        seeds = [
            derive_seed(scenario.master_seed, _STREAM_SOUNDING, trial, g)
            for g in scenario.target_indices
        ]
        known_taps = _sound(true_taps, scenario.sounding, seeds, scenario.cavity.bandwidth_hz)
    return pulse_responses(true_taps, known_taps)


def _sound(
    truths: np.ndarray, sounding: SoundingConfig, seeds: list[int], bandwidth_hz: float
) -> np.ndarray:
    """:func:`~trlink.channel.sound_cir`'s estimates of ``truths``, refused
    unless each estimate's energy and error energy are finite doubles.

    A probe SNR of ``q`` dB far below 0 scales the probe noise by
    ``10**(-q/20)``, and solving through the chirp's Gram amplifies it
    again by an amount that depends on ``L`` and the chirp, so no exact
    load-time bound exists. The estimates are made with numpy's overflow
    and invalid-value warnings off and checked here, before anything is
    precoded toward them or written; a failure is a ``ConfigurationError``
    naming ``sounding.snr_db``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = sound_cir(truths, sounding, seeds, bandwidth_hz)
        energies = np.sum(np.abs(estimates) ** 2, axis=1)
        error_energies = np.sum(np.abs(estimates - truths) ** 2, axis=1)
    if not (np.all(energies < math.inf) and np.all(error_energies < math.inf)):
        raise ConfigurationError(
            f"sounding.snr_db {sounding.probe_snr_db} dB gives channel estimates whose "
            "energy overflows a double"
        )
    return estimates


def _pilot_targets(num_rx: int, num_pilots: int) -> np.ndarray:
    """Pilot pattern cycling through all on/off combinations: antenna n of
    pilot k is bit n of k."""
    symbols = np.arange(num_pilots)
    return np.stack([(symbols >> n) & 1 for n in range(num_rx)]).astype(bool)


def run_ber_point(
    scheme: Scheme,
    rsm: RsmConfig,
    kernels: np.ndarray,
    spacing: int,
    snr_db: float,
    num_bits: int,
    cell_seed: int,
) -> tuple[int, int]:
    """One Monte-Carlo cell: returns (bits_sent, bit_errors).

    ``kernels`` is the trial's :func:`~trlink.precoding.pulse_responses`;
    the data frame and an ERASK pilot frame both reuse them. The data
    frame's window samples are :func:`~trlink.precoding.received_at` with
    noise seeded ``[cell_seed, 1, n]``, detected over its ``M`` symbol
    windows. An ERASK threshold comes from the policy: a
    :class:`FixedThreshold`'s value, or a :class:`PilotThreshold`
    calibrated on a pilot frame received with noise seeded ``[cell_seed, 2,
    n]``; :class:`Scenario` refuses an ERASK run without a policy. For
    ERASK the payload is rounded up to a whole number of symbols.
    """
    rng_bits = np.random.default_rng([cell_seed, 0])
    if scheme is Scheme.RASK:
        bits = rng_bits.integers(0, 2, num_bits)
        symbols = rask_modulate(bits)
    else:
        num_symbols = -(-num_bits // rsm.num_rx)
        bits = rng_bits.integers(0, 2, num_symbols * rsm.num_rx)
        symbols = erask_modulate(bits, rsm.num_rx)

    sigma = 10.0 ** (-snr_db / 20.0)
    received = received_at(symbols, kernels, spacing, sigma, [cell_seed, 1])
    threshold = None
    if scheme is Scheme.ERASK:
        policy = rsm.threshold_policy
        if isinstance(policy, FixedThreshold):
            threshold = policy.value
        elif isinstance(policy, PilotThreshold):
            targeted = _pilot_targets(rsm.num_rx, policy.num_pilots)
            pilots = received_at(targeted, kernels, spacing, sigma, [cell_seed, 2])
            pilot_windows = DetectionWindow(policy.num_pilots)
            threshold = calibrate_threshold(pilots, pilot_windows, targeted)
    windows = DetectionWindow(symbols.shape[1])
    detected = power_detect(received, windows, scheme, threshold)
    errors = int(np.sum(detected != bits))
    return bits.size, errors


def run_ber_sweep(
    scenario: Scenario,
    out_dir: str | Path | None = None,
    progress: Callable[[BerRecord], None] | None = None,
) -> list[BerRecord]:
    """Monte-Carlo BER over every (scheme, spacing, SNR, trial) cell.

    Every trial's channels and pulse responses are built first, once per
    trial. ``progress`` sees each record as its cell completes; when
    ``out_dir`` is given, each (scheme, spacing) CSV is written whole once
    its last cell is done, so a failed sweep leaves no partial file. Cell order is fixed by indices, so output is
    deterministic for a given scenario and master seed.
    """
    kernels = [_trial_kernels(scenario, trial) for trial in range(scenario.trials)]
    records: list[BerRecord] = []
    for scheme in scenario.schemes:
        scheme_idx = _SCHEME_INDEX[scheme]
        for d_idx, spacing in enumerate(scenario.d_values):
            group: list[BerRecord] = []
            for snr_idx, snr_db in enumerate(scenario.snr_grid_db):
                for trial, trial_kernels in enumerate(kernels):
                    cell_seed = derive_seed(
                        scenario.master_seed, _STREAM_CELL,
                        scheme_idx, d_idx, snr_idx, trial,
                    )
                    bits_sent, errors = run_ber_point(
                        scheme, scenario.rsm, trial_kernels,
                        spacing, snr_db, scenario.bits_per_point, cell_seed,
                    )
                    record = BerRecord(
                        scheme=scheme.value,
                        d=spacing,
                        snr_db=float(snr_db),
                        bits_sent=bits_sent,
                        bit_errors=errors,
                        ber=errors / bits_sent,
                        seed=cell_seed,
                    )
                    group.append(record)
                    if progress is not None:
                        progress(record)
            if out_dir is not None:
                name = f"ber_{scheme.value}_D{spacing}.csv"
                write_csv(Path(out_dir) / name, BER_CSV_HEADER, [astuple(r) for r in group])
            records += group
    return records


def run_focusing_experiment(
    scenario: Scenario, out_dir: str | Path | None = None
) -> list[FocusingReport]:
    """Single-user focusing map per target, plus the two-user decomposition.

    The single-user reports use the first configured pulse spacing; the
    two-user interference decomposition (first two targets, both roles) is
    produced for every spacing in ``d_values``. Focusing is measured on
    trial 0's true channels: the scenario's ``sounding`` block is ignored.
    One :func:`~trlink.precoding.pulse_responses` call, one
    :func:`~trlink.precoding.propagate` of every target's emission, gives
    every target's field over the whole grid, and one
    :func:`~trlink.precoding.focusing_report` call measures every report
    from that block. Nothing is re-checked on the way: the scenario has
    refused off-grid and coincident targets, imported targets of zero or
    overflowing energy, and spacings below 3 taps, at load.

    With ``out_dir``, every report is computed before the first file is
    written, one CSV per report through :func:`~trlink.output.write_text`.
    A file holds its report's scalar metrics as ``# key=value`` lines
    (:func:`_report_comments`), then the spatial profile with columns
    ``position_mm,peak_abs``, one row per grid position, rendered once per
    target and shared by that target's files. An undefined spatial width is
    written as ``nan`` with ``spatial_fwhm_defined=0``, so downstream
    tooling can tell it apart from a measured value.

    The ``P * num_rx * (2*num_taps - 1)`` field samples are capped at
    10,000,000, the cap of a BER frame; a larger field is refused before
    trial 0's channels are drawn.
    """
    targets = scenario.target_indices
    num_positions = scenario.positions_mm.size
    num_taps = scenario.cavity.num_taps
    field_samples = num_positions * len(targets) * (2 * num_taps - 1)
    if field_samples > _MAX_FRAME_SAMPLES:
        raise ConfigurationError(
            f"{num_positions} positions, {len(targets)} targets and num_taps={num_taps} "
            f"hold {field_samples} focusing-field samples; the cap is {_MAX_FRAME_SAMPLES}"
        )
    ensemble = scenario.ensemble_for_trial(0)
    # (file name, target column, interfering column, spacing) per report, in
    # output order
    jobs = [(f"focus_single_t{k}.csv", k, None, scenario.d_values[0]) for k in range(len(targets))]
    if len(targets) >= 2:
        jobs += [
            (f"focus_two_user_D{spacing}_t{k}.csv", k, 1 - k, spacing)
            for spacing in scenario.d_values
            for k in (0, 1)
        ]
    reports = focusing_report(
        ensemble,
        pulse_responses(ensemble.taps, ensemble.taps[list(targets)]),
        targets,
        [job[1:] for job in jobs],
    )
    if out_dir is not None:
        profiles: dict[int, str] = {}
        for (name, column, _, _), report in zip(jobs, reports):
            if column not in profiles:
                profiles[column] = csv_text(("position_mm", "peak_abs"), report.spatial_profile)
            write_text(
                Path(out_dir) / name, comment_lines(_report_comments(report)) + profiles[column]
            )
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


def _median(values: list[float]) -> float:
    """``float(np.median(values))`` bit for bit, for one or more floats.

    The middle of the sorted values, or ``(a + b) / 2`` of the middle two,
    numpy's own arithmetic; NaN if any value is NaN, as numpy gives.
    """
    if any(math.isnan(value) for value in values):
        return math.nan
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


def run_sounding_study(
    scenario: Scenario, out_dir: str | Path | None = None
) -> list[tuple[int, float, float]]:
    """Channel-estimation error vs time-bandwidth product.

    For each TB in ``SOUNDING_TB_VALUES`` the probe chirp lasts ``TB /
    bandwidth`` seconds; the normalized error ``||est - true|| / ||true||``
    toward the first target is reported as a median over the scenario's
    trials (:func:`_median`), once noiseless and once at the scenario's
    probe SNR (20 dB when sounding is "genie"). Each trial's ``||true||``
    is computed once. Each (TB, SNR point) is one :func:`sound_cir` batch
    of the trials' truths, each trial's noise seeded as the BER sweep seeds
    that target's; its probes, fixed TBs at the checked SNR, are not checked
    again. Returns (tb, probe_snr_db, median_error) rows and writes
    ``sounding_error.csv`` when ``out_dir`` is given.
    """
    probe_snr = (
        scenario.sounding.probe_snr_db if scenario.sounding is not None else 20.0
    )
    snr_points = [math.inf]
    if not math.isinf(probe_snr):
        snr_points.append(probe_snr)
    target = scenario.target_indices[0]

    truths = np.stack(
        [scenario.ensemble_for_trial(trial).taps[target] for trial in range(scenario.trials)]
    )
    truth_norms = [np.linalg.norm(truth) for truth in truths]
    seeds = [
        derive_seed(scenario.master_seed, _STREAM_SOUNDING, trial, target)
        for trial in range(scenario.trials)
    ]
    rows: list[tuple[int, float, float]] = []
    for tb in SOUNDING_TB_VALUES:
        duration = tb / scenario.cavity.bandwidth_hz
        for snr_db in snr_points:
            sounding = SoundingConfig(duration_s=duration, probe_snr_db=snr_db)
            estimates = _sound(truths, sounding, seeds, scenario.cavity.bandwidth_hz)
            errors = [
                float(np.linalg.norm(estimate - truth) / norm)
                for estimate, truth, norm in zip(estimates, truths, truth_norms)
            ]
            rows.append((tb, float(snr_db), _median(errors)))

    if out_dir is not None:
        write_csv(
            Path(out_dir) / "sounding_error.csv", ["tb", "probe_snr_db", "normalized_error"], rows
        )
    return rows
