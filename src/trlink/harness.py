"""Scenario-driven experiment engine: focusing maps, BER sweeps, CSV output.

Scenarios are versioned UTF-8 JSON files (schema below); unknown keys are
rejected so typos fail fast. All randomness derives from one master seed
through a documented counter scheme, so identical scenario + seed produce
byte-identical CSV artifacts regardless of how the work is split up:

* ensemble for trial ``t``      <- seed_of(master, 0, t)
* BER cell (scheme s, spacing d, SNR point q, trial t)
                                <- cell = seed_of(master, 1, s, d_index, q, t)
  with sub-streams ``[cell, 0]`` for payload bits, ``[cell, 1, n]`` for
  receiver-``n`` noise and ``[cell, 2, n]`` for pilot noise
* sounding noise for trial ``t``, target ``j`` <- seed_of(master, 2, t, j);
  the BER sweep's channel estimates take ``j`` as the target's ordinal in
  ``targets_mm`` (0, 1, ...), while ``run_sounding_study`` takes it as the
  first target's grid index

where ``seed_of`` feeds its arguments to ``numpy.random.SeedSequence`` and
scheme indices are fixed (RASK=0, ERASK=1). The SNR axis is the inverse
noise power: a grid point of ``q`` dB means per-sample noise variance
``sigma^2 = 10**(-q/10)`` against the unit per-pulse emitted energy of the
precoder.

Scenario JSON schema (version 1)::

    {
      "version": 1,
      "cavity": {"num_taps": .., "bandwidth_hz": .., "carrier_freq_hz": ..,
                 "decay_time_s": .. (optional)},
      "grid_mm": {"start": .., "stop": .., "step": ..}   # or "positions_mm": [..]
                                                         #   (strictly increasing)
                                                         # or "ensemble_file": "path"
      "targets_mm": [..],                # receive-antenna positions, on the grid
      "rsm": {"scheme": "rask"|"erask"|"both", "num_rx": 2,   # RASK needs num_rx 2
              "threshold": {"policy": "fixed", "value": ..} |
                           {"policy": "pilot", "num_pilots": ..} (optional)},
      "d_values": [..],                  # pulse spacings in taps, each >= 3
      "snr_grid_db": [..],
      "bits_per_point": ..,
      "trials": ..,
      "sounding": "genie" | {"duration_s": .., "snr_db": .. (optional)},
                                         # chirp >= 2 samples at bandwidth_hz
      "master_seed": ..                  # >= 0
    }

Counts, spacings and seeds (``num_taps``, ``num_rx``, ``num_pilots``,
``d_values``, ``bits_per_point``, ``trials``, ``master_seed``, ``version``)
must be JSON integers; every other number must be finite. Nothing is
coerced: ``15.7``, ``"15"`` or ``true`` in an integer field is an error.

BER CSV columns are fixed: ``scheme,D,snr_db,bits_sent,bit_errors,ber,seed``
with one file per (scheme, spacing) and one row per (SNR point, trial).
Each run builds its channels before its first result and writes each output
file whole through :mod:`trlink.output` once its contents are known, so a
file appears only complete.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import (
    CavityParams,
    Cir,
    SoundingConfig,
    SpatialChannelEnsemble,
    check_positions,
    grid_index,
    load_ensemble,
    sound_cir,
    sounding_chirp,
    synth_cavity_ensemble,
)
from .dsp import chirp_length
from .errors import (
    ConfigurationError,
    DomainError,
    read_integer,
    read_list,
    read_number,
    require_keys,
)
from .modem import (
    WINDOW_HALF_WIDTH,
    DetectionWindow,
    FixedThreshold,
    PilotThreshold,
    RsmConfig,
    Scheme,
    calibrate_threshold,
    detection_windows,
    erask_modulate,
    power_detect,
    rask_modulate,
)
from .output import write_csv
from .precoding import (
    FocusingReport,
    focusing_report,
    focusing_report_to_csv,
    propagate,
    tr_precode,
)

_STREAM_ENSEMBLE = 0
_STREAM_CELL = 1
_STREAM_SOUNDING = 2

_SCHEME_INDEX = {Scheme.RASK: 0, Scheme.ERASK: 1}

# One column per ``BerRecord`` field, in field order.
BER_CSV_HEADER = ["scheme", "D", "snr_db", "bits_sent", "bit_errors", "ber", "seed"]

# Each grid position adds a row and a column to the dense spatial-correlation
# kernel that the ensemble draw factorises, so a grid is capped well below
# the point where that matrix stops fitting in memory.
_MAX_GRID_POSITIONS = 10_000


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
    if not span < _MAX_GRID_POSITIONS:
        raise ConfigurationError(
            f"grid from {start_mm} to {stop_mm} mm in steps of {step_mm} mm has more "
            f"than {_MAX_GRID_POSITIONS} positions"
        )
    count = int(math.floor(span + 1e-9)) + 1
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
        if len(set(self.target_indices)) != len(self.target_indices):
            raise ConfigurationError("targets must be distinct")
        for idx in self.target_indices:
            if not 0 <= idx < positions.size:
                raise ConfigurationError(f"target index {idx} is off the grid")
            if self.imported_ensemble is not None and self.imported_ensemble.cirs[idx].energy == 0:
                raise ConfigurationError(
                    f"target {float(positions[idx])} mm has a zero-energy CIR in the imported "
                    "ensemble; cannot precode toward it"
                )
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
        if not self.snr_grid_db:
            raise ConfigurationError("snr_grid_db must be non-empty")
        if self.bits_per_point < 1:
            raise ConfigurationError("bits_per_point must be >= 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.sounding is not None:
            try:
                chirp_length(self.sounding.duration_s, self.cavity.bandwidth_hz)
            except ConfigurationError as exc:
                raise ConfigurationError(f"sounding.duration_s: {exc}") from None
        positions = positions.copy()
        positions.flags.writeable = False
        object.__setattr__(self, "positions_mm", positions)

    @property
    def target_positions_mm(self) -> tuple[float, ...]:
        return tuple(float(self.positions_mm[i]) for i in self.target_indices)

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
    raise ConfigurationError(f"unknown threshold policy {policy!r}")


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
        raise ConfigurationError(f"unsupported scenario version {data['version']!r}")

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
                f"ensemble_file must be a path string, got {data['ensemble_file']!r}"
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
        cav = data["cavity"]
        require_keys(
            cav,
            {"num_taps", "bandwidth_hz", "carrier_freq_hz", "decay_time_s"},
            {"num_taps", "bandwidth_hz", "carrier_freq_hz"},
            "cavity",
        )
        cavity = CavityParams(
            num_taps=read_integer(cav["num_taps"], "cavity.num_taps"),
            bandwidth_hz=read_number(cav["bandwidth_hz"], "cavity.bandwidth_hz"),
            carrier_freq_hz=read_number(cav["carrier_freq_hz"], "cavity.carrier_freq_hz"),
            decay_time_s=(
                read_number(cav["decay_time_s"], "cavity.decay_time_s")
                if "decay_time_s" in cav
                else math.nan
            ),
        )
        if "grid_mm" in data:
            grid = data["grid_mm"]
            require_keys(grid, {"start", "stop", "step"}, {"start", "stop", "step"}, "grid_mm")
            positions = grid_positions(
                *(read_number(grid[k], f"grid_mm.{k}") for k in ("start", "stop", "step"))
            )
        else:
            positions = np.asarray(
                read_list(data["positions_mm"], "positions_mm", read_number), dtype=float
            )

    rsm_obj = data["rsm"]
    require_keys(rsm_obj, {"scheme", "num_rx", "threshold"}, {"scheme"}, "rsm")
    scheme_name = str(rsm_obj["scheme"]).lower()
    if scheme_name == "both":
        schemes = (Scheme.RASK, Scheme.ERASK)
    else:
        try:
            schemes = (Scheme(scheme_name),)
        except ValueError:
            raise ConfigurationError(f"unknown rsm scheme {rsm_obj['scheme']!r}") from None
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
        snr = sounding_obj.get("snr_db")
        sounding = SoundingConfig(
            duration_s=read_number(sounding_obj["duration_s"], "sounding.duration_s"),
            probe_snr_db=math.inf if snr is None else read_number(snr, "sounding.snr_db"),
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
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
        raise ConfigurationError(f"scenario JSON is invalid: {exc}") from None
    return scenario_from_dict(data, base_dir=path.parent)


def _target_cirs(scenario: Scenario, trial: int) -> tuple[list[Cir], list[Cir]]:
    """Trial ``t``'s target channels as ``(true, known)``; ``known`` is the
    precoder's channel knowledge: the truth for a genie, else sounded estimates."""
    ensemble = scenario.ensemble_for_trial(trial)
    true_cirs = [ensemble.cirs[i] for i in scenario.target_indices]
    if scenario.sounding is None:
        return true_cirs, true_cirs
    chirp = sounding_chirp(ensemble.params, scenario.sounding)
    estimates = []
    for j, cir in enumerate(true_cirs):
        cfg = replace(
            scenario.sounding,
            rng_seed=derive_seed(scenario.master_seed, _STREAM_SOUNDING, trial, j),
        )
        estimates.append(sound_cir(cir, cfg, chirp))
    return true_cirs, estimates


def _pilot_targets(num_rx: int, num_pilots: int) -> np.ndarray:
    """Deterministic pilot pattern cycling through all on/off combinations."""
    symbols = np.arange(num_pilots)
    combos = symbols % (1 << num_rx)
    return np.stack([(combos >> n) & 1 for n in range(num_rx)]).astype(bool)


def _receive(
    symbols: np.ndarray,
    true_cirs: list[Cir],
    known_cirs: list[Cir],
    spacing: int,
    sigma: float,
    seed_path: list[int],
) -> tuple[list[np.ndarray], DetectionWindow]:
    """Precode toward the known CIRs and receive through the true ones.

    Receiver ``n``'s noise is seeded by ``[*seed_path, n]``.
    """
    waveform = tr_precode(symbols, known_cirs, spacing)
    received = [
        propagate(waveform, true_cirs[n], sigma, rng_seed=[*seed_path, n])
        for n in range(len(symbols))
    ]
    windows = detection_windows(symbols.shape[1], known_cirs[0].num_taps, spacing)
    return received, windows


def _erask_threshold(
    policy: FixedThreshold | PilotThreshold | None,
    spacing: int,
    true_cirs: list[Cir],
    known_cirs: list[Cir],
    sigma: float,
    cell_seed: int,
) -> float:
    if policy is None:
        raise ConfigurationError("ERASK runs need a threshold policy")
    if isinstance(policy, FixedThreshold):
        return policy.value
    targeted = _pilot_targets(len(known_cirs), policy.num_pilots)
    received, windows = _receive(
        targeted, true_cirs, known_cirs, spacing, sigma, [cell_seed, 2]
    )
    return calibrate_threshold(received, windows, targeted)


def run_ber_point(
    scheme: Scheme,
    rsm: RsmConfig,
    true_cirs: list[Cir],
    known_cirs: list[Cir],
    spacing: int,
    snr_db: float,
    num_bits: int,
    cell_seed: int,
) -> tuple[int, int]:
    """One Monte-Carlo cell: returns (bits_sent, bit_errors).

    For ERASK the payload is rounded up to a whole number of symbols.
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
    received, windows = _receive(
        symbols, true_cirs, known_cirs, spacing, sigma, [cell_seed, 1]
    )
    threshold = None
    if scheme is Scheme.ERASK:
        threshold = _erask_threshold(
            rsm.threshold_policy, spacing, true_cirs, known_cirs, sigma, cell_seed
        )
    detected = power_detect(received, windows, scheme, threshold)
    errors = int(np.sum(detected != bits))
    return bits.size, errors


def run_ber_sweep(
    scenario: Scenario,
    out_dir: str | Path | None = None,
    progress: Callable[[BerRecord], None] | None = None,
) -> list[BerRecord]:
    """Monte-Carlo BER over every (scheme, spacing, SNR, trial) cell.

    Every trial's channels are built first. ``progress`` sees each record
    as its cell completes; when ``out_dir`` is given, each (scheme, spacing)
    CSV is written whole once its last cell is done, so a failed sweep
    leaves no partial file. Cell order is fixed by indices, so output is
    deterministic for a given scenario and master seed.
    """
    channels = [_target_cirs(scenario, trial) for trial in range(scenario.trials)]
    records: list[BerRecord] = []
    for scheme in scenario.schemes:
        scheme_idx = _SCHEME_INDEX[scheme]
        for d_idx, spacing in enumerate(scenario.d_values):
            group: list[BerRecord] = []
            for snr_idx, snr_db in enumerate(scenario.snr_grid_db):
                for trial, (true_cirs, known_cirs) in enumerate(channels):
                    cell_seed = derive_seed(
                        scenario.master_seed, _STREAM_CELL,
                        scheme_idx, d_idx, snr_idx, trial,
                    )
                    bits_sent, errors = run_ber_point(
                        scheme, scenario.rsm, true_cirs, known_cirs,
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
    Every report is computed before the first CSV (one per report) is written.
    """
    ensemble = scenario.ensemble_for_trial(0)
    targets = scenario.target_indices
    # (file name, target, interfering user, spacing) per report, in output order
    jobs = [
        (f"focus_single_t{k}.csv", target, None, scenario.d_values[0])
        for k, target in enumerate(targets)
    ]
    if len(targets) >= 2:
        first, second = targets[:2]
        jobs += [
            (f"focus_two_user_D{spacing}_t{k}.csv", tgt, other, spacing)
            for spacing in scenario.d_values
            for k, (tgt, other) in enumerate(((first, second), (second, first)))
        ]

    reports: list[FocusingReport] = []
    for _, target, other, spacing in jobs:
        try:
            reports.append(focusing_report(ensemble, target, other, spacing))
        except (ConfigurationError, DomainError) as exc:
            raise type(exc)(
                f"focusing at target index {target} (spacing {spacing}): {exc}"
            ) from exc
    if out_dir is not None:
        for (name, *_), report in zip(jobs, reports):
            focusing_report_to_csv(report, Path(out_dir) / name)
    return reports


def run_sounding_study(
    scenario: Scenario,
    out_dir: str | Path | None = None,
    tb_values: tuple[int, ...] = (100, 1000, 10000),
) -> list[tuple[int, float, float]]:
    """Channel-estimation error vs time-bandwidth product.

    For each TB value the probe chirp lasts ``TB / bandwidth`` seconds; the
    normalized error ``||est - true|| / ||true||`` toward the first target
    is reported as a median over the scenario's trials, once noiseless and
    once at the scenario's probe SNR (20 dB when sounding is "genie").
    Returns (tb, probe_snr_db, median_error) rows and writes
    ``sounding_error.csv`` when ``out_dir`` is given.
    """
    probe_snr = (
        scenario.sounding.probe_snr_db if scenario.sounding is not None else 20.0
    )
    snr_points = [math.inf]
    if not math.isinf(probe_snr):
        snr_points.append(probe_snr)
    target = scenario.target_indices[0]

    truths = [
        scenario.ensemble_for_trial(trial).cirs[target] for trial in range(scenario.trials)
    ]
    rows: list[tuple[int, float, float]] = []
    for tb in tb_values:
        duration = tb / scenario.cavity.bandwidth_hz
        chirp = sounding_chirp(scenario.cavity, SoundingConfig(duration_s=duration))
        for snr_db in snr_points:
            errors = []
            for trial, truth in enumerate(truths):
                cfg = SoundingConfig(
                    duration_s=duration,
                    probe_snr_db=snr_db,
                    rng_seed=derive_seed(scenario.master_seed, _STREAM_SOUNDING, trial, target),
                )
                estimate = sound_cir(truth, cfg, chirp)
                errors.append(
                    float(np.linalg.norm(estimate.taps - truth.taps) / np.linalg.norm(truth.taps))
                )
            rows.append((tb, float(snr_db), float(np.median(errors))))

    if out_dir is not None:
        write_csv(
            Path(out_dir) / "sounding_error.csv", ["tb", "probe_snr_db", "normalized_error"], rows
        )
    return rows
