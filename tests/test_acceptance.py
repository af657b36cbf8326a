"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or
``pytest -v`` via the test outcome) and asserts the criterion. Statistical
criteria run on synthetic cavity channels with fixed seeds.
"""

import filecmp
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import measure_focusing
from trlink.channel import CavityParams, SoundingConfig, sound_cir, synth_cavity_ensemble
from trlink.cli import main as cli_main
from trlink.dsp import convolve, make_chirp, xcorr
from trlink.harness import grid_positions, load_scenario, run_ber_sweep
from trlink.precoding import propagate, tr_kernel, tr_precode

UNIT_PULSE = np.ones((1, 1), dtype=complex)
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


def _ensemble_cir(seed: int, num_taps: int = 256):
    params = CavityParams(num_taps=num_taps, rng_seed=seed)
    return synth_cavity_ensemble(params, [0.0]).cirs[0]


def test_criterion_1_unit_pulse_energy_normalisation():
    start = time.monotonic()
    worst = 0.0
    for seed in range(1000):
        cir = _ensemble_cir(seed)
        waveform = tr_precode(UNIT_PULSE, [cir], 15)
        worst = max(worst, abs(float(np.sum(np.abs(waveform) ** 2)) - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "unit pulse energy", ok, f"max |err|={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_matched_peak_law():
    worst = 0.0
    aligned = True
    for seed in range(1000):
        cir = _ensemble_cir(seed)
        waveform = tr_precode(UNIT_PULSE, [cir], 15)
        [received] = propagate(waveform, [cir], 0.0)
        peak_idx = int(np.argmax(np.abs(received)))
        aligned &= peak_idx == cir.num_taps - 1
        expected = math.sqrt(cir.energy)
        worst = max(worst, abs(abs(received[peak_idx]) - expected) / expected)
    ok = aligned and worst <= 1e-9
    _report(2, "matched peak law", ok, f"max rel err={worst:.2e}")
    assert aligned
    assert worst <= 1e-9


def test_criterion_3_received_field_equals_kernel_expansion():
    worst = 0.0
    spacing, num_taps, num_symbols = 15, 128, 6
    for seed in range(100):
        params = CavityParams(num_taps=num_taps, rng_seed=seed)
        ensemble = synth_cavity_ensemble(params, [-0.45, 0.45])
        cirs = list(ensemble.cirs)
        rng = np.random.default_rng(10_000 + seed)
        symbols = np.stack([
            rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)
            for _ in range(2)
        ])
        waveform = tr_precode(symbols, cirs, spacing)
        for j, received in enumerate(propagate(waveform, cirs, 0.0)):
            expansion = np.zeros_like(received)
            for i in range(2):
                kernel = tr_kernel(cirs[j], cirs[i])
                for l, amplitude in enumerate(symbols[i]):
                    expansion[l * spacing : l * spacing + kernel.size] += amplitude * kernel
            scale = np.max(np.abs(received))
            worst = max(worst, float(np.max(np.abs(received - expansion)) / scale))
    ok = worst <= 1e-9
    _report(3, "received field equals kernel expansion", ok, f"max rel err={worst:.2e}")
    assert worst <= 1e-9


def test_criterion_4_temporal_focusing_width():
    start = time.monotonic()
    bandwidth = 4e9
    widths = []
    for seed in range(100):
        params = CavityParams(num_taps=256, bandwidth_hz=bandwidth, rng_seed=seed)
        ensemble = synth_cavity_ensemble(params, [0.0])
        report = measure_focusing(ensemble, 0, None, 15)
        widths.append(report.temporal_fwhm_s)
    median_width = float(np.median(widths))
    elapsed = time.monotonic() - start
    ok = median_width <= 2.0 / bandwidth and elapsed < 60.0
    _report(4, "temporal focusing", ok, f"median FWHM={median_width * 1e9:.3f} ns, {elapsed:.1f}s")
    assert median_width <= 2.0 / bandwidth
    assert elapsed < 60.0


def test_criterion_5_spatial_focusing_width():
    positions = grid_positions(-6.3, 6.3, 0.3)
    target = int(np.argmin(np.abs(positions - (-1.8))))
    widths = []
    for seed in range(100):
        params = CavityParams(num_taps=256, carrier_freq_hz=273.6e9, rng_seed=seed)
        ensemble = synth_cavity_ensemble(params, positions)
        report = measure_focusing(ensemble, target, None, 15)
        if report.spatial_fwhm_mm is not None:
            widths.append(report.spatial_fwhm_mm)
    assert len(widths) >= 50, "spatial width undefined in too many realisations"
    median_width = float(np.median(widths))
    ok = 0.35 <= median_width <= 0.8
    _report(5, "spatial focusing", ok, f"median FWHM={median_width:.3f} mm over {len(widths)} seeds")
    assert 0.35 <= median_width <= 0.8


def test_criterion_6_ber_improves_with_pulse_spacing():
    start = time.monotonic()
    scenario = load_scenario(SCENARIO_DIR / "two_user.json")
    scenario = replace(scenario, snr_grid_db=(15.0,))
    assert scenario.bits_per_point >= 10_000
    assert scenario.trials >= 10
    records = run_ber_sweep(scenario)
    elapsed = time.monotonic() - start
    ok = elapsed < 300.0
    details = []
    for scheme in ("rask", "erask"):
        medians = {
            d: float(np.median([r.ber for r in records if r.scheme == scheme and r.d == d]))
            for d in (5, 15, 30)
        }
        details.append(f"{scheme}: " + " > ".join(f"{medians[d]:.2e}" for d in (5, 15, 30)))
        ok = ok and medians[5] > medians[15] > medians[30]
    _report(6, "BER ordering in pulse spacing", ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok
    assert elapsed < 300.0


def test_criterion_7_two_user_separation_at_high_snr():
    scenario = load_scenario(SCENARIO_DIR / "two_user.json")
    scenario = replace(scenario, snr_grid_db=(30.0,), d_values=(30,))
    separation = scenario.target_positions_mm[1] - scenario.target_positions_mm[0]
    assert separation == pytest.approx(0.9)
    records = run_ber_sweep(scenario)
    ok = True
    details = []
    for scheme in ("rask", "erask"):
        median_ber = float(np.median([r.ber for r in records if r.scheme == scheme]))
        details.append(f"{scheme}: median BER={median_ber:.2e}")
        ok = ok and median_ber < 1e-2
    _report(7, "0.9 mm two-user separation", ok, "; ".join(details))
    assert ok


def test_criterion_8_dsp_oracles():
    rng = np.random.default_rng(808)
    worst_conv = worst_corr = 0.0
    for _ in range(250):
        n, m = rng.integers(1, 1025, 2)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        direct = np.convolve(a, b)
        err = np.max(np.abs(convolve(a, b) - direct)) / np.max(np.abs(direct))
        worst_conv = max(worst_conv, float(err))
    for _ in range(250):
        n, m = rng.integers(1, 1025, 2)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        direct = np.correlate(b, a, mode="full")
        err = np.max(np.abs(xcorr(a, b) - direct)) / np.max(np.abs(direct))
        worst_corr = max(worst_corr, float(err))
    ok = worst_conv <= 1e-9 and worst_corr <= 1e-9
    _report(8, "fast DSP vs direct summation", ok,
            f"conv={worst_conv:.2e}, corr={worst_corr:.2e} over 500 cases")
    assert worst_conv <= 1e-9
    assert worst_corr <= 1e-9


def test_criterion_9_sounding_fidelity_at_tb_100():
    bandwidth = 4e9
    params = CavityParams(num_taps=64, bandwidth_hz=bandwidth, rng_seed=909)
    truth = synth_cavity_ensemble(params, [0.0]).cirs[0]
    cfg = SoundingConfig(duration_s=100 / bandwidth)
    chirp = make_chirp(bandwidth, cfg.duration_s)
    assert len(chirp) == 100  # time-bandwidth product
    [estimate] = sound_cir([truth], [cfg], bandwidth)
    error = float(np.linalg.norm(estimate.taps - truth.taps) / np.linalg.norm(truth.taps))
    ok = error <= 0.01
    _report(9, "chirp sounding fidelity", ok, f"normalized error={error:.2e} at TB=100")
    assert error <= 0.01


def test_criterion_10_ber_runs_are_byte_identical(tmp_path):
    scenario = {
        "version": 1,
        "cavity": {"num_taps": 64, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11},
        "positions_mm": [-2.7, -1.8],
        "targets_mm": [-2.7, -1.8],
        "rsm": {
            "scheme": "both",
            "num_rx": 2,
            "threshold": {"policy": "pilot", "num_pilots": 16},
        },
        "d_values": [5, 15],
        "snr_grid_db": [10.0, 20.0],
        "bits_per_point": 300,
        "trials": 2,
        "sounding": "genie",
        "master_seed": 4242,
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out_a)]) == 0
    assert cli_main(["ber", "--scenario", str(scenario_path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert names == sorted(p.name for p in out_b.glob("*.csv"))
    assert names  # at least one CSV per (scheme, spacing)
    identical = all(
        filecmp.cmp(out_a / name, out_b / name, shallow=False) for name in names
    )
    _report(10, "byte-identical reruns", identical, f"{len(names)} CSV files compared")
    assert identical
