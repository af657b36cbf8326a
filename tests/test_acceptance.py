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

from conftest import energy, measure_focusing
from oracles import tr_kernel, tr_precode
from trlink.channel import CavityParams, SoundingConfig, sound_cir, synth_cavity_ensemble
from trlink.cli import main as cli_main
from trlink.dsp import convolve, make_chirp, xcorr
from trlink.harness import grid_positions, load_scenario, run_ber_sweep
from trlink.precoding import focusing_report, propagate, pulse_responses

UNIT_PULSE = np.ones((1, 1), dtype=complex)
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


def _ensemble_cir(seed: int, num_taps: int = 256):
    params = CavityParams(num_taps=num_taps, rng_seed=seed)
    return synth_cavity_ensemble(params, [0.0]).taps[0]


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
        [received] = propagate(waveform, cir[None])
        peak_idx = int(np.argmax(np.abs(received)))
        aligned &= peak_idx == cir.size - 1
        expected = math.sqrt(energy(cir))
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
        cirs = ensemble.taps
        rng = np.random.default_rng(10_000 + seed)
        symbols = np.stack([
            rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)
            for _ in range(2)
        ])
        waveform = tr_precode(symbols, cirs, spacing)
        for j, received in enumerate(propagate(waveform, cirs)):
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
    truth = synth_cavity_ensemble(params, [0.0]).taps[0]
    cfg = SoundingConfig(duration_s=100 / bandwidth)
    chirp = make_chirp(bandwidth, cfg.duration_s)
    assert len(chirp) == 100  # time-bandwidth product
    [estimate] = sound_cir(truth[None], cfg, [0], bandwidth)
    error = float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
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


def test_criterion_12_closed_form_focusing_moments():
    """Energy-weighted focusing statistics against their exact ensemble means.

    The synthetic taps are ``h_p[l] = sqrt(p_l) (W S)_{lp}``: independent
    across taps and circular Gaussian across positions, with ``E[h_p[l]
    conj(h_q[l])] = p_l C_pq`` for the diffuse-field kernel ``C``. Weighting
    each report quantity by the energy of the channel that normalised it
    makes its mean exact by Isserlis' theorem, with ``r(m) = sum_k p_k
    p_{k+|m|}``:

    * ``E[E_t] = 1``, and ``peak_amplitude**2 = E_t`` in every draw;
    * ``E[E_t isi_self_power] = E[E_o isi_other_power] = sum r(m)`` over the
      slot lags ``m = jD``, ``j != 0``;
    * ``E[E_o iui_power] = sum p**2 + C(d)**2`` with ``C(d) = sinc(2d/lambda)``;
    * ``E[E_t sum_{m=1..16} |K_tt(m)|**2] = sum_{m=1..16} r(m)``, the PDP's
      own signature near the peak.

    The PDP and ``C(d)`` are computed here from the model, not read from the
    code under test. Each statistic is one value per seed (a seed's lags are
    correlated, so they are summed before any z-score is taken).
    """
    start = time.monotonic()
    scenario = load_scenario(SCENARIO_DIR / "two_user.json")
    cavity, positions = scenario.cavity, scenario.positions_mm
    target, other = scenario.target_indices
    num_taps = cavity.num_taps
    # the default decay time L / (3B) is L / 3 taps
    pdp = np.exp(-3.0 * np.arange(num_taps) / num_taps)
    pdp /= pdp.sum()
    r = np.array([np.dot(pdp[: num_taps - m], pdp[m:]) for m in range(num_taps)])
    separation = abs(float(positions[other] - positions[target]))
    correlation = np.sinc(2.0 * separation / (1e3 * 299_792_458.0 / cavity.carrier_freq_hz))
    near = np.arange(1, 17)
    expected = {
        "energy": 1.0,
        "iui": float(np.sum(pdp**2) + correlation**2),
        "near-lag": float(r[near].sum()),
    }
    for spacing in scenario.d_values:
        slots = 2.0 * float(r[spacing::spacing].sum())
        expected[f"isi_self D={spacing}"] = expected[f"isi_other D={spacing}"] = slots

    samples: dict[str, list[float]] = {name: [] for name in expected}
    worst_peak = 0.0
    for seed in range(400):
        ensemble = synth_cavity_ensemble(replace(cavity, rng_seed=seed), positions)
        e_t, e_o = energy(ensemble.taps[target]), energy(ensemble.taps[other])
        fields = pulse_responses(ensemble.taps, ensemble.taps[[target, other]])
        samples["energy"].append(e_t)
        near_power = float(np.sum(np.abs(fields[target, 0, num_taps - 1 + near]) ** 2))
        samples["near-lag"].append(e_t * near_power)
        jobs = [(0, 1, spacing) for spacing in scenario.d_values]
        reports = focusing_report(ensemble, fields, [target, other], jobs)
        for spacing, report in zip(scenario.d_values, reports):
            worst_peak = max(worst_peak, abs(report.peak_amplitude**2 - e_t) / e_t)
            samples[f"isi_self D={spacing}"].append(e_t * report.isi_self_power)
            samples[f"isi_other D={spacing}"].append(e_o * report.isi_other_power)
        samples["iui"].append(e_o * report.iui_power)

    z = {}
    for name, values in samples.items():
        values = np.asarray(values)
        z[name] = (values.mean() - expected[name]) / (values.std(ddof=1) / math.sqrt(values.size))
    worst = max(z, key=lambda name: abs(z[name]))
    elapsed = time.monotonic() - start
    ok = abs(z[worst]) <= 4.0 and worst_peak <= 1e-9
    detail = f"max |z|={abs(z[worst]):.2f} ({worst}), peak rel err={worst_peak:.1e}"
    detail += f", {elapsed:.2f}s"
    _report(12, "closed-form focusing moments", ok, detail)
    assert worst_peak <= 1e-9
    assert abs(z[worst]) <= 4.0, z


def test_criterion_13_sounding_error_law():
    """Chirp-sounding error against its closed-form law over 400 seeds.

    For the ``n``-sample chirp's ``(n + L - 1, L)`` convolution matrix
    ``C``, of energy ``E``, and receiver noise ``w ~ CN(0, sigma^2 I)``, the
    least-squares error is ``e = G^-1 C^H w / E`` with ``G = C^H C / E``, so
    ``Cov(e) = (sigma^2 / E) G^-1`` (Kay, *Fundamentals of Statistical
    Signal Processing: Estimation Theory*, ch. 4, the linear model). With
    ``lambda_k`` the eigenvalues of ``G^-1`` (which ``chirp_gram``'s real
    Toeplitz ``S`` shares, since ``G = D S D^H`` for a unitary ``D``),
    ``x = ||e||^2 E / sigma^2`` is ``sum_k lambda_k |z_k|^2`` for iid
    ``z_k ~ CN(0, 1)``:

    * ``E[x] = tr(S^-1) = sum lambda`` and ``Var[x] = ||S^-1||_F^2 = sum lambda**2``;
    * ``Var[(x - E[x])**2] = 6 sum lambda**4 + 2 (sum lambda**2)**2``.

    ``C^H C`` and each row's probe power ``||C h||^2 / (n + L - 1)``, which
    sets ``sigma^2`` at the probe SNR, are computed here from the chirp by
    direct sums, not by the code under test. Each seed gives one ``x``; one
    z for the mean and one for the variance per time-bandwidth product.
    """
    start = time.monotonic()
    bandwidth, num_taps, snr_db, seeds = 4e9, 256, 30.0, 400
    truths = np.stack([_ensemble_cir(seed, num_taps) for seed in range(seeds)])
    lag = np.subtract.outer(np.arange(num_taps), np.arange(num_taps))
    z = {}
    for tb in (100, 1000, 10_000):
        duration = tb / bandwidth
        chirp = make_chirp(bandwidth, duration)
        n = chirp.size
        # (C^H C)[r, c] is the chirp's autocorrelation at lag r - c
        acf = np.zeros(num_taps, dtype=complex)
        for k in range(min(n, num_taps)):
            acf[k] = np.vdot(chirp[: n - k], chirp[k:])
        gram = np.where(lag >= 0, acf[np.abs(lag)], np.conj(acf[np.abs(lag)]))
        chirp_energy = acf[0].real
        power = np.sum((truths.conj() @ gram) * truths, axis=1).real / (n + num_taps - 1)
        sigma2 = power / 10.0 ** (snr_db / 10.0)
        cfg = SoundingConfig(duration, snr_db)
        errors = sound_cir(truths, cfg, range(10_000, 10_000 + seeds), bandwidth) - truths
        x = np.sum(np.abs(errors) ** 2, axis=1) * chirp_energy / sigma2
        lam = 1.0 / np.linalg.eigvalsh(gram / chirp_energy)
        m1, m2, m4 = lam.sum(), np.sum(lam**2), np.sum(lam**4)
        z[f"mean TB={tb}"] = (x.mean() - m1) / math.sqrt(m2 / seeds)
        spread = math.sqrt((6.0 * m4 + 2.0 * m2**2) / seeds)
        z[f"variance TB={tb}"] = (np.mean((x - m1) ** 2) - m2) / spread
    worst = max(z, key=lambda name: abs(z[name]))
    elapsed = time.monotonic() - start
    ok = abs(z[worst]) <= 4.0
    _report(13, "sounding error law", ok, f"max |z|={abs(z[worst]):.2f} ({worst}), {elapsed:.2f}s")
    assert abs(z[worst]) <= 4.0, z
