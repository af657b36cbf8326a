"""Cavity ensemble statistics, sounding fidelity, ensemble import/export."""

import math
from dataclasses import replace

import numpy as np
import pytest

import trlink.channel as channel
from trlink.channel import (
    CavityParams,
    Cir,
    SoundingConfig,
    SpatialChannelEnsemble,
    check_positions,
    export_ensemble,
    grid_index,
    load_ensemble,
    sound_cir,
    synth_cavity_ensemble,
)
from trlink.dsp import NUMERIC_RTOL, _fast_len, complex_noise, make_chirp
from trlink.errors import ConfigurationError, DomainError
from trlink.harness import grid_positions


class TestCavityParams:
    def test_default_decay_covers_most_of_the_window(self):
        params = CavityParams(num_taps=256, bandwidth_hz=4e9)
        assert params.decay_time_s == pytest.approx(256 / (3 * 4e9))

    def test_wavelength_at_default_carrier(self):
        params = CavityParams()
        assert params.wavelength_mm == pytest.approx(1.0957, rel=1e-3)

    def test_correlation_vanishes_at_half_wavelength(self):
        params = CavityParams()
        assert abs(params.spatial_correlation(params.wavelength_mm / 2)) < 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_taps": 0},
            {"bandwidth_hz": -1.0},
            {"carrier_freq_hz": 0.0},
            {"decay_time_s": -1e-9},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            CavityParams(**kwargs)


class TestEnsembleSynthesis:
    def test_regular_grid_has_42_positions_sharing_length(self):
        positions = grid_positions(-6.2, 6.2, 0.3)
        assert positions.size == 42
        params = CavityParams(num_taps=8, rng_seed=5)
        ensemble = synth_cavity_ensemble(params, positions)
        assert len(ensemble) == 42
        assert {c.num_taps for c in ensemble.cirs} == {8}

    def test_deterministic_given_seed(self):
        params = CavityParams(num_taps=32, rng_seed=77)
        positions = [-0.6, 0.0, 0.9]
        first = synth_cavity_ensemble(params, positions)
        second = synth_cavity_ensemble(params, positions)
        for x, y in zip(first.cirs, second.cirs):
            assert np.array_equal(x.taps, y.taps)

    def test_every_cir_has_positive_energy(self):
        for seed in range(200):
            params = CavityParams(num_taps=16, rng_seed=seed)
            ensemble = synth_cavity_ensemble(params, [0.0, 0.5])
            assert all(c.energy > 0 for c in ensemble.cirs)

    def test_rejects_non_increasing_positions(self):
        params = CavityParams(num_taps=4)
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            synth_cavity_ensemble(params, [0.0, 0.0])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            synth_cavity_ensemble(params, [1.0, -1.0])

    def test_flat_profile_when_decay_is_infinite(self):
        # ensemble-averaged tap power must be flat within 5% over 1e4 seeds
        num_taps, seeds = 16, 10_000
        acc = np.zeros(num_taps)
        for seed in range(seeds):
            params = CavityParams(
                num_taps=num_taps, decay_time_s=math.inf, rng_seed=seed
            )
            ensemble = synth_cavity_ensemble(params, [0.0])
            acc += np.abs(ensemble.cirs[0].taps) ** 2
        mean_power = acc / seeds
        expected = 1.0 / num_taps
        assert np.all(np.abs(mean_power - expected) <= 0.05 * expected)

    def test_exponential_profile_fit(self):
        # log of the ensemble-averaged tap power is linear in the tap index
        # with R^2 >= 0.99 over 1e4 realisations
        num_taps, seeds = 64, 10_000
        acc = np.zeros(num_taps)
        for seed in range(seeds):
            params = CavityParams(num_taps=num_taps, bandwidth_hz=4e9, rng_seed=seed)
            ensemble = synth_cavity_ensemble(params, [0.0])
            acc += np.abs(ensemble.cirs[0].taps) ** 2
        log_power = np.log(acc / seeds)
        idx = np.arange(num_taps)
        slope, intercept = np.polyfit(idx, log_power, 1)
        fitted = slope * idx + intercept
        ss_res = np.sum((log_power - fitted) ** 2)
        ss_tot = np.sum((log_power - log_power.mean()) ** 2)
        r_squared = 1.0 - ss_res / ss_tot
        assert r_squared >= 0.99
        params = CavityParams(num_taps=num_taps, bandwidth_hz=4e9)
        assert slope == pytest.approx(-1.0 / (params.bandwidth_hz * params.decay_time_s), rel=0.05)

    @pytest.mark.parametrize("distance_mm", [None, 0.3])
    def test_cross_position_correlation_follows_kernel(self, distance_mm):
        # empirical tap correlation at distance d matches sinc(2*pi*d/lambda);
        # d = lambda/2 (the None case) is the zero crossing
        params0 = CavityParams(num_taps=16)
        d_mm = params0.wavelength_mm / 2 if distance_mm is None else distance_mm
        expected = params0.spatial_correlation(d_mm)
        cross = 0.0 + 0.0j
        p1 = p2 = 0.0
        for seed in range(10_000):
            params = CavityParams(num_taps=16, rng_seed=seed)
            ensemble = synth_cavity_ensemble(params, [0.0, d_mm])
            taps1, taps2 = ensemble.cirs[0].taps, ensemble.cirs[1].taps
            cross += np.sum(taps1 * np.conj(taps2))
            p1 += np.sum(np.abs(taps1) ** 2)
            p2 += np.sum(np.abs(taps2) ** 2)
        corr = cross / np.sqrt(p1 * p2)
        assert corr.real == pytest.approx(expected, abs=0.03)
        assert abs(corr.imag) <= 0.03


class TestEnsembleType:
    def test_rejects_mixed_tap_counts(self):
        a = Cir(np.ones(4))
        b = Cir(np.ones(5))
        with pytest.raises(ConfigurationError):
            SpatialChannelEnsemble(np.array([0.0, 1.0]), (a, b), CavityParams(num_taps=4))

    def test_grid_index_requires_on_grid_position(self):
        params = CavityParams(num_taps=4, rng_seed=3)
        ensemble = synth_cavity_ensemble(params, [0.0, 0.3, 0.6])
        assert grid_index(ensemble.positions_mm, 0.3) == 1
        assert grid_index(ensemble.positions_mm, 0.3 + 0.5 * channel.POSITION_TOL_MM) == 1
        with pytest.raises(ConfigurationError, match="target 0.1 mm"):
            grid_index(ensemble.positions_mm, 0.1, "target")

    def test_grid_index_at_extreme_positions(self):
        # the two positions are 2e308 apart, past the largest double
        positions = np.array([-1e308, 1e308])
        assert grid_index(positions, -1e308) == 0
        assert grid_index(positions, 1e308) == 1
        with pytest.raises(ConfigurationError, match="not on the position grid"):
            grid_index(positions, 0.0)


def _synth_cir(seed: int, num_taps: int, bandwidth: float = 4e9) -> Cir:
    params = CavityParams(num_taps=num_taps, bandwidth_hz=bandwidth, rng_seed=seed)
    return synth_cavity_ensemble(params, [0.0]).cirs[0]


def _estimate_error(true_cir: Cir, cfg: SoundingConfig, bandwidth: float = 4e9) -> float:
    [estimate] = sound_cir([true_cir], [cfg], bandwidth)
    return float(
        np.linalg.norm(estimate.taps - true_cir.taps) / np.linalg.norm(true_cir.taps)
    )


class TestSounding:
    def test_zero_channel_yields_zero_estimate(self):
        dead = Cir(np.zeros(32))
        cfg = SoundingConfig(duration_s=128 / 4e9)
        [estimate] = sound_cir([dead], [cfg], 4e9)
        assert estimate.energy == 0.0

    def test_noiseless_high_tb_recovers_channel(self):
        cir = _synth_cir(11, 64)
        cfg = SoundingConfig(duration_s=128 / 4e9)
        assert _estimate_error(cir, cfg) <= 1e-9

    def test_noiseless_recovery_across_three_decades(self):
        cir = _synth_cir(12, 64)
        for tb in (100, 1000, 10000):
            cfg = SoundingConfig(duration_s=tb / 4e9)
            assert _estimate_error(cir, cfg) <= 1e-9

    def test_noisy_error_decreases_with_time_bandwidth(self):
        medians = []
        for tb in (100, 1000, 10000):
            errors = []
            for seed in range(15):
                cir = _synth_cir(100 + seed, 64)
                cfg = SoundingConfig(duration_s=tb / 4e9, probe_snr_db=20.0, rng_seed=seed)
                errors.append(_estimate_error(cir, cfg))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 1e308])
    def test_rejects_snr_outside_the_power_ratios(self, snr_db):
        # 10**(q/10) overflows or underflows to 0; sound_cir would then
        # raise OverflowError or ZeroDivisionError mid-run
        with pytest.raises(ConfigurationError, match="sounding.snr_db"):
            SoundingConfig(1.0, snr_db)
        assert SoundingConfig(1.0, math.inf).probe_snr_db == math.inf
        assert SoundingConfig(1.0, -3000.0).probe_snr_db == -3000.0

    @pytest.mark.parametrize("duration_s", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_duration_that_is_not_finite_and_positive(self, duration_s):
        with pytest.raises(ConfigurationError, match="duration_s"):
            SoundingConfig(duration_s)

    def test_rejects_short_chirp(self):
        cir = _synth_cir(1, 8)
        cfg = SoundingConfig(duration_s=1 / 4e9)
        with pytest.raises(ConfigurationError, match="need at least 2"):
            sound_cir([cir], [cfg], 4e9)

    def test_rejects_a_chirp_just_past_the_cap(self):
        cir = _synth_cir(1, 8)
        cfg = SoundingConfig(duration_s=1_000_001 / 4e9)
        with pytest.raises(ConfigurationError, match="the cap is 1000000"):
            sound_cir([cir], [cfg], 4e9)


def _mixed_batch(
    num_taps: int, chirp_len: int
) -> tuple[list[Cir], list[SoundingConfig]]:
    """Noiseless and noisy rows, one truth sounded three times and a dead
    channel, all with a ``chirp_len``-sample chirp at 4 GHz."""
    first, second = _synth_cir(31, num_taps), _synth_cir(32, num_taps)
    dead = Cir(np.zeros(num_taps))
    rows = [
        (first, math.inf, 0),
        (first, 20.0, 1),
        (second, 10.0, 2),
        (dead, 20.0, 3),
        (first, 20.0, 4),
        (second, math.inf, 5),
    ]
    cirs = [cir for cir, _, _ in rows]
    cfgs = [SoundingConfig(chirp_len / 4e9, snr_db, rng_seed=seed) for _, snr_db, seed in rows]
    return cirs, cfgs


# (num_taps, chirp samples): chirps both shorter and longer than the
# response, and one whose received length n + L - 1 = 80 is itself a fast
# transform length, so sounding transforms at exactly n + L - 1 samples
BATCH_SHAPES = [(1, 2), (1, 100), (64, 16), (64, 200), (65, 16)]


def _least_squares_estimate(cir: Cir, cfg: SoundingConfig, chirp: np.ndarray) -> np.ndarray:
    """The sounding estimate from the dense convolution matrix of the chirp."""
    n, num_taps = chirp.size, cir.num_taps
    conv = np.zeros((n + num_taps - 1, num_taps), dtype=np.complex128)
    for l in range(num_taps):
        conv[l : l + n, l] = chirp
    received = conv @ cir.taps
    rx_power = float(np.mean(np.abs(received) ** 2))
    if not (math.isinf(cfg.probe_snr_db) or rx_power == 0.0):
        sigma = math.sqrt(rx_power / 10.0 ** (cfg.probe_snr_db / 10.0))
        received = received + complex_noise(received.size, sigma, cfg.rng_seed)
    return np.linalg.lstsq(conv, received, rcond=None)[0]


class TestSoundingBatch:
    @pytest.mark.parametrize("num_taps, chirp_len", BATCH_SHAPES)
    def test_each_row_matches_its_singleton_call(self, num_taps, chirp_len):
        cirs, cfgs = _mixed_batch(num_taps, chirp_len)
        for cir, cfg, estimate in zip(cirs, cfgs, sound_cir(cirs, cfgs, 4e9)):
            [single] = sound_cir([cir], [cfg], 4e9)
            error = np.linalg.norm(estimate.taps - single.taps)
            assert error <= NUMERIC_RTOL * np.linalg.norm(single.taps)

    @pytest.mark.parametrize("num_taps, chirp_len", BATCH_SHAPES)
    def test_rows_match_the_dense_least_squares_oracle(self, num_taps, chirp_len):
        cirs, cfgs = _mixed_batch(num_taps, chirp_len)
        chirp = make_chirp(4e9, chirp_len / 4e9)
        for cir, cfg, estimate in zip(cirs, cfgs, sound_cir(cirs, cfgs, 4e9)):
            reference = _least_squares_estimate(cir, cfg, chirp)
            error = np.linalg.norm(estimate.taps - reference)
            assert error <= NUMERIC_RTOL * np.linalg.norm(reference)

    @pytest.mark.parametrize("num_taps, chirp_len", BATCH_SHAPES)
    def test_noiseless_rows_recover_the_truth(self, num_taps, chirp_len):
        cirs, cfgs = _mixed_batch(num_taps, chirp_len)
        estimates = sound_cir(cirs, cfgs, 4e9)
        for cir, cfg, estimate in zip(cirs, cfgs, estimates):
            if cir.energy == 0:
                assert estimate.energy == 0.0
            elif math.isinf(cfg.probe_snr_db):
                error = np.linalg.norm(estimate.taps - cir.taps) / np.linalg.norm(cir.taps)
                assert error <= 1e-9

    @pytest.mark.parametrize("num_taps, chirp_len", BATCH_SHAPES)
    def test_estimates_do_not_depend_on_the_block_size(self, monkeypatch, num_taps, chirp_len):
        cirs, cfgs = _mixed_batch(num_taps, chirp_len)
        one_block = sound_cir(cirs, cfgs, 4e9)
        # the longer of the lag-domain and the received transform lengths
        widest = max(_fast_len(3 * num_taps - 2), _fast_len(chirp_len + num_taps - 1))
        # one row per block, then two and three rows per block
        for budget in (1, 2 * widest, 3 * widest):
            monkeypatch.setattr(channel, "_BLOCK_SAMPLES", budget)
            blocked = sound_cir(cirs, cfgs, 4e9)
            for x, y in zip(blocked, one_block):
                assert np.array_equal(x.taps, y.taps)

    def test_rejects_malformed_batches(self):
        cirs, cfgs = _mixed_batch(8, 32)
        with pytest.raises(DomainError):
            sound_cir([], [], 4e9)
        with pytest.raises(ConfigurationError):
            sound_cir(cirs, cfgs[:-1], 4e9)
        with pytest.raises(ConfigurationError):
            sound_cir([cirs[0], _synth_cir(33, 9)], cfgs[:2], 4e9)
        # a bandwidth at which the chirp holds one sample
        with pytest.raises(ConfigurationError, match="need at least 2"):
            sound_cir(cirs, cfgs, 1 / cfgs[0].duration_s)
        with pytest.raises(ConfigurationError, match="share one duration_s"):
            sound_cir(cirs[:2], [cfgs[0], replace(cfgs[1], duration_s=64 / 4e9)], 4e9)


def _dense_chirp_gram(num_taps: int, chirp_len: int) -> np.ndarray:
    """``C^H C / E`` for the dense convolution matrix ``C`` of a 4 GHz chirp."""
    chirp = make_chirp(4e9, chirp_len / 4e9)
    conv = np.zeros((chirp_len + num_taps - 1, num_taps), dtype=np.complex128)
    for l in range(num_taps):
        conv[l : l + chirp_len, l] = chirp
    return conv.conj().T @ conv / np.sum(np.abs(chirp) ** 2)


class TestToeplitzSolve:
    """The real-arithmetic solve of the folded Gram against the complex dense solve."""

    @pytest.mark.parametrize("num_taps", [1, 2, 3, 4, 5, 64, 65, 256, 257])
    @pytest.mark.parametrize("chirp_scale", ["shorter", "longer"])
    def test_matches_the_dense_complex_solve(self, num_taps, chirp_scale):
        # chirps with n < L (n >= 2, so n = 2 for one tap) and with n >> L
        chirp_len = max(2, num_taps // 2) if chirp_scale == "shorter" else 10 * num_taps + 3
        gram = _dense_chirp_gram(num_taps, chirp_len)
        rng = np.random.default_rng(num_taps)
        rhs = rng.standard_normal((3, num_taps)) + 1j * rng.standard_normal((3, num_taps))
        # t[-(L - 1) .. -1] from the Gram's first row, t[0 .. L - 1] from its first column
        two_sided = np.concatenate((gram[0, :0:-1], gram[:, 0]))
        solved = channel._toeplitz_solve(two_sided, rhs)
        reference = np.linalg.solve(gram, rhs.T).T
        for x, y in zip(solved, reference):
            assert np.linalg.norm(x - y) <= NUMERIC_RTOL * np.linalg.norm(y)


class TestEnsembleExportImport:
    def test_round_trip_is_bit_exact(self, tmp_path):
        # decay_time_s=inf is written as the JSON literal Infinity
        for k, decay in enumerate((math.nan, math.inf)):
            params = CavityParams(num_taps=12, rng_seed=9, decay_time_s=decay)
            ensemble = synth_cavity_ensemble(params, [-0.3, 0.0, 0.3])
            json_path = tmp_path / f"ensemble{k}.json"
            export_ensemble(ensemble, json_path)
            loaded = load_ensemble(json_path)
            assert np.array_equal(loaded.positions_mm, ensemble.positions_mm)
            assert loaded.params == ensemble.params
            for x, y in zip(loaded.cirs, ensemble.cirs):
                assert np.array_equal(x.taps, y.taps)
        assert "Infinity" in json_path.read_text(encoding="utf-8")

    def test_positions_whose_difference_overflows_load(self, tmp_path):
        # neighbours are compared, not subtracted: 1e308 - (-1e308) overflows
        positions = [-1e308, 1e308]
        assert check_positions(positions).tolist() == positions
        cirs = (Cir(np.ones(2)), Cir(np.arange(2.0)))
        ensemble = SpatialChannelEnsemble(np.array(positions), cirs, CavityParams(num_taps=2))
        json_path = tmp_path / "extreme.json"
        export_ensemble(ensemble, json_path)
        assert load_ensemble(json_path).positions_mm.tolist() == positions

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_ensemble(tmp_path / "nope.json")

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/1"}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_ensemble(path)
