"""Cavity ensemble statistics, sounding fidelity, ensemble import/export."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trlink.channel as channel
from conftest import cir, energy, traced_peak
from oracles import ensemble_expression
from trlink.channel import (
    CavityParams,
    SoundingConfig,
    SpatialChannelEnsemble,
    check_positions,
    export_ensemble,
    grid_index,
    load_ensemble,
    sound_cir,
    synth_cavity_ensemble,
)
from trlink.dsp import (
    _CHIRP_BANDWIDTHS_HZ,
    NUMERIC_RTOL,
    _fast_len,
    chirp_gram,
    complex_noise,
    make_chirp,
)
from trlink.errors import ConfigurationError
from trlink.harness import SOUNDING_TB_VALUES, grid_positions, load_scenario


ROOT = Path(__file__).resolve().parents[1]


class TestCavityParams:
    def test_default_decay_covers_most_of_the_window(self):
        params = CavityParams(num_taps=256, bandwidth_hz=4e9)
        assert params.decay_time_s == pytest.approx(256 / (3 * 4e9))

    def test_wavelength_at_default_carrier(self):
        params = CavityParams()
        assert params.wavelength_mm == pytest.approx(1.0957, rel=1e-3)

    def test_correlation_vanishes_at_half_wavelength(self):
        params = CavityParams()
        half_wavelength = params.wavelength_mm / 2
        assert abs(channel._diffuse_correlation(half_wavelength, params.wavelength_mm)) < 1e-12

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

    @pytest.mark.parametrize("name", ["bandwidth_hz", "carrier_freq_hz"])
    def test_rejects_infinite_frequencies_by_name(self, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            CavityParams(**{name: math.inf})

    def test_refuses_a_negative_seed_by_name(self):
        # numpy's default_rng would refuse it only at the draw, with a bare ValueError
        with pytest.raises(ConfigurationError, match="^rng_seed must be >= 0, got -1"):
            CavityParams(rng_seed=-1)
        assert CavityParams(rng_seed=0).rng_seed == 0

    def test_infinite_decay_gives_a_flat_profile(self):
        params = CavityParams(num_taps=8, decay_time_s=math.inf)
        np.testing.assert_array_equal(params.power_delay_profile(), np.full(8, 1 / 8))

    def test_vanishing_decay_gives_the_one_tap_profile(self):
        # 4e9 * 1e-320 taps is subnormal: dividing the tap indices by it
        # overflowed, a RuntimeWarning (an error here) on the way to [1, 0, ...]
        params = CavityParams(num_taps=8, decay_time_s=1e-320)
        np.testing.assert_array_equal(params.power_delay_profile(), np.eye(1, 8)[0])

    # every chirp up to the sample cap has a finite phase at either edge
    # (TestMakeChirp); just past it, CavityParams refuses the bandwidth, and
    # so does an ensemble file that holds it
    @pytest.mark.parametrize("edge, past, side", [(0, 0.0, "small"), (1, math.inf, "large")])
    def test_refuses_a_bandwidth_just_past_either_chirp_edge(self, tmp_path, edge, past, side):
        inside = _CHIRP_BANDWIDTHS_HZ[edge]
        outside = float(np.nextafter(inside, past))
        assert CavityParams(bandwidth_hz=inside).bandwidth_hz == inside
        with pytest.raises(ConfigurationError, match=f"^bandwidth_hz .* is too {side}"):
            CavityParams(bandwidth_hz=outside)
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=4), [0.0])
        export_ensemble(ensemble, tmp_path / "ensemble.json")
        meta = json.loads((tmp_path / "ensemble.json").read_text(encoding="utf-8"))
        meta["bandwidth_hz"] = outside
        (tmp_path / "ensemble.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(
            ConfigurationError, match=f"^ensemble JSON ensemble.json: bandwidth_hz .* is too {side}"
        ):
            load_ensemble(tmp_path / "ensemble.json")

    def test_bandwidth_that_zeroes_the_default_decay_is_named(self):
        with pytest.raises(ConfigurationError, match=r"^bandwidth_hz 1e\+308 is too large"):
            CavityParams(bandwidth_hz=1e308)


class TestEnsembleSynthesis:
    def test_regular_grid_has_42_positions_sharing_length(self):
        positions = grid_positions(-6.2, 6.2, 0.3)
        assert positions.size == 42
        params = CavityParams(num_taps=8, rng_seed=5)
        ensemble = synth_cavity_ensemble(params, positions)
        assert len(ensemble.taps) == 42
        assert {row.size for row in ensemble.taps} == {8}

    def test_deterministic_given_seed(self):
        params = CavityParams(num_taps=32, rng_seed=77)
        positions = [-0.6, 0.0, 0.9]
        first = synth_cavity_ensemble(params, positions)
        second = synth_cavity_ensemble(params, positions)
        for x, y in zip(first.taps, second.taps):
            assert np.array_equal(x, y)

    def test_every_cir_has_positive_energy(self):
        for seed in range(200):
            params = CavityParams(num_taps=16, rng_seed=seed)
            ensemble = synth_cavity_ensemble(params, [0.0, 0.5])
            assert all(energy(row) > 0 for row in ensemble.taps)

    # one position, one tap, a flat profile and the focus grid's shape
    @pytest.mark.parametrize(
        "num_taps, num_positions, decay_time_s",
        [(16, 1, None), (1, 5, None), (8, 7, math.inf), (256, 43, None), (64, 42, math.inf)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_one_expression_bit_for_bit(self, num_taps, num_positions, decay_time_s, seed):
        decay = {} if decay_time_s is None else {"decay_time_s": decay_time_s}
        params = CavityParams(num_taps=num_taps, rng_seed=seed, **decay)
        positions = np.arange(num_positions) * 0.3 - 6.3
        taps = synth_cavity_ensemble(params, positions).taps
        assert taps.tobytes() == ensemble_expression(params, positions).tobytes()

    def test_the_kernel_root_squares_to_the_kernel(self):
        # 60 positions 0.05 mm apart oversample half a wavelength about
        # elevenfold: most eigenvalues are rounding-level, some below 0,
        # and the clipped root still squares to the kernel
        positions = np.arange(60) * 0.05
        wavelength_mm = CavityParams().wavelength_mm
        kernel = channel._diffuse_correlation(
            np.abs(positions[:, None] - positions[None, :]), wavelength_mm
        )
        assert np.linalg.eigvalsh(kernel).min() < 0.0
        root = channel._kernel_sqrt.__wrapped__(wavelength_mm, positions.tobytes())
        assert np.all(np.isfinite(root))
        assert np.max(np.abs(root @ root - kernel)) <= 1e-12

    def test_memory_is_a_small_multiple_of_the_taps(self):
        # the white field, the correlated taps and the ensemble's frozen
        # copy of them, each 16 P L bytes, and one real draw of half that;
        # a complex temporary per arithmetic step would hold five or more
        scenario = load_scenario(ROOT / "scenarios" / "focus_grid.json")
        params, positions = scenario.cavity, scenario.positions_mm
        taps_bytes = 16 * params.num_taps * positions.size
        peak = traced_peak(lambda: synth_cavity_ensemble(params, positions))
        assert peak <= 3.5 * taps_bytes

    def test_flat_profile_when_decay_is_infinite(self):
        # ensemble-averaged tap power must be flat within 5% over 1e4 seeds
        num_taps, seeds = 16, 10_000
        acc = np.zeros(num_taps)
        for seed in range(seeds):
            params = CavityParams(
                num_taps=num_taps, decay_time_s=math.inf, rng_seed=seed
            )
            ensemble = synth_cavity_ensemble(params, [0.0])
            acc += np.abs(ensemble.taps[0]) ** 2
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
            acc += np.abs(ensemble.taps[0]) ** 2
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
        expected = channel._diffuse_correlation(d_mm, params0.wavelength_mm)
        cross = 0.0 + 0.0j
        p1 = p2 = 0.0
        for seed in range(10_000):
            params = CavityParams(num_taps=16, rng_seed=seed)
            ensemble = synth_cavity_ensemble(params, [0.0, d_mm])
            taps1, taps2 = ensemble.taps[0], ensemble.taps[1]
            cross += np.sum(taps1 * np.conj(taps2))
            p1 += np.sum(np.abs(taps1) ** 2)
            p2 += np.sum(np.abs(taps2) ** 2)
        corr = cross / np.sqrt(p1 * p2)
        assert corr.real == pytest.approx(expected, abs=0.03)
        assert abs(corr.imag) <= 0.03


class TestEnsembleType:
    def test_cirs_are_built_from_the_rows_on_access(self):
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=6), [-0.3, 0.0, 0.3])
        cirs = ensemble.cirs
        assert len(cirs) == len(ensemble.taps)
        for row, built in zip(ensemble.taps, cirs):
            assert np.array_equal(built.taps, row)
            assert built.energy == energy(row)
            assert not built.taps.flags.writeable

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


class TestChannelBlock:
    """A channel set is checked once, where it enters: a file when it loads,
    a draw by what it is made of. The constructor only freezes a copy."""

    @pytest.mark.parametrize("num_taps", [1, 2, 256])
    @pytest.mark.parametrize("num_positions", [1, 2, 43])
    @pytest.mark.parametrize("seed, decay_time_s", [(0, math.nan), (1, math.nan), (2, math.inf)])
    def test_a_draw_is_a_finite_frozen_block(self, num_taps, num_positions, seed, decay_time_s):
        # finite normals times the finite kernel root and sqrt(PDP)
        params = CavityParams(num_taps=num_taps, rng_seed=seed, decay_time_s=decay_time_s)
        taps = synth_cavity_ensemble(params, np.arange(num_positions) * 0.3 - 6.3).taps
        assert taps.shape == (num_positions, num_taps) and taps.dtype == np.complex128
        assert taps.flags.c_contiguous and not taps.flags.writeable
        assert np.all(np.isfinite(taps))

    def test_block_is_a_frozen_c_contiguous_copy(self):
        source = np.asfortranarray(np.arange(6.0).reshape(2, 3) + 1j)
        ensemble = SpatialChannelEnsemble(np.array([0.0, 1.0]), source, CavityParams(num_taps=3))
        taps = ensemble.taps
        assert taps.dtype == np.complex128 and taps.flags.c_contiguous
        assert not taps.flags.writeable
        source[0, 0] = np.nan
        assert np.array_equal(taps, np.arange(6.0).reshape(2, 3) + 1j)

    @staticmethod
    def _exported(tmp_path) -> tuple:
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=4, rng_seed=2), [-0.3, 0.3])
        json_path = tmp_path / "ensemble.json"
        export_ensemble(ensemble, json_path)
        return json_path, json_path.with_suffix(".csv")

    def test_load_rejects_a_non_finite_tap(self, tmp_path):
        json_path, csv_path = self._exported(tmp_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["inf"])
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="line 2 has a non-finite cell"):
            load_ensemble(json_path)

    def test_load_rejects_responses_without_taps(self, tmp_path):
        json_path, _ = self._exported(tmp_path)
        meta = json.loads(json_path.read_text(encoding="utf-8"))
        json_path.write_text(json.dumps({**meta, "num_taps": 0}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="num_taps must be >= 1"):
            load_ensemble(json_path)

    @pytest.mark.parametrize("edit", ["drop", "repeat"])
    def test_load_rejects_a_row_count_off_the_positions(self, tmp_path, edit):
        json_path, csv_path = self._exported(tmp_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines = lines[:-1] if edit == "drop" else lines + lines[-1:]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows = 1 if edit == "drop" else 3
        with pytest.raises(ConfigurationError, match=f"{rows} rows for 2 positions"):
            load_ensemble(json_path)


class TestKernelRootMemo:
    """The spatial root is factorised once per (wavelength, positions)."""

    @staticmethod
    def _count_eigh(monkeypatch) -> list:
        calls = []
        real = np.linalg.eigh

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_a_second_draw_over_one_grid_factorises_nothing(self, monkeypatch):
        channel._kernel_sqrt.cache_clear()
        calls = self._count_eigh(monkeypatch)
        positions = grid_positions(-1.2, 1.2, 0.3)
        synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=1), positions)
        assert len(calls) == 1
        # another trial's seed, another tap count: the same grid and carrier
        synth_cavity_ensemble(CavityParams(num_taps=16, rng_seed=2), positions.copy())
        assert len(calls) == 1

    @pytest.mark.parametrize("change", ["carrier", "positions"])
    def test_a_new_carrier_or_grid_recomputes_the_root(self, monkeypatch, change):
        params, positions = CavityParams(num_taps=8, rng_seed=3), [-0.6, 0.0, 0.9]
        synth_cavity_ensemble(params, positions)
        if change == "carrier":
            params = replace(params, carrier_freq_hz=140e9)
        else:
            positions = [-0.6, 0.1, 0.9]
        calls = self._count_eigh(monkeypatch)
        drawn = synth_cavity_ensemble(params, positions)
        assert len(calls) == 1
        key = (params.wavelength_mm, np.array(positions).tobytes())
        root = channel._kernel_sqrt(*key)
        assert root.tobytes() == channel._kernel_sqrt.__wrapped__(*key).tobytes()
        channel._kernel_sqrt.cache_clear()
        fresh = synth_cavity_ensemble(params, positions)
        assert drawn.taps.tobytes() == fresh.taps.tobytes()

    def test_the_cached_root_is_read_only(self):
        positions = np.array([-0.3, 0.0, 0.3])
        root = channel._kernel_sqrt(CavityParams().wavelength_mm, positions.tobytes())
        assert not root.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            root[0, 0] = 0.0


def _synth_cir(seed: int, num_taps: int, bandwidth: float = 4e9) -> np.ndarray:
    params = CavityParams(num_taps=num_taps, bandwidth_hz=bandwidth, rng_seed=seed)
    return synth_cavity_ensemble(params, [0.0]).taps[0]


def _with_sounding(duration_s: float, probe_snr_db: float):
    """The shipped two-user scenario (4 GHz) with its ``sounding`` record replaced."""
    scenario = load_scenario(ROOT / "scenarios" / "two_user.json")
    return replace(scenario, sounding=SoundingConfig(duration_s, probe_snr_db))


def _estimate_error(
    true_cir: np.ndarray, cfg: SoundingConfig, seed: int = 0, bandwidth: float = 4e9
) -> float:
    [estimate] = sound_cir(true_cir[None], cfg, [seed], bandwidth)
    return float(
        np.linalg.norm(estimate - true_cir) / np.linalg.norm(true_cir)
    )


class TestSounding:
    def test_zero_channel_yields_zero_estimate(self):
        dead = cir(np.zeros(32))
        cfg = SoundingConfig(duration_s=128 / 4e9)
        [estimate] = sound_cir(dead[None], cfg, [0], 4e9)
        assert energy(estimate) == 0.0

    def test_noiseless_high_tb_recovers_channel(self):
        h = _synth_cir(11, 64)
        cfg = SoundingConfig(duration_s=128 / 4e9)
        assert _estimate_error(h, cfg) <= 1e-9

    def test_noiseless_recovery_across_three_decades(self):
        h = _synth_cir(12, 64)
        for tb in (100, 1000, 10000):
            cfg = SoundingConfig(duration_s=tb / 4e9)
            assert _estimate_error(h, cfg) <= 1e-9

    def test_noisy_error_decreases_with_time_bandwidth(self):
        medians = []
        for tb in (100, 1000, 10000):
            errors = []
            for seed in range(15):
                h = _synth_cir(100 + seed, 64)
                cfg = SoundingConfig(duration_s=tb / 4e9, probe_snr_db=20.0)
                errors.append(_estimate_error(h, cfg, seed))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_a_non_finite_tap(self, tmp_path, bad):
        # sound_cir trusts its taps: a sounded scenario whose ensemble file
        # holds a non-finite tap is refused when it loads
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=8, rng_seed=3), [-2.7, -1.8])
        export_ensemble(ensemble, tmp_path / "measured.json")
        csv_path = tmp_path / "measured.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[3:5] = [repr(complex(bad).real), repr(complex(bad).imag)]  # tap 1's re, im
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        scenario = json.loads((ROOT / "scenarios" / "two_user.json").read_text(encoding="utf-8"))
        del scenario["cavity"], scenario["grid_mm"]
        scenario.update(ensemble_file="measured.json", sounding={"duration_s": 16 / 4e9})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="line 3 has a non-finite cell"):
            load_scenario(path)

    # SoundingConfig is a plain record and sound_cir checks nothing: the
    # scenario that holds the record refuses it, for a 4 GHz cavity, on the
    # library path as at load
    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 1e308])
    def test_rejects_snr_outside_the_power_ratios(self, snr_db):
        # 10**(q/10) overflows or underflows to 0; sound_cir would then
        # raise OverflowError or ZeroDivisionError mid-run
        with pytest.raises(ConfigurationError, match="sounding.snr_db"):
            _with_sounding(1.0, snr_db)
        assert _with_sounding(64 / 4e9, math.inf).sounding.probe_snr_db == math.inf
        assert _with_sounding(64 / 4e9, -3000.0).sounding.probe_snr_db == -3000.0

    @pytest.mark.parametrize("duration_s", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_duration_that_is_not_finite_and_positive(self, duration_s):
        with pytest.raises(ConfigurationError, match="sounding.duration_s"):
            _with_sounding(duration_s, math.inf)

    def test_rejects_short_chirp(self):
        with pytest.raises(ConfigurationError, match="= 1 samples; a chirp holds 2 to 1000000"):
            _with_sounding(1 / 4e9, 20.0)

    def test_rejects_a_chirp_just_past_the_cap(self):
        with pytest.raises(ConfigurationError, match="= 1000001 samples; a chirp holds 2 to"):
            _with_sounding(1_000_001 / 4e9, 20.0)
        assert _with_sounding(1_000_000 / 4e9, 20.0).sounding.duration_s == 1_000_000 / 4e9


def _batches(
    num_taps: int, chirp_len: int
) -> list[tuple[np.ndarray, SoundingConfig, list[int]]]:
    """One ``(cirs, sounding, seeds)`` batch per probe SNR, all with a
    ``chirp_len``-sample chirp at 4 GHz: a noiseless batch, a noisy one
    with three noisy rows (one truth twice, around a dead channel, then the
    other truth), and a one-row noisy one. The first truth is sounded three
    times in all."""
    first, second = _synth_cir(31, num_taps), _synth_cir(32, num_taps)
    dead = cir(np.zeros(num_taps))
    batches = {
        math.inf: [(first, 0), (second, 5)],
        20.0: [(first, 1), (dead, 3), (first, 4), (second, 6)],
        10.0: [(second, 2)],
    }
    return [
        (np.stack([h for h, _ in rows]), SoundingConfig(chirp_len / 4e9, snr_db), [seed for _, seed in rows])
        for snr_db, rows in batches.items()
    ]


# (num_taps, chirp samples): chirps both shorter and longer than the
# response, and one whose received length n + L - 1 = 80 is itself a fast
# transform length, so sounding transforms at exactly n + L - 1 samples
BATCH_SHAPES = [(1, 2), (1, 100), (64, 16), (64, 200), (65, 16)]


def _least_squares_estimate(
    h: np.ndarray, cfg: SoundingConfig, seed: int, chirp: np.ndarray
) -> np.ndarray:
    """The sounding estimate from the dense convolution matrix of the chirp."""
    n, num_taps = chirp.size, h.size
    conv = np.zeros((n + num_taps - 1, num_taps), dtype=np.complex128)
    for l in range(num_taps):
        conv[l : l + n, l] = chirp
    received = conv @ h
    rx_power = float(np.mean(np.abs(received) ** 2))
    if not (math.isinf(cfg.probe_snr_db) or rx_power == 0.0):
        sigma = math.sqrt(rx_power / 10.0 ** (cfg.probe_snr_db / 10.0))
        received = received + complex_noise(received.size, sigma, seed)
    return np.linalg.lstsq(conv, received, rcond=None)[0]


class TestSoundingBatch:
    @pytest.mark.parametrize("num_taps, chirp_len", BATCH_SHAPES)
    def test_each_row_matches_its_singleton_call(self, num_taps, chirp_len):
        for cirs, cfg, seeds in _batches(num_taps, chirp_len):
            for h, seed, estimate in zip(cirs, seeds, sound_cir(cirs, cfg, seeds, 4e9)):
                [single] = sound_cir(h[None], cfg, [seed], 4e9)
                error = np.linalg.norm(estimate - single)
                assert error <= NUMERIC_RTOL * np.linalg.norm(single)

    # and a chirp of duration * bandwidth = 100.4, which the Gram's phase law reads unrounded
    @pytest.mark.parametrize("num_taps, chirp_len", [*BATCH_SHAPES, (64, 100.4)])
    def test_rows_match_the_dense_least_squares_oracle(self, num_taps, chirp_len):
        chirp = make_chirp(4e9, chirp_len / 4e9)
        for cirs, cfg, seeds in _batches(num_taps, chirp_len):
            for h, seed, estimate in zip(cirs, seeds, sound_cir(cirs, cfg, seeds, 4e9)):
                reference = _least_squares_estimate(h, cfg, seed, chirp)
                error = np.linalg.norm(estimate - reference)
                assert error <= NUMERIC_RTOL * np.linalg.norm(reference)

    @pytest.mark.parametrize("num_taps, chirp_len", BATCH_SHAPES)
    def test_noiseless_rows_recover_the_truth(self, num_taps, chirp_len):
        for cirs, cfg, seeds in _batches(num_taps, chirp_len):
            for h, estimate in zip(cirs, sound_cir(cirs, cfg, seeds, 4e9)):
                if energy(h) == 0:
                    assert energy(estimate) == 0.0
                elif math.isinf(cfg.probe_snr_db):
                    error = np.linalg.norm(estimate - h) / np.linalg.norm(h)
                    assert error <= 1e-9

    def test_memory_is_one_transform_row(self):
        # TB 10^4: each noisy row's noise transforms in one m-sample row,
        # m = _fast_len(10,255) = 10,290, which six more noisy rows reuse
        m = _fast_len(10_000 + 256 - 1)
        cfg = SoundingConfig(10_000 / 4e9, 20.0)
        cirs = np.stack([_synth_cir(41 + k, 256) for k in range(8)])
        peaks = [
            traced_peak(lambda rows=rows: sound_cir(cirs[:rows], cfg, list(range(rows)), 4e9))
            for rows in (2, 8)
        ]
        assert peaks[1] - peaks[0] < 16 * m

    def test_a_noiseless_batch_builds_no_chirp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a noiseless batch built the chirp or its Gram")

        monkeypatch.setattr(channel, "make_chirp", refuse)
        monkeypatch.setattr(channel, "chirp_gram", refuse)
        cirs, cfg, seeds = _batches(64, 200)[0]
        assert math.isinf(cfg.probe_snr_db)
        estimates = sound_cir(cirs, cfg, seeds, 4e9)
        assert not estimates.flags.writeable
        for h, estimate in zip(cirs, estimates):
            assert np.array_equal(estimate, h)


def _dense_chirp_gram(num_taps: int, chirp_len: float) -> np.ndarray:
    """``C^H C / E`` for the dense convolution matrix ``C`` of a 4 GHz chirp
    of duration ``chirp_len / 4e9`` (``chirp_len`` rounds to its samples)."""
    chirp = make_chirp(4e9, chirp_len / 4e9)
    conv = np.zeros((chirp.size + num_taps - 1, num_taps), dtype=np.complex128)
    for l in range(num_taps):
        conv[l : l + chirp.size, l] = chirp
    return conv.conj().T @ conv / np.sum(np.abs(chirp) ** 2)


def _closed_form_gram(lags: np.ndarray, phase_step: float) -> np.ndarray:
    """The dense ``G[r, c] = exp(1j * phase_step * (r - c)) * lags[|r - c|]``."""
    lag = np.arange(lags.size)
    offset = lag[:, None] - lag[None, :]
    return np.exp(1j * phase_step * offset) * lags[np.abs(offset)]


GRAM_TAPS = [1, 2, 3, 4, 5, 64, 65, 256, 257]


def _chirp_len(num_taps: int, chirp_scale: str) -> int:
    """Chirps with n < L (n >= 2, so n = 2 for one tap) and with n >> L."""
    return max(2, num_taps // 2) if chirp_scale == "shorter" else 10 * num_taps + 3


class TestChirpGram:
    """The closed-form Gram lags and phase law against the dense chirp Gram."""

    @staticmethod
    def _assert_matches_dense(num_taps: int, chirp_len: float) -> None:
        lags, phase_step = chirp_gram(4e9, chirp_len / 4e9, num_taps)
        assert lags.dtype == np.float64 and lags.shape == (num_taps,)
        gram = _dense_chirp_gram(num_taps, chirp_len)
        # the first column, then every entry: G[r, c] = exp(i step (r - c)) lags[|r - c|]
        first_column = np.exp(1j * phase_step * np.arange(num_taps)) * lags
        np.testing.assert_allclose(gram[:, 0], first_column, rtol=0, atol=1e-13)
        np.testing.assert_allclose(gram, _closed_form_gram(lags, phase_step), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("num_taps", GRAM_TAPS)
    @pytest.mark.parametrize("chirp_scale", ["shorter", "longer"])
    def test_matches_the_dense_gram(self, num_taps, chirp_scale):
        self._assert_matches_dense(num_taps, _chirp_len(num_taps, chirp_scale))

    @pytest.mark.parametrize("num_taps, chirp_len", [(64, 100.4), (257, 100.4), (257, 12345.6)])
    def test_phase_law_reads_the_unrounded_time_bandwidth(self, num_taps, chirp_len):
        # duration * bandwidth is not a whole number of samples; the lags
        # past the chirp's last sample are zero
        self._assert_matches_dense(num_taps, chirp_len)
        lags, _ = chirp_gram(4e9, chirp_len / 4e9, num_taps)
        n = round(chirp_len)
        assert np.all(lags[n:] == 0.0) and lags[0] == 1.0


class TestToeplitzSolve:
    """The two half-size real solves of the chirp Gram against the complex dense solve."""

    @pytest.mark.parametrize("num_taps", GRAM_TAPS)
    @pytest.mark.parametrize("chirp_scale", ["shorter", "longer"])
    def test_matches_the_dense_complex_solve(self, num_taps, chirp_scale):
        chirp_len = _chirp_len(num_taps, chirp_scale)
        gram = _dense_chirp_gram(num_taps, chirp_len)
        rng = np.random.default_rng(num_taps)
        rhs = rng.standard_normal((3, num_taps)) + 1j * rng.standard_normal((3, num_taps))
        lags, phase_step = chirp_gram(4e9, chirp_len / 4e9, num_taps)
        modulation = np.exp(1j * phase_step * np.arange(num_taps))
        solved = channel._toeplitz_solve(lags, modulation, rhs)
        reference = np.linalg.solve(gram, rhs.T).T
        for x, y in zip(solved, reference):
            assert np.linalg.norm(x - y) <= NUMERIC_RTOL * np.linalg.norm(y)

    @pytest.mark.parametrize("tb", SOUNDING_TB_VALUES)
    def test_recovers_the_focus_grid_truths_at_rounding_level(self, tb):
        # the sounding study's truths, toward the first target; noiseless
        # sounding no longer solves, so this holds the solve to its rounding
        scenario = load_scenario(ROOT / "scenarios" / "focus_grid.json")
        target = scenario.target_indices[0]
        truths = np.stack(
            [scenario.ensemble_for_trial(t).taps[target] for t in range(scenario.trials)]
        )
        num_taps = truths.shape[1]
        bandwidth = scenario.cavity.bandwidth_hz
        lags, phase_step = chirp_gram(bandwidth, tb / bandwidth, num_taps)
        modulation = np.exp(1j * phase_step * np.arange(num_taps))
        # the dense closed-form Gram: the solve must undo exactly this G
        gram = _closed_form_gram(lags, phase_step)
        solved = channel._toeplitz_solve(lags, modulation, (gram @ truths.T).T)
        for x, h in zip(solved, truths):
            assert np.linalg.norm(x - h) <= 1e-14 * np.linalg.norm(h)


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
            for x, y in zip(loaded.taps, ensemble.taps):
                assert np.array_equal(x, y)
        assert "Infinity" in json_path.read_text(encoding="utf-8")

    def test_a_csv_with_a_byte_order_mark_loads_bit_for_bit(self, tmp_path):
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=12, rng_seed=9), [-0.3, 0.3])
        json_path = tmp_path / "ensemble.json"
        export_ensemble(ensemble, json_path)
        csv_path = json_path.with_suffix(".csv")
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        loaded = load_ensemble(json_path)
        assert loaded.params == ensemble.params
        assert np.array_equal(loaded.positions_mm, ensemble.positions_mm)
        assert np.array_equal(loaded.taps, ensemble.taps)

    def test_positions_whose_difference_overflows_load(self, tmp_path):
        # neighbours are compared, not subtracted: 1e308 - (-1e308) overflows
        positions = [-1e308, 1e308]
        assert check_positions(positions).tolist() == positions
        cirs = (cir(np.ones(2)), cir(np.arange(2.0)))
        ensemble = SpatialChannelEnsemble(np.array(positions), cirs, CavityParams(num_taps=2))
        json_path = tmp_path / "extreme.json"
        export_ensemble(ensemble, json_path)
        assert load_ensemble(json_path).positions_mm.tolist() == positions

    def test_a_json_path_ending_in_csv_is_refused_before_writing(self, tmp_path):
        # the CSV would be written first and then overwritten by the JSON
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=4), [0.0, 0.3])
        with pytest.raises(ConfigurationError, match="its own CSV"):
            export_ensemble(ensemble, tmp_path / "pair.csv")
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_ensemble(tmp_path / "nope.json")

    def test_repeated_key_is_refused(self, tmp_path):
        # the last value would otherwise win: the ensemble would load at seed 1
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=4, rng_seed=5), [0.0, 0.3])
        json_path = tmp_path / "ensemble.json"
        export_ensemble(ensemble, json_path)
        text = json_path.read_text(encoding="utf-8")
        assert text.count('"rng_seed": 5') == 1
        json_path.write_text(text.replace('"rng_seed": 5', '"rng_seed": 5, "rng_seed": 1'), "utf-8")
        with pytest.raises(ConfigurationError, match="duplicate key 'rng_seed'"):
            load_ensemble(json_path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/1"}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_ensemble(path)
