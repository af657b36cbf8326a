"""Precoding kernel, emission normalisation, propagation, focusing metrics."""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conftest import cir, complex_gaussian, energy, measure_focusing, random_cir
from oracles import read_at, received_signal, tr_kernel, tr_precode, window_lags
from trlink import precoding
from trlink.channel import (
    CavityParams,
    SoundingConfig,
    SpatialChannelEnsemble,
    export_ensemble,
    grid_index,
    load_ensemble,
    sound_cir,
    synth_cavity_ensemble,
)
from trlink.dsp import NUMERIC_RTOL, complex_noise, convolve
from trlink.errors import ConfigurationError
from trlink.harness import Scenario, _pilot_targets, grid_positions, run_focusing_experiment
from trlink.modem import PilotThreshold, RsmConfig, Scheme, erask_modulate, rask_modulate
from trlink.precoding import (
    full_width_half_max,
    propagate,
    pulse_responses,
    received_at,
)

UNIT_PULSE = np.ones((1, 1))


def kernel_expansion(symbols, cirs, spacing, receiver_index):
    """Received field assembled pulse by pulse from the correlation kernels."""
    num_taps = len(cirs[0])
    num_symbols = symbols.shape[1]
    out = np.zeros((num_symbols - 1) * spacing + 2 * num_taps - 1, dtype=complex)
    for row, h in zip(symbols, cirs):
        kernel = tr_kernel(cirs[receiver_index], h)
        for l, amplitude in enumerate(row):
            start = l * spacing
            out[start : start + kernel.size] += amplitude * kernel
    return out


class TestTrKernel:
    def test_single_tap(self):
        h = cir([1.0])
        kernel = tr_kernel(h, h)
        np.testing.assert_allclose(kernel, [1.0])
        assert kernel.size == 2 * h.size - 1

    def test_zero_lag_peak_is_root_energy(self):
        rng = np.random.default_rng(0)
        h = random_cir(rng, 64)
        peak = tr_kernel(h, h)[h.size - 1]
        assert abs(peak - math.sqrt(energy(h))) <= NUMERIC_RTOL * math.sqrt(energy(h))
        assert abs(peak.imag) <= NUMERIC_RTOL

    def test_autocorrelation_dominance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = random_cir(rng, 48)
            mags = np.abs(tr_kernel(h, h))
            assert mags.max() <= mags[h.size - 1] * (1 + 1e-12)

    def test_cross_kernel_statistics(self):
        # for independent flat channels E|R[0]|^2 is the receive energy over L,
        # and the cross peak stays below the matched peak essentially always
        rng = np.random.default_rng(2)
        num_taps, draws = 256, 1000
        zero_lag_power = np.empty(draws)
        dominated = 0
        for k in range(draws):
            h_i = random_cir(rng, num_taps)
            h_j = random_cir(rng, num_taps)
            cross = tr_kernel(h_j, h_i)
            matched = tr_kernel(h_i, h_i)
            zero_lag_power[k] = np.abs(cross[num_taps - 1]) ** 2
            if np.abs(cross).max() < matched[num_taps - 1].real:
                dominated += 1
        assert np.mean(zero_lag_power) == pytest.approx(1.0 / num_taps, rel=0.2)
        assert dominated / draws >= 0.99

    @pytest.mark.parametrize("num_taps", [1, 2, 64])
    def test_closed_form_equals_the_unit_pulse_chain(self, num_taps):
        # one pulse precoded and propagated is the full-signal chain behind
        # every K_ni; the correlation formula here must give the same field
        rng = np.random.default_rng(num_taps)
        h_i, h_j = random_cir(rng, num_taps), random_cir(rng, num_taps)
        for target, receiver in ((h_i, h_i), (h_i, h_j)):
            [chain] = propagate(tr_precode(UNIT_PULSE, [target], 1), receiver[None])
            kernel = tr_kernel(receiver, target)
            assert kernel.shape == chain.shape
            assert np.max(np.abs(kernel - chain)) <= NUMERIC_RTOL * np.max(np.abs(chain))
        # three receivers, two users (the second a sounded-like perturbation)
        true_cirs = np.stack([h_i, h_j, random_cir(rng, num_taps)])
        known_cirs = np.stack([h_j, h_i + 0.1 * random_cir(rng, num_taps)])
        kernels = pulse_responses(true_cirs, known_cirs)
        assert kernels.shape == (3, 2, 2 * num_taps - 1)
        for n, receiver in enumerate(true_cirs):
            for i, target in enumerate(known_cirs):
                kernel = tr_kernel(receiver, target)
                scale = np.max(np.abs(kernel))
                assert np.max(np.abs(kernels[n, i] - kernel)) <= NUMERIC_RTOL * scale

class TestPulseResponses:
    @pytest.mark.parametrize("num_taps", [1, 2, 64, 256])
    def test_equal_the_unit_pulse_chain_bit_for_bit(self, num_taps):
        # each column is built from the user's taps directly; it must equal
        # precoding one unit pulse toward that user and propagating it
        rng = np.random.default_rng(100 + num_taps)
        for case in range(5):
            true_taps = np.stack([random_cir(rng, num_taps) for _ in range(3)])
            known_taps = np.stack([random_cir(rng, num_taps) for _ in range(2)])
            if case % 2:
                # zero taps of both signs, and a dead receiver
                true_taps[0] = 0.0
                known_taps[:, rng.random(num_taps) < 0.5] = 0.0
                known_taps[:, rng.random(num_taps) < 0.3] = complex(-0.0, -0.0)
                known_taps[:, 0] = 1.0 - 0.5j  # keep every user's energy nonzero
            kernels = pulse_responses(true_taps, known_taps)
            for i in range(len(known_taps)):
                chain = propagate(tr_precode(UNIT_PULSE, known_taps[[i]], 1), true_taps)
                assert np.array_equal(kernels[:, i], chain), (num_taps, case, i)


class TestTrPrecode:
    def test_single_tap_identity(self):
        waveform = tr_precode(UNIT_PULSE, [cir([1.0])], 1)
        np.testing.assert_allclose(waveform, [1.0])

    def test_empty_symbol_matrix_gives_empty_emission(self):
        h = cir(np.ones(4))
        waveform = tr_precode(np.zeros((2, 0)), [h, h], 3)
        assert waveform.dtype == np.complex128
        assert waveform.size == 0

    def test_unit_pulse_has_unit_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = random_cir(rng, 128)
            waveform = tr_precode(UNIT_PULSE, [h], 8)
            assert abs(energy(waveform) - 1.0) <= NUMERIC_RTOL

    def test_non_overlapping_pulses_carry_one_unit_each(self):
        rng = np.random.default_rng(4)
        num_taps, pulses = 64, 5
        h = random_cir(rng, num_taps)
        waveform = tr_precode(np.ones((1, pulses)), [h], num_taps)
        assert abs(energy(waveform) - pulses) <= NUMERIC_RTOL * pulses

    def test_two_user_emission_toward_close_targets(self):
        params = CavityParams(rng_seed=42)
        ensemble = synth_cavity_ensemble(params, grid_positions(-6.3, 6.3, 0.3))
        targets = [grid_index(ensemble.positions_mm, x) for x in (-2.7, -1.8)]
        cirs = ensemble.taps[targets]
        waveform = tr_precode(np.ones((2, 1)), cirs, 15)
        assert len(waveform) == params.num_taps
        assert np.all(np.isfinite(waveform))
        for h in cirs:
            alone = tr_precode(UNIT_PULSE, [h], 15)
            assert abs(energy(alone) - 1.0) <= NUMERIC_RTOL

class TestPropagate:
    def test_matched_filter_peak(self):
        rng = np.random.default_rng(5)
        h = random_cir(rng, 96)
        waveform = tr_precode(UNIT_PULSE, [h], 4)
        [received] = propagate(waveform, h[None])
        peak_idx = int(np.argmax(np.abs(received)))
        assert peak_idx == h.size - 1
        expected = math.sqrt(energy(h))
        assert abs(abs(received[peak_idx]) - expected) <= NUMERIC_RTOL * expected

    def test_each_row_is_its_channels_convolution(self):
        rng = np.random.default_rng(9)
        cirs = np.stack([random_cir(rng, 32) for _ in range(3)])
        waveform = tr_precode(np.ones((1, 4)), cirs[:1], 5)
        received = propagate(waveform, cirs)
        assert received.shape == (3, waveform.size + 31)
        for n, h in enumerate(cirs):
            assert np.array_equal(received[n], convolve(waveform, h))

    @pytest.mark.parametrize("num_taps", [1, 64])
    def test_emission_block_entries_equal_single_emissions_bit_for_bit(self, num_taps):
        rng = np.random.default_rng(30 + num_taps)
        taps = np.stack([random_cir(rng, num_taps) for _ in range(5)])
        emissions = np.stack([complex_gaussian(rng, 2 * num_taps + 3) for _ in range(3)])
        received = propagate(emissions, taps)
        assert received.shape == (5, 3, emissions.shape[1] + num_taps - 1)
        for u, emission in enumerate(emissions):
            alone = propagate(emission, taps)
            for n in range(len(taps)):
                assert np.array_equal(received[n, u], alone[n]), (n, u)

    def test_equals_kernel_expansion(self):
        rng = np.random.default_rng(8)
        cirs = np.stack([random_cir(rng, 64, flat=False) for _ in range(2)])
        symbols = np.stack([
            rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2)
        ])
        waveform = tr_precode(symbols, cirs, 9)
        for j, received in enumerate(propagate(waveform, cirs)):
            expected = kernel_expansion(symbols, cirs, 9, j)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(received - expected)) <= NUMERIC_RTOL * scale


def windowed_reference(symbols, true_cirs, known_cirs, spacing, lags, sigma, seed_path):
    """The full-length chain, read at the lags afterwards (0 past either end)."""
    received = received_signal(symbols, known_cirs, true_cirs, spacing, sigma, seed_path)
    return read_at(received, lags)


def _frames(rng, num_rx=2):
    """RASK, ERASK, pilot and real signed (non-binary) amplitude matrices."""
    bits = rng.integers(0, 2, 40)
    return {
        "rask": rask_modulate(bits),
        "erask": erask_modulate(bits, num_rx),
        "pilot": _pilot_targets(num_rx, 32),
        "signed": rng.standard_normal((num_rx, 9)),
    }


NON_FINITE = [
    pytest.param(np.nan, id="nan"),
    pytest.param(np.inf, id="inf"),
    pytest.param(complex(0.0, -np.inf), id="complex-inf"),
]


class TestNonFiniteTaps:
    """A non-finite tap never reaches the precoder or a receiver: the file
    that would carry it is refused where it is loaded, and the stages check
    nothing."""

    @staticmethod
    def _refused_at_load(tmp_path, bad, row):
        ensemble = synth_cavity_ensemble(CavityParams(num_taps=3, rng_seed=1), [-0.45, 0.45])
        json_path = tmp_path / "measured.json"
        export_ensemble(ensemble, json_path)
        csv_path = json_path.with_suffix(".csv")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        cells = lines[1 + row].split(",")
        cells[3:5] = [repr(complex(bad).real), repr(complex(bad).imag)]  # tap 1's re, im
        lines[1 + row] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=f"line {2 + row} has a non-finite cell"):
            load_ensemble(json_path)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_precoding_toward_it(self, tmp_path, bad):
        self._refused_at_load(tmp_path, bad, row=0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_receiving_through_it(self, tmp_path, bad):
        self._refused_at_load(tmp_path, bad, row=1)


class TestReceivedAt:
    """The window-sample engine against the full-length precode-propagate chain."""

    @pytest.mark.parametrize("num_taps, spacings", [
        (1, (1, 3)),
        (2, (3, 7)),
        (256, (5, 15, 600)),
    ])
    @pytest.mark.parametrize("csi", ["genie", "sounded"])
    def test_matches_full_length_chain(self, num_taps, spacings, csi):
        params = CavityParams(num_taps=num_taps, rng_seed=21)
        rng = np.random.default_rng(num_taps)
        # two users, then one: a single user's window block is a strided view
        for positions in ([-0.45, 0.45], [0.0]):
            num_rx = len(positions)
            true_cirs = synth_cavity_ensemble(params, positions).taps
            known_cirs = true_cirs
            if csi == "sounded":
                cfg = SoundingConfig(64 / params.bandwidth_hz, 20.0)
                known_cirs = sound_cir(true_cirs, cfg, range(num_rx), params.bandwidth_hz)
            kernels = pulse_responses(true_cirs, known_cirs)
            frames = _frames(rng, num_rx)
            if num_rx == 1:
                del frames["rask"]  # RASK needs two antennas
            for name, symbols in frames.items():
                for spacing in spacings:
                    lags = window_lags(symbols.shape[1], num_taps, spacing)
                    for sigma in (0.0, 0.3):
                        actual = received_at(symbols, kernels, spacing, sigma, [5, 1])
                        expected = windowed_reference(
                            symbols, true_cirs, known_cirs, spacing, lags, sigma, [5, 1]
                        )
                        assert actual.shape == (num_rx, *lags.shape)
                        scale = np.max(np.abs(expected))
                        assert np.max(np.abs(actual - expected)) <= NUMERIC_RTOL * scale, (
                            num_rx, name, spacing, sigma
                        )

    @pytest.mark.parametrize("budget", [1, 300])
    @pytest.mark.parametrize("num_taps", [1, 64])
    def test_block_size_does_not_change_the_samples(self, monkeypatch, budget, num_taps):
        # a budget of 1 multiplies one window row per block, 300 a few; the
        # block edges regroup the products, so agreement is to NUMERIC_RTOL
        params = CavityParams(num_taps=num_taps, rng_seed=4)
        cirs = synth_cavity_ensemble(params, [-0.45, 0.45]).taps
        kernels = pulse_responses(cirs, cirs)
        frames = _frames(np.random.default_rng(3))
        default = {
            name: received_at(symbols, kernels, 5, 0.3, [2]) for name, symbols in frames.items()
        }
        monkeypatch.setattr(precoding, "_BLOCK_ELEMENTS", budget)
        for name, symbols in frames.items():
            actual = received_at(symbols, kernels, 5, 0.3, [2])
            scale = np.max(np.abs(default[name]))
            assert np.max(np.abs(actual - default[name])) <= NUMERIC_RTOL * scale, name

    def test_single_tap_reads_zero_past_the_signal_ends(self):
        # with L = 1 the field is zero between pulses; the first window's
        # left sample and the last window's right sample lie outside the
        # signal, where nothing is received: no signal and no noise
        h = cir([0.6 + 0.8j])
        symbols = np.array([[1.0, 2.0, 3.0]])
        kernels = pulse_responses(h[None], h[None])
        field = received_at(symbols, kernels, 4, 0.0, [0])[0]
        np.testing.assert_allclose(field, [[0, 1, 0], [0, 2, 0], [0, 3, 0]], atol=1e-15)
        assert field[0, 0] == 0 and field[2, 2] == 0
        noisy = received_at(symbols, kernels, 4, 0.5, [0])[0]
        assert noisy[0, 0] == 0 and noisy[2, 2] == 0
        inside = np.ones(noisy.shape, dtype=bool)
        inside[0, 0] = inside[2, 2] = False
        assert np.all(noisy[inside].real != field[inside].real)
        assert np.all(noisy[inside].imag != field[inside].imag)

    def test_noise_only_variance(self):
        # all-zero symbols leave only the noise; with two taps and spacing 3
        # the 33,334 windows tile the 100,002-sample signal once
        h = cir([1.0, 0.0])
        field = received_at(np.zeros((1, 33_334)), pulse_responses(h[None], h[None]), 3, 1.0, [6])
        samples = field.ravel()
        variance = float(np.mean(np.abs(samples) ** 2))
        assert variance == pytest.approx(1.0, rel=0.05)
        assert abs(complex(np.mean(samples))) <= 0.02

    def test_each_row_is_its_seeded_noise_at_the_windows(self):
        # the per-antenna seed rule: antenna n's noise is seeded
        # [*seed_path, n], drawn over the whole signal and read at the lags
        rng = np.random.default_rng(9)
        cirs = np.stack([random_cir(rng, 32) for _ in range(3)])
        field = received_at(np.zeros((1, 4)), pulse_responses(cirs, cirs[:1]), 5, 0.3, [7, 1])
        lags = window_lags(4, 32, 5)
        length = 3 * 5 + 2 * 32 - 1
        for n in range(3):
            assert np.array_equal(field[n], complex_noise(length, 0.3, [7, 1, n])[lags])

    @pytest.mark.parametrize("num_taps, spacing", [(1, 1), (1, 4), (32, 1), (32, 5)])
    @pytest.mark.parametrize("frame", ["one-block", "one-over", "many-blocks"])
    def test_streamed_noise_is_the_full_draw_across_blocks(self, num_taps, spacing, frame):
        # the noise is drawn in blocks of _NOISE_BLOCK samples: frames of
        # exactly one block, one sample over and several (exact at spacing
        # 1) still read the whole draw at the lags; with one tap the end
        # windows reach past the signal, where they read no noise, and both
        # the real and imaginary draws end at a lag
        block = precoding._NOISE_BLOCK
        target = {"one-block": block, "one-over": block + 1}.get(frame, 4 * block + 7)
        num_symbols = (target - (2 * num_taps - 1)) // spacing + 1
        length = (num_symbols - 1) * spacing + 2 * num_taps - 1
        rng = np.random.default_rng(9)
        cirs = np.stack([random_cir(rng, num_taps) for _ in range(2)])
        kernels = pulse_responses(cirs, cirs[:1])
        field = received_at(np.zeros((1, num_symbols)), kernels, spacing, 0.3, [7, 1])
        lags = window_lags(num_symbols, num_taps, spacing)
        for n in range(2):
            assert np.array_equal(field[n], read_at(complex_noise(length, 0.3, [7, 1, n]), lags))

    def test_noise_memory_does_not_grow_with_the_frame(self):
        # one two-antenna RASK frame of 10,000 symbols at L = 256: the D = 30
        # frame is six times the D = 5 one, and its noise is never held whole
        rng = np.random.default_rng(0)
        cirs = np.stack([random_cir(rng, 256) for _ in range(2)])
        kernels = pulse_responses(cirs, cirs)
        symbols = rask_modulate(rng.integers(0, 2, 10_000))
        peaks = {}
        for spacing in (5, 30):
            received_at(symbols, kernels, spacing, 0.5, [1, 2])
            tracemalloc.start()
            try:
                received_at(symbols, kernels, spacing, 0.5, [1, 2])
                peaks[spacing] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        full_draw = 2 * ((symbols.shape[1] - 1) * 30 + 2 * 256 - 1) * 8
        assert peaks[30] <= peaks[5]
        assert peaks[30] < full_draw

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        h = random_cir(rng, 16)
        kernels = pulse_responses(np.stack([h, h]), h[None])
        first = received_at(UNIT_PULSE, kernels, 2, 0.5, [123])
        second = received_at(UNIT_PULSE, kernels, 2, 0.5, [123])
        assert np.array_equal(first, second)

class TestFocusingGain:
    def test_peak_to_sidelobe_grows_with_channel_length(self):
        medians = []
        for num_taps in (64, 256):
            ratios = []
            for seed in range(200):
                params = CavityParams(num_taps=num_taps, rng_seed=seed)
                h = synth_cavity_ensemble(params, [0.0]).taps[0]
                waveform = tr_precode(UNIT_PULSE, [h], 4)
                field = np.abs(propagate(waveform, h[None])[0])
                peak_idx = int(np.argmax(field))
                mask = np.ones(field.size, dtype=bool)
                mask[max(0, peak_idx - 1) : peak_idx + 2] = False
                ratios.append(field[peak_idx] ** 2 / np.mean(field[mask] ** 2))
            medians.append(np.median(ratios))
        assert medians[1] > medians[0]


def _dense_grid_ensemble(seed: int) -> SpatialChannelEnsemble:
    params = CavityParams(rng_seed=seed)
    return synth_cavity_ensemble(params, grid_positions(-6.3, 6.3, 0.3))


class TestFocusingReport:
    def test_single_position_grid_has_undefined_spatial_width(self):
        params = CavityParams(num_taps=32, rng_seed=1)
        ensemble = synth_cavity_ensemble(params, [0.0])
        report = measure_focusing(ensemble, 0, None, 15)
        assert report.spatial_fwhm_mm is None
        assert report.iui_power == 0.0

    def test_spatial_width_is_undefined_when_the_peak_is_off_target(self):
        # one-tap channels: position p's profile value is |h_p|, so the
        # profile's maximum (2.0, interior, with half-power crossings on both
        # sides) sits at index 2, not at the target
        params = CavityParams(num_taps=1)
        positions = np.arange(5, dtype=float)
        gains = [0.1, 0.5, 2.0, 0.3, 0.1]
        cirs = tuple(
            cir(np.array([g], dtype=complex)) for g in gains
        )
        ensemble = SpatialChannelEnsemble(positions, cirs, params)
        report = measure_focusing(ensemble, 1, None, 1)
        assert [v for _, v in report.spatial_profile] == pytest.approx(gains)
        assert report.spatial_fwhm_mm is None
        assert measure_focusing(ensemble, 2, None, 1).spatial_fwhm_mm is not None

    def test_degenerate_single_tap_profile(self):
        # unit-magnitude single-tap channels: per-realisation profile is 1 at
        # the target, and the seed-averaged complex field elsewhere matches
        # the (here vanishing) cross-position tap correlation
        rng = np.random.default_rng(2)
        positions = np.array([0.0, 50.0, 100.0])
        params = CavityParams(num_taps=1)
        target = 1

        def draw_ensemble() -> SpatialChannelEnsemble:
            phases = np.exp(2j * np.pi * rng.random(3))
            cirs = tuple(cir(np.array([p])) for p in phases)
            return SpatialChannelEnsemble(positions, cirs, params)

        for _ in range(5):
            report = measure_focusing(draw_ensemble(), target, None, 1)
            assert report.peak_amplitude == pytest.approx(1.0, abs=1e-12)
            profile = np.array([v for _, v in report.spatial_profile])
            assert profile[target] == pytest.approx(1.0, abs=1e-12)

        mean_field = np.zeros(3, dtype=complex)
        seeds = 2000
        for _ in range(seeds):
            ensemble = draw_ensemble()
            waveform = tr_precode(UNIT_PULSE, ensemble.taps[[target]], 1)
            mean_field += propagate(waveform, ensemble.taps)[:, 0]
        mean_field /= seeds
        assert abs(mean_field[target] - 1.0) <= 0.05
        assert abs(mean_field[0]) <= 0.05
        assert abs(mean_field[2]) <= 0.05

    def test_temporal_focusing_scale(self):
        widths = []
        for seed in range(20):
            ensemble = synth_cavity_ensemble(
                CavityParams(rng_seed=seed), [0.0]
            )
            report = measure_focusing(ensemble, 0, None, 15)
            widths.append(report.temporal_fwhm_s)
        assert np.median(widths) <= 2.0 / 4e9

    def test_two_user_interference_decomposition(self):
        ensemble = _dense_grid_ensemble(3)
        target = grid_index(ensemble.positions_mm, -1.8)
        other = grid_index(ensemble.positions_mm, -2.7)
        report = measure_focusing(ensemble, target, other, 15)
        assert report.other_mm == pytest.approx(-2.7)
        assert report.peak_amplitude > 0
        assert report.iui_power > 0
        assert report.isi_self_power >= 0
        assert report.isi_other_power >= 0
        assert report.isi_power >= 0
        assert len(report.spatial_profile) == len(ensemble.taps)

    def test_csv_round_trip(self, tmp_path):
        ensemble = _dense_grid_ensemble(4)
        target = grid_index(ensemble.positions_mm, -1.8)
        scenario = Scenario(
            cavity=ensemble.params,
            positions_mm=ensemble.positions_mm,
            target_indices=(target,),
            rsm=RsmConfig(num_rx=1, threshold_policy=PilotThreshold(8)),
            schemes=(Scheme.ERASK,),
            d_values=(15,),
            snr_grid_db=(10.0,),
            bits_per_point=10,
            trials=1,
            sounding=None,
            master_seed=0,
            imported_ensemble=ensemble,
        )
        (report,) = run_focusing_experiment(scenario, tmp_path)
        assert astuple(report) == astuple(measure_focusing(ensemble, target, None, 15))
        lines = (tmp_path / "focus_single_t0.csv").read_text(encoding="utf-8").splitlines()
        header = {
            line[2:].split("=", 1)[0]: line[2:].split("=", 1)[1]
            for line in lines
            if line.startswith("# ") and "=" in line
        }
        assert float(header["peak_amplitude"]) == report.peak_amplitude
        assert int(header["spatial_fwhm_defined"]) == 1
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "position_mm,peak_abs"
        assert len(data) - 1 == len(ensemble.taps)
        first_pos, first_val = data[1].split(",")
        assert float(first_pos) == report.spatial_profile[0][0]
        assert float(first_val) == report.spatial_profile[0][1]


class TestFullWidthHalfMax:
    def test_triangle_width(self):
        axis = np.arange(5, dtype=float)
        values = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
        assert full_width_half_max(axis, values) == pytest.approx(2.0)

    def test_edge_peak_is_undefined(self):
        axis = np.arange(3, dtype=float)
        assert full_width_half_max(axis, np.array([1.0, 0.5, 0.1])) is None

    def test_flat_profile_is_undefined(self):
        axis = np.arange(4, dtype=float)
        assert full_width_half_max(axis, np.ones(4)) is None
