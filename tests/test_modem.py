"""RASK/ERASK bit mapping, power detection, threshold calibration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cir
from trlink.errors import ConfigurationError
from trlink.harness import _pilot_targets, run_ber_point, scenario_from_dict
from trlink.modem import (
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
    window_peak_powers,
)
from trlink.precoding import pulse_responses, received_at

SPACING = 7
RASK = Scheme.RASK
ERASK = Scheme.ERASK


def orthogonal_cirs():
    """Single-delta channels whose cross peaks miss every detection window.

    The deltas sit 3 taps apart, so cross-channel energy lands at lag +-3
    from any focusing peak: outside the +-1 windows and clear of the
    neighbouring symbol slots at spacing 7.
    """
    first = np.zeros(7, dtype=complex)
    second = np.zeros(7, dtype=complex)
    first[0] = 1.0
    second[3] = 1.0
    return np.stack([first, second])


def ideal_received(powers):
    """Directly constructed window samples: a diagonal channel matrix.

    Window ``l`` of antenna ``n`` holds one pulse of power ``powers[n][l]``
    at its centre and nothing else; with 0/1 powers (the bits) there is no
    cross-talk at all (interference-free detector check).
    """
    powers = np.asarray(powers, dtype=float)
    windows = DetectionWindow(powers.shape[1])
    samples = np.zeros((*powers.shape, 2 * windows.half_width + 1), dtype=complex)
    samples[:, :, windows.half_width] = np.sqrt(powers)
    return samples, windows


def scenario_doc(**overrides):
    """A small two-antenna scenario document, edited by ``overrides``."""
    doc = {
        "version": 1,
        "cavity": {"num_taps": 64, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11},
        "grid_mm": {"start": -6.3, "stop": 6.3, "step": 0.3},
        "targets_mm": [-2.7, -1.8],
        "rsm": {"scheme": "erask", "num_rx": 2, "threshold": {"policy": "pilot"}},
        "d_values": [15],
        "snr_grid_db": [10.0],
        "bits_per_point": 400,
        "trials": 1,
        "sounding": "genie",
        "master_seed": 1,
    }
    doc.update(overrides)
    return doc


def transmit(bits, scheme, cirs, sigma=0.0, seed=0):
    if scheme is Scheme.RASK:
        symbols = rask_modulate(bits)
    else:
        symbols = erask_modulate(bits, len(cirs))
    windows = DetectionWindow(symbols.shape[1])
    kernels = pulse_responses(cirs, cirs)
    received = received_at(symbols, kernels, SPACING, sigma, [seed])
    return received, windows


class TestRaskModulate:
    def test_single_zero_bit(self):
        symbols = rask_modulate([0])
        np.testing.assert_array_equal(symbols, [[1.0], [0.0]])

    def test_empty_message(self):
        symbols = rask_modulate([])
        assert symbols.shape == (2, 0)

    def test_slot_assignment(self):
        symbols = rask_modulate([0, 1, 1, 0])
        assert symbols.dtype == np.float64
        np.testing.assert_array_equal(symbols, [[1, 0, 0, 1], [0, 1, 1, 0]])

    def test_one_bit_per_symbol(self):
        bits = [0, 1, 0, 1, 1]
        assert rask_modulate(bits).shape == (2, len(bits))


class TestEraskModulate:
    def test_both_targeted(self):
        np.testing.assert_array_equal(erask_modulate([1, 1], 2), [[1.0], [1.0]])

    def test_silent_symbol(self):
        assert np.all(erask_modulate([0, 0], 2) == 0)

    def test_grouped_mapping(self):
        symbols = erask_modulate([0, 1, 1, 0], 2)
        assert symbols.dtype == np.float64
        np.testing.assert_array_equal(symbols, [[0.0, 1.0], [1.0, 0.0]])

    def test_n_bits_per_symbol(self):
        assert erask_modulate([0, 1] * 6, 2).shape == (2, 6)


class TestConfigValidation:
    def test_rask_needs_two_antennas(self):
        for targets_mm in ([-2.7], [-2.7, -1.8, -0.9]):
            doc = {
                "version": 1,
                "cavity": {"num_taps": 64, "bandwidth_hz": 4.0e9, "carrier_freq_hz": 2.736e11},
                "grid_mm": {"start": -6.3, "stop": 6.3, "step": 0.3},
                "targets_mm": targets_mm,
                "rsm": {"scheme": "rask", "num_rx": len(targets_mm)},
                "d_values": [15],
                "snr_grid_db": [10.0],
                "bits_per_point": 400,
                "trials": 1,
                "sounding": "genie",
                "master_seed": 1,
            }
            with pytest.raises(ConfigurationError, match="exactly 2"):
                scenario_from_dict(doc)

    def test_erask_single_antenna_is_legal(self):
        assert erask_modulate([1, 0, 1], 1).shape == (1, 3)
        assert RsmConfig(num_rx=1).num_rx == 1

    def test_pilot_threshold_needs_pilots(self):
        with pytest.raises(ConfigurationError):
            PilotThreshold(num_pilots=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_fixed_threshold_must_be_finite(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            FixedThreshold(value)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_fixed_threshold_must_be_positive(self, value):
        # window powers are never negative: such a threshold decides every antenna "on"
        with pytest.raises(ConfigurationError, match="> 0"):
            FixedThreshold(value)


class TestDetectionWindows:
    def test_peaks_follow_symbol_slots(self):
        # a one-path channel focuses each pulse in one sample: the centre of
        # its symbol's window, with nothing on either side
        taps = np.zeros(16, dtype=complex)
        taps[4] = 1.0
        kernels = pulse_responses(taps[None], taps[None])
        field = received_at(np.array([[1.0, 2.0, 3.0]]), kernels, 5, 0.0, [0])[0]
        expected = np.zeros((3, 2 * WINDOW_HALF_WIDTH + 1))
        expected[:, WINDOW_HALF_WIDTH] = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(field, expected, rtol=0, atol=1e-15)

    @given(st.integers(2 * WINDOW_HALF_WIDTH + 1, 40))
    def test_windows_disjoint_when_spacing_exceeds_twice_half_width(self, spacing):
        # noise alone: a sample read by two windows would appear twice
        rng = np.random.default_rng(spacing)
        taps = cir(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        kernels = pulse_responses(taps[None], taps[None])
        field = received_at(np.zeros((1, 4)), kernels, spacing, 1.0, [spacing])
        assert DetectionWindow(4).half_width == WINDOW_HALF_WIDTH
        assert len(set(field.ravel().tolist())) == field.size

    def test_rejects_a_negative_symbol_count(self):
        # a frame's window count is its payload's symbols or num_pilots,
        # each refused at load before it could fall below 1
        with pytest.raises(ConfigurationError, match="bits_per_point must be >= 1"):
            scenario_from_dict(scenario_doc(bits_per_point=-1))
        threshold = {"policy": "pilot", "num_pilots": -1}
        with pytest.raises(ConfigurationError, match="at least 2 pilot symbols"):
            scenario_from_dict(scenario_doc(rsm={"scheme": "erask", "threshold": threshold}))


class TestPowerDetect:
    def test_noiseless_rask_on_diagonal_unit_channels(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 200)
        received, windows = ideal_received([(bits == 0), (bits == 1)])
        detected = power_detect(received, windows, RASK)
        np.testing.assert_array_equal(detected, bits)

    def test_noiseless_rask_full_chain(self):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, 200)
        received, windows = transmit(bits, RASK, orthogonal_cirs())
        detected = power_detect(received, windows, RASK)
        np.testing.assert_array_equal(detected, bits)

    def test_tie_breaks_to_first_antenna(self):
        samples = np.zeros((1, 3), dtype=complex)
        samples[0, 1] = 1.0
        windows = DetectionWindow(1)
        detected = power_detect(np.stack([samples, samples]), windows, RASK)
        np.testing.assert_array_equal(detected, [0])

    @pytest.mark.parametrize("shape", [(2, 500, 3), (3, 40, 3), (2, 0, 3)])
    def test_window_peak_powers_equal_the_max_reduction(self, shape):
        rng = np.random.default_rng(11)
        frame = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # exact ties between window columns, sign flips included
        frame[:, ::3, 2] = frame[:, ::3, 0]
        frame[:, 1::3, 1] = -frame[:, 1::3, 0]
        frame[:, 2::3, :] = frame[:, 2::3, :1]
        for received in (frame, np.zeros(shape, dtype=complex)):
            reference = np.max(np.abs(received) ** 2, axis=2)
            assert np.array_equal(window_peak_powers(received), reference)

    # The detector trusts its scheme, antennas and threshold: the scenario
    # refuses at load every run that would hand it a bad one.

    def test_erask_requires_threshold(self):
        with pytest.raises(ConfigurationError, match="ERASK runs need a threshold policy"):
            scenario_from_dict(scenario_doc(rsm={"scheme": "erask", "num_rx": 2}))

    def test_rejects_antenna_count_mismatch(self):
        rsm = {"scheme": "both", "num_rx": 1, "threshold": {"policy": "pilot"}}
        with pytest.raises(ConfigurationError, match="RASK needs exactly 2 receive antennas"):
            scenario_from_dict(scenario_doc(targets_mm=[-2.7], rsm=rsm))

    def test_rask_invariant_to_global_scaling(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 64)
        received, windows = transmit(bits, RASK, orthogonal_cirs(), sigma=0.3)
        scaled = 7.3 * received
        np.testing.assert_array_equal(
            power_detect(received, windows, RASK),
            power_detect(scaled, windows, RASK),
        )

    def test_erask_joint_scaling_invariance(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 64)
        received, windows = transmit(bits, ERASK, orthogonal_cirs(), sigma=0.2)
        threshold = 0.4
        amplitude_scale = 2.5
        scaled = amplitude_scale * received
        np.testing.assert_array_equal(
            power_detect(received, windows, ERASK, threshold),
            power_detect(scaled, windows, ERASK, threshold * amplitude_scale**2),
        )


    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_erask_rejects_non_finite_threshold(self, threshold):
        rsm = {"scheme": "erask", "threshold": {"policy": "fixed", "value": threshold}}
        with pytest.raises(ConfigurationError, match="rsm.threshold.value must be a finite"):
            scenario_from_dict(scenario_doc(rsm=rsm))

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_erask_rejects_a_threshold_at_or_below_zero(self, threshold):
        rsm = {"scheme": "erask", "threshold": {"policy": "fixed", "value": threshold}}
        with pytest.raises(ConfigurationError, match="> 0"):
            scenario_from_dict(scenario_doc(rsm=rsm))


class TestRoundTrip:
    @given(st.lists(st.integers(0, 1), max_size=48))
    def test_rask_identity_over_ideal_channel(self, bits):
        if not bits:
            assert rask_modulate(bits).shape == (2, 0)
            return
        received, windows = transmit(bits, RASK, orthogonal_cirs())
        detected = power_detect(received, windows, RASK)
        np.testing.assert_array_equal(detected, bits)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=24))
    def test_erask_identity_over_ideal_channel(self, symbols):
        bits = [b for pair in symbols for b in pair]
        received, windows = transmit(bits, ERASK, orthogonal_cirs())
        detected = power_detect(received, windows, ERASK, threshold=0.5)
        np.testing.assert_array_equal(detected, bits)

    def test_long_messages_round_trip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 1000)
        received, windows = transmit(bits, RASK, orthogonal_cirs())
        np.testing.assert_array_equal(power_detect(received, windows, RASK), bits)
        received, windows = transmit(bits, ERASK, orthogonal_cirs())
        np.testing.assert_array_equal(
            power_detect(received, windows, ERASK, threshold=0.5), bits
        )

    def test_spectral_efficiency_bookkeeping(self):
        # M symbols move M bits under RASK and 2M bits under ERASK
        bits = list(np.random.default_rng(4).integers(0, 2, 24))
        assert rask_modulate(bits).shape[1] == 24
        assert erask_modulate(bits, 2).shape[1] == 12


class TestCalibrateThreshold:
    def test_clean_classes_give_exact_midpoint(self):
        targeted = np.array([[True, False, True, False], [False, True, False, True]])
        signals, windows = ideal_received(np.where(targeted, 4.0, 0.0))
        threshold = calibrate_threshold(signals, windows, targeted)
        assert threshold == pytest.approx(2.0)

    def test_overlapping_classes_stay_between_means(self):
        rng = np.random.default_rng(5)
        targeted = np.array([[True, False] * 8, [False, True] * 8])
        on = 1.0 + 0.3 * rng.random(targeted.shape)
        off = 0.4 + 0.3 * rng.random(targeted.shape)
        signals, windows = ideal_received(np.where(targeted, on, off))
        threshold = calibrate_threshold(signals, windows, targeted)
        assert off.min() < threshold < on.max()
        mean_on = on[targeted].mean() if targeted.any() else 0.0
        mean_off = off[~targeted].mean()
        assert mean_off < threshold < mean_on

    def test_single_class_pilot_is_rejected(self):
        # calibration trusts its mask: the one-pilot frame, whose pilot
        # targets no antenna, is refused by the policy, and every pilot
        # pattern of 2 or more pilots holds both classes
        with pytest.raises(ConfigurationError, match="at least 2 pilot symbols"):
            PilotThreshold(num_pilots=1)
        for num_rx in (1, 2, 5):
            for num_pilots in (2, 3, 32):
                targeted = _pilot_targets(num_rx, num_pilots)
                assert targeted.any() and not targeted.all()


class TestEndToEnd:
    def test_vanishing_noise_and_large_spacing_give_zero_errors(self):
        from trlink.channel import CavityParams, synth_cavity_ensemble

        params = CavityParams(num_taps=64, rng_seed=11)
        ensemble = synth_cavity_ensemble(params, [-0.45, 0.45])
        kernels = pulse_responses(ensemble.taps, ensemble.taps)
        for scheme in (Scheme.RASK, Scheme.ERASK):
            rsm = RsmConfig(num_rx=2, threshold_policy=PilotThreshold(16))
            bits_sent, errors = run_ber_point(
                scheme, rsm, kernels, spacing=64, snr_db=60.0,
                num_bits=2000, cell_seed=99,
            )
            assert bits_sent >= 2000
            assert errors == 0

    def test_calibrated_threshold_beats_mis_scaled_fixed(self):
        from trlink.channel import CavityParams, synth_cavity_ensemble

        snr_db = 10.0
        sigma = 10 ** (-snr_db / 20)
        results = {"calibrated": [], "low": [], "high": []}
        for trial in range(5):
            params = CavityParams(num_taps=128, rng_seed=300 + trial)
            ensemble = synth_cavity_ensemble(params, [-0.45, 0.45])
            kernels = pulse_responses(ensemble.taps, ensemble.taps)
            targeted = _pilot_targets(2, 32)
            calibrated = calibrate_threshold(
                received_at(targeted, kernels, 15, sigma, [trial, 2]),
                DetectionWindow(32),
                targeted,
            )
            for label, value in (
                ("calibrated", calibrated),
                ("low", 0.1 * calibrated),
                ("high", 10.0 * calibrated),
            ):
                rsm = RsmConfig(num_rx=2, threshold_policy=FixedThreshold(value))
                bits_sent, errors = run_ber_point(
                    Scheme.ERASK, rsm, kernels, spacing=15, snr_db=snr_db,
                    num_bits=4000, cell_seed=1000 + trial,
                )
                results[label].append(errors / bits_sent)
        assert np.median(results["calibrated"]) < np.median(results["low"])
        assert np.median(results["calibrated"]) < np.median(results["high"])
