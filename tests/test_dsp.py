"""Convolution/correlation contracts, chirp synthesis."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import complex_gaussian, max_rel_error, traced_peak
from oracles import (
    chirp_expression,
    convolve_expression,
    direct_convolve,
    direct_xcorr,
    noise_expression,
)
from trlink.dsp import (
    _CHIRP_BANDWIDTHS_HZ,
    _MAX_CHIRP_SAMPLES,
    NUMERIC_RTOL,
    _fast_len,
    complex_noise,
    convolve,
    make_chirp,
    xcorr,
)


def sig(values):
    return np.asarray(values, dtype=complex)


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(1)
        b = complex_gaussian(rng, 17)
        out = convolve(sig([1.0]), b)
        np.testing.assert_allclose(out, b, rtol=1e-12, atol=1e-14)

    def test_two_tap_hand_case(self):
        out = convolve(sig([1.0, 1.0]), sig([1.0, -1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, -1.0], atol=1e-12)

    def test_matches_double_loop_oracle_257_511(self):
        rng = np.random.default_rng(2)
        a = complex_gaussian(rng, 257)
        b = complex_gaussian(rng, 511)
        expected = direct_convolve(a, b)
        out = convolve(a, b)
        assert out.size == 257 + 511 - 1
        assert max_rel_error(out, expected) <= NUMERIC_RTOL


class TestXcorr:
    def test_scalar_autocorrelation(self):
        out = xcorr(sig([1.0]), sig([1.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_unit_norm_parseval_at_zero_lag(self):
        rng = np.random.default_rng(3)
        v = complex_gaussian(rng, 32)
        v /= np.linalg.norm(v)
        out = xcorr(sig(v), sig(v))
        assert abs(out[31] - 1.0) <= 1e-12

    def test_lag_convention_shifted_delta(self):
        # b is a copy of a delayed by 2 samples: correlation peaks at lag +2,
        # i.e. output index len(a) - 1 + 2.
        a = sig([1.0, 0.0, 0.0, 0.0])
        b = sig([0.0, 0.0, 1.0, 0.0, 0.0])
        out = xcorr(a, b)
        assert np.argmax(np.abs(out)) == len(a) - 1 + 2

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        for n, m in [(5, 9), (31, 17), (64, 64)]:
            a = complex_gaussian(rng, n)
            b = complex_gaussian(rng, m)
            expected = direct_xcorr(a, b)
            assert max_rel_error(xcorr(a, b), expected) <= NUMERIC_RTOL


class TestFastPath:
    """The transform details that keep the committed results byte-identical."""

    def test_fast_len_table(self):
        table = {
            1: 1, 13: 14, 97: 98, 511: 512, 1255: 1260, 10255: 10290,
            19999: 20000, 50251: 50400, 150241: 150528, 300226: 301056,
        }
        assert {n: _fast_len(n) for n in table} == table

    def test_length_one_operand_is_plain_scaling(self):
        rng = np.random.default_rng(5)
        a = sig([0.3 - 1.2j])
        b = complex_gaussian(rng, 37)
        assert np.array_equal(convolve(a, b), a * b)
        assert np.array_equal(convolve(b, a), b * a)
        assert np.array_equal(xcorr(a, b), np.conj(a) * b)

    @pytest.mark.parametrize("num_rows", [1, 3, 43])
    @pytest.mark.parametrize(
        "a_len, row_len",
        [(256, 256), (511, 256), (766, 256), (256, 511), (256, 766), (1, 256), (511, 1), (1, 1)],
    )
    def test_stacked_rows_equal_single_rows_bit_for_bit(self, num_rows, a_len, row_len):
        # propagate convolves one emission with a stack of channels; the committed results stay byte-identical only if each
        # row is exactly the one-channel convolution.
        rng = np.random.default_rng(1000 * a_len + row_len + num_rows)
        a = complex_gaussian(rng, a_len)
        stack = complex_gaussian(rng, num_rows * row_len).reshape(num_rows, row_len)
        out = convolve(a, stack)
        assert out.shape == (num_rows, a_len + row_len - 1)
        assert np.array_equal(out, np.stack([convolve(a, row) for row in stack]))
        assert max_rel_error(out[-1], direct_convolve(a, stack[-1])) <= NUMERIC_RTOL

    @pytest.mark.parametrize("num_signals, num_rows", [(1, 1), (2, 3), (4, 43)])
    @pytest.mark.parametrize("a_len, row_len", [(256, 256), (511, 256), (1, 256), (511, 1), (1, 1)])
    def test_outer_stack_entries_equal_single_pairs_bit_for_bit(
        self, num_signals, num_rows, a_len, row_len
    ):
        # pulse_responses convolves a stack of emissions with a stack of
        # channels; entry [p, u] must be the one-pair convolution exactly
        rng = np.random.default_rng(1000 * a_len + row_len + 7 * num_signals + num_rows)
        signals = complex_gaussian(rng, num_signals * a_len).reshape(num_signals, a_len)
        stack = complex_gaussian(rng, num_rows * row_len).reshape(num_rows, row_len)
        out = convolve(signals, stack)
        assert out.shape == (num_rows, num_signals, a_len + row_len - 1)
        for p in range(num_rows):
            for u in range(num_signals):
                assert np.array_equal(out[p, u], convolve(signals[u], stack[p])), (p, u)
        single = convolve(signals, stack[0])
        assert single.shape == (num_signals, a_len + row_len - 1)
        assert np.array_equal(single, out[0])

    # one signal and stacks on either side, and length-1 operands
    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [
            ((256,), (256,)), ((511,), (43, 256)), ((2, 256), (256,)), ((2, 256), (43, 256)),
            ((4, 511), (3, 17)), ((1,), (256,)), ((3, 1), (43, 256)), ((2, 256), (5, 1)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_out_of_place_expression_bit_for_bit(self, a_shape, b_shape, seed):
        rng = np.random.default_rng([seed, *a_shape, *b_shape])
        a = complex_gaussian(rng, math.prod(a_shape)).reshape(a_shape)
        b = complex_gaussian(rng, math.prod(b_shape)).reshape(b_shape)
        assert convolve(a, b).tobytes() == convolve_expression(a, b).tobytes()

    def test_memory_holds_one_product_of_the_spectra(self):
        # the spectra's product is the output, padded to the transform
        # length; an inverse transform out of place would hold it twice
        rng = np.random.default_rng(6)
        a = complex_gaussian(rng, 2 * 256).reshape(2, 256)
        b = complex_gaussian(rng, 43 * 256).reshape(43, 256)
        output_bytes = 16 * 43 * 2 * 511
        assert traced_peak(lambda: convolve(a, b)) <= 1.95 * output_bytes

    def test_import_loads_no_package_but_numpy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        code = (
            "import sys; before = set(sys.modules); import trlink; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'trlink'}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


class TestMakeChirp:
    def test_full_band_length_and_amplitude(self):
        chirp = make_chirp(4e9, 1e-6)
        assert len(chirp) == 4000
        np.testing.assert_allclose(np.abs(chirp), 1.0, atol=1e-12)

    def test_compressed_main_lobe_width(self):
        # -3 dB width of the autocorrelation of a chirp sampled at its
        # bandwidth is about one sample (time-bandwidth compression).
        bandwidth = 1.25e8
        chirp = make_chirp(bandwidth, 2e-6)
        ac = np.abs(xcorr(chirp, chirp))
        peak_idx = int(np.argmax(ac))
        level = ac[peak_idx] / np.sqrt(2.0)
        above = ac >= level
        left = peak_idx
        while left > 0 and above[left - 1]:
            left -= 1
        right = peak_idx
        while right < ac.size - 1 and above[right + 1]:
            right += 1
        width = right - left + 1
        assert 0.5 <= width <= 1.5

    # the two edges of the bandwidths CavityParams accepts, at TB 100 and at the cap;
    # just past either, the chirp's phase is not held finite and the bandwidth is refused
    @pytest.mark.parametrize("edge", [0, 1], ids=["lowest", "highest"])
    @pytest.mark.parametrize("num_samples", [100, _MAX_CHIRP_SAMPLES])
    def test_is_the_phase_law_at_either_edge_of_the_bandwidths(self, edge, num_samples):
        bandwidth = _CHIRP_BANDWIDTHS_HZ[edge]
        chirp = make_chirp(bandwidth, num_samples / bandwidth)
        k = np.arange(num_samples, dtype=np.float64)
        np.testing.assert_allclose(
            chirp, np.exp(1j * np.pi * (k**2 / num_samples - k)), rtol=NUMERIC_RTOL, atol=0
        )

    # duration * bandwidth = n' both an integer and not one
    @pytest.mark.parametrize("n_prime", [100.0, 100.4, 10_000.0, 12_345.6])
    def test_equals_the_one_expression_bit_for_bit(self, n_prime):
        chirp = make_chirp(4e9, n_prime / 4e9)
        assert chirp.tobytes() == chirp_expression(4e9, n_prime / 4e9).tobytes()

    def test_memory_is_at_most_twice_the_chirp(self):
        num_samples = 10_000
        peak = traced_peak(lambda: make_chirp(4e9, num_samples / 4e9))
        assert peak <= 2.1 * 16 * num_samples


class TestComplexNoise:
    # sizes on both sides of 16,384 samples, and sigma across six decades and 0
    @pytest.mark.parametrize("size", [1, 1_000, 16_383, 16_385, 100_000])
    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 1.0, 1e3])
    def test_equals_the_one_expression_bit_for_bit(self, size, sigma):
        noise = complex_noise(size, sigma, [5, size])
        assert noise.tobytes() == noise_expression(size, sigma, [5, size]).tobytes()

    def test_memory_is_about_twice_the_noise(self):
        size = 10_000
        peak = traced_peak(lambda: complex_noise(size, 1.0, 3))
        assert peak <= 2.1 * 16 * size


length = st.integers(min_value=1, max_value=200)
seed = st.integers(min_value=0, max_value=2**31 - 1)


class TestAlgebraicProperties:
    @given(length, length, seed)
    def test_convolution_commutative(self, n, m, s):
        rng = np.random.default_rng(s)
        a, b = complex_gaussian(rng, n), complex_gaussian(rng, m)
        left = convolve(a, b)
        right = convolve(b, a)
        assert max_rel_error(left, right) <= NUMERIC_RTOL

    @given(length, length, seed)
    def test_convolution_linear(self, n, m, s):
        rng = np.random.default_rng(s)
        a, c = complex_gaussian(rng, n), complex_gaussian(rng, n)
        b = complex_gaussian(rng, m)
        alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        mixed = alpha * a + beta * c
        left = convolve(mixed, b)
        right = alpha * convolve(a, b) + beta * convolve(c, b)
        assert max_rel_error(left, right) <= NUMERIC_RTOL

    @given(length, length, seed)
    def test_xcorr_hermitian_symmetry(self, n, m, s):
        rng = np.random.default_rng(s)
        a, b = complex_gaussian(rng, n), complex_gaussian(rng, m)
        forward = xcorr(a, b)
        backward = np.conj(xcorr(b, a)[::-1])
        assert max_rel_error(forward, backward) <= NUMERIC_RTOL

    @given(length, seed)
    def test_autocorrelation_peaks_at_zero_lag(self, n, s):
        rng = np.random.default_rng(s)
        a = complex_gaussian(rng, n)
        ac = np.abs(xcorr(a, a))
        assert ac.max() <= ac[n - 1] * (1.0 + 1e-12)

    @given(length, length, seed)
    def test_fast_convolution_matches_direct(self, n, m, s):
        rng = np.random.default_rng(s)
        a, b = complex_gaussian(rng, n), complex_gaussian(rng, m)
        expected = np.convolve(a, b)
        assert max_rel_error(convolve(a, b), expected) <= NUMERIC_RTOL

    @given(length, length, seed)
    def test_fast_correlation_matches_direct(self, n, m, s):
        rng = np.random.default_rng(s)
        a, b = complex_gaussian(rng, n), complex_gaussian(rng, m)
        expected = np.correlate(b, a, mode="full")
        assert max_rel_error(xcorr(a, b), expected) <= NUMERIC_RTOL
