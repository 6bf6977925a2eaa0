import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofp.dsp import BLOCK_SAMPLES, IqRecording, design_lowpass, fir_apply
from radiofp.errors import ParameterError
from radiofp.receiver import (
    NUM_FILTER_TAPS,
    ReceiverConfig,
    _adc,
    acquire,
    add_frontend_noise,
    clipping_ratio,
    quantization_step,
)

FS = 1.0e5


def rec(samples):
    return IqRecording(samples, FS)


def transparent_config(**kwargs):
    defaults = dict(filter_bw_hz=0.98 * FS, gain_db=0.0, adc_bits=16,
                    full_scale=1.0, frontend_noise_power=0.0)
    defaults.update(kwargs)
    return ReceiverConfig(**defaults)


def copying_acquire(x, config, seed):
    """acquire written with a new array per step: the reference for the in-place chain."""
    x = np.array(x, dtype=np.complex128)
    if config.frontend_noise_power > 0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(config.frontend_noise_power / 2.0)
        x = x + scale * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    x = x * 10.0 ** (config.gain_db / 20.0)
    x = fir_apply(x, design_lowpass(config.filter_bw_hz / (2.0 * FS), NUM_FILTER_TAPS))
    return copying_adc(x, quantization_step(config.adc_bits, config.full_scale), config.full_scale)


def copying_adc(x, step, fsd):
    """The ADC written with a new array per step, the result built from its parts I and Q: the reference for _adc."""
    out = np.empty(x.size, dtype=np.complex128)
    out.real, out.imag = (np.clip(step * np.round(np.clip(part, -fsd, fsd) / step), -fsd, fsd)
                          for part in (x.real, x.imag))
    return out


class TestReceiverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"filter_bw_hz": 0.0},
        {"filter_bw_hz": 1e4, "adc_bits": 1},
        {"filter_bw_hz": 1e4, "adc_bits": 17},
        {"filter_bw_hz": 1e4, "full_scale": 0.0},
        {"filter_bw_hz": 1e4, "frontend_noise_power": -1.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            ReceiverConfig(**kwargs)

    @pytest.mark.parametrize("gain_db", [8000.0, -8000.0, float("nan")])
    def test_gain_without_a_finite_positive_power_ratio_is_named(self, gain_db):
        """8000 dB overflowed in acquire's gain; -8000 dB zeroed every sample."""
        with pytest.raises(ParameterError, match="gain_db"):
            ReceiverConfig(filter_bw_hz=1e4, gain_db=gain_db)


class TestQuantizer:
    def test_two_bit_grid_from_step_formula(self):
        # step = 2/(2^2 - 1) = 2/3: representable levels are {-2/3, 0, 2/3}
        # plus the clip rails at +/-1; 0.2 rounds to 0.
        config = transparent_config(adc_bits=2)
        out = acquire(rec(np.full(200, 0.2 + 0.0j)), config, seed=0)
        interior = out.samples[40:-40]
        np.testing.assert_array_equal(interior.real, 0.0)

    def test_two_bit_level_set(self):
        config = transparent_config(adc_bits=2)
        values = np.linspace(-1, 1, 41)
        out = acquire(rec(values.astype(complex)), config, seed=0)
        levels = np.unique(np.round(out.samples.real, 12))
        step = quantization_step(2, 1.0)
        expected = {-1.0, -round(step, 12), 0.0, round(step, 12), 1.0}
        assert set(levels).issubset(expected)

    def test_idempotent_and_monotone(self):
        config = transparent_config(adc_bits=5)
        values = np.linspace(-1.2, 1.2, 301)
        once = acquire(rec(values.astype(complex)), transparent_config(adc_bits=5), seed=0)
        # Feed the quantized output back through: no further change (interior,
        # where filter edge effects are gone).
        twice = acquire(rec(once.samples), config, seed=0)
        np.testing.assert_allclose(once.samples[70:-70], twice.samples[70:-70], atol=1e-12)
        assert np.all(np.diff(once.samples.real[70:-70]) >= 0)

    def test_quantization_error_bound(self):
        bits = 7
        config = transparent_config(adc_bits=bits)
        rng = np.random.default_rng(2)
        x = (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
        out = acquire(rec(x), config, seed=0)
        step = quantization_step(bits, 1.0)
        # Away from filter edges, acquire is quantize(filter(x)); the filter
        # tracks the input closely only for smooth inputs, so quantize directly:
        ref = np.clip(step * np.round(np.clip(x.real, -1, 1) / step), -1, 1)
        err = np.abs(ref - x.real)
        assert np.max(err) <= step / 2 + 1e-12

    @pytest.mark.parametrize("n", [0, 1, BLOCK_SAMPLES // 8 - 1, BLOCK_SAMPLES // 8, BLOCK_SAMPLES // 8 + 1,
                                   3 * (BLOCK_SAMPLES // 8) + 5])
    @settings(max_examples=30, deadline=None)
    @given(bits=st.sampled_from([2, 16]) | st.integers(2, 16), full_scale=st.sampled_from([1.0, 0.25, 3.0]),
           stride=st.integers(1, 3), data=st.data())
    def test_adc_gives_the_bits_of_the_copying_form(self, n, bits, full_scale, stride, data):
        """Empty, short and longer inputs and strided views, signed zeros included: the bits of each part kept."""
        step = quantization_step(bits, full_scale)
        top = 2 ** (bits - 1)
        pool = data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, full_scale, -full_scale, 2.0 * full_scale, -1e300]),
            st.integers(-top, top - 1).map(lambda k: (k + 0.5) * step),  # half-step ties
            st.floats(-1.5 * full_scale, 1.5 * full_scale),
        ), min_size=1, max_size=32))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # Components drawn from the pool, -0 kept: built as float pairs, not as I + 1j*Q.
        buffer = rng.choice(np.array(pool), size=(n * stride, 2)).view(np.complex128).ravel()
        others = np.delete(buffer, np.s_[::stride]).tobytes()
        x = buffer[::stride]
        want = copying_adc(x, step, full_scale)
        assert _adc(x, step, full_scale) is x
        assert x.tobytes() == want.tobytes()
        assert np.delete(buffer, np.s_[::stride]).tobytes() == others


class TestAcquire:
    def test_near_transparent_config(self):
        config = transparent_config()
        value = 0.73 - 0.41j
        out = acquire(rec(np.full(500, value)), config, seed=0)
        step = quantization_step(16, 1.0)
        interior = out.samples[63:-63]
        assert np.max(np.abs(interior.real - value.real)) <= step / 2 + 1e-12
        assert np.max(np.abs(interior.imag - value.imag)) <= step / 2 + 1e-12

    def test_heavy_gain_clips(self):
        config = transparent_config(gain_db=40.0)
        out = acquire(rec(np.full(1000, 0.5 + 0.0j)), config, seed=0)
        assert clipping_ratio(out, 1.0) > 0.9

    def test_output_always_within_full_scale(self):
        rng = np.random.default_rng(3)
        x = 3.0 * (rng.standard_normal(800) + 1j * rng.standard_normal(800))
        config = transparent_config(gain_db=10.0, adc_bits=6)
        out = acquire(rec(x), config, seed=1)
        assert np.all(np.abs(out.samples.real) <= 1.0)
        assert np.all(np.abs(out.samples.imag) <= 1.0)

    def test_linear_in_input_up_to_quantization(self):
        rng = np.random.default_rng(5)
        # Uniform in (-0.9, 0.9) keeps every component clear of the clip rails.
        x = 0.9 * (rng.uniform(-1, 1, 600) + 1j * rng.uniform(-1, 1, 600))
        config = transparent_config(adc_bits=14)
        out_full = acquire(rec(x), config, seed=0).samples
        out_half = acquire(rec(x / 2), config, seed=0).samples
        step = quantization_step(14, 1.0)
        diff = out_full - 2 * out_half
        assert np.max(np.abs(diff.real)) <= 1.5 * step
        assert np.max(np.abs(diff.imag)) <= 1.5 * step

    def test_deterministic_given_seed(self):
        config = transparent_config(frontend_noise_power=1e-3)
        x = np.ones(256, dtype=complex) * 0.3
        a = acquire(rec(x), config, seed=9).samples
        b = acquire(rec(x), config, seed=9).samples
        np.testing.assert_array_equal(a, b)

    def test_noise_added_up_front_gives_same_bits(self):
        rng = np.random.default_rng(8)
        x = 0.2 * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        config = transparent_config(gain_db=7.5, adc_bits=10, filter_bw_hz=0.3 * FS,
                                    frontend_noise_power=1e-3)
        noisy = add_frontend_noise(x.copy(), config.frontend_noise_power, 4)
        quiet = replace(config, frontend_noise_power=0.0)
        np.testing.assert_array_equal(acquire(rec(noisy), quiet, seed=4).samples,
                                      acquire(rec(x), config, seed=4).samples)

    @pytest.mark.parametrize("gain_db, noise_power", [(-30.0, 0.0), (0.0, 1e-6), (20.0, 1e-4)])
    def test_in_place_chain_gives_the_bits_of_the_copying_form(self, gain_db, noise_power):
        rng = np.random.default_rng(12)
        x = 0.4 * (rng.standard_normal(3000) + 1j * rng.standard_normal(3000))
        x[1000:2000] = 0.0  # silence, where the ADC leaves signed zeros
        config = transparent_config(gain_db=gain_db, adc_bits=10, filter_bw_hz=0.3 * FS,
                                    frontend_noise_power=noise_power)
        want = copying_acquire(x, config, 5)
        assert np.signbit(want.view(np.float64)[want.view(np.float64) == 0]).any()
        assert acquire(rec(x), config, seed=5).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("adc_bits, gain_db", [(16, 0.0), (16, 40.0), (12, -30.0)])
    def test_exact_silence_comes_out_as_zeros(self, adc_bits, gain_db):
        """The FIR turns exact silence into values within its error bound of 0 (see fir_apply), which the ADC
        rounds to 0: the detector's noise floor sees silence as 0."""
        n = 3 * BLOCK_SAMPLES // 4
        rng = np.random.default_rng(21)
        x = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        quiet = slice(1000, n - 1000)
        x[quiet] = 0.0
        config = transparent_config(gain_db=gain_db, adc_bits=adc_bits, filter_bw_hz=0.3 * FS)
        out = acquire(rec(x), config, seed=3).samples
        inner = slice(quiet.start + NUM_FILTER_TAPS // 2, quiet.stop - NUM_FILTER_TAPS // 2)
        assert np.count_nonzero(out[inner]) == 0
        assert np.count_nonzero(out[quiet.start - 1]) and np.count_nonzero(out[quiet.stop])

    def test_peak_memory_is_one_capture_above_the_input(self):
        """The noisy copy, filtered in place a block at a time: one capture and a few blocks."""
        n = 2 ** 21  # large against the blocks of BLOCK_SAMPLES that the noise and the FIR work in
        rng = np.random.default_rng(6)
        capture = rec(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        config = transparent_config(gain_db=3.0, filter_bw_hz=0.4 * FS, frontend_noise_power=1e-4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            acquire(capture, config, seed=2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * capture.samples.nbytes

    def test_bandwidth_above_sample_rate_rejected(self):
        with pytest.raises(ParameterError):
            acquire(rec(np.ones(64, dtype=complex)), transparent_config(filter_bw_hz=FS), seed=0)

    def test_narrow_filter_rejects_out_of_band_tone(self):
        n = np.arange(4096)
        tone = 0.5 * np.exp(2j * np.pi * 0.4 * n)  # 40 kHz at fs=100 kHz
        config = transparent_config(filter_bw_hz=0.2 * FS)  # passband +/-10 kHz
        out = acquire(rec(tone), config, seed=0)
        power_in = np.mean(np.abs(tone) ** 2)
        power_out = np.mean(np.abs(out.samples[100:-100]) ** 2)
        assert 10 * np.log10(power_in / power_out) > 20


class TestClippingRatio:
    def test_all_zero(self):
        assert clipping_ratio(rec(np.zeros(10, dtype=complex)), 1.0) == 0.0

    def test_all_at_rail(self):
        assert clipping_ratio(rec(np.full(10, 1.0 + 0j)), 1.0) == 1.0

    def test_half_at_rail(self):
        x = np.concatenate([np.full(5, 1.0 + 0j), np.zeros(5, dtype=complex)])
        assert clipping_ratio(rec(x), 1.0) == 0.5

    def test_quadrature_rail_counts(self):
        assert clipping_ratio(rec(np.full(4, 0.0 + 1.0j)), 1.0) == 1.0

    def test_empty_recording(self):
        assert clipping_ratio(rec(np.zeros(0, dtype=complex)), 1.0) == 0.0

    def test_blocks_give_the_whole_array_mean(self):
        n = 2 * BLOCK_SAMPLES + 7
        rng = np.random.default_rng(8)
        x = np.clip(1.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), -1.0, 1.0)
        limit = 1.0 - 1e-9
        want = float(np.mean((np.abs(x.real) >= limit) | (np.abs(x.imag) >= limit)))
        assert 0.0 < want < 1.0
        assert clipping_ratio(rec(x), 1.0) == want
