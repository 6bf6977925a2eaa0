import numpy as np
import pytest

from radiofp.dsp import (
    FirTaps,
    IqRecording,
    add_white_noise,
    as_sum_of_parts,
    design_lowpass,
    estimate_snr_db,
    fft_forward,
    fft_inverse,
    fir_apply,
    instantaneous,
    mean_power,
    seal,
)
from radiofp.errors import DegenerateInputError, ParameterError, SizeError


def dft_direct(x):
    """O(n^2) DFT oracle, straight from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * m * k / n)) for m in range(n)])


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestIqRecording:
    def test_basic_fields(self):
        rec = IqRecording([1 + 2j, 3 - 4j], 48e3, 433e6, "r0")
        assert len(rec) == 2
        assert rec.sample_rate_hz == 48e3
        assert rec.center_freq_hz == 433e6

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            IqRecording([1j], 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            IqRecording([np.nan + 0j], 1.0)

    def test_samples_immutable(self):
        rec = IqRecording([1 + 0j], 1.0)
        with pytest.raises(ValueError):
            rec.samples[0] = 0

    def test_does_not_alias_caller_array(self):
        arr = np.ones(4, dtype=np.complex128)
        rec = IqRecording(arr, 1.0)
        arr[0] = 99
        assert rec.samples[0] == 1

    def test_read_only_view_of_writable_array_is_copied(self):
        arr = np.ones(4, dtype=np.complex128)
        view = arr[:]
        view.setflags(write=False)
        rec = IqRecording(view, 1.0)
        arr[0] = 99
        assert rec.samples[0] == 1

    def test_sealed_array_is_adopted_uncopied(self):
        full = np.arange(6, dtype=np.complex128)
        inner = seal(full[1:5])
        assert not full.flags.writeable
        assert IqRecording(inner, 1.0).samples is inner
        assert IqRecording(seal(np.ones(3)), 1.0).samples.dtype == np.complex128  # not complex128: copied


class TestCaptureBufferHelpers:
    def test_sum_of_parts_matches_the_complex_expression_bit_for_bit(self):
        values = np.array([0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324])
        re, im = (a.ravel() for a in np.meshgrid(values, values))
        z = np.empty(re.size, dtype=np.complex128)
        z.real, z.imag = re, im
        assert as_sum_of_parts(z).tobytes() == (re + 1j * im).tobytes()
        assert np.signbit(z.real[re == 0]).sum() == 3  # only -0 with a negative or -0 im stays -0

    def test_white_noise_matches_the_complex_expression_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        x[::5] = complex(-0.0, -0.0)
        draws = np.random.default_rng(11)
        scale = np.sqrt(0.02 / 2.0)
        want = x + scale * (draws.standard_normal(x.size) + 1j * draws.standard_normal(x.size))
        assert add_white_noise(x.copy(), scale, 11).tobytes() == want.tobytes()


class TestFft:
    def test_impulse_gives_flat_spectrum(self):
        np.testing.assert_allclose(fft_forward([1, 0, 0, 0]), np.ones(4), atol=1e-12)

    def test_dc_gives_single_bin(self):
        np.testing.assert_allclose(fft_forward([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert rel_err(fft_forward(x), dft_direct(x)) < 1e-9

    def test_round_trip_all_pow2_lengths(self):
        rng = np.random.default_rng(7)
        n = 2
        while n <= 4096:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert rel_err(fft_inverse(fft_forward(x)), x) < 1e-9
            n *= 2

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            spec = fft_forward(x)
            lhs = np.sum(np.abs(x) ** 2)
            rhs = np.sum(np.abs(spec) ** 2) / x.size
            assert abs(lhs - rhs) / lhs < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(SizeError):
            fft_forward(np.zeros(n, dtype=complex))


class TestDesignLowpass:
    def test_dc_gain_is_one(self):
        taps = design_lowpass(0.25, 31)
        assert abs(taps.coefficients.sum() - 1.0) < 1e-9

    def test_attenuates_stopband_tone(self):
        taps = design_lowpass(0.25, 31)
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * 0.45 * n)
        out = fir_apply(tone, taps)[100:-100]
        atten_db = 10 * np.log10(mean_power(tone) / mean_power(out))
        assert atten_db >= 20.0

    def test_near_allpass(self):
        taps = design_lowpass(0.499, 3)
        c = taps.coefficients
        assert abs(c.sum() - 1.0) < 1e-9
        assert c[0] == pytest.approx(c[2], abs=1e-12)

    @pytest.mark.parametrize("cutoff,taps", [(0.0, 31), (0.5, 31), (0.6, 31), (0.25, 30), (0.25, 1)])
    def test_rejects_bad_parameters(self, cutoff, taps):
        with pytest.raises(ParameterError):
            design_lowpass(cutoff, taps)

    def test_taps_invariants_enforced(self):
        with pytest.raises(ParameterError):
            FirTaps([1.0, 2.0], 0.25)  # even count
        with pytest.raises(ParameterError):
            FirTaps([1.0, 2.0, 3.0], 0.25)  # asymmetric


class TestFirFilter:
    def test_unit_tap_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        np.testing.assert_array_equal(fir_apply(x, FirTaps([1.0], 0.5)), x)

    def test_constant_preserved_away_from_edges(self):
        out = fir_apply(np.full(200, 0.7 + 0.1j), design_lowpass(0.2, 31))
        np.testing.assert_allclose(out[31:-31], 0.7 + 0.1j, atol=1e-9)

    def test_white_noise_energy_reduced(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        assert mean_power(fir_apply(x, design_lowpass(0.1, 63))) < mean_power(x)

    def test_empty_recording_passthrough(self):
        assert fir_apply(np.zeros(0, dtype=complex), design_lowpass(0.25, 31)).size == 0

    def test_length_preserved(self):
        out = fir_apply(np.ones(100, dtype=complex), design_lowpass(0.25, 31))
        assert out.shape == (100,)
        assert out.dtype == np.complex128

    def test_linearity(self):
        rng = np.random.default_rng(9)
        taps = design_lowpass(0.3, 21)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        a, b = 2.5 - 1j, -0.5 + 3j
        lhs = fir_apply(a * x + b * y, taps)
        rhs = a * fir_apply(x, taps) + b * fir_apply(y, taps)
        assert rel_err(lhs, rhs) < 1e-9


class TestInstantaneous:
    def test_pure_tone_frequency(self):
        fs = 48000.0
        n = np.arange(1000)
        rec = IqRecording(np.exp(2j * np.pi * 1000.0 * n / fs), fs)
        amp, _phase, freq = instantaneous(rec)
        np.testing.assert_allclose(amp, 1.0, atol=1e-12)
        np.testing.assert_allclose(freq, 1000.0, atol=1e-6)

    def test_negative_tone_frequency(self):
        fs = 48000.0
        n = np.arange(1000)
        rec = IqRecording(np.exp(-2j * np.pi * 5000.0 * n / fs), fs)
        _amp, _phase, freq = instantaneous(rec)
        np.testing.assert_allclose(freq, -5000.0, atol=1e-6)

    def test_dc_input(self):
        rec = IqRecording(np.ones(32, dtype=complex), 1000.0)
        amp, _phase, freq = instantaneous(rec)
        np.testing.assert_array_equal(amp, 1.0)
        np.testing.assert_array_equal(freq, 0.0)

    def test_amplitude_nonnegative(self):
        rng = np.random.default_rng(11)
        rec = IqRecording(rng.standard_normal(500) + 1j * rng.standard_normal(500), 1.0)
        amp, _, _ = instantaneous(rec)
        assert np.all(amp >= 0)

    def test_unwrap_recovers_steep_ramp(self):
        # Per-sample increment close to pi still unwraps to a constant offset.
        inc = 0.95 * np.pi
        true_phase = inc * np.arange(300)
        rec = IqRecording(np.exp(1j * true_phase), 1.0)
        _amp, phase, _freq = instantaneous(rec)
        offsets = (phase - true_phase) / (2 * np.pi)
        np.testing.assert_allclose(offsets, offsets[0], atol=1e-9)
        assert abs(offsets[0] - round(offsets[0])) < 1e-9

    def test_too_short_raises(self):
        with pytest.raises(SizeError):
            instantaneous(IqRecording([1 + 0j], 1.0))


class TestEstimateSnr:
    def test_definition_arithmetic(self):
        sig = np.full(16, np.sqrt(101.0), dtype=complex)
        noise = np.ones(16, dtype=complex)
        assert estimate_snr_db(sig, noise) == pytest.approx(20.0, abs=1e-9)

    def test_floor_when_regions_identical(self):
        region = np.ones(64, dtype=complex)
        assert estimate_snr_db(region, region) == pytest.approx(-60.0, abs=1e-9)

    def test_monte_carlo_15db(self):
        rng = np.random.default_rng(123)
        fs = 1.0e5
        n = 10 ** 5
        tone = np.exp(2j * np.pi * 0.01 * np.arange(n))
        sigma = np.sqrt(10 ** (-1.5) / 2)
        noise_a = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        noise_b = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        est = estimate_snr_db(tone + noise_a, noise_b)
        assert est == pytest.approx(15.0, abs=0.3)

    def test_zero_power_noise_raises(self):
        with pytest.raises(DegenerateInputError):
            estimate_snr_db(np.ones(8, dtype=complex), np.zeros(8, dtype=complex))

    def test_short_regions_raise(self):
        with pytest.raises(SizeError):
            estimate_snr_db(np.ones(4, dtype=complex), np.ones(8, dtype=complex))
