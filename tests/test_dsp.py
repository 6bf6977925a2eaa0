import dataclasses
import gc
import importlib
import inspect
import itertools
import pkgutil
import tracemalloc
import weakref
from re import escape
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radiofp
from radiofp import dsp
from radiofp.dsp import (
    BLOCK_SAMPLES,
    CF32_LE,
    FFT_FRAMES,
    FFT_LENGTH,
    FirTaps,
    IqRecording,
    add_white_noise,
    as_complex_array,
    block_slices,
    convolve_same,
    design_lowpass,
    fir_apply,
    instantaneous,
    runs_mean_power,
    seal,
    snr_db_from_powers,
    union_runs,
    widened_blocks,
)
from radiofp.errors import DegenerateInputError, ParameterError, SizeError


def mean_power(x):
    """The reference mean |z|^2 of a sample sequence."""
    return float(np.mean(np.abs(x) ** 2))


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

    def test_rates_are_stored_as_floats(self):
        rec = IqRecording([1j], 100000, np.float32(433e6))
        assert type(rec.sample_rate_hz) is float and rec.sample_rate_hz == 1e5
        assert type(rec.center_freq_hz) is float and rec.center_freq_hz == 433e6

    @pytest.mark.parametrize("field", ["sample_rate_hz", "center_freq_hz"])
    def test_a_str_rate_is_a_parameter_error(self, field):
        """A str rate raised a bare TypeError from a comparison."""
        with pytest.raises(ParameterError, match=f"{field} must be a real number"):
            IqRecording([1j], **{"sample_rate_hz": 1e5, field: "100000"})

    @pytest.mark.parametrize("field", ["sample_rate_hz", "center_freq_hz"])
    def test_an_infinite_rate_is_named(self, field):
        """inf was accepted, and read_recording then refused the meta file write_recording wrote from it."""
        with pytest.raises(ParameterError, match=f"{field} must be a finite number"):
            IqRecording([1j], **{"sample_rate_hz": 1e5, field: float("inf")})

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            IqRecording([np.nan + 0j], 1.0)

    def test_rejects_nonfinite_in_the_last_short_block(self):
        x = np.zeros(2 * BLOCK_SAMPLES + 3, dtype=complex)
        x[-1] = complex(0.0, np.inf)
        with pytest.raises(ParameterError):
            IqRecording(x, 1.0)

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

    def test_an_unsealed_cf32_le_array_gets_the_bits_a_sealed_one_is_read_with(self):
        """Copied or read through as_complex_array, cf32_le samples widen to the bits of astype(complex128),
        signed zeros included: the sign of a zero is no phase (see instantaneous), so no rule rewrites it."""
        narrow = np.array([complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), 1.5 - 0j], dtype=CF32_LE)
        copied = IqRecording(narrow, 1.0).samples
        assert copied.dtype == np.complex128
        assert copied.tobytes() == as_complex_array(IqRecording(seal(narrow.copy()), 1.0).samples).tobytes()
        assert copied.tobytes() == narrow.astype(np.complex128).tobytes()


class TestCaptureBufferHelpers:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_SAMPLES, 2 * BLOCK_SAMPLES + 5])
    def test_block_slices_cover_each_sample_once(self, n):
        covered = np.zeros(n, dtype=int)
        for block in block_slices(n):
            covered[block] += 1
        assert np.all(covered == 1)

    def test_white_noise_matches_the_complex_expression_bit_for_bit(self):
        n = 2 * BLOCK_SAMPLES + 5000  # past two blocks: the stream runs on from block to block
        rng = np.random.default_rng(3)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x[::5] = complex(-0.0, -0.0)
        draws = np.random.default_rng(11)
        scale = np.sqrt(0.02 / 2.0)
        want = x + scale * (draws.standard_normal(x.size) + 1j * draws.standard_normal(x.size))
        assert add_white_noise(x.copy(), scale, 11).tobytes() == want.tobytes()


class TestFft:
    """The DFT the features and fir_apply take from np.fft, against its definition."""

    def test_impulse_gives_flat_spectrum(self):
        np.testing.assert_allclose(np.fft.fft([1, 0, 0, 0]), np.ones(4), atol=1e-12)

    def test_dc_gives_single_bin(self):
        np.testing.assert_allclose(np.fft.fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert rel_err(np.fft.fft(x), dft_direct(x)) < 1e-9

    def test_round_trip_all_pow2_lengths(self):
        rng = np.random.default_rng(7)
        n = 2
        while n <= 4096:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert rel_err(np.fft.ifft(np.fft.fft(x)), x) < 1e-9
            n *= 2

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            spec = np.fft.fft(x)
            lhs = np.sum(np.abs(x) ** 2)
            rhs = np.sum(np.abs(spec) ** 2) / x.size
            assert abs(lhs - rhs) / lhs < 1e-9


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
            FirTaps([1.0, 2.0])  # even count
        with pytest.raises(ParameterError):
            FirTaps([1.0, 2.0, 3.0])  # asymmetric


B = BLOCK_SAMPLES
HOP = FFT_LENGTH - 62  # fir_apply's hop with the receiver's 63 taps
FIR_BOUND = 1e-13  # fir_apply's docstring: |error| <= FIR_BOUND * sum(|h|) * max(|x|)


def convolution_cases():
    """The FIR on complex samples (ids as "n-mode") and a 64-long boxcar on floats ("boxcar64-n-mode")."""
    for n in [0, 1, 62, 63, B - 1, B, B + 1, B + 31, B + 32, 2 * B - 1, 2 * B, 7 * B // 2]:
        for mode in ("new", "in_place"):
            yield pytest.param("fir", n, mode == "in_place", id=f"{n}-{mode}")
            yield pytest.param("boxcar64", n, mode == "in_place", id=f"boxcar64-{n}-{mode}")


def same_reference(x, kernel):
    """One whole-array np.convolve(x, kernel, "same"), or its "full" output cut the same way for a shorter x."""
    if x.size == 0:
        return x.copy()
    if x.size < kernel.size:  # "same" would return len(kernel) samples
        reach = (kernel.size - 1) // 2
        return np.convolve(x, kernel, mode="full")[reach:reach + x.size]
    return np.convolve(x, kernel, mode="same")


def fir_error(got, x, taps):
    """got's largest distance from the whole-array np.convolve of x, in units of fir_apply's bound scale."""
    if x.size == 0:
        return 0.0
    scale = np.abs(taps.coefficients).sum() * np.abs(x).max()
    return float(np.abs(got - same_reference(x, taps.coefficients)).max() / scale)


def fir_edge_lengths():
    """Lengths at fir_apply's frame and block edges (a block is FFT_FRAMES frames), each side of them."""
    block = FFT_FRAMES * HOP
    return [HOP - 1, HOP, HOP + 1, block - 31, block - 1, block, block + 1, block + 31, block + 32,
            2 * block + 7, 3 * block + HOP]


class TestFirFilter:
    @pytest.mark.parametrize("kind, n, in_place", convolution_cases())
    def test_blocks_give_the_bits_of_one_whole_convolution(self, kind, n, in_place):
        """Each block's dot products are the whole convolution's, at the block edges and the array ends:
        the FIR's to within its stated bound, the boxcar's bit for bit."""
        rng = np.random.default_rng(n)
        if kind == "fir":
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            taps = design_lowpass(0.2, 63)
            original = x.copy()
            got = fir_apply(x, taps, out=x) if in_place else fir_apply(x, taps)
            assert got.dtype == x.dtype
            assert fir_error(got, original, taps) <= FIR_BOUND
        else:  # an even kernel reads one sample more behind each output than ahead of it
            x = rng.standard_normal(n)
            kernel = np.full(64, 1.0 / 64)
            want = same_reference(x, kernel)
            got = convolve_same(x, kernel, out=x) if in_place else convolve_same(x, kernel)
            assert got.dtype == x.dtype
            assert got.tobytes() == want.tobytes()
        assert (got is x) == in_place

    @pytest.mark.parametrize("n", fir_edge_lengths())
    def test_in_place_gives_the_bits_of_a_new_array(self, n):
        """fir_apply(x, taps, out=x) holds each block's last outputs until the next block has read its inputs."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = design_lowpass(0.3, 63)
        want = fir_apply(x, taps)
        assert fir_error(want, x, taps) <= FIR_BOUND
        assert fir_apply(x, taps, out=x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("old, new", [
        ("[::hop]", "[::hop - 1]"),  # each frame one sample short of the last one's hop
        ("[:, m - 1:]", "[:, m - 2:-1]"),  # each frame's first output one that wraps around the frame
        ("split = max(stop - back, start)", "split = max(stop - back + 1, start)"),  # a held output written early
    ])
    def test_an_off_by_one_hop_or_held_tail_breaches_the_bound(self, old, new):
        """The bound is tight enough to see a misplaced frame or an input read after its output was written."""

        def local_fir_apply(old, new):
            """fir_apply compiled from its source, fir_blocks' and write_in_blocks', with old replaced once by new."""
            namespace = dict(vars(dsp))
            sources = [inspect.getsource(f) for f in (dsp.write_in_blocks, dsp.fir_blocks, dsp.fir_apply)]
            assert sum(source.count(old) for source in sources) == 1
            for source in sources:
                exec(source.replace(old, new), namespace)
            return namespace["fir_apply"]

        n = 2 * FFT_FRAMES * HOP + 100
        rng = np.random.default_rng(4)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = design_lowpass(0.2, 63)
        assert fir_error(local_fir_apply(old, old)(x.copy(), taps, out=x.copy()), x, taps) <= FIR_BOUND
        y = x.copy()
        assert fir_error(local_fir_apply(old, new)(y, taps, out=y), x, taps) > FIR_BOUND

    def test_unit_tap_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.abs(fir_apply(x, FirTaps([1.0])) - x).max() <= FIR_BOUND * np.abs(x).max()

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
        amp, _phase, freq = instantaneous(np.exp(2j * np.pi * 1000.0 * n / fs), fs)
        np.testing.assert_allclose(amp, 1.0, atol=1e-12)
        np.testing.assert_allclose(freq, 1000.0, atol=1e-6)

    def test_negative_tone_frequency(self):
        fs = 48000.0
        n = np.arange(1000)
        _amp, _phase, freq = instantaneous(np.exp(-2j * np.pi * 5000.0 * n / fs), fs)
        np.testing.assert_allclose(freq, -5000.0, atol=1e-6)

    def test_dc_input(self):
        amp, _phase, freq = instantaneous(np.ones(32, dtype=complex), 1000.0)
        np.testing.assert_array_equal(amp, 1.0)
        np.testing.assert_array_equal(freq, 0.0)

    def test_amplitude_nonnegative(self):
        rng = np.random.default_rng(11)
        amp, _, _ = instantaneous(rng.standard_normal(500) + 1j * rng.standard_normal(500), 1.0)
        assert np.all(amp >= 0)

    def test_unwrap_recovers_steep_ramp(self):
        # Per-sample increment close to pi still unwraps to a constant offset.
        inc = 0.95 * np.pi
        true_phase = inc * np.arange(300)
        _amp, phase, _freq = instantaneous(np.exp(1j * true_phase), 1.0)
        offsets = (phase - true_phase) / (2 * np.pi)
        np.testing.assert_allclose(offsets, offsets[0], atol=1e-9)
        assert abs(offsets[0] - round(offsets[0])) < 1e-9

    def test_too_short_raises(self):
        with pytest.raises(SizeError):
            instantaneous([1 + 0j], 1.0)

    @pytest.mark.parametrize("samples, want", [
        ([1, 0, 0, 1j], [0.0, 0.0, 0.0, np.pi / 2]),
        ([1j, 0, 0, 1], [np.pi / 2, np.pi / 2, np.pi / 2, 0.0]),  # the zeros hold pi/2, not np.angle(0) = 0
        ([0, 0, 1j, -1], [np.pi / 2, np.pi / 2, np.pi / 2, np.pi]),  # a leading run takes the first phase
        ([0, 0, 0, 0], [0.0, 0.0, 0.0, 0.0]),  # no sample has a phase
    ])
    def test_a_zero_sample_holds_the_last_phase(self, samples, want):
        amplitude, phase, frequency = instantaneous(samples, 4.0)
        np.testing.assert_array_equal(amplitude, np.abs(samples))
        np.testing.assert_array_equal(phase, want)
        np.testing.assert_array_equal(frequency, np.diff(want) * (4.0 / (2.0 * np.pi)))

    def test_the_sign_of_a_zero_component_is_no_phase(self):
        """np.angle reads pi for (-0, +0) and -pi for (-1, -0); their phases are those of (+0, +0) and (-1, +0)."""
        plain = np.array([1.0 + 0.0j, 0.0j, complex(-1.0, 0.0), 1j])
        signed = from_parts([1.0, -0.0, -1.0, -0.0], [-0.0, 0.0, -0.0, 1.0])
        assert (np.angle(signed) != np.angle(plain)).any()
        for got, want in zip(instantaneous(signed, 1.0), instantaneous(plain, 1.0)):
            assert got.tobytes() == want.tobytes()


class TestEstimateSnr:
    """The SNR of a signal region over a noise region: snr_db_from_powers of their mean_power."""

    def test_definition_arithmetic(self):
        sig = np.full(16, np.sqrt(101.0), dtype=complex)
        noise = np.ones(16, dtype=complex)
        assert snr_db_from_powers(mean_power(sig), mean_power(noise)) == pytest.approx(20.0, abs=1e-9)

    def test_floor_when_regions_identical(self):
        power = mean_power(np.ones(64, dtype=complex))
        assert snr_db_from_powers(power, power) == pytest.approx(-60.0, abs=1e-9)

    def test_monte_carlo_15db(self):
        rng = np.random.default_rng(123)
        n = 10 ** 5
        tone = np.exp(2j * np.pi * 0.01 * np.arange(n))
        sigma = np.sqrt(10 ** (-1.5) / 2)
        noise_a = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        noise_b = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        est = snr_db_from_powers(mean_power(tone + noise_a), mean_power(noise_b))
        assert est == pytest.approx(15.0, abs=0.3)

    def test_zero_power_noise_raises(self):
        with pytest.raises(DegenerateInputError):
            snr_db_from_powers(mean_power(np.ones(8, dtype=complex)), mean_power(np.zeros(8, dtype=complex)))


# Spans as slice bounds: overlapping, nested, empty (stop <= start) and past the end.
spans_and_length = st.integers(0, 300).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n + 20), st.integers(0, n + 20)), max_size=8), st.just(n)))


@given(spans_and_length)
def test_runs_mean_power_over_the_union_and_its_complement_is_the_masked_mean(spans_n):
    """union_runs and runs_mean_power give the bits of np.mean(|z[mask]|^2) for the union's mask and its complement."""
    spans, n = spans_n
    z = np.random.default_rng(n).standard_normal(n) * (1 + 1j)
    mask = np.zeros(n, dtype=bool)
    for start, stop in spans:
        mask[start:stop] = True
    runs = union_runs(spans, n)
    edges = [0, *itertools.chain.from_iterable(runs), n]
    assert edges == sorted(edges) and all(start < stop for start, stop in runs)
    assert all(stop < start for (_, stop), (start, _) in zip(runs, runs[1:]))  # disjoint and not touching
    gaps = list(zip(edges[::2], edges[1::2]))
    for part, selected in ((runs, mask), (gaps, ~mask)):
        if selected.any():
            assert np.float64(runs_mean_power(z, part)).tobytes() == np.mean(np.abs(z[selected]) ** 2).tobytes()
        else:
            assert np.isnan(runs_mean_power(z, part))


@settings(max_examples=150, deadline=None)
@given(block=st.sampled_from([128, 136, 200, 1000]),
       cuts=st.lists(st.integers(0, 5000), max_size=12),
       narrow=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(block=128, cuts=[0, 5000], narrow=False, seed=0)  # one run over 39 blocks
@example(block=128, cuts=[7, 7, 9, 9, 135, 1023, 1030, 4097], narrow=True, seed=1)
def test_runs_mean_power_is_the_masked_mean_across_blocks(block, cuts, narrow, seed):
    """Pieces of at most BLOCK_SAMPLES values, runs across block edges, empty runs, and cf32_le samples:
    np.mean(np.abs(as_complex_array(z)[mask]) ** 2) within the float contract, 1e-12 relative, and from the
    samples' float64 |z|^2 the same bits as from the samples."""
    rng = np.random.default_rng(seed)
    n = 5000
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-4, 4, n)  # order matters
    z = seal(z.astype(CF32_LE)) if narrow else z
    edges = sorted(cuts)
    runs = list(zip(edges[::2], edges[1::2]))  # ascending and disjoint; (a, a) is an empty run
    mask = np.zeros(n, dtype=bool)
    for start, stop in runs:
        mask[start:stop] = True
    with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
        got = runs_mean_power(z, runs)
        from_power = runs_mean_power(np.square(np.abs(as_complex_array(z))), runs)
    assert np.float64(from_power).tobytes() == np.float64(got).tobytes()
    if not mask.any():
        assert np.isnan(got)
        return
    want = np.mean(np.abs(as_complex_array(z)[mask]) ** 2)
    assert abs(got - want) <= 1e-12 * want


def test_runs_mean_power_over_many_full_blocks_is_the_masked_mean():
    """Gaps between bursts over 40 blocks of BLOCK_SAMPLES, a capture's scale: np.mean within 1e-12 relative."""
    n = 40 * BLOCK_SAMPLES + 12345
    rng = np.random.default_rng(7)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n)
    runs = [(start, start + 4000) for start in range(100, n - 4000, 4096 + 333)]
    mask = np.zeros(n, dtype=bool)
    for start, stop in runs:
        mask[start:stop] = True
    want = np.mean(np.abs(z[mask]) ** 2)
    assert abs(runs_mean_power(z, runs) - want) <= 1e-12 * want


def test_runs_mean_power_holds_one_block_of_floats():
    z = np.full(2 ** 21, 0.5 - 0.5j)
    runs = [(start, start + 3000) for start in range(0, z.size, 4096)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs_mean_power(z, runs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # A block of float |z|^2 (half a complex128 block) and the run list; gathered, |z|^2 would be 0.37x the capture.
    assert peak <= BLOCK_SAMPLES * 16


def test_runs_mean_power_keeps_no_reference_to_its_input():
    """A recursive closure over z would hold it (in tune, a capture) in a reference cycle until a collection."""
    z = np.ones(3 * BLOCK_SAMPLES, dtype=complex)
    gc.disable()
    try:
        runs_mean_power(z, [(0, z.size)])
        ref = weakref.ref(z)
        del z
        assert ref() is None
    finally:
        gc.enable()


def from_parts(re, im):
    """The complex128 array whose real and imaginary parts are re and im, each part's bits kept (signed zeros too)."""
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


class TestWidened:
    def test_cf32_le_widens_to_the_bits_of_i_plus_j_q(self):
        """Each float32 part widens to its float64 bits, signed zeros kept: the bits of astype(complex128)."""
        values = np.array([0.0, -0.0, 1.5, -1.5, 1e-45, -3e38], dtype=np.float32)
        re, im = (a.ravel() for a in np.meshgrid(values, values))
        narrow = np.empty(re.size, dtype=CF32_LE)
        narrow.real, narrow.imag = re, im
        want = from_parts(re.astype(np.float64), im.astype(np.float64))
        assert want.tobytes() == narrow.astype(np.complex128).tobytes()
        assert as_complex_array(narrow).tobytes() == want.tobytes()
        assert b"".join(part.tobytes() for _, part in widened_blocks(narrow)) == want.tobytes()

    def test_complex128_is_not_copied_unless_asked(self):
        z = np.arange(2 * BLOCK_SAMPLES + 3) * (1 + 1j)
        assert as_complex_array(z) is z
        copy = as_complex_array(z, copy=True)
        assert copy is not z and copy.tobytes() == z.tobytes() and copy.flags.writeable
        assert all(np.shares_memory(part, z) for _, part in widened_blocks(z))

    def test_every_other_input_gets_the_bits_of_i_plus_j_q(self):
        """Real arrays, lists and cf32_le samples become complex128 with each part's bits kept (a real input's
        imaginary part is +0); an input that is not 1-D, sealed or not, is a SizeError."""
        re = np.array([0.0, -0.0, -0.0, 1.5])
        im = np.array([0.0, 0.0, -0.0, -0.0])
        pairs = [complex(a, b) for a, b in zip(re, im)]
        real_only = from_parts(re, np.zeros(re.size))
        for samples, want in ((re, real_only), (re.astype(np.float32), real_only), (list(re), real_only),
                              (pairs, from_parts(re, im)), (np.array(pairs, dtype=CF32_LE), from_parts(re, im))):
            got = as_complex_array(samples)
            assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
        for samples in (np.zeros((2, 2), dtype=np.complex128), np.zeros((2, 2)), 1.0 + 0j, [[1.0]]):
            with pytest.raises(SizeError):
                as_complex_array(samples)
        with pytest.raises(SizeError):
            IqRecording(seal(np.zeros((2, 2), dtype=np.complex128)), 1.0)


# --- every validating record types its number fields from its annotations --------

NUMBER_KINDS = {kind: kind for kind in (int, float, complex)} | {kind.__name__: kind for kind in (int, float, complex)}
WHAT = {int: "an integer", float: "a real number", complex: "a complex number"}
NUMPY_SCALAR = {int: np.int64, float: np.float32, complex: np.complex64}
# What each kind of field refuses: a bool and a str always, and for an int field a float, integral or not.
# The values are the hand-picked cases of the per-record tests this one generalizes (the seeds' "1",
# DetectorParams' 16.5, a str rate "100000", EmitterProfile's 2.5 and "5", wpd_depth's 4.0, ...).
REFUSED = {int: (True, False, "1", 1.5, 2.5, 4.0, 16.5), float: (True, "5", "10", "100000"), complex: (True, "1")}


def number_fields(cls) -> dict:
    """The fields of dataclass cls annotated int, float or complex (as a type or its str), with their kind."""
    return {f.name: NUMBER_KINDS[f.type] for f in dataclasses.fields(cls) if f.type in NUMBER_KINDS}


def validating_records() -> dict:
    """Every radiofp dataclass that defines __post_init__ and has a number field, by name."""
    found = {}
    for info in pkgutil.iter_modules(radiofp.__path__):
        module = importlib.import_module(f"radiofp.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and "__post_init__" in vars(cls) and number_fields(cls)):
                found[cls.__name__] = cls
    return found


def valid_records() -> dict:
    """One valid instance of each validating record, by class name. Its number values survive a float32."""
    from radiofp.config import DatasetSeeds
    from radiofp.channel import ChannelSpec
    from radiofp.detect import DetectorParams, RegionOfInterest
    from radiofp.emitter import EmitterProfile, ScheduledBurst, TransmissionSchedule
    from radiofp.features import ExtractionConfig, FeatureSelection
    from radiofp.receiver import ReceiverConfig
    from radiofp.sigmf_io import AnnotationSpan
    from radiofp.tuning import ObjectiveParams
    from radiofp.verify import DeviceFingerprint

    records = [
        DatasetSeeds(1, 2, 3),
        IqRecording([1j, 2.0], 48000.0, 433e6),
        ChannelSpec(snr_db=20.0, multipath_taps=((0, 1.0), (2, 0.5j)), path_loss_db=3.0),
        DetectorParams(window=16, open_threshold_db=10.0, close_threshold_db=6.0, min_length=2, merge_gap=1),
        RegionOfInterest(10, 20, 12.5, 0.25),
        EmitterProfile("dev", cfo_hz=250.0, iq_gain_imbalance=1.5, iq_phase_imbalance_rad=0.125,
                       phase_noise_linewidth_hz=2.0, pa_a1=1 + 0.5j, pa_a3=-0.25j, ramp_up_samples=4,
                       ramp_down_samples=3),
        TransmissionSchedule((ScheduledBurst("dev", 0.5, (1, 0, 1)),), 2.0),
        ExtractionConfig(wpd_depth=3),
        ReceiverConfig(filter_bw_hz=1e4, gain_db=6.0, adc_bits=10, full_scale=2.0, frontend_noise_power=0.5),
        AnnotationSpan(8, 16, "dev"),
        ObjectiveParams(clip_weight=0.25, no_roi_penalty=50.0),
        DeviceFingerprint("dev", "fc1-d3", FeatureSelection((0, 2), np.zeros(3)), np.array([1.0, -2.0]),
                          np.array([[2.0, 0.5], [0.5, 1.0]]), 0.125, 6.0, 10),
    ]
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("name", sorted(validating_records().keys() | valid_records().keys()))
def test_every_record_types_its_number_fields(name):
    """Each number field of a validating record refuses a bool, a str and (an int field) a float with a
    ParameterError naming the field, and stores a numpy scalar as the Python type of its annotation.

    The records are discovered, so one that gains a __post_init__ and a number field needs an instance here."""
    record = valid_records().get(name)
    assert record is not None, f"no valid instance of {name}: add one to valid_records"
    assert name in validating_records(), f"{name} is no longer a validating record with a number field"
    for field, kind in number_fields(type(record)).items():
        for bad in REFUSED[kind]:
            with pytest.raises(ParameterError, match=f"^{field} must be {WHAT[kind]}, got {escape(repr(bad))}$"):
                dataclasses.replace(record, **{field: bad})
        scalar = NUMPY_SCALAR[kind](getattr(record, field))
        got = getattr(dataclasses.replace(record, **{field: scalar}), field)
        assert type(got) is kind and got == scalar, (field, got)
