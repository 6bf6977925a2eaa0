import math
import tracemalloc

import numpy as np
import pytest

from radiofp.channel import ChannelSpec, add_awgn, propagate, propagate_in_place
from radiofp.dsp import BLOCK_SAMPLES, IqRecording
from radiofp.emitter import BurstSpan
from radiofp.errors import ParameterError

FS = 1.0e5


def rec(samples):
    return IqRecording(samples, FS)


class TestChannelSpec:
    def test_defaults_are_transparent(self):
        spec = ChannelSpec()
        assert math.isinf(spec.snr_db)
        assert spec.multipath_taps == ()
        assert spec.path_loss_db == 0.0

    def test_requires_delay_zero_first(self):
        with pytest.raises(ParameterError):
            ChannelSpec(multipath_taps=((1, 1 + 0j),))

    def test_requires_strictly_increasing_delays(self):
        with pytest.raises(ParameterError):
            ChannelSpec(multipath_taps=((0, 1 + 0j), (2, 0.5), (2, 0.25)))

    def test_rejects_negative_loss(self):
        with pytest.raises(ParameterError):
            ChannelSpec(path_loss_db=-3.0)

    @pytest.mark.parametrize("field, db", [("snr_db", -1e308), ("snr_db", 1e308), ("snr_db", -math.inf),
                                           ("snr_db", math.nan), ("path_loss_db", 1e308)])
    def test_db_without_a_finite_positive_power_ratio_is_named(self, field, db):
        """The values dsp.check_decibels rejects; snr_db = inf stays the no-noise sentinel."""
        with pytest.raises(ParameterError, match=field):
            ChannelSpec(**{field: db})

    @pytest.mark.parametrize("field", ["snr_db", "path_loss_db"])
    def test_db_that_is_not_a_number_is_named(self, field):
        """snr_db="10" raised a bare TypeError from the dB check."""
        with pytest.raises(ParameterError, match=f"{field} must be a real number"):
            ChannelSpec(**{field: "10"})
        assert type(getattr(ChannelSpec(**{field: np.float32(3.0)}), field)) is float

    @pytest.mark.parametrize("tap, what", [((1.7, 0.5), "multipath_taps\\[1\\] delay must be an integer"),
                                           ((True, 0.5), "multipath_taps\\[1\\] delay must be an integer"),
                                           ((1, "0.5"), "multipath_taps\\[1\\] gain must be a complex number")])
    def test_tap_that_is_not_a_number_is_named(self, tap, what):
        """A delay of 1.7 was truncated to 1, a silent wrong channel, and a str gain "0.5" was parsed."""
        with pytest.raises(ParameterError, match=what):
            ChannelSpec(multipath_taps=((0, 1), tap))
        taps = ChannelSpec(multipath_taps=((0, 1), (np.int64(1), np.float32(0.5)))).multipath_taps
        assert taps == ((0, 1), (1, 0.5)) and [type(v) for tap in taps for v in tap] == [int, complex] * 2

    @pytest.mark.parametrize("gain", [complex(float("inf"), 0.0), complex(0.0, float("nan"))])
    def test_a_tap_gain_that_is_not_finite_is_named(self, gain):
        """complex(inf, 0) was accepted, and propagate then failed on "samples must be finite", which names no
        field."""
        with pytest.raises(ParameterError, match="multipath_taps\\[1\\] gain must be finite"):
            ChannelSpec(multipath_taps=((0, 1), (1, gain)))


class TestMultipath:
    def test_identity_tap(self):
        x = np.arange(8, dtype=complex)
        out = propagate(rec(x), (), ChannelSpec(multipath_taps=[(0, 1 + 0j)]), seed=0)
        np.testing.assert_array_equal(out.samples, x)

    def test_empty_taps_identity(self):
        x = np.arange(8, dtype=complex)
        out = propagate(rec(x), (), ChannelSpec(multipath_taps=[]), seed=0)
        np.testing.assert_array_equal(out.samples, x)

    def test_impulse_response(self):
        out = propagate(rec([1, 0, 0, 0]), (), ChannelSpec(multipath_taps=[(0, 1 + 0j), (2, 0.5 + 0j)]), seed=0)
        np.testing.assert_array_equal(out.samples, [1, 0, 0.5, 0])

    def test_nulling(self):
        taps = [(0, 1 + 0j), (1, -1 + 0j)]
        out = propagate(rec(np.ones(6, dtype=complex)), (), ChannelSpec(multipath_taps=taps), seed=0)
        np.testing.assert_array_equal(out.samples, [1, 0, 0, 0, 0, 0])

    def test_length_preserved(self):
        out = propagate(rec(np.ones(10, dtype=complex)), (), ChannelSpec(multipath_taps=[(0, 1 + 0j), (7, 1j)]),
                        seed=0)
        assert len(out) == 10

    def test_linearity(self):
        rng = np.random.default_rng(4)
        taps = [(0, 0.9 + 0.1j), (3, -0.4j)]
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a, b = 1.5 - 2j, 0.25j
        channel = ChannelSpec(multipath_taps=taps)
        lhs = propagate(rec(a * x + b * y), (), channel, seed=0).samples
        rhs = a * propagate(rec(x), (), channel, seed=0).samples + b * propagate(rec(y), (), channel, seed=0).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPathLoss:
    def test_zero_db_unchanged(self):
        x = np.ones(4, dtype=complex)
        np.testing.assert_array_equal(propagate(rec(x), (), ChannelSpec(path_loss_db=0.0), seed=0).samples, x)

    def test_twenty_db(self):
        out = propagate(rec(np.ones(4, dtype=complex)), (), ChannelSpec(path_loss_db=20.0), seed=0)
        np.testing.assert_allclose(np.abs(out.samples), 0.1, atol=1e-12)

    def test_six_db_halves_amplitude(self):
        out = propagate(rec(np.ones(4, dtype=complex)), (), ChannelSpec(path_loss_db=6.0206), seed=0)
        np.testing.assert_allclose(np.abs(out.samples), 0.5, atol=1e-4)

    def test_composition(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        first = propagate(rec(x), (), ChannelSpec(path_loss_db=7.5), seed=0)
        two_step = propagate(first, (), ChannelSpec(path_loss_db=4.5), seed=0).samples
        one_step = propagate(rec(x), (), ChannelSpec(path_loss_db=12.0), seed=0).samples
        np.testing.assert_allclose(two_step, one_step, atol=1e-12)

    def test_negative_loss_raises(self):
        with pytest.raises(ParameterError):
            propagate(rec(np.ones(4, dtype=complex)), (), ChannelSpec(path_loss_db=-1.0), seed=0)


class TestAwgn:
    def test_infinite_snr_sentinel(self):
        x = np.ones(16, dtype=complex)
        out = add_awgn(rec(x), math.inf, 1.0, seed=0)
        np.testing.assert_array_equal(out.samples, x)

    def test_noise_power_at_20db(self):
        n = 10 ** 5
        tone = np.exp(2j * np.pi * 0.01 * np.arange(n))
        out = add_awgn(rec(tone), 20.0, 1.0, seed=42)
        noise_power = np.mean(np.abs(out.samples - tone) ** 2)
        assert noise_power == pytest.approx(0.01, rel=0.05)

    def test_deterministic_given_seed(self):
        x = np.zeros(64, dtype=complex)
        a = add_awgn(rec(x), 10.0, 1.0, seed=7).samples
        b = add_awgn(rec(x), 10.0, 1.0, seed=7).samples
        np.testing.assert_array_equal(a, b)

    def test_iq_components_balanced(self):
        n = 2 * 10 ** 5
        out = add_awgn(rec(np.zeros(n, dtype=complex)), 0.0, 1.0, seed=11).samples
        var_i = np.var(out.real)
        var_q = np.var(out.imag)
        assert abs(np.mean(out)) < 0.01
        assert abs(var_i - var_q) / var_i < 0.02

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ParameterError):
            add_awgn(rec(np.zeros(8, dtype=complex)), 10.0, 0.0, seed=0)

    @pytest.mark.parametrize("snr_db", [-1e308, 1e308, -8000.0])
    def test_rejects_db_without_a_finite_positive_power_ratio(self, snr_db):
        """-1e308 divided by zero and 1e308 overflowed in the noise scale."""
        with pytest.raises(ParameterError, match="snr_db"):
            add_awgn(rec(np.zeros(8, dtype=complex)), snr_db, 1.0, seed=0)


def copying_propagate(x, truth, channel, seed):
    """propagate written with a new array per step: the reference for the blocked chain."""
    y = np.zeros_like(x)
    for delay, gain in channel.multipath_taps:
        if delay < x.size:
            y[delay:] = y[delay:] + gain * x[:x.size - delay]
    y = y * 10.0 ** (-channel.path_loss_db / 20.0)
    mask = np.zeros(x.size, dtype=bool)
    for span in truth:
        mask[span.start_sample:span.start_sample + span.length] = True
    ref = float(np.mean(np.abs(y[mask]) ** 2))
    scale = np.sqrt(ref / 10.0 ** (channel.snr_db / 10.0) / 2.0)
    rng = np.random.default_rng(seed)
    return y + scale * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))


def forward_multipath(x, taps):
    """The forward form of the multipath sum: a new zeroed array, each tap's product added in tap order."""
    y = np.zeros_like(x)
    for delay, gain in taps:
        if delay < x.size:
            y[delay:] += gain * x[:x.size - delay]
    return y


class TestPropagate:
    @pytest.mark.parametrize("n", [5, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, 3 * BLOCK_SAMPLES + 77])
    def test_in_place_multipath_gives_the_bits_of_the_forward_sum(self, n):
        """Delays across block edges, one longer than a block, one past the end, and a short last block."""
        b = BLOCK_SAMPLES
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x[::7] = complex(-0.0, -0.0)
        taps = ((0, 0.9 - 0.2j), (1, -0.3j), (b - 2, 0.25), (b + 3, 0.1 + 0.1j), (2 * b + 80, -0.05),
                (max(n, 2 * b + 80) + 4, 1.0))
        want = forward_multipath(x, taps)
        got = propagate_in_place(x.copy(), (), ChannelSpec(multipath_taps=taps), seed=0)
        assert got.tobytes() == want.tobytes()

    def test_blocks_give_the_bits_of_the_copying_form(self):
        """Taps and spans across block edges, overlapping spans and one past the end."""
        n, b = 3 * BLOCK_SAMPLES + 77, BLOCK_SAMPLES
        rng = np.random.default_rng(4)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x[::9] = complex(-0.0, -0.0)
        channel = ChannelSpec(snr_db=12.0, path_loss_db=4.0,
                              multipath_taps=((0, 0.9 + 0.1j), (5, -0.3j), (b + 3, 0.05)))
        truth = [BurstSpan("a", s, length) for s, length in
                 [(10, 500), (300, 900), (400, 50), (b - 40, 100), (2 * b - 7, b + 20), (n - 30, 100), (4, 2)]]
        want = copying_propagate(x, truth, channel, seed=8)
        assert propagate(rec(x), truth, channel, seed=8).samples.tobytes() == want.tobytes()

    def test_peak_memory_is_one_capture_and_the_burst_power_above_the_input(self):
        """The output, one float per burst sample while the reference is measured, and a few blocks."""
        n = 2 ** 20  # large against the blocks of BLOCK_SAMPLES
        rng = np.random.default_rng(5)
        recording = rec(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        truth = [BurstSpan("a", s, 1000) for s in range(0, n, 2000)]  # half the samples
        channel = ChannelSpec(snr_db=15.0, path_loss_db=6.0,
                              multipath_taps=((0, 1.0), (2, 0.3 - 0.1j), (9, 0.05j)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            propagate(recording, truth, channel, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * recording.samples.nbytes

    def test_in_place_chain_holds_three_blocks_above_its_input(self):
        """The multipath accumulator and scratch, then the burst power's and the noise's float buffers."""
        n = 2 ** 20  # large against the blocks of BLOCK_SAMPLES
        rng = np.random.default_rng(5)
        x = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        truth = [BurstSpan("a", s, 1000) for s in range(0, n, 2000)]  # half the samples
        channel = ChannelSpec(snr_db=15.0, path_loss_db=6.0,
                              multipath_taps=((0, 1.0), (2, 0.3 - 0.1j), (9, 0.05j)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            propagate_in_place(x, truth, channel, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * BLOCK_SAMPLES * x.itemsize  # the burst power gathered was 0.25x the capture
