import subprocess
import sys

import numpy as np
import pytest

from radiofp.dsp import instantaneous
from radiofp.emitter import (
    EmitterProfile,
    TransmissionSchedule,
    apply_impairments,
    modulate_ook,
    render_buffer,
    render_session,
)
from radiofp.errors import ParameterError, SizeError

FS = 48000.0


def neutral(emitter_id="dev"):
    return EmitterProfile(emitter_id)


class TestProfile:
    def test_neutral_defaults(self):
        p = neutral()
        assert p.cfo_hz == 0.0 and p.iq_gain_imbalance == 1.0

    def test_mu_nu_neutral_is_identity(self):
        mu, nu = neutral().iq_mu_nu()
        assert mu == 1.0 + 0.0j and nu == 0.0 + 0.0j

    @pytest.mark.parametrize("kwargs", [
        {"iq_gain_imbalance": 0.0},
        {"iq_gain_imbalance": -1.0},
        {"phase_noise_linewidth_hz": -1.0},
        {"pa_a1": 0.0},
        {"ramp_up_samples": -1},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            EmitterProfile("dev", **kwargs)


class TestModulateOok:
    def test_single_mark(self):
        np.testing.assert_array_equal(modulate_ook([1], 4), np.ones(4, dtype=complex))

    def test_pattern(self):
        np.testing.assert_array_equal(
            modulate_ook([1, 0, 1], 2), np.array([1, 1, 0, 0, 1, 1], dtype=complex)
        )

    def test_all_zero_bits(self):
        np.testing.assert_array_equal(modulate_ook([0, 0], 3), np.zeros(6, dtype=complex))

    def test_empty_bits_raise(self):
        with pytest.raises(SizeError):
            modulate_ook([], 2)

    def test_non_binary_bits_raise(self):
        with pytest.raises(ParameterError):
            modulate_ook([0, 2], 2)


    def test_a_burst_too_long_for_any_array_raises_before_allocating(self):
        """16 x 2^62 samples overflowed np.repeat's size: the interpreter died with a segfault.

        Run in a child process, so that the old crash fails this test instead of ending the run."""
        code = ("from radiofp.emitter import modulate_ook\n"
                "from radiofp.errors import ParameterError\n"
                "try:\n    modulate_ook([1] * 16, 2 ** 62)\nexcept ParameterError as exc:\n    print(exc)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "samples_per_symbol" in done.stdout


class TestApplyImpairments:
    def test_neutral_profile_is_exact_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        out = apply_impairments(x, neutral(), FS, seed=5)
        np.testing.assert_array_equal(out, x)

    def test_cfo_shows_in_instantaneous_frequency(self):
        profile = EmitterProfile("dev", cfo_hz=100.0)
        burst = apply_impairments(np.ones(2000, dtype=complex), profile, FS, seed=0)
        _amp, _ph, freq = instantaneous(burst, FS)
        np.testing.assert_allclose(freq, 100.0, atol=1e-6)

    def test_iq_imbalance_hand_value(self):
        # mu = (1 + 1.2)/2 = 1.1, nu = (1 - 1.2)/2 = -0.1; for real input
        # z' = mu + nu = 1.0 exactly (the map leaves the I rail untouched).
        profile = EmitterProfile("dev", iq_gain_imbalance=1.2)
        out = apply_impairments(np.ones(16, dtype=complex), profile, FS, seed=0)
        np.testing.assert_allclose(out, 1.0 + 0.0j, atol=1e-12)

    def test_iq_imbalance_on_quadrature_content(self):
        # On the Q rail the same map scales by g (and rotates by phi).
        profile = EmitterProfile("dev", iq_gain_imbalance=1.2)
        out = apply_impairments(np.full(16, 1j), profile, FS, seed=0)
        np.testing.assert_allclose(out, 1.2j, atol=1e-12)

    def test_pa_hand_value(self):
        profile = EmitterProfile("dev", pa_a1=1.0, pa_a3=-0.05)
        out = apply_impairments(np.full(8, 2.0 + 0.0j), profile, FS, seed=0)
        # a1*x + a3*x*|x|^2 = 2 - 0.05*2*4 = 1.6
        np.testing.assert_allclose(out, 1.6, atol=1e-12)

    def test_ramp_envelope_profile(self):
        profile = EmitterProfile("dev", ramp_up_samples=100, ramp_down_samples=50)
        out = apply_impairments(np.ones(400, dtype=complex), profile, FS, seed=0)
        amp = np.abs(out)
        assert amp[0] == 0.0
        assert amp[-1] == 0.0
        np.testing.assert_allclose(amp[100:350], 1.0, atol=1e-12)
        assert np.all(np.diff(amp[:100]) > 0)
        assert np.all(np.diff(amp[350:]) < 0)

    def test_ramps_exceeding_length_raise(self):
        profile = EmitterProfile("dev", ramp_up_samples=60, ramp_down_samples=60)
        with pytest.raises(ParameterError):
            apply_impairments(np.ones(100, dtype=complex), profile, FS, seed=0)

    def test_deterministic_given_seed(self):
        profile = EmitterProfile("dev", phase_noise_linewidth_hz=50.0, cfo_hz=10.0)
        x = np.ones(512, dtype=complex)
        a = apply_impairments(x, profile, FS, seed=99)
        b = apply_impairments(x, profile, FS, seed=99)
        np.testing.assert_array_equal(a, b)
        c = apply_impairments(x, profile, FS, seed=100)
        assert not np.array_equal(a, c)

    def test_cfo_is_pure_rotation(self):
        # Without phase noise, |output| must not depend on the CFO.
        x = np.ones(300, dtype=complex)
        base = EmitterProfile("dev", ramp_up_samples=30, pa_a3=-0.02)
        with_cfo = EmitterProfile("dev", ramp_up_samples=30, pa_a3=-0.02, cfo_hz=1234.0)
        a = np.abs(apply_impairments(x, base, FS, seed=0))
        b = np.abs(apply_impairments(x, with_cfo, FS, seed=0))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_phase_noise_preserves_amplitude(self):
        profile = EmitterProfile("dev", phase_noise_linewidth_hz=100.0)
        out = apply_impairments(np.ones(1024, dtype=complex), profile, FS, seed=3)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)

    def test_empty_input_raises(self):
        with pytest.raises(SizeError):
            apply_impairments(np.zeros(0, dtype=complex), neutral(), FS, seed=0)


class TestRenderSession:
    def profiles(self):
        return {"a": neutral("a"), "b": neutral("b")}

    def test_buffer_is_the_writable_session(self):
        sched = TransmissionSchedule((("a", 0.0, (1, 1, 0, 1)), ("b", 0.002, (1, 0, 1))), 0.01)
        buf, truth = render_buffer(sched, self.profiles(), FS, 4, seed=1)
        rec, want_truth = render_session(sched, self.profiles(), FS, 4, seed=1)
        assert buf.flags.writeable and buf.base is None
        assert buf.tobytes() == rec.samples.tobytes() and truth == want_truth

    def test_empty_schedule(self):
        sched = TransmissionSchedule((), 0.01)
        rec, truth = render_session(sched, self.profiles(), FS, 4, seed=1)
        assert truth == []
        np.testing.assert_array_equal(rec.samples, 0)
        assert len(rec) == int(round(0.01 * FS))

    def test_single_entry_at_zero(self):
        sched = TransmissionSchedule((("a", 0.0, (1, 1, 0, 1)),), 0.01)
        rec, truth = render_session(sched, self.profiles(), FS, 4, seed=1)
        assert len(truth) == 1
        span = truth[0]
        assert (span.emitter_id, span.start_sample, span.length) == ("a", 0, 16)
        expected = np.zeros(len(rec), dtype=complex)
        expected[:16] = modulate_ook([1, 1, 0, 1], 4)
        np.testing.assert_array_equal(rec.samples, expected)

    def test_overlapping_bursts_superpose(self):
        bits = (1, 1, 1, 1)
        sched = TransmissionSchedule((("a", 0.001, bits), ("b", 0.001, bits)), 0.01)
        rec, truth = render_session(sched, self.profiles(), FS, 4, seed=1)
        start = truth[0].start_sample
        np.testing.assert_allclose(rec.samples[start:start + 16], 2.0, atol=1e-12)

    def test_unknown_emitter_raises(self):
        sched = TransmissionSchedule((("ghost", 0.0, (1,)),), 0.01)
        with pytest.raises(KeyError):
            render_session(sched, self.profiles(), FS, 4, seed=1)

    def test_overrun_raises(self):
        sched = TransmissionSchedule((("a", 0.0099, (1, 1, 1, 1)),), 0.01)
        with pytest.raises(ParameterError):
            render_session(sched, self.profiles(), FS, 4, seed=1)

    def test_two_overruns_name_the_one_that_starts_first(self):
        sched = TransmissionSchedule((("a", 0.0099, (1, 1, 1, 1)), ("b", 0.0098, (1, 1, 1, 1))), 0.01)
        with pytest.raises(ParameterError, match=r"entries\[1\] \('b' at t=0.0098s\) overruns"):
            render_session(sched, self.profiles(), FS, 4, seed=1)

    def test_sums_in_start_then_index_order(self):
        """Overlapping bursts listed out of start order add up in (start sample, entry index) order."""
        profiles = {k: EmitterProfile(k, cfo_hz=cfo, phase_noise_linewidth_hz=40.0, pa_a3=-0.05)
                    for k, cfo in (("a", 310.0), ("b", -170.0), ("c", 530.0))}
        entries = (("a", 0.002, (1,) * 12), ("b", 0.001, (1,) * 16), ("c", 0.001, (1,) * 14))
        rec, truth = render_session(TransmissionSchedule(entries, 0.01), profiles, FS, 8, seed=5)

        seeds = np.random.SeedSequence(5).generate_state(3)
        bursts = [(int(round(t * FS)), apply_impairments(modulate_ook(bits, 8), profiles[e], FS,
                                                         int(seeds[k])))
                  for k, (e, t, bits) in enumerate(entries)]

        def summed(order):
            buf = np.zeros(len(rec), dtype=complex)
            for k in order:
                start, burst = bursts[k]
                buf[start:start + burst.size] += burst
            return buf

        assert rec.samples.tobytes() == summed([1, 2, 0]).tobytes()
        assert rec.samples.tobytes() != summed([0, 1, 2]).tobytes()  # the order shows in the bits
        assert [span.emitter_id for span in truth] == ["b", "c", "a"]

    def test_deterministic(self):
        profiles = {"a": EmitterProfile("a", phase_noise_linewidth_hz=20.0, cfo_hz=300.0)}
        sched = TransmissionSchedule((("a", 0.0, (1,) * 8), ("a", 0.005, (1,) * 8)), 0.02)
        rec1, _ = render_session(sched, profiles, FS, 8, seed=77)
        rec2, _ = render_session(sched, profiles, FS, 8, seed=77)
        np.testing.assert_array_equal(rec1.samples, rec2.samples)

    def test_ground_truth_sorted_disjoint_in_bounds(self):
        sched = TransmissionSchedule(
            (("b", 0.006, (1, 0, 1)), ("a", 0.001, (1,)), ("a", 0.003, (1, 1))), 0.01
        )
        rec, truth = render_session(sched, self.profiles(), FS, 4, seed=1)
        starts = [s.start_sample for s in truth]
        assert starts == sorted(starts)
        for span in truth:
            assert span.start_sample + span.length <= len(rec)
        for s1, s2 in zip(truth, truth[1:]):
            assert s1.start_sample + s1.length <= s2.start_sample

    def test_schedule_validates_bits(self):
        with pytest.raises(ParameterError):
            TransmissionSchedule((("a", 0.0, ()),), 0.01)
        with pytest.raises(ParameterError):
            TransmissionSchedule((("a", 0.0, (1, 2)),), 0.01)
        with pytest.raises(ParameterError):
            TransmissionSchedule((("a", -0.1, (1,)),), 0.01)
