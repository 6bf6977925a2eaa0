import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radiofp.channel import add_awgn
from radiofp.cli import main
from radiofp.detect import RegionOfInterest
from radiofp.dsp import IqRecording, instantaneous
from radiofp.emitter import EmitterProfile, apply_impairments
from radiofp.errors import (
    DegenerateInputError,
    FeatureError,
    ParameterError,
    SizeError,
)
from radiofp.features import (
    ExtractionConfig,
    FeatureVector,
    Moments,
    catalog_names,
    catalog_version,
    extract,
    fisher_select,
    instantaneous_stats,
    moments,
    spectral_features,
    transient_features,
    wpd_energies,
)
from radiofp.features import _normalized_moments

FS = 1.0e5


def tone(freq_hz, n, fs=FS, amplitude=1.0):
    return amplitude * np.exp(2j * np.pi * freq_hz * np.arange(n) / fs)


def noisy_tone(seed, n, cfo_hz=0.0, noise=0.1):
    rng = np.random.default_rng(seed)
    return tone(cfo_hz, n) + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


# The README's tolerance ("Feature catalog") of the extractor against its per-loop form:
# 1e-12 relative, or 1e-12 absolute in the feature's own unit for the ones that can sit near 0.
NEAR_ZERO = ("amp_skew", "amp_kurt", "phase_resid_skew", "phase_resid_kurt", "cfo_est_hz")


def outside_tolerance(names, got, want):
    """Mask of the values of `got` farther from `want` than the README's tolerance."""
    floor = np.array([1.0 if name in NEAR_ZERO else 0.0 for name in names])
    return np.abs(got - want) > 1e-12 * np.maximum(np.abs(want), floor)


def make_vector(values, names=None):
    values = np.asarray(values, dtype=float)
    names = tuple(names or (f"f{i}" for i in range(values.size)))
    return FeatureVector(names=names, values=values, roi_ref=("r", 0), catalog_version="fc1-test")


class TestMoments:
    def test_symmetric_data_zero_skew(self):
        m = moments([1, 2, 3, 4, 5])
        assert m.skewness == pytest.approx(0.0, abs=1e-12)
        assert m.mean == 3.0
        assert m.variance == 2.0

    def test_hand_computed_values(self):
        m = moments([0, 0, 0, 1])
        assert m.mean == pytest.approx(0.25)
        assert m.variance == pytest.approx(0.1875)
        assert m.skewness == pytest.approx(1.1547, abs=1e-4)

    def test_gaussian_excess_kurtosis_near_zero(self):
        rng = np.random.default_rng(0)
        m = moments(rng.standard_normal(200_000))
        assert abs(m.excess_kurtosis) < 0.05
        assert abs(m.skewness) < 0.05

    def test_affine_invariance_of_normalized_moments(self):
        rng = np.random.default_rng(1)
        x = rng.gamma(2.0, size=5000)
        a, b = 3.7, -12.0
        m1, m2 = moments(x), moments(a * x + b)
        assert m2.skewness == pytest.approx(m1.skewness, abs=1e-9)
        assert m2.excess_kurtosis == pytest.approx(m1.excess_kurtosis, abs=1e-9)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateInputError):
            moments([2.0, 2.0, 2.0, 2.0])

    def test_too_short_raises(self):
        with pytest.raises(SizeError):
            moments([1.0, 2.0, 3.0])

    def test_tiny_scale_keeps_skew_and_kurtosis(self):
        """sigma^3 of this sequence underflows to 0; the standardized moments do not."""
        tiny, unit = moments([3e-131, 0.0, 0.0, 0.0]), moments([3.0, 0.0, 0.0, 0.0])
        assert tiny.skewness == pytest.approx(unit.skewness, rel=1e-12)
        assert tiny.excess_kurtosis == pytest.approx(unit.excess_kurtosis, rel=1e-12)

    @pytest.mark.parametrize("spike", [1.5e-160, 1e-162])
    def test_subnormal_variance_keeps_skew_and_kurtosis(self, spike):
        """The variance of these is subnormal or underflows to 0, yet the spread is not zero."""
        m = moments([spike, 0.0, 0.0, 0.0])
        assert abs(m.skewness - 2.0 / math.sqrt(3.0)) <= 1e-12
        assert abs(m.excess_kurtosis + 2.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("x, skewness, kurtosis", [
        ([5e-324, 0.0, 0.0, 0.0], 2.0 / math.sqrt(3.0), -2.0 / 3.0),
        ([5e-324, 5e-324, 0.0, 0.0, 0.0, 0.0], 1.0 / math.sqrt(2.0), -1.5),
    ])
    def test_spike_whose_mean_underflows(self, x, skewness, kurtosis):
        """The mean of these rounds to 0, so centering cannot be done at their own scale."""
        m = moments(x)
        assert abs(m.skewness - skewness) <= 1e-12
        assert abs(m.excess_kurtosis - kurtosis) <= 1e-12

    def test_all_equal_subnormal_sequence_raises(self):
        with pytest.raises(DegenerateInputError):
            moments([1e-320] * 4)


class TestInstantaneousStats:
    def test_noiseless_tone(self):
        stats = instantaneous_stats(tone(1500.0, 4096), FS)
        assert stats["amp_var"] == pytest.approx(0.0, abs=1e-12)
        assert stats["cfo_est_hz"] == pytest.approx(1500.0, abs=1e-6)
        assert stats["phase_resid_var"] == pytest.approx(0.0, abs=1e-9)
        assert stats["amp_mean"] == pytest.approx(1.0, abs=1e-12)

    def test_scaling_moves_rss_not_shape(self):
        rng = np.random.default_rng(2)
        burst = tone(800.0, 2048) + 0.05 * (rng.standard_normal(2048) + 1j * rng.standard_normal(2048))
        s1 = instantaneous_stats(burst, FS)
        s2 = instantaneous_stats(2.0 * burst, FS)
        assert s2["rss_db"] - s1["rss_db"] == pytest.approx(6.0206, abs=1e-3)
        assert s2["amp_skew"] == pytest.approx(s1["amp_skew"], abs=1e-9)
        assert s2["amp_kurt"] == pytest.approx(s1["amp_kurt"], abs=1e-9)

    def test_cfo_estimate_at_30db(self):
        rng = np.random.default_rng(3)
        errors = []
        for trial in range(10):
            profile = EmitterProfile("dev", cfo_hz=250.0)
            burst = apply_impairments(np.ones(2048, dtype=complex), profile, FS, seed=trial)
            sigma = np.sqrt(10 ** (-3.0) / 2)
            noisy = burst + sigma * (rng.standard_normal(2048) + 1j * rng.standard_normal(2048))
            errors.append(instantaneous_stats(noisy, FS)["cfo_est_hz"] - 250.0)
        assert np.max(np.abs(errors)) < 5.0

    def test_all_zero_roi_raises(self):
        with pytest.raises(DegenerateInputError):
            instantaneous_stats(np.zeros(128, dtype=complex), FS)

    def test_too_short_raises(self):
        with pytest.raises(SizeError):
            instantaneous_stats(np.ones(8, dtype=complex), FS)


class TestTransientFeatures:
    def test_rectangular_burst(self):
        feats = transient_features(np.ones(256, dtype=complex))
        assert feats["rise_time_samples"] <= 1
        assert feats["fall_time_samples"] <= 1

    def test_raised_cosine_ramp_crossing_span(self):
        profile = EmitterProfile("dev", ramp_up_samples=100, ramp_down_samples=100)
        burst = apply_impairments(np.ones(1000, dtype=complex), profile, FS, seed=0)
        feats = transient_features(burst)
        # 10%-90% span of a raised cosine is ~0.59 of the ramp length.
        assert feats["rise_time_samples"] == pytest.approx(59, abs=3)
        assert feats["fall_time_samples"] == pytest.approx(59, abs=3)

    def test_all_zero_roi_sentinel(self):
        feats = transient_features(np.zeros(64, dtype=complex))
        assert feats["rise_time_samples"] == 64.0
        assert feats["fall_time_samples"] == 64.0


class TestWpdEnergies:
    def test_constant_all_lowpass(self):
        energies = wpd_energies(np.ones(64, dtype=complex), depth=1)
        np.testing.assert_allclose(energies, [1.0, 0.0], atol=1e-12)

    def test_alternating_all_highpass(self):
        x = np.resize(np.array([1.0, -1.0]), 64).astype(complex)
        energies = wpd_energies(x, depth=1)
        np.testing.assert_allclose(energies, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_parseval_all_depths(self, depth):
        rng = np.random.default_rng(depth)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        raw = wpd_energies(x, depth, normalized=False)
        signal_energy = np.sum(np.abs(x) ** 2)
        assert abs(raw.sum() - signal_energy) / signal_energy < 1e-9

    def test_parseval_with_odd_tails(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(251) + 1j * rng.standard_normal(251)
        raw = wpd_energies(x, 4, normalized=False)
        signal_energy = np.sum(np.abs(x) ** 2)
        assert abs(raw.sum() - signal_energy) / signal_energy < 1e-9

    def test_normalized_is_probability_vector(self):
        rng = np.random.default_rng(5)
        e = wpd_energies(rng.standard_normal(300), depth=3)
        assert e.size == 8
        assert np.all(e >= 0)
        assert e.sum() == pytest.approx(1.0, abs=1e-12)

    def test_depth_out_of_range(self):
        with pytest.raises(ParameterError):
            wpd_energies(np.ones(256, dtype=complex), depth=7)

    def test_too_short_signal(self):
        with pytest.raises(ParameterError):
            wpd_energies(np.ones(7, dtype=complex), depth=3)

    def test_all_zero_cannot_normalize(self):
        with pytest.raises(DegenerateInputError):
            wpd_energies(np.zeros(64, dtype=complex), depth=2)


class TestSpectralFeatures:
    def test_tone_centroid_and_bandwidth(self):
        feats = spectral_features(tone(1000.0, 2048), FS)
        assert feats["spectral_centroid_hz"] == pytest.approx(1000.0, abs=FS / 2048)
        assert feats["occupied_bw_hz"] <= 4 * FS / 2048

    def test_symmetric_tones_cancel_centroid(self):
        x = tone(2000.0, 2048) + tone(-2000.0, 2048)
        feats = spectral_features(x, FS)
        assert abs(feats["spectral_centroid_hz"]) < FS / 2048

    def test_white_noise_flatness(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
            feats = spectral_features(x, FS)
            assert feats["spectral_flatness"] >= 0.9

    def test_tone_flatness_low(self):
        feats = spectral_features(tone(5000.0, 2048), FS)
        assert feats["spectral_flatness"] < 0.1

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateInputError):
            spectral_features(np.zeros(128, dtype=complex), FS)

    def test_too_short_raises(self):
        with pytest.raises(SizeError):
            spectral_features(np.ones(32, dtype=complex), FS)


class TestExtract:
    def recording_with_burst(self, profile, seed=0, n=2048, snr_db=None):
        burst = apply_impairments(np.ones(n, dtype=complex), profile, FS, seed=seed)
        rec = IqRecording(burst, FS, id=f"rec-{seed}")
        if snr_db is not None:
            rec = add_awgn(rec, snr_db, 1.0, seed=seed + 1000)
        return rec, RegionOfInterest(0, n, peak_metric=30.0, noise_floor=1e-6)

    def test_clean_burst_gives_finite_catalog_vector(self):
        rec, roi = self.recording_with_burst(EmitterProfile("dev", ramp_up_samples=50))
        vec = extract(roi, rec)
        assert vec.names == catalog_names()
        assert len(vec) == len(catalog_names())
        assert np.all(np.isfinite(vec.values))
        assert vec.catalog_version == catalog_version()

    def test_deterministic(self):
        rec, roi = self.recording_with_burst(EmitterProfile("dev", cfo_hz=120.0), snr_db=25.0)
        v1 = extract(roi, rec)
        v2 = extract(roi, rec)
        np.testing.assert_array_equal(v1.values, v2.values)

    def test_cfo_difference_shows_up(self):
        rec_a, roi = self.recording_with_burst(EmitterProfile("dev", cfo_hz=100.0), seed=1, snr_db=30.0)
        rec_b, _ = self.recording_with_burst(EmitterProfile("dev", cfo_hz=600.0), seed=1, snr_db=30.0)
        idx = catalog_names().index("cfo_est_hz")
        diff = extract(roi, rec_b).values[idx] - extract(roi, rec_a).values[idx]
        assert diff == pytest.approx(500.0, abs=5.0)

    def test_roi_outside_recording_raises(self):
        rec, _ = self.recording_with_burst(EmitterProfile("dev"))
        bad = RegionOfInterest(1000, 5000, peak_metric=10.0, noise_floor=1e-6)
        with pytest.raises(ParameterError):
            extract(bad, rec)

    def test_wpd_depth_changes_catalog(self):
        assert len(catalog_names(ExtractionConfig(wpd_depth=3))) == 11 + 2 + 8 + 3
        assert catalog_version(ExtractionConfig(wpd_depth=3)) != catalog_version()


class TestZeroSamples:
    """The sign bit of a zero component carries no phase, and a sample that is exactly 0 has none of its own."""

    @staticmethod
    def features(z):
        return extract(RegionOfInterest(0, z.size, peak_metric=30.0, noise_floor=1e-6), IqRecording(z, FS)).values

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), zero_share=st.sampled_from([0.02, 0.1, 0.3]),
           flip_share=st.sampled_from([0.5, 1.0]))
    def test_flipping_the_sign_of_zero_components_keeps_every_feature_bit(self, seed, zero_share, flip_share):
        """np.angle reads pi for (-0, +0): at the parent a flipped zero moved the phase features."""
        rng = np.random.default_rng(seed)
        parts = tone(700.0, 512)[:, None].view(np.float64) + 0.2 * rng.standard_normal((512, 2))
        parts[rng.random((512, 2)) < zero_share] = 0.0  # zero components
        parts[rng.random(512) < zero_share] = 0.0  # samples that are exactly 0
        flipped = parts.copy()
        zeros = flipped == 0
        flipped[zeros & (rng.random(zeros.shape) < flip_share)] = -0.0
        assert np.signbit(flipped[zeros]).any()
        z, z_flipped = (a.view(np.complex128).ravel() for a in (parts, flipped))
        assert self.features(z_flipped).tobytes() == self.features(z).tobytes()

    def test_an_interior_with_zero_runs_gives_finite_features(self):
        z = noisy_tone(5, 2048, cfo_hz=300.0, noise=0.05)
        for start, stop in ((500, 540), (1200, 1201), (1600, 1700)):
            z[start:stop] = complex(-0.0, 0.0)
        assert np.all(np.isfinite(self.features(z)))


class TestFeatureVector:
    def test_rejects_nonfinite(self):
        with pytest.raises(FeatureError):
            make_vector([1.0, np.inf])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ParameterError):
            make_vector([1.0, 2.0], names=("a", "a"))


class TestFisherSelect:
    def vectors_for(self, matrix, labels):
        return [make_vector(row) for row in matrix], list(labels)

    def test_constant_feature_scores_zero(self):
        X = np.array([[1.0, 0.1], [1.0, 0.2], [1.0, 1.1], [1.0, 1.2]])
        vecs, labels = self.vectors_for(X, ["a", "a", "b", "b"])
        sel = fisher_select(vecs, labels, k=2)
        assert sel.scores[0] == 0.0
        assert sel.scores[1] > 0.0

    def test_hand_computed_score(self):
        # Class means 0 and 1, within-class population variance 0.01 each:
        # score = var({0,1}) / 0.01 = 0.25 / 0.01 = 25.
        X = np.array([[-0.1], [0.1], [0.9], [1.1]])
        vecs, labels = self.vectors_for(X, ["a", "a", "b", "b"])
        sel = fisher_select(vecs, labels, k=1)
        assert sel.scores[0] == pytest.approx(25.0, abs=1e-9)

    def test_keep_all(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 5))
        vecs, labels = self.vectors_for(X, ["a"] * 4 + ["b"] * 4)
        sel = fisher_select(vecs, labels, k=5)
        assert sel.kept_indices == (0, 1, 2, 3, 4)

    def test_keeps_top_k_ascending(self):
        X = np.array([
            [0.0, 0.0, 0.3],
            [0.2, 0.1, 0.0],
            [0.1, 5.0, 0.2],
            [0.3, 5.1, 0.1],
        ])
        # Scores: f0 = 0.25, f1 = 2500 (dominant), f2 = 0 (equal class means).
        vecs, labels = self.vectors_for(X, ["a", "a", "b", "b"])
        sel = fisher_select(vecs, labels, k=2)
        assert sel.kept_indices == (0, 1)
        assert np.argmax(sel.scores) == 1

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(0, 1, (6, 4)), rng.normal(1.5, 1, (6, 4))])
        labels = ["a"] * 6 + ["b"] * 6
        vecs, _ = self.vectors_for(X, labels)
        sel1 = fisher_select(vecs, labels, k=2)
        scale = np.array([10.0, 0.01, 3.0, 100.0])
        vecs2, _ = self.vectors_for(X * scale, labels)
        sel2 = fisher_select(vecs2, labels, k=2)
        assert sel1.kept_indices == sel2.kept_indices
        np.testing.assert_allclose(sel1.scores, sel2.scores, rtol=1e-9)

    def test_insufficient_classes_raise(self):
        X = np.ones((4, 2))
        vecs, labels = self.vectors_for(X, ["a"] * 4)
        with pytest.raises(ParameterError):
            fisher_select(vecs, labels, k=1)

    def test_k_out_of_range(self):
        X = np.random.default_rng(0).standard_normal((4, 2))
        vecs, labels = self.vectors_for(X, ["a", "a", "b", "b"])
        with pytest.raises(ParameterError):
            fisher_select(vecs, labels, k=3)


class TestGoldenFeatures:
    def test_golden_session_within_readme_tolerance(self, tmp_path):
        """golden_features.json holds a seeded 4-emitter, 28-burst session config and the
        features.csv `synth` + `pipeline` wrote for it with the per-loop extractor (`**`
        moments, np.polyfit slope, level-by-level Haar tree, one FFT per flatness segment)."""
        doc = json.loads((Path(__file__).parent / "golden_features.json").read_text())
        config, data, out = tmp_path / "config.json", tmp_path / "data", tmp_path / "out"
        config.write_text(json.dumps(doc["config"]))
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        assert main(["pipeline", "--config", str(config), "--dataset", str(data), "--out", str(out)]) == 0
        with open(out / "features.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == doc["columns"]
        assert [row[:5] for row in rows] == [[str(v) for v in row[:5]] for row in doc["rows"]]
        names = header[5:]
        got = np.array([[float(v) for v in row[5:]] for row in rows])
        want = np.array([row[5:] for row in doc["rows"]])
        bad = outside_tolerance(names, got, want)
        assert not bad.any(), [(i, names[j], got[i, j], want[i, j]) for i, j in np.argwhere(bad)]


# --- properties: each array-first rewrite against the per-loop form it replaced ------

def power_moments(x):
    """Population moments with centered ** 3 and ** 4."""
    mean = float(np.mean(x))
    centered = x - mean
    variance = float(np.mean(centered ** 2))
    sigma = math.sqrt(variance)
    return Moments(mean, variance, float(np.mean(centered ** 3)) / sigma ** 3,
                   float(np.mean(centered ** 4)) / sigma ** 4 - 3.0)


def tree_energies(x, depth):
    """Leaf energies from the level-by-level Haar packet tree, odd nodes padded by one zero."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    nodes = [x]
    for _level in range(depth):
        next_nodes = []
        for node in nodes:
            if node.size % 2:
                node = np.append(node, 0.0)
            even, odd = node[0::2], node[1::2]
            next_nodes += [(even + odd) * inv_sqrt2, (even - odd) * inv_sqrt2]
        nodes = next_nodes
    return np.array([float(np.sum(np.abs(c) ** 2)) for c in nodes])


def loop_flatness(z, segments=8):
    """Spectral flatness from one FFT per segment, accumulated in a loop."""
    seg = z.size // segments
    seg_len = 1 << (seg.bit_length() - 1)
    acc = np.zeros(seg_len)
    for k in range(segments):
        acc += np.abs(np.fft.fft(z[k * seg:k * seg + seg_len])) ** 2
    acc /= segments
    nonzero = acc[acc > 0]
    return float(np.exp(np.mean(np.log(nonzero))) / np.mean(nonzero)) if nonzero.size else 0.0


class TestRewritesMatchLoopForms:
    @settings(max_examples=100, deadline=None)
    @given(x=arrays(np.float64, st.integers(4, 400),
                    elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    def test_multiply_moments_match_power_moments(self, x):
        centered = x - np.mean(x)
        assume(math.sqrt(np.mean(centered ** 2)) ** 4 > 0)  # else the ** form divides by 0
        want, got = power_moments(x), _normalized_moments(x)
        assert (got.mean, got.variance) == (want.mean, want.variance)
        for g, w in [(got.skewness, want.skewness), (got.excess_kurtosis, want.excess_kurtosis)]:
            assert abs(g - w) <= 1e-12 * max(abs(w), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(16, 4000), cfo_hz=st.floats(-500.0, 500.0),
           noise=st.floats(0.02, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_slope_matches_polyfit(self, n, cfo_hz, noise, seed):
        z = noisy_tone(seed, n, cfo_hz, noise)
        _amplitude, phase, _frequency = instantaneous(z[round(0.1 * n):round(0.9 * n)], FS)
        idx = np.arange(phase.size, dtype=np.float64)
        slope, intercept = np.polyfit(idx, phase, 1)
        resid = power_moments(phase - (slope * idx + intercept))
        names = ("cfo_est_hz", "phase_resid_var", "phase_resid_skew", "phase_resid_kurt")
        stats = instantaneous_stats(z, FS)
        got = np.array([stats[name] for name in names])
        want = np.array([slope * FS / (2.0 * np.pi), *resid[1:]])
        assert not outside_tolerance(names, got, want).any(), (got, want)

    @settings(max_examples=100, deadline=None)
    @given(depth=st.integers(1, 6), blocks=st.integers(1, 40), tail=st.integers(0, 63),
           seed=st.integers(0, 2**32 - 1))
    def test_packet_matrix_matches_level_by_level_tree(self, depth, blocks, tail, seed):
        n = blocks * 2 ** depth + tail % 2 ** depth  # tails of every length, the odd ones included
        x = noisy_tone(seed, n, cfo_hz=3000.0, noise=1.0)
        raw = tree_energies(x, depth)
        floor = 1e-14 * raw.sum()  # for a leaf that holds next to nothing
        np.testing.assert_allclose(wpd_energies(x, depth, normalized=False), raw, rtol=1e-14, atol=floor)
        np.testing.assert_allclose(wpd_energies(x, depth), raw / raw.sum(), rtol=1e-14, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(64, 5000), cfo_hz=st.floats(-4e4, 4e4), noise=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_flatness_matches_segment_loop(self, n, cfo_hz, noise, seed):
        z = noisy_tone(seed, n, cfo_hz, noise)
        flatness = spectral_features(z, FS)["spectral_flatness"]
        assert flatness == pytest.approx(loop_flatness(z), rel=1e-12, abs=0.0)
