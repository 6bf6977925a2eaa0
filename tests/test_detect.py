import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiofp.channel import add_awgn
from radiofp.detect import DetectorParams, RegionOfInterest, detect_bursts, match_rois
from radiofp.dsp import IqRecording
from radiofp.emitter import EmitterProfile, TransmissionSchedule, render_session
from radiofp.errors import ParameterError, SizeError

FS = 1.0e5
PARAMS = DetectorParams(window=64, open_threshold_db=10.0, close_threshold_db=6.0,
                        min_length=64, merge_gap=64)


def synth_session(starts_s, snr_db, seed, bits=(1,) * 24, duration_s=0.06):
    profiles = {"a": EmitterProfile("a")}
    schedule = TransmissionSchedule(tuple(("a", t, bits) for t in starts_s), duration_s)
    clean, truth = render_session(schedule, profiles, FS, 32, seed=seed)
    noisy = add_awgn(clean, snr_db, 1.0, seed=seed + 1)
    return noisy, truth


class TestDetectorParams:
    def test_hysteresis_enforced(self):
        with pytest.raises(ParameterError):
            DetectorParams(open_threshold_db=6.0, close_threshold_db=6.0)

    def test_window_minimum(self):
        with pytest.raises(ParameterError):
            DetectorParams(window=2)


class TestDetectBursts:
    def test_all_zero_recording(self):
        rec = IqRecording(np.zeros(5000, dtype=complex), FS)
        assert detect_bursts(rec, PARAMS) == []

    def test_pure_noise_recording(self):
        rng = np.random.default_rng(0)
        rec = IqRecording(0.01 * (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)), FS)
        assert detect_bursts(rec, PARAMS) == []

    def test_single_burst_boundaries(self):
        noisy, truth = synth_session([0.01], snr_db=20.0, seed=3)
        rois = detect_bursts(noisy, PARAMS)
        assert len(rois) == 1
        roi, span = rois[0], truth[0]
        tol = 2 * PARAMS.window
        assert abs(roi.start_sample - span.start_sample) <= tol
        assert abs(roi.end_sample - (span.start_sample + span.length)) <= tol
        assert roi.peak_metric >= PARAMS.open_threshold_db

    def test_two_bursts_ascending(self):
        noisy, truth = synth_session([0.005, 0.03], snr_db=20.0, seed=4)
        rois = detect_bursts(noisy, PARAMS)
        assert len(rois) == 2
        assert rois[0].start_sample < rois[1].start_sample
        report = match_rois(rois, truth, tolerance=2 * PARAMS.window)
        assert report == (2, 0, 0)

    def test_rois_disjoint_and_in_bounds(self):
        noisy, _ = synth_session([0.002, 0.02, 0.04], snr_db=15.0, seed=5)
        rois = detect_bursts(noisy, PARAMS)
        for roi in rois:
            assert 0 <= roi.start_sample
            assert roi.end_sample <= len(noisy)
        for r1, r2 in zip(rois, rois[1:]):
            assert r1.end_sample <= r2.start_sample

    def test_raising_open_threshold_never_adds_regions(self):
        noisy, _ = synth_session([0.005, 0.03], snr_db=12.0, seed=6)
        counts = []
        for open_db in (8.0, 10.0, 12.0, 14.0, 16.0):
            params = DetectorParams(window=64, open_threshold_db=open_db,
                                    close_threshold_db=open_db - 4.0,
                                    min_length=64, merge_gap=64)
            counts.append(len(detect_bursts(noisy, params)))
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_scale_invariance(self):
        noisy, _ = synth_session([0.01, 0.035], snr_db=18.0, seed=7)
        base = detect_bursts(noisy, PARAMS)
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled = IqRecording(noisy.samples * c, FS)
            rois = detect_bursts(scaled, PARAMS)
            assert [(r.start_sample, r.length) for r in rois] == \
                   [(r.start_sample, r.length) for r in base]

    def test_merge_gap_joins_split_regions(self):
        # One burst with a short dip: without merging it splits, with a
        # merge_gap it comes back as a single ROI.
        x = np.zeros(8000, dtype=complex)
        x[2000:2900] = 1.0
        x[3000:3900] = 1.0
        rng = np.random.default_rng(8)
        x += 0.02 * (rng.standard_normal(8000) + 1j * rng.standard_normal(8000))
        rec = IqRecording(x, FS)
        split = detect_bursts(rec, DetectorParams(window=16, min_length=32, merge_gap=0))
        joined = detect_bursts(rec, DetectorParams(window=16, min_length=32, merge_gap=200))
        assert len(split) == 2
        assert len(joined) == 1

    def test_merge_gap_is_inclusive(self):
        x = np.full(3000, 0.01, dtype=complex)
        x[1000:1300] = 1.0
        x[1500:1800] = 1.0
        rec = IqRecording(x, FS)
        first, second = detect_bursts(rec, DetectorParams(window=16))
        gap = second.start_sample - first.end_sample
        assert len(detect_bursts(rec, DetectorParams(window=16, merge_gap=gap - 1))) == 2
        (joined,) = detect_bursts(rec, DetectorParams(window=16, merge_gap=gap))
        assert (joined.start_sample, joined.end_sample) == (first.start_sample, second.end_sample)

    def test_too_short_recording_raises(self):
        with pytest.raises(SizeError):
            detect_bursts(IqRecording(np.zeros(32, dtype=complex), FS), PARAMS)

    def test_peak_memory_is_one_capture_above_the_input(self):
        """The smoothed power track and one more float array: two halves of a complex capture."""
        n = 2 ** 18
        rng = np.random.default_rng(9)
        x = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for start in range(1000, n - 4000, 20000):
            x[start:start + 3000] += 1.0
        rec = IqRecording(x, FS)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rois = detect_bursts(rec, PARAMS)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(rois) == 13
        assert peak <= 1.1 * rec.samples.nbytes


def state_machine_detect(x: np.ndarray, params: DetectorParams) -> list[tuple]:
    """The detector written plainly: a per-sample hysteresis state, then a merge loop."""
    p = np.convolve(np.abs(x) ** 2, np.full(params.window, 1.0 / params.window), mode="same")
    floor = float(np.median(p))
    if floor > 0:
        open_thr = floor * 10.0 ** (params.open_threshold_db / 10.0)
        close_thr = floor * 10.0 ** (params.close_threshold_db / 10.0)
    else:
        open_thr = close_thr = np.nextafter(0.0, 1.0)
    spans, start = [], None
    for i, value in enumerate(p):
        if start is None and value >= open_thr:
            start = i
        elif start is not None and value < close_thr:
            spans.append([start, i])
            start = None
    if start is not None:
        spans.append([start, len(p)])
    merged: list[list[int]] = []
    for s, e in spans:
        if merged and s - merged[-1][1] <= params.merge_gap:
            merged[-1][1] = e
        else:
            merged.append([s, e])
    floor_out = floor if floor > 0 else float(np.finfo(np.float64).tiny)
    return [(s, e - s, float(10.0 * np.log10(float(np.max(p[s:e])) / floor_out)), floor_out)
            for s, e in merged if e - s >= params.min_length]


LEVELS = (0.0, 0.01, 0.1, 0.3, 1.0, 3.0)
runs = st.lists(st.tuples(st.sampled_from(LEVELS), st.integers(1, 60)), min_size=1, max_size=12)


def track(segments) -> np.ndarray:
    return np.concatenate([np.full(length, level, dtype=complex) for level, length in segments])


@settings(max_examples=300, deadline=None)
@given(segments=runs, window=st.integers(4, 16), open_db=st.floats(1.0, 15.0),
       hysteresis_db=st.floats(0.1, 10.0), min_length=st.integers(1, 40),
       merge_gap=st.integers(0, 60), noise_seed=st.none() | st.integers(0, 99))
@example(segments=[(0.0, 200)], window=4, open_db=10.0, hysteresis_db=4.0,  # all silent
         min_length=1, merge_gap=0, noise_seed=None)
@example(segments=[(3.0, 40), (0.01, 200)], window=8, open_db=10.0, hysteresis_db=4.0,  # active at 0
         min_length=1, merge_gap=0, noise_seed=None)
@example(segments=[(0.01, 200), (3.0, 40)], window=8, open_db=10.0, hysteresis_db=4.0,  # active at n
         min_length=1, merge_gap=0, noise_seed=None)
@example(segments=[(0.01, 100), (1.0, 30), (0.01, 10), (1.0, 30), (0.01, 100), (1.0, 3), (0.01, 50)],
         window=4, open_db=10.0, hysteresis_db=4.0, min_length=12, merge_gap=20, noise_seed=3)
def test_detector_matches_per_sample_state_machine(segments, window, open_db, hysteresis_db,
                                                   min_length, merge_gap, noise_seed):
    x = track(segments)
    if x.size < window:
        x = np.concatenate([x, np.zeros(window - x.size, dtype=complex)])
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        x += 0.005 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    params = DetectorParams(window=window, open_threshold_db=open_db,
                            close_threshold_db=open_db - hysteresis_db,
                            min_length=min_length, merge_gap=merge_gap)
    rois = detect_bursts(IqRecording(x, FS), params)
    got = [(r.start_sample, r.length, r.peak_metric, r.noise_floor) for r in rois]
    assert got == state_machine_detect(x, params)


class TestMatchRois:
    def roi(self, start, length):
        return RegionOfInterest(start, length, peak_metric=12.0, noise_floor=1.0)

    def test_identical_lists(self):
        rois = [self.roi(100, 50), self.roi(300, 80)]
        truth = [("a", 100, 50), ("b", 300, 80)]
        assert match_rois(rois, truth, tolerance=0) == (2, 0, 0)

    def test_empty_detected(self):
        truth = [("a", 100, 50), ("b", 300, 80), ("c", 500, 10)]
        assert match_rois([], truth, tolerance=5) == (0, 3, 0)

    def test_shift_beyond_tolerance(self):
        rois = [self.roi(150, 50)]
        truth = [("a", 100, 50)]
        assert match_rois(rois, truth, tolerance=10) == (0, 1, 1)

    def test_greedy_prefers_nearest(self):
        rois = [self.roi(105, 50), self.roi(300, 50)]
        truth = [("a", 100, 50), ("b", 305, 50)]
        assert match_rois(rois, truth, tolerance=10) == (2, 0, 0)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ParameterError):
            match_rois([], [], tolerance=-1)
