import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiofp.channel import add_awgn
from radiofp.detect import (MEDIAN_SAMPLE, DetectorParams, RegionOfInterest, _median, _run_starts, detect_bursts,
                            detect_power, match_rois)
from radiofp.dsp import BLOCK_SAMPLES, IqRecording
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


def power_track(x, window):
    """The reference power track: the whole-array "same" np.convolve of |x|^2 and a 1/window boxcar."""
    return np.convolve(np.abs(x) ** 2, np.full(window, 1.0 / window), mode="same")


class TestDetectorParams:
    def test_hysteresis_enforced(self):
        with pytest.raises(ParameterError):
            DetectorParams(open_threshold_db=6.0, close_threshold_db=6.0)

    @pytest.mark.parametrize("field, db", [("open_threshold_db", 8000.0), ("close_threshold_db", -8000.0),
                                           ("open_threshold_db", float("nan"))])
    def test_threshold_without_a_finite_positive_power_ratio_is_named(self, field, db):
        with pytest.raises(ParameterError, match=field):
            DetectorParams(**{field: db})

    def test_window_minimum(self):
        with pytest.raises(ParameterError):
            DetectorParams(window=2)

    @pytest.mark.parametrize("field", ["window", "min_length", "merge_gap"])
    def test_integer_fields_must_be_integers(self, field):
        """window=16.5 was accepted, and detect_bursts then raised a bare TypeError."""
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            DetectorParams(**{field: 16.5})
        assert type(getattr(DetectorParams(**{field: np.int64(16)}), field)) is int

    def test_a_bool_is_not_an_integer(self):
        """window=True was taken as 1 and reported as "got 1"."""
        with pytest.raises(ParameterError, match="window must be an integer, got True"):
            DetectorParams(window=True)

    @pytest.mark.parametrize("field", ["open_threshold_db", "close_threshold_db"])
    def test_thresholds_must_be_real_numbers(self, field):
        """open_threshold_db="10" raised a bare TypeError."""
        with pytest.raises(ParameterError, match=f"{field} must be a real number"):
            DetectorParams(**{field: "10"})
        assert type(getattr(DetectorParams(**{field: np.float32(8.0)}), field)) is float


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

    def test_peak_metric_over_a_silent_floor_is_finite_and_ordered(self):
        """Over half the session exactly silent: the floor is 0 and the metric stays finite."""
        x = np.zeros(4096, dtype=complex)
        x[500:800] = 3.0
        x[2000:2300] = 0.5
        strong, weak = detect_bursts(IqRecording(x, FS), DetectorParams(window=16))
        assert strong.noise_floor == weak.noise_floor == np.finfo(np.float64).tiny
        assert np.isfinite(strong.peak_metric) and np.isfinite(weak.peak_metric)
        assert strong.peak_metric > weak.peak_metric

    def test_peak_metric_over_a_subnormal_floor_is_finite(self):
        """A positive floor so small that peak / floor overflows: the difference of logs instead."""
        x = np.full(4096, 1e-160, dtype=complex)
        x[2000:2200] = 3.0
        (roi,) = detect_bursts(IqRecording(x, FS), DetectorParams(window=16))
        assert 0 < roi.noise_floor < np.finfo(np.float64).tiny
        peak = 9.0  # the smoothed power inside the burst
        assert roi.peak_metric == pytest.approx(10.0 * (np.log10(peak) - np.log10(roi.noise_floor)))
        assert 3000 < roi.peak_metric < 4000

    def test_too_short_recording_raises(self):
        with pytest.raises(SizeError):
            detect_bursts(IqRecording(np.zeros(32, dtype=complex), FS), PARAMS)
        with pytest.raises(SizeError):
            detect_bursts(IqRecording(np.zeros(0, dtype=complex), FS), PARAMS)

    def test_peak_memory_is_one_capture_above_the_input(self):
        """The smoothed power track (half a complex capture) and one block of its convolution.

        At 2^18 samples that block is 0.125x the capture, which is more than the
        median's gathered values and masks (about 0.115x) on top of the track."""
        rec = thirteen_bursts()
        rois, peak = traced_peak(detect_bursts, rec, PARAMS)
        assert len(rois) == 13
        assert peak <= 0.65 * rec.samples.nbytes

    def test_a_given_track_is_filled_in_place_and_gives_the_same_rois(self):
        """The track a caller passes is overwritten with the power track, and the call holds no second one."""
        rec = thirteen_bursts()
        track = np.full(len(rec), np.nan)
        rois, peak = traced_peak(detect_bursts, rec, PARAMS, track)
        assert rois == detect_bursts(rec, PARAMS)
        assert track.tobytes() == power_track(rec.samples, PARAMS.window).tobytes()
        assert peak <= 0.15 * rec.samples.nbytes

    @pytest.mark.parametrize("track", [np.empty(1023), np.empty(1024, dtype=np.float32), np.empty((1024, 1)),
                                       [0.0] * 1024])
    def test_a_track_of_the_wrong_type_or_shape_is_refused(self, track):
        with pytest.raises(ParameterError, match="track must be a writable float64 array of shape \\(1024,\\)"):
            detect_bursts(IqRecording(np.zeros(1024, dtype=complex), FS), PARAMS, track)

    def test_a_read_only_track_is_refused(self):
        track = np.empty(1024)
        track.setflags(write=False)
        with pytest.raises(ParameterError, match="writable"):
            detect_bursts(IqRecording(np.zeros(1024, dtype=complex), FS), PARAMS, track)


def thirteen_bursts() -> IqRecording:
    """2^18 samples of noise with 13 bursts of 3000 samples."""
    n = 2 ** 18
    rng = np.random.default_rng(9)
    x = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for start in range(1000, n - 4000, 20000):
        x[start:start + 3000] += 1.0
    return IqRecording(x, FS)


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def silent_floor() -> IqRecording:
    """Over half the capture exactly silent: detection's floor == 0 path."""
    x = np.zeros(4096, dtype=complex)
    x[500:800] = 3.0
    x[2000:2300] = 0.5
    return IqRecording(x, FS)


class TestDetectPower:
    @pytest.mark.parametrize("capture, params", [
        (thirteen_bursts, PARAMS),
        (lambda: synth_session([0.002, 0.02, 0.04], snr_db=15.0, seed=5)[0], PARAMS),
        (silent_floor, DetectorParams(window=16)),
    ])
    @pytest.mark.parametrize("where", ["in place", "into a track", "into a new track"])
    def test_gives_detect_bursts_rois_from_the_power(self, capture, params, where):
        """detect_power over |z|^2 gives detect_bursts' ROIs, with the power track written in place, into a
        separate track (power left as it was) or into a new array."""
        rec = capture()
        want = detect_bursts(rec, params)
        assert want
        power = np.square(np.abs(rec.samples))
        before = power.copy()
        track = {"in place": power, "into a track": np.full(power.size, np.nan), "into a new track": None}[where]
        assert detect_power(power, params, track) == want
        if track is not None:
            assert track.tobytes() == power_track(rec.samples, params.window).tobytes()
        if track is not power:
            assert power.tobytes() == before.tobytes()

    def test_the_silent_floor_is_zero(self):
        strong, weak = detect_power(np.square(np.abs(silent_floor().samples)), DetectorParams(window=16))
        assert strong.noise_floor == weak.noise_floor == np.finfo(np.float64).tiny

    def test_a_short_power_or_a_wrong_track_is_refused(self):
        with pytest.raises(SizeError):
            detect_power(np.zeros(32), PARAMS)
        with pytest.raises(ParameterError, match="track must be a writable float64 array of shape \\(1024,\\)"):
            detect_power(np.zeros(1024), PARAMS, np.empty(1023))


B = BLOCK_SAMPLES
S = MEDIAN_SAMPLE
# Sizes at the stride's steps (stride = ceil(n / MEDIAN_SAMPLE)) and at the block edges.
MEDIAN_SIZES = [1, 2, 3, 4, 5, S - 1, S, S + 1, 2 * S - 1, 2 * S, 2 * S + 1, 3 * S + 2, B - 1, B, B + 1, 2 * B + 3]


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from(MEDIAN_SIZES) | st.integers(1, 200),
       pool=st.lists(st.floats(min_value=0.0, allow_nan=False) | st.sampled_from([0.0, 5e-324, 2e-308, np.inf]),
                     min_size=1, max_size=6),
       tied=st.sampled_from([0.0, 0.5, 0.9, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=B + 1, pool=[0.0], tied=1.0, seed=0)  # all equal: every value is gathered
@example(n=2 * S, pool=[1e300, np.inf], tied=0.5, seed=1)
def test_median_has_the_bits_of_np_median(n, pool, tied, seed):
    """Ties (a share of values from a small pool), zeros, inf, subnormals and odd and even sizes."""
    rng = np.random.default_rng(seed)
    p = rng.exponential(rng.choice([1e-310, 1e-3, 1.0, 1e300]), n)
    ties = rng.random(n) < tied
    p[ties] = rng.choice(np.array(pool) + 0.0, int(ties.sum()))  # + 0.0: no -0.0, as in a power track
    with np.errstate(over="ignore"):  # two middle values near the float maximum average to inf
        want = np.median(p)
        with mock.patch.object(np, "median", side_effect=AssertionError("fell back")):  # iid values: no fallback
            got = _median(p)
    assert np.float64(got).tobytes() == want.tobytes()


def test_median_falls_back_when_the_sample_misses_the_middle(monkeypatch):
    """Every sampled value (each stride-th) is large, every other one 0: the bounds miss the middle ranks."""
    n = 4 * S
    p = np.zeros(n)
    p[::4] = 1.0 + np.arange(S)
    calls = []
    median = np.median
    monkeypatch.setattr(np, "median", lambda a: calls.append(a.size) or median(a))
    assert _median(p) == 0.0
    assert calls == [n]


def test_median_holds_the_gathered_values_once():
    """The values between the bounds (about 9.5 % of the track) are gathered into one array
    sized by a counting pass, not joined from per-block pieces (0.19x the track)."""
    p = np.random.default_rng(5).exponential(1.0, 2 ** 21)
    tracemalloc.start()
    try:
        got = _median(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == np.median(p)
    assert peak <= 0.125 * p.nbytes


@pytest.mark.parametrize("window", [4, 17, 64])
@pytest.mark.parametrize("n", [64, B - 1, B, B + 1, B + 40, 2 * B - 1, 2 * B + 3, 7 * B // 2])
def test_power_track_blocks_give_the_bits_of_one_whole_convolution(n, window):
    """Each block's dot products are the whole "same" convolution's, at the block edges and the array ends."""
    rng = np.random.default_rng(n + window)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    track = np.empty(n)
    detect_bursts(IqRecording(x, FS), DetectorParams(window=window), track)
    assert track.tobytes() == power_track(x, window).tobytes()


def test_run_starts_across_block_edges():
    """Runs that start on, end on and cross the block edges: the rises of one whole mask."""
    track = np.zeros(3 * B + 5)
    for start, stop in [(0, 3), (B - 2, B + 4), (2 * B, 2 * B + 1), (2 * B + 7, 3 * B + 5)]:
        track[start:stop] = 1.0
    mask = track >= 0.5
    want = np.flatnonzero(mask & ~np.concatenate(([False], mask[:-1])))
    assert _run_starts(track, np.greater_equal, 0.5).tolist() == want.tolist() == [0, B - 2, 2 * B, 2 * B + 7]
    assert _run_starts(track, np.less, 0.5).tolist() == [3, B + 4, 2 * B + 1]


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

    def metric(peak: float) -> float:  # a difference of logs over a zero floor, or where the ratio overflows
        if floor > 0 and peak / floor_out < np.inf:
            return float(10.0 * np.log10(peak / floor_out))
        return float(10.0 * (np.log10(peak) - np.log10(floor_out)))

    return [(s, e - s, metric(float(np.max(p[s:e]))), floor_out)
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
@example(segments=[(0.0, 200), (3.0, 40), (0.0, 60), (0.5, 40)], window=8, open_db=10.0,  # zero floor
         hysteresis_db=4.0, min_length=1, merge_gap=0, noise_seed=None)
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

    def test_start_length_pairs_match_as_rois_do(self):
        """(start, length) pairs, the form perfbench/traced_run.py passes for both lists."""
        assert match_rois([(105, 50), (300, 50)], [(100, 50), (305, 50)], tolerance=10) == (2, 0, 0)
        assert match_rois([(150, 50)], [(100, 50)], tolerance=10) == (0, 1, 1)

    @pytest.mark.parametrize("span", [(100,), (1, 100, 50, 0), ()])
    def test_a_span_it_cannot_read_raises(self, span):
        with pytest.raises(ParameterError, match="cannot interpret span"):
            match_rois([span], [("a", 100, 50)], tolerance=10)

    @pytest.mark.parametrize("detected, truth, what", [
        ([(0, 2.7)], [(0, 3)], r"detected\[0\] length must be an integer, got 2\.7"),
        ([(0, 3)], [("a", "0", "3")], r"truth\[0\] start must be an integer, got '0'"),
        ([(True, 3)], [(0, 3)], r"detected\[0\] start must be an integer, got True"),
    ])
    def test_a_span_that_is_not_integers_is_named(self, detected, truth, what):
        """(0, 2.7) was truncated to a length of 2, and ("a", "0", "3") was parsed from its strs."""
        with pytest.raises(ParameterError, match=what):
            match_rois(detected, truth, tolerance=0)
        assert match_rois([(np.int64(0), np.int32(3))], [("a", 0, 3)], tolerance=0) == (1, 0, 0)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ParameterError):
            match_rois([], [], tolerance=-1)
