"""Energy-based burst detection with hysteresis.

A moving-average power track is compared against a median noise floor with
dual open/close thresholds, so noisy burst edges do not chatter. The median
keeps the floor honest as long as bursts occupy less than half the session.
It is np.median's value, found without a copy of the track (see _median).
Detection is batch, over a whole capture's |z|^2 (detect_power), which
detect_bursts reads from a recording as complex128 a block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dsp import (IqRecording, as_complex_array, block_slices, check_decibels, check_track, convolve_same, typed,
                  typed_fields, widened_blocks)
from .errors import ParameterError, SizeError

__all__ = ["DetectorParams", "RegionOfInterest", "MatchReport", "detect_bursts", "detect_power", "match_rois"]


@dataclass(frozen=True)
class DetectorParams:
    window: int = 64
    open_threshold_db: float = 10.0
    close_threshold_db: float = 6.0
    min_length: int = 1
    merge_gap: int = 0

    def __post_init__(self) -> None:
        typed_fields(self)
        if self.window < 4:
            raise ParameterError(f"window must be >= 4, got {self.window}")
        check_decibels("open_threshold_db", self.open_threshold_db)
        check_decibels("close_threshold_db", self.close_threshold_db)
        if not self.close_threshold_db < self.open_threshold_db:
            raise ParameterError("close_threshold_db must be below open_threshold_db (hysteresis)")
        if self.min_length < 1:
            raise ParameterError("min_length must be >= 1")
        if self.merge_gap < 0:
            raise ParameterError("merge_gap must be >= 0")


@dataclass(frozen=True)
class RegionOfInterest:
    """A detected burst span: [start_sample, start_sample + length)."""

    start_sample: int
    length: int
    peak_metric: float
    noise_floor: float

    def __post_init__(self) -> None:
        typed_fields(self)
        if self.start_sample < 0 or self.length <= 0:
            raise ParameterError("ROI must have start_sample >= 0 and length > 0")
        if not self.noise_floor > 0:
            raise ParameterError("ROI noise_floor must be > 0")

    @property
    def end_sample(self) -> int:
        return self.start_sample + self.length

    def slice_of(self, recording: IqRecording) -> np.ndarray:
        if self.end_sample > len(recording):
            raise ParameterError("ROI extends past the end of the recording")
        return as_complex_array(recording.samples[self.start_sample:self.end_sample])


class MatchReport(NamedTuple):
    hits: int
    misses: int
    false_alarms: int


def _run_starts(track: np.ndarray, test, threshold: float) -> np.ndarray:
    """Indices where a run of test(track, threshold) begins, found one block of BLOCK_SAMPLES at a time."""
    found, before = [], False
    for block in block_slices(track.size):
        mask = test(track[block], threshold)
        found.append(np.flatnonzero(np.diff(mask, prepend=before) & mask) + block.start)  # the rises
        before = mask[-1]
    return np.concatenate(found)


# The median's bounds come from a strided sample of at most this many values of the track.
MEDIAN_SAMPLE = 4096


def _median(p: np.ndarray) -> float:
    """np.median(p), bit for bit, of a 1-D float array with no NaN, without a copy of p.

    The bounds are the order statistics 3*sqrt(m) + 2 ranks either side of
    the middle of a sorted strided sample of m <= MEDIAN_SAMPLE values. One
    pass over p, a block of BLOCK_SAMPLES at a time, counts the values below
    the lower bound and those up to the upper one; a second gathers the values
    between the bounds into one array of that size, so no block's values are
    held twice. p's middle order statistics are the gathered values' at known
    ranks. np.partition finds them and np.mean averages them: np.median's own
    last step. If the bounds miss the middle ranks, np.median(p) decides.
    """
    n = p.size
    sample = np.sort(p[::-(-n // MEDIAN_SAMPLE)])
    m = sample.size
    reach = 3 * math.isqrt(m) + 2
    lo, hi = sample[max(m // 2 - reach, 0)], sample[min(m // 2 + reach, m - 1)]
    below = up_to_hi = 0
    for block in block_slices(n):
        below += int(np.count_nonzero(p[block] < lo))
        up_to_hi += int(np.count_nonzero(p[block] <= hi))
    middle, filled = np.empty(up_to_hi - below), 0
    for block in block_slices(n):
        part = p[block]
        kept = part[(part >= lo) & (part <= hi)]
        middle[filled:filled + kept.size] = kept
        filled += kept.size
    # The middle order statistics within the gathered values: one for an odd n, two for an even n.
    ranks = sorted({(n - 1) // 2 - below, n // 2 - below})
    if ranks[0] < 0 or ranks[-1] >= middle.size:
        return float(np.median(p))
    middle.partition(ranks)
    return float(np.mean(middle[ranks[0]:ranks[-1] + 1]))


def detect_bursts(recording: IqRecording, params: DetectorParams,
                  track: np.ndarray | None = None) -> list[RegionOfInterest]:
    """detect_power over the recording's |z|^2, computed (then smoothed in place) in track: a writable float64
    array of len(recording) whose values are overwritten, or a new one by default."""
    power = np.empty(len(recording)) if track is None else track
    check_track("track", power, len(recording))
    for block, part in widened_blocks(recording.samples):
        np.square(np.abs(part, out=power[block]), out=power[block])
    part = None  # the last block's complex128 samples (up to 1 MiB) are not held while detect_power runs
    return detect_power(power, params, power)


def detect_power(power: np.ndarray, params: DetectorParams,
                 track: np.ndarray | None = None) -> list[RegionOfInterest]:
    """Detect burst spans from a capture's float64 |z|^2, power; returned ROIs are disjoint and ascending.

    The power track, convolve_same of power and a window-long 1/window boxcar
    (np.convolve's bits on this host), is written into track: power itself, a
    writable float64 array of its shape that shares no memory with it, or a
    new array by default. Boundary accuracy is limited by the moving-average
    smear, about window/2 samples on each side.
    """
    n = power.size
    if n < params.window:
        raise SizeError(f"recording length {n} is shorter than the window {params.window}")
    if track is not None:
        check_track("track", track, n)
    p = convolve_same(power, np.full(params.window, 1.0 / params.window), out=track)
    floor = _median(p)

    if floor > 0:
        open_thr = floor * 10.0 ** (params.open_threshold_db / 10.0)
        close_thr = floor * 10.0 ** (params.close_threshold_db / 10.0)
    else:
        # Degenerate silence floor: anything strictly positive is a burst.
        open_thr = np.nextafter(0.0, 1.0)
        close_thr = np.nextafter(0.0, 1.0)

    # Hysteresis from the crossings: each run at or above open_thr opens a span
    # that ends where the next run below close_thr begins, or at n. A span
    # opened before the previous one closed has a negative gap to it, so it
    # joins it, as does a span at most merge_gap after it.
    opens = _run_starts(p, np.greater_equal, open_thr)
    closes = _run_starts(p, np.less, close_thr)
    ends = np.append(closes, n)[np.searchsorted(closes, opens)]
    cut = opens[1:] - ends[:-1] > params.merge_gap
    starts = np.concatenate((opens[:1], opens[1:][cut]))
    ends = np.concatenate((ends[:-1][cut], ends[-1:]))

    floor_out = floor if floor > 0 else float(np.finfo(np.float64).tiny)
    rois = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        if e - s < params.min_length:
            continue
        peak = float(np.max(p[s:e]))
        ratio = peak / floor_out
        if floor > 0 and np.isfinite(ratio):
            metric = float(10.0 * np.log10(ratio))
        else:  # over a zero or subnormal floor the ratio can overflow; the difference of logs does not
            metric = float(10.0 * (np.log10(peak) - np.log10(floor_out)))
        rois.append(RegionOfInterest(s, e - s, metric, floor_out))
    return rois


def _as_span(item, where: str) -> tuple[int, int]:
    """(start, length) of a ROI, a (start, length) pair or an (emitter_id, start, length) ground-truth span."""
    if isinstance(item, RegionOfInterest):
        return item.start_sample, item.length
    tup = tuple(item)
    if len(tup) not in (2, 3):
        raise ParameterError(f"cannot interpret span {item!r}")
    return typed(f"{where} start", tup[-2], int), typed(f"{where} length", tup[-1], int)


def match_rois(detected: Sequence, truth: Sequence, tolerance: int) -> MatchReport:
    """Greedy one-to-one matching of detections against ground truth.

    Pairs are matched in order of midpoint distance; a matched pair only
    counts as a hit when both boundary errors are within the tolerance,
    otherwise it contributes one miss and one false alarm.
    """
    if tolerance < 0:
        raise ParameterError("tolerance must be >= 0")
    det = [_as_span(d, f"detected[{i}]") for i, d in enumerate(detected)]
    tru = [_as_span(t, f"truth[{i}]") for i, t in enumerate(truth)]

    candidates = []
    for i, (ds, dl) in enumerate(det):
        for j, (ts, tl) in enumerate(tru):
            dist = abs((ds + dl / 2.0) - (ts + tl / 2.0))
            candidates.append((dist, i, j))
    candidates.sort()

    used_det: set[int] = set()
    used_tru: set[int] = set()
    hits = 0
    for _dist, i, j in candidates:
        if i in used_det or j in used_tru:
            continue
        used_det.add(i)
        used_tru.add(j)
        ds, dl = det[i]
        ts, tl = tru[j]
        if abs(ds - ts) <= tolerance and abs((ds + dl) - (ts + tl)) <= tolerance:
            hits += 1

    misses = len(tru) - hits
    false_alarms = len(det) - hits
    return MatchReport(hits, misses, false_alarms)
