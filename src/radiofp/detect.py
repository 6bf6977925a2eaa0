"""Energy-based burst detection with hysteresis.

A moving-average power track is compared against a median noise floor with
dual open/close thresholds, so noisy burst edges do not chatter. The median
keeps the floor honest as long as bursts occupy less than half the session.
Detection is batch, over whole recordings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dsp import IqRecording
from .errors import ParameterError, SizeError

__all__ = ["DetectorParams", "RegionOfInterest", "MatchReport", "detect_bursts", "match_rois"]


@dataclass(frozen=True)
class DetectorParams:
    window: int = 64
    open_threshold_db: float = 10.0
    close_threshold_db: float = 6.0
    min_length: int = 1
    merge_gap: int = 0

    def __post_init__(self) -> None:
        if self.window < 4:
            raise ParameterError(f"window must be >= 4, got {self.window}")
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
        return recording.samples[self.start_sample:self.end_sample]


class MatchReport(NamedTuple):
    hits: int
    misses: int
    false_alarms: int


def _run_starts(mask: np.ndarray) -> np.ndarray:
    """Indices where a run of True begins: every other change of the mask, after a leading False."""
    return np.flatnonzero(np.diff(mask, prepend=False))[::2]


def detect_bursts(recording: IqRecording, params: DetectorParams) -> list[RegionOfInterest]:
    """Detect burst spans; returned ROIs are disjoint and ascending.

    Boundary accuracy is limited by the moving-average smear, about
    window/2 samples on each side.
    """
    n = len(recording)
    if n < params.window:
        raise SizeError(f"recording length {n} is shorter than the window {params.window}")
    power = np.abs(recording.samples)
    np.square(power, out=power)
    p = np.convolve(power, np.full(params.window, 1.0 / params.window), mode="same")
    del power
    floor = float(np.median(p))

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
    opens = _run_starts(p >= open_thr)
    closes = _run_starts(p < close_thr)
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
        metric = float(10.0 * np.log10(peak / floor_out))
        rois.append(RegionOfInterest(s, e - s, metric, floor_out))
    return rois


def _as_span(item) -> tuple[int, int]:
    if isinstance(item, RegionOfInterest):
        return item.start_sample, item.length
    tup = tuple(item)
    if len(tup) == 3:  # (emitter_id, start, length) ground-truth style
        return int(tup[1]), int(tup[2])
    if len(tup) == 2:
        return int(tup[0]), int(tup[1])
    raise ParameterError(f"cannot interpret span {item!r}")


def match_rois(detected: Sequence, truth: Sequence, tolerance: int) -> MatchReport:
    """Greedy one-to-one matching of detections against ground truth.

    Pairs are matched in order of midpoint distance; a matched pair only
    counts as a hit when both boundary errors are within the tolerance,
    otherwise it contributes one miss and one false alarm.
    """
    if tolerance < 0:
        raise ParameterError("tolerance must be >= 0")
    det = [_as_span(d) for d in detected]
    tru = [_as_span(t) for t in truth]

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
