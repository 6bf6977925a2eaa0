"""Closed-loop receiver tuning over a discrete config grid.

The controller evaluates acquisition quality through a caller-supplied
plant function (config -> (recording, rois, objective value)) and searches
a gain x bandwidth grid, either exhaustively or by coordinate descent.
The objective rewards per-burst SNR and penalizes clipping; both are
computable live, without labels.

Ties always break toward lower gain, then lower bandwidth (less distortion
risk, reproducible traces). Strategies are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import atomic_write, csv_chunks
from .detect import RegionOfInterest
from .dsp import (SNR_MIN_SAMPLES, IqRecording, check_decibels, mean_power, runs_mean_power, snr_db_from_powers,
                  union_runs)
from .errors import ParameterError, SizeError, TuningError
from .receiver import ReceiverConfig, clipping_ratio

__all__ = [
    "TuningGrid",
    "ObjectiveParams",
    "TuningStep",
    "TuningTrace",
    "acquisition_metrics",
    "objective",
    "tune",
    "write_trace_csv",
]

TRACE_CSV_COLUMNS = ("step", "gain_db", "filter_bw_hz", "objective", "snr_est_db", "clip_ratio", "n_rois")


@dataclass(frozen=True)
class TuningGrid:
    gain_db_values: tuple[float, ...]
    filter_bw_hz_values: tuple[float, ...]

    def __post_init__(self) -> None:
        gains = tuple(float(g) for g in self.gain_db_values)
        bws = tuple(float(b) for b in self.filter_bw_hz_values)
        for name, axis in (("gain_db_values", gains), ("filter_bw_hz_values", bws)):
            if not axis:
                raise ParameterError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ParameterError(f"{name} must be strictly ascending")
        for i, gain in enumerate(gains):
            check_decibels(f"gain_db_values[{i}]", gain)
        object.__setattr__(self, "gain_db_values", gains)
        object.__setattr__(self, "filter_bw_hz_values", bws)

    @property
    def size(self) -> int:
        return len(self.gain_db_values) * len(self.filter_bw_hz_values)


@dataclass(frozen=True)
class ObjectiveParams:
    clip_weight: float = 0.5
    no_roi_penalty: float = 100.0
    full_scale: float = 1.0


class TuningStep(NamedTuple):
    config: ReceiverConfig
    objective_value: float
    snr_est_db: float
    clip_ratio: float
    n_rois: int


@dataclass(frozen=True)
class TuningTrace:
    steps: tuple[TuningStep, ...]
    best_config: ReceiverConfig
    best_value: float

    @property
    def n_evaluations(self) -> int:
        return len(self.steps)


def _noise_power(recording: IqRecording, rois: Sequence[RegionOfInterest]) -> float:
    """mean_power of the samples no ROI covers, or nan when they are too few or all zero.

    runs_mean_power over the gaps: mean_power's value within the float contract, with no mask and no gathered |z|^2."""
    z, n = recording.samples, len(recording)
    edges = [0, *itertools.chain.from_iterable(union_runs(((r.start_sample, r.end_sample) for r in rois), n)), n]
    gaps = list(zip(edges[::2], edges[1::2]))
    if sum(stop - start for start, stop in gaps) < SNR_MIN_SAMPLES or not any(z[a:b].any() for a, b in gaps):
        return float("nan")
    return runs_mean_power(z, gaps)


def acquisition_metrics(
    recording: IqRecording,
    rois: Sequence[RegionOfInterest],
    full_scale: float,
) -> tuple[float, float]:
    """(mean per-ROI SNR estimate in dB or nan, clipping ratio).

    The SNR reference is the part of the recording not covered by any ROI;
    nan means no usable measurement (no ROI, a too-small complement, or a
    complement the ADC quantized to pure silence). Each ROI's SNR is
    snr_db_from_powers(mean_power(roi samples), mean_power(complement)), with
    the complement's power reduced once for all ROIs.
    """
    clip = clipping_ratio(recording, full_scale)
    if not rois:
        return float("nan"), clip
    p_noise = _noise_power(recording, rois)
    if np.isnan(p_noise):
        return float("nan"), clip
    regions = [roi.slice_of(recording) for roi in rois]
    shortest = min(region.size for region in regions)
    if shortest < SNR_MIN_SAMPLES:
        raise SizeError(f"every ROI needs >= {SNR_MIN_SAMPLES} samples, got {shortest}")
    snrs = [snr_db_from_powers(mean_power(region), p_noise) for region in regions]
    return float(np.mean(snrs)), clip


def objective(
    recording: IqRecording,
    rois: Sequence[RegionOfInterest],
    params: ObjectiveParams = ObjectiveParams(),
) -> float:
    """Acquisition-quality score: mean ROI SNR minus a clipping penalty.

    No detected ROI (or no usable noise-floor region to reference the SNR
    against) earns the flat penalty -no_roi_penalty.
    """
    snr_est, clip = acquisition_metrics(recording, rois, params.full_scale)
    if not np.isfinite(snr_est):
        return -params.no_roi_penalty
    return snr_est - params.clip_weight * 100.0 * clip


PlantFn = Callable[[ReceiverConfig], tuple[IqRecording, Sequence[RegionOfInterest], float]]


def _step_key(step: TuningStep) -> tuple[float, float, float]:
    return (step.objective_value, -step.config.gain_db, -step.config.filter_bw_hz)


class _OutOfBudget(Exception):
    """A new grid point would exceed the evaluation budget."""


def tune(
    acquire_fn: PlantFn,
    grid: TuningGrid,
    strategy: str = "exhaustive",
    budget: int | None = None,
    max_rounds: int = 8,
    config_template: ReceiverConfig | None = None,
) -> TuningTrace:
    """Search the grid for the best receiver config.

    "exhaustive" walks the grid row-major (gain outer, bandwidth inner,
    both ascending) until done or out of budget. "coordinate_descent"
    starts at the grid midpoint and alternately line-searches the gain and
    bandwidth axes until a round brings no improvement, max_rounds is hit,
    or the budget runs out; repeated configs are memoized and do not consume
    budget. Either way the best-so-far trace is returned.

    config_template supplies the non-tuned receiver fields (ADC bits,
    full scale, front-end noise); only gain_db and filter_bw_hz vary.
    """
    if budget is None:
        budget = grid.size
    if budget < 1:
        raise TuningError(f"budget must allow at least one evaluation, got {budget}")
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    if strategy not in ("exhaustive", "coordinate_descent"):
        raise ParameterError(f"strategy must be 'exhaustive' or 'coordinate_descent', got {strategy!r}")
    axes = (grid.gain_db_values, grid.filter_bw_hz_values)
    template = config_template or ReceiverConfig(filter_bw_hz=axes[1][0])
    steps: dict[tuple[int, int], TuningStep] = {}  # by grid position, in evaluation order

    def evaluate(point: tuple[int, int]) -> TuningStep:
        if point not in steps:
            if len(steps) >= budget:
                raise _OutOfBudget
            config = replace(template, gain_db=axes[0][point[0]], filter_bw_hz=axes[1][point[1]])
            recording, rois, value = acquire_fn(config)
            snr_est, clip = acquisition_metrics(recording, rois, config.full_scale)
            steps[point] = TuningStep(config, float(value), snr_est, clip, len(rois))
        return steps[point]

    try:
        if strategy == "exhaustive":
            for point in itertools.product(*(range(len(axis)) for axis in axes)):
                evaluate(point)
        else:
            pos = tuple(len(axis) // 2 for axis in axes)
            current = evaluate(pos)
            for _round in range(max_rounds):
                start = pos
                for a, axis in enumerate(axes):
                    # A list, not a generator: the line stays put while pos moves along it.
                    line = [pos[:a] + (i,) + pos[a + 1:] for i in range(len(axis))]
                    for point in line:
                        step = evaluate(point)
                        if _step_key(step) > _step_key(current):
                            pos, current = point, step
                if pos == start:
                    break
    except _OutOfBudget:
        pass

    best = max(steps.values(), key=_step_key)
    return TuningTrace(tuple(steps.values()), best.config, best.objective_value)


def write_trace_csv(trace: TuningTrace, path) -> None:
    """Export a tuning trace for offline plotting (atomic write)."""
    rows = (
        [i, repr(step.config.gain_db), repr(step.config.filter_bw_hz), repr(step.objective_value),
         repr(step.snr_est_db), repr(step.clip_ratio), step.n_rois]
        for i, step in enumerate(trace.steps)
    )
    atomic_write(path, csv_chunks(TRACE_CSV_COLUMNS, rows))
