"""Closed-loop receiver tuning over a discrete config grid.

The controller evaluates acquisition quality through a caller-supplied
plant function, config -> (objective value, SNR estimate in dB, clipping
ratio, ROI count): the measured fields of one TuningStep, from one
measurement, as objective() returns them. tune only searches a gain x
bandwidth grid, exhaustively or by coordinate descent, and records what the
plant returned. The objective rewards per-burst SNR and penalizes clipping;
both are computable live, without labels.

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
from .dsp import (SNR_MIN_SAMPLES, check_decibels, runs_mean_power, snr_db_from_powers, typed, typed_fields,
                  typed_items, union_runs)
from .errors import ParameterError, SizeError, TuningError
from .receiver import ReceiverConfig

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
        for name in ("gain_db_values", "filter_bw_hz_values"):
            axis = typed_items(name, getattr(self, name), float)
            if not axis:
                raise ParameterError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ParameterError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, axis)
        for i, gain in enumerate(self.gain_db_values):
            check_decibels(f"gain_db_values[{i}]", gain)

    @property
    def size(self) -> int:
        return len(self.gain_db_values) * len(self.filter_bw_hz_values)


@dataclass(frozen=True)
class ObjectiveParams:
    clip_weight: float = 0.5
    no_roi_penalty: float = 100.0

    def __post_init__(self) -> None:
        typed_fields(self)
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")


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


def _noise_power(power: np.ndarray, rois: Sequence[RegionOfInterest]) -> float:
    """The mean of the |z|^2 power no ROI covers, or nan when it covers too few samples or is not > 0.

    runs_mean_power over the gaps, with no mask and no gathered |z|^2."""
    n = power.size
    edges = [0, *itertools.chain.from_iterable(union_runs(((r.start_sample, r.end_sample) for r in rois), n)), n]
    gaps = list(zip(edges[::2], edges[1::2]))
    if sum(stop - start for start, stop in gaps) < SNR_MIN_SAMPLES:
        return float("nan")
    p_noise = runs_mean_power(power, gaps)
    return p_noise if p_noise > 0 else float("nan")


def acquisition_metrics(
    power: np.ndarray,
    rois: Sequence[RegionOfInterest],
    clip: float,
) -> tuple[float, float]:
    """(mean per-ROI SNR estimate in dB or nan, clipping ratio) of a capture, from its float64 |z|^2, power (as
    receiver.acquire_power writes it), its ROIs and its clipping ratio, clip (as acquire_power returns it).

    The SNR reference is the part of the capture not covered by any ROI;
    nan means no usable measurement (no ROI, a too-small complement, or a
    complement of zero power: the ADC quantized it to pure silence, or its
    |z|^2 underflows to 0). Each ROI's SNR is
    snr_db_from_powers(runs_mean_power over the ROI, runs_mean_power over the
    complement), with the complement's power reduced once for all ROIs.
    """
    if not rois:
        return float("nan"), clip
    p_noise = _noise_power(power, rois)
    if np.isnan(p_noise):
        return float("nan"), clip
    if max(roi.end_sample for roi in rois) > power.size:
        raise ParameterError("ROI extends past the end of the recording")
    shortest = min(roi.length for roi in rois)
    if shortest < SNR_MIN_SAMPLES:
        raise SizeError(f"every ROI needs >= {SNR_MIN_SAMPLES} samples, got {shortest}")
    snrs = [snr_db_from_powers(runs_mean_power(power, [(roi.start_sample, roi.end_sample)]), p_noise) for roi in rois]
    return float(np.mean(snrs)), clip


def objective(
    power: np.ndarray,
    rois: Sequence[RegionOfInterest],
    clip: float,
    params: ObjectiveParams = ObjectiveParams(),
) -> tuple[float, float, float, int]:
    """(acquisition-quality score, mean ROI SNR estimate in dB or nan, clipping ratio, ROI count), from one
    acquisition_metrics call: the plant's return for tune.

    The score is the mean ROI SNR minus a clipping penalty. No detected ROI
    (or no usable noise-floor region to reference the SNR against) earns the
    flat penalty -no_roi_penalty.
    """
    snr_est, clip = acquisition_metrics(power, rois, clip)
    value = snr_est - params.clip_weight * 100.0 * clip if np.isfinite(snr_est) else -params.no_roi_penalty
    return value, snr_est, clip, len(rois)


# config -> (objective value, snr_est_db, clip_ratio, n_rois): the measured fields of the config's TuningStep,
# in order, from one measurement of the config's acquisition (objective() returns this tuple).
PlantFn = Callable[[ReceiverConfig], tuple[float, float, float, int]]


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
    budget = grid.size if budget is None else typed("budget", budget, int)
    if budget < 1:
        raise TuningError(f"budget must allow at least one evaluation, got {budget}")
    max_rounds = typed("max_rounds", max_rounds, int)
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
            value, snr_est, clip, n_rois = acquire_fn(config)
            steps[point] = TuningStep(config, float(value), snr_est, clip, n_rois)
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
        [i, step.config.gain_db, step.config.filter_bw_hz, step.objective_value,
         step.snr_est_db, step.clip_ratio, step.n_rois]
        for i, step in enumerate(trace.steps)
    )
    atomic_write(path, csv_chunks(TRACE_CSV_COLUMNS, rows))
