"""Propagation impairments between emitter and receiver.

Integer-tap multipath (upfade/downfade/nulling via tap interference), scalar
path loss, and AWGN at a target SNR. The channel is static per recording;
noise is deterministic given the seed.

propagate_in_place runs the whole chain on a buffer its caller owns, and
propagate runs it on a copy and returns a new recording. One stage alone is
propagate with a ChannelSpec that sets only that stage, such as
propagate(rec, (), ChannelSpec(path_loss_db=6.0), seed=0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dsp import (BLOCK_SAMPLES, IqRecording, add_white_noise, as_complex_array, block_slices, check_decibels,
                  runs_mean_power, seal, typed, typed_fields, union_runs)
from .emitter import BurstSpan
from .errors import ParameterError

__all__ = ["ChannelSpec", "propagate", "propagate_in_place", "add_awgn"]


@dataclass(frozen=True)
class ChannelSpec:
    """A static channel: tapped delay line + flat loss + AWGN level.

    snr_db = math.inf means no noise is added. Any other dB value, the loss
    included, must have a finite, positive power ratio (dsp.check_decibels).
    """

    snr_db: float = math.inf
    multipath_taps: tuple[tuple[int, complex], ...] = ()
    path_loss_db: float = 0.0

    def __post_init__(self) -> None:
        typed_fields(self)
        taps = tuple((typed(f"multipath_taps[{i}] delay", d, int), typed(f"multipath_taps[{i}] gain", g, complex))
                     for i, (d, g) in enumerate(self.multipath_taps))
        object.__setattr__(self, "multipath_taps", taps)
        for i, (_, gain) in enumerate(taps):
            if not cmath.isfinite(gain):
                raise ParameterError(f"multipath_taps[{i}] gain must be finite, got {gain!r}")
        if self.path_loss_db < 0:
            raise ParameterError(f"path_loss_db must be >= 0, got {self.path_loss_db}")
        check_decibels("path_loss_db", self.path_loss_db)
        if not _noiseless(self.snr_db):
            check_decibels("snr_db", self.snr_db)
        if taps:
            delays = [d for d, _ in taps]
            if delays[0] != 0:
                raise ParameterError("multipath_taps must start with a delay-0 tap")
            if any(d < 0 for d in delays):
                raise ParameterError("multipath_taps delays must be >= 0")
            if any(b <= a for a, b in zip(delays, delays[1:])):
                raise ParameterError("multipath_taps delays must be strictly increasing")

    def to_doc(self) -> dict:
        """The manifest form: taps as [delay, re, im], an infinite SNR as "inf"."""
        return {
            "snr_db": "inf" if math.isinf(self.snr_db) else self.snr_db,
            "multipath_taps": [[d, g.real, g.imag] for d, g in self.multipath_taps],
            "path_loss_db": self.path_loss_db,
        }


def _noiseless(snr_db: float) -> bool:
    """True for the no-noise sentinel, snr_db = +inf."""
    return math.isinf(snr_db) and snr_db > 0


def _noise_scale(snr_db: float, signal_power_ref: float) -> float:
    """Per-component noise standard deviation for a target SNR against a reference power."""
    sigma2 = signal_power_ref / 10.0 ** (snr_db / 10.0)
    return np.sqrt(sigma2 / 2.0)


def propagate(recording: IqRecording, ground_truth: Sequence[BurstSpan], channel: ChannelSpec,
              seed: int) -> IqRecording:
    """Run a rendered session through the channel (propagate_in_place) on a copy of its samples.

    A transparent channel returns the recording itself. So a call holds one
    capture besides its input, plus what propagate_in_place holds.
    """
    if not channel.multipath_taps and channel.path_loss_db == 0 and _noiseless(channel.snr_db):
        return recording
    x = propagate_in_place(as_complex_array(recording.samples, copy=True), ground_truth, channel, seed)
    return recording.replace_samples(seal(x))


def propagate_in_place(x: np.ndarray, ground_truth: Sequence[BurstSpan], channel: ChannelSpec, seed: int) -> np.ndarray:
    """Run the complex128 samples x through the channel, in place: multipath, then path loss, then AWGN.

    The AWGN level references the mean power over the ground-truth burst
    spans, measured after multipath and path loss, so inter-burst silence
    does not skew the target SNR. With no bursts the reference power is 1.0
    (full scale). The chain holds a few blocks besides x. Returns x.
    """
    if channel.multipath_taps:
        _multipath_in_place(x, channel.multipath_taps)
    if channel.path_loss_db != 0:
        x *= 10.0 ** (-channel.path_loss_db / 20.0)
    if not _noiseless(channel.snr_db):
        ref = _burst_power(x, ground_truth)
        add_white_noise(x, _noise_scale(channel.snr_db, ref), seed)
    return x


def _multipath_in_place(x: np.ndarray, taps) -> None:
    """Write y[n] = sum_k gain_k * x[n - delay_k] over x; out-of-range history reads as zero.

    Blocks of BLOCK_SAMPLES go from the last to the first. Each block's tap
    products are added, in tap order, to a zeroed block-sized accumulator
    (one block-sized scratch buffer holds each product in turn), which is
    then written over the block. A block reads only samples at or before its
    own end, and no block there has been written yet.
    """
    total = np.empty(min(x.size, BLOCK_SAMPLES), dtype=x.dtype)
    scratch = np.empty_like(total)
    for block in reversed(list(block_slices(x.size))):
        acc = total[:block.stop - block.start]
        acc[:] = 0
        for delay, gain in taps:
            lo, stop = max(block.start, delay), block.stop
            if lo < stop:
                acc[lo - block.start:] += np.multiply(gain, x[lo - delay:stop - delay], out=scratch[:stop - lo])
        x[block] = acc


def _burst_power(x: np.ndarray, ground_truth: Sequence[BurstSpan]) -> float:
    """Mean |x|^2 over the union of the spans (runs_mean_power); 1.0 with no span or no power."""
    runs = union_runs(((span.start_sample, span.start_sample + span.length) for span in ground_truth), x.size)
    ref = runs_mean_power(x, runs) if runs else 0.0
    return ref if ref > 0.0 else 1.0


def add_awgn(recording: IqRecording, snr_db: float, signal_power_ref: float, seed: int) -> IqRecording:
    """Add circular complex Gaussian noise sized against a reference power.

    The caller supplies the mean burst power so silence between bursts does
    not skew the scaling: per-sample noise variance is
    signal_power_ref / 10^(snr_db/10), split evenly between I and Q.
    snr_db = inf is the documented no-noise sentinel.
    """
    if not signal_power_ref > 0:
        raise ParameterError(f"signal_power_ref must be > 0, got {signal_power_ref}")
    if _noiseless(snr_db):
        return recording
    check_decibels("snr_db", snr_db)
    x = as_complex_array(recording.samples, copy=True)
    return recording.replace_samples(seal(add_white_noise(x, _noise_scale(snr_db, signal_power_ref), seed)))
