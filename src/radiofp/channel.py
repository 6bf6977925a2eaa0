"""Propagation impairments between emitter and receiver.

Integer-tap multipath (upfade/downfade/nulling via tap interference), scalar
path loss, and AWGN at a target SNR. The channel is static per recording;
noise is deterministic given the seed.

propagate runs the whole chain on one buffer; apply_multipath and
apply_path_loss are its one-step cases. Each returns a new recording.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dsp import IqRecording, add_white_noise, seal
from .emitter import BurstSpan
from .errors import ParameterError

__all__ = ["ChannelSpec", "propagate", "apply_multipath", "apply_path_loss", "add_awgn"]


@dataclass(frozen=True)
class ChannelSpec:
    """A static channel: tapped delay line + flat loss + AWGN level.

    snr_db = math.inf means no noise is added.
    """

    snr_db: float = math.inf
    multipath_taps: tuple[tuple[int, complex], ...] = ()
    path_loss_db: float = 0.0

    def __post_init__(self) -> None:
        taps = tuple((int(d), complex(g)) for d, g in self.multipath_taps)
        object.__setattr__(self, "multipath_taps", taps)
        if self.path_loss_db < 0:
            raise ParameterError(f"path_loss_db must be >= 0, got {self.path_loss_db}")
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


def _noise_scale(snr_db: float, signal_power_ref: float) -> float:
    """Per-component noise standard deviation for a target SNR against a reference power."""
    sigma2 = signal_power_ref / 10.0 ** (snr_db / 10.0)
    return np.sqrt(sigma2 / 2.0)


def propagate(
    recording: IqRecording,
    ground_truth: Sequence[BurstSpan],
    channel: ChannelSpec,
    seed: int,
) -> IqRecording:
    """Run a rendered session through the channel: multipath, then path loss, then AWGN.

    The AWGN level references the mean power over the ground-truth burst
    spans, measured after multipath and path loss, so inter-burst silence
    does not skew the target SNR. With no bursts the reference power is 1.0
    (full scale). Multipath writes a new buffer, one scratch buffer holding
    each tap's product in turn; loss and noise change it in place.
    """
    taps, loss_db, snr_db = channel.multipath_taps, channel.path_loss_db, channel.snr_db
    noiseless = np.isinf(snr_db) and snr_db > 0
    if not taps and loss_db == 0 and noiseless:
        return recording
    samples = recording.samples
    if taps:  # y[n] = sum_k gain_k * x[n - delay_k]; out-of-range history reads as zero
        x = np.zeros_like(samples)
        scratch = np.empty_like(samples)
        for delay, gain in taps:
            if delay < x.size:
                x[delay:] += np.multiply(gain, samples[:x.size - delay], out=scratch[delay:])
        del scratch  # before the noise draws allocate theirs
    else:
        x = samples.copy()
    if loss_db != 0:
        x *= 10.0 ** (-loss_db / 20.0)
    if not noiseless:
        mask = np.zeros(x.size, dtype=bool)
        for span in ground_truth:
            mask[span.start_sample:span.start_sample + span.length] = True
        ref = float(np.mean(np.abs(x[mask]) ** 2)) if mask.any() else 1.0
        if ref <= 0.0:
            ref = 1.0
        add_white_noise(x, _noise_scale(snr_db, ref), seed)
    return recording.replace_samples(seal(x))


def apply_multipath(recording: IqRecording, taps) -> IqRecording:
    """y[n] = sum_k gain_k * x[n - delay_k], length preserving.

    Out-of-range history reads as zero. Empty taps are the identity.
    """
    return propagate(recording, (), ChannelSpec(multipath_taps=taps), seed=0)


def apply_path_loss(recording: IqRecording, loss_db: float) -> IqRecording:
    """Scale every sample by 10^(-loss_db/20)."""
    return propagate(recording, (), ChannelSpec(path_loss_db=loss_db), seed=0)


def add_awgn(recording: IqRecording, snr_db: float, signal_power_ref: float, seed: int) -> IqRecording:
    """Add circular complex Gaussian noise sized against a reference power.

    The caller supplies the mean burst power so silence between bursts does
    not skew the scaling: per-sample noise variance is
    signal_power_ref / 10^(snr_db/10), split evenly between I and Q.
    snr_db = inf is the documented no-noise sentinel.
    """
    if not signal_power_ref > 0:
        raise ParameterError(f"signal_power_ref must be > 0, got {signal_power_ref}")
    if math.isinf(snr_db) and snr_db > 0:
        return recording
    noisy = add_white_noise(recording.samples.copy(), _noise_scale(snr_db, signal_power_ref), seed)
    return recording.replace_samples(seal(noisy))
