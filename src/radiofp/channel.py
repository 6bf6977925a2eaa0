"""Propagation impairments between emitter and receiver.

Integer-tap multipath (upfade/downfade/nulling via tap interference), scalar
path loss, and AWGN at a target SNR. The channel is static per recording;
noise is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import IqRecording
from .errors import ParameterError

__all__ = ["ChannelSpec", "apply_multipath", "apply_path_loss", "add_awgn"]


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


def apply_multipath(recording: IqRecording, taps) -> IqRecording:
    """y[n] = sum_k gain_k * x[n - delay_k], length preserving.

    Out-of-range history reads as zero. Empty taps are the identity.
    """
    taps = tuple((int(d), complex(g)) for d, g in taps)
    if not taps:
        return recording
    ChannelSpec(multipath_taps=taps)  # reuse the invariant checks
    x = recording.samples
    y = np.zeros_like(x)
    for delay, gain in taps:
        if delay < x.size:
            y[delay:] += gain * x[:x.size - delay]
    return recording.replace_samples(y)


def apply_path_loss(recording: IqRecording, loss_db: float) -> IqRecording:
    """Scale every sample by 10^(-loss_db/20)."""
    if loss_db < 0:
        raise ParameterError(f"loss_db must be >= 0, got {loss_db}")
    if loss_db == 0:
        return recording
    return recording.replace_samples(recording.samples * 10.0 ** (-loss_db / 20.0))


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
    rng = np.random.default_rng(seed)
    sigma2 = signal_power_ref / 10.0 ** (snr_db / 10.0)
    scale = np.sqrt(sigma2 / 2.0)
    n = len(recording)
    noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return recording.replace_samples(recording.samples + noise)
