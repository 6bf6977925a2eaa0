"""Parametric SDR receiver model: the tunable plant of the adaptive loop.

acquire() runs the front-end chain: additive front-end noise (injected
before the gain stage, so gain trades signal level against the quantization
floor but cannot buy back front-end SNR), amplifier gain, a fixed 63-tap
anti-alias lowpass whose bandwidth is the tunable, hard clipping, and a
uniform mid-tread ADC.

The quantizer grid is k * step for |k| <= 2^(bits-1) - 1 with
step = 2*full_scale / (2^bits - 1): zero is representable (silence stays
silent) and values driven past the grid by clipping saturate exactly at
+/- full_scale, which is what clipping_ratio looks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import IqRecording, add_white_noise, as_sum_of_parts, design_lowpass, fir_apply, seal
from .errors import ParameterError

NUM_FILTER_TAPS = 63

__all__ = ["ReceiverConfig", "acquire", "add_frontend_noise", "clipping_ratio", "quantization_step",
           "NUM_FILTER_TAPS"]


@dataclass(frozen=True)
class ReceiverConfig:
    """Tunable front-end parameters the controller optimizes."""

    filter_bw_hz: float
    gain_db: float = 0.0
    adc_bits: int = 12
    full_scale: float = 1.0
    frontend_noise_power: float = 0.0

    def __post_init__(self) -> None:
        if not self.filter_bw_hz > 0:
            raise ParameterError(f"filter_bw_hz must be > 0, got {self.filter_bw_hz}")
        if not 2 <= int(self.adc_bits) <= 16:
            raise ParameterError(f"adc_bits must lie in [2, 16], got {self.adc_bits}")
        if not self.full_scale > 0:
            raise ParameterError(f"full_scale must be > 0, got {self.full_scale}")
        if self.frontend_noise_power < 0:
            raise ParameterError("frontend_noise_power must be >= 0")


def quantization_step(adc_bits: int, full_scale: float) -> float:
    return 2.0 * full_scale / (2 ** int(adc_bits) - 1)


def _clip_and_quantize(part: np.ndarray, step: float, full_scale: float) -> None:
    """Clip one real component to the rails and round it to the ADC grid, in place."""
    np.clip(part, -full_scale, full_scale, out=part)
    part /= step
    np.round(part, out=part)
    part *= step
    np.clip(part, -full_scale, full_scale, out=part)


def add_frontend_noise(x: np.ndarray, power: float, seed: int) -> np.ndarray:
    """Add the seeded complex white front-end noise of mean power `power` to x, in place.

    This is acquire's first stage. It depends on neither gain nor bandwidth,
    so acquiring a noisy copy with frontend_noise_power=0 gives the same
    bits as acquiring the clean input with the noise power set.
    """
    if power > 0:
        add_white_noise(x, np.sqrt(power / 2.0), seed)
    return x


def acquire(input_recording: IqRecording, config: ReceiverConfig, seed: int) -> IqRecording:
    """Run the receiver chain over a recording; deterministic given the seed.

    Noise and gain change one copy of the input, and clipping and the ADC
    work in place inside the filter output, so a call holds at most two
    captures besides its input.
    """
    fs = input_recording.sample_rate_hz
    if config.filter_bw_hz >= fs:
        raise ParameterError(
            f"filter_bw_hz={config.filter_bw_hz} is at or above the sample rate {fs}"
        )
    x = input_recording.samples.copy()
    add_frontend_noise(x, config.frontend_noise_power, seed)

    x *= 10.0 ** (config.gain_db / 20.0)

    taps = design_lowpass(config.filter_bw_hz / (2.0 * fs), NUM_FILTER_TAPS)
    x = fir_apply(x, taps)

    step = quantization_step(config.adc_bits, config.full_scale)
    _clip_and_quantize(x.real, step, config.full_scale)
    _clip_and_quantize(x.imag, step, config.full_scale)
    return input_recording.replace_samples(seal(as_sum_of_parts(x)))


def clipping_ratio(recording: IqRecording, full_scale: float) -> float:
    """Fraction of samples with either component at the rails.

    A component counts as railed when |v| >= full_scale - eps with
    eps = full_scale * 1e-9. Empty recordings report 0.0.
    """
    if not full_scale > 0:
        raise ParameterError(f"full_scale must be > 0, got {full_scale}")
    z = recording.samples
    if z.size == 0:
        return 0.0
    limit = full_scale - full_scale * 1e-9
    railed = (np.abs(z.real) >= limit) | (np.abs(z.imag) >= limit)
    return float(np.mean(railed))
