"""Parametric SDR receiver model: the tunable plant of the adaptive loop.

acquire_in_place() runs the front-end chain on a buffer its caller owns, and
acquire() runs it on a copy of a recording's samples. The chain: additive
front-end noise (injected before the gain stage, so gain trades signal level
against the quantization floor but cannot buy back front-end SNR), amplifier
gain, a fixed 63-tap anti-alias lowpass whose bandwidth is the tunable, hard
clipping, and a uniform mid-tread ADC.

The quantizer grid is k * step for |k| <= 2^(bits-1) - 1 with
step = 2*full_scale / (2^bits - 1): zero is representable (silence stays
silent) and values driven past the grid by clipping saturate exactly at
+/- full_scale, which is what clipping_ratio looks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (IqRecording, add_white_noise, as_complex_array, check_decibels, design_lowpass, fir_apply, seal,
                  widened_blocks)
from .errors import ParameterError

NUM_FILTER_TAPS = 63
# One complex128 sample read as its (I, Q) float64 pair. Made once: building it in each _adc call moved the
# heap so that tune's peak RSS read 6.4 MB higher under some install paths.
_IQ_PAIR = np.dtype((np.float64, 2))

__all__ = ["ReceiverConfig", "acquire", "acquire_in_place", "add_frontend_noise", "clipping_ratio",
           "quantization_step", "NUM_FILTER_TAPS"]


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
        check_decibels("gain_db", self.gain_db)
        if not 2 <= int(self.adc_bits) <= 16:
            raise ParameterError(f"adc_bits must lie in [2, 16], got {self.adc_bits}")
        if not self.full_scale > 0:
            raise ParameterError(f"full_scale must be > 0, got {self.full_scale}")
        if self.frontend_noise_power < 0:
            raise ParameterError("frontend_noise_power must be >= 0")


def quantization_step(adc_bits: int, full_scale: float) -> float:
    return 2.0 * full_scale / (2 ** int(adc_bits) - 1)


def _adc(x: np.ndarray, step: float, full_scale: float) -> np.ndarray:
    """The ADC over x, in place: clip I and Q to the rails, round them to the grid and clip them again.
    Returns x.

    Each step is one pass over I and Q together: the (n, 2) float64 view of x, which any stride of x allows.
    """
    parts = x.view(_IQ_PAIR)
    np.clip(parts, -full_scale, full_scale, out=parts)
    parts /= step
    np.round(parts, out=parts)
    parts *= step
    np.clip(parts, -full_scale, full_scale, out=parts)
    return x


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
    """Run the receiver chain (acquire_in_place) over a copy of a recording; deterministic given the seed.

    So a call holds one capture besides its input, plus a few blocks.
    """
    x = as_complex_array(input_recording.samples, copy=True)
    return input_recording.replace_samples(seal(acquire_in_place(x, input_recording.sample_rate_hz, config, seed)))


def acquire_in_place(x: np.ndarray, sample_rate_hz: float, config: ReceiverConfig, seed: int) -> np.ndarray:
    """Run the receiver chain over the complex128 samples x, in place; returns x.

    Every stage works in place: the noise, the gain, the FIR (which filters
    in blocks, see fir_apply) and the ADC (clipping included, see _adc). So
    the chain holds a few blocks besides x.
    """
    if config.filter_bw_hz >= sample_rate_hz:
        raise ParameterError(
            f"filter_bw_hz={config.filter_bw_hz} is at or above the sample rate {sample_rate_hz}"
        )
    add_frontend_noise(x, config.frontend_noise_power, seed)

    x *= 10.0 ** (config.gain_db / 20.0)

    taps = design_lowpass(config.filter_bw_hz / (2.0 * sample_rate_hz), NUM_FILTER_TAPS)
    fir_apply(x, taps, out=x)

    return _adc(x, quantization_step(config.adc_bits, config.full_scale), config.full_scale)


def clipping_ratio(recording: IqRecording, full_scale: float) -> float:
    """Fraction of samples with either component at the rails.

    A component counts as railed when |v| >= full_scale - eps with
    eps = full_scale * 1e-9. Empty recordings report 0.0. The samples are
    counted one complex128 block at a time (dsp.widened_blocks).
    """
    if not full_scale > 0:
        raise ParameterError(f"full_scale must be > 0, got {full_scale}")
    z = recording.samples
    if z.size == 0:
        return 0.0
    limit = full_scale - full_scale * 1e-9
    railed = sum(int(np.count_nonzero((np.abs(part.real) >= limit) | (np.abs(part.imag) >= limit)))
                 for _, part in widened_blocks(z))
    return railed / z.size
