"""Parametric SDR receiver model: the tunable plant of the adaptive loop.

acquire_in_place() runs the front-end chain on a buffer its caller owns,
acquire() on a copy of a recording's samples, and acquire_power() on samples
it only reads, keeping the output's |z|^2. The chain: additive front-end
noise (injected before the gain stage, so gain trades signal level against
the quantization floor but cannot buy back front-end SNR), amplifier gain, a
fixed 63-tap anti-alias lowpass whose bandwidth is the tunable, hard
clipping, and a uniform mid-tread ADC. The noise is added to the whole
buffer; the rest runs one FIR block at a time (dsp.fir_blocks): the gain as
the block's inputs are copied, the FIR, then the ADC, and the block is
written back (acquire_in_place) or squared into the power (acquire_power).

The quantizer grid is k * step for |k| <= 2^(bits-1) - 1 with
step = 2*full_scale / (2^bits - 1): zero is representable (silence stays
silent) and values driven past the grid by clipping saturate exactly at
+/- full_scale, which is what the clipping ratio (_railed) looks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (IqRecording, add_white_noise, as_complex_array, check_decibels, check_track, design_lowpass,
                  fir_blocks, seal, typed_fields, write_in_blocks)
from .errors import ParameterError

NUM_FILTER_TAPS = 63
# One complex128 sample read as its (I, Q) float64 pair. Made once: building it in each _adc call moved the
# heap so that tune's peak RSS read 6.4 MB higher under some install paths.
_IQ_PAIR = np.dtype((np.float64, 2))

__all__ = ["ReceiverConfig", "acquire", "acquire_in_place", "acquire_power", "add_frontend_noise",
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
        typed_fields(self)
        if not self.filter_bw_hz > 0:
            raise ParameterError(f"filter_bw_hz must be > 0, got {self.filter_bw_hz}")
        check_decibels("gain_db", self.gain_db)
        if not 2 <= self.adc_bits <= 16:
            raise ParameterError(f"adc_bits must lie in [2, 16], got {self.adc_bits}")
        if not 0 < self.full_scale < np.inf:
            raise ParameterError(f"full_scale must be finite and > 0, got {self.full_scale}")
        if not 0 <= self.frontend_noise_power < np.inf:
            raise ParameterError(f"frontend_noise_power must be finite and >= 0, got {self.frontend_noise_power}")


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


def _digitized_blocks(x: np.ndarray, sample_rate_hz: float, config: ReceiverConfig):
    """(starts, back, outputs) of the chain after its noise: dsp.fir_blocks' gained, filtered blocks, digitized."""
    if config.filter_bw_hz >= sample_rate_hz:
        raise ParameterError(f"filter_bw_hz={config.filter_bw_hz} is at or above the sample rate {sample_rate_hz}")
    taps = design_lowpass(config.filter_bw_hz / (2.0 * sample_rate_hz), NUM_FILTER_TAPS)
    starts, back, filtered = fir_blocks(x, taps, 10.0 ** (config.gain_db / 20.0))
    step = quantization_step(config.adc_bits, config.full_scale)
    return starts, back, lambda start, stop: _adc(filtered(start, stop), step, config.full_scale)


def acquire_in_place(x: np.ndarray, sample_rate_hz: float, config: ReceiverConfig, seed: int) -> np.ndarray:
    """Run the receiver chain over the complex128 samples x, in place; returns x.

    Each digitized block is written back into x as dsp.write_in_blocks writes
    them, so the chain holds a few blocks besides x.
    """
    blocks = _digitized_blocks(x, sample_rate_hz, config)
    add_frontend_noise(x, config.frontend_noise_power, seed)
    return write_in_blocks(x, *blocks)


def _railed(z: np.ndarray, full_scale: float) -> int:
    """How many samples of the complex128 z have a component at the rails, |v| >= full_scale - full_scale * 1e-9."""
    limit = full_scale - full_scale * 1e-9
    return int(np.count_nonzero((np.abs(z.real) >= limit) | (np.abs(z.imag) >= limit)))


def acquire_power(x: np.ndarray, sample_rate_hz: float, config: ReceiverConfig, power: np.ndarray) -> float:
    """Run the receiver chain over the samples x, which hold the front-end noise already (config's
    frontend_noise_power must be 0), without writing x: each digitized block's |z|^2 goes into power, a
    float64 array of x's length. Returns the fraction of samples _railed counts, 0.0 for no sample.

    power gets the bits of np.square(np.abs(acquire(...).samples)), and the
    chain holds a few blocks besides x and power.
    """
    if config.frontend_noise_power != 0:
        raise ParameterError("acquire_power reads x with its front-end noise added: frontend_noise_power must be 0")
    x = as_complex_array(x)
    check_track("power", power, x.size)
    starts, _back, digitized = _digitized_blocks(x, sample_rate_hz, config)
    railed = 0
    for start, stop in zip(starts, starts[1:] + [x.size]):
        z = digitized(start, stop)
        railed += _railed(z, config.full_scale)
        np.square(np.abs(z, out=power[start:stop]), out=power[start:stop])
    return railed / x.size if x.size else 0.0
