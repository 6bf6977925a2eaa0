"""Burst synthesis with per-device hardware coloration.

Generates ideal OOK bursts, imparts the device-unique impairments that make
a transmitter fingerprintable, and renders multi-transmitter sessions from a
timed schedule. Everything is deterministic given the seeds.

The impairment chain applies in a fixed, documented order that mirrors a
transmit path (baseband shaping, then PA, then upconversion effects):

    1. amplitude ramp      raised-cosine power-on / power-off envelope
    2. PA nonlinearity     y = a1*x + a3*x*|x|^2  (memoryless cubic)
    3. IQ imbalance        z' = mu*z + nu*conj(z),
                           mu = (1 + g*e^{j*phi})/2, nu = (1 - g*e^{j*phi})/2
    4. CFO rotation        z'' = z' * e^{j*2*pi*f_off*n/fs}
    5. phase noise         Wiener walk, increments ~ N(0, 2*pi*linewidth/fs)

With neutral parameters every stage is skipped, so a neutral profile is the
exact identity on any input. Note the IQ model leaves purely real baseband
untouched (mu + nu == 1): gain imbalance only shows once the signal occupies
the quadrature rail, e.g. when riding on a subcarrier offset.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dsp import IqRecording, as_complex_array, seal, typed, typed_fields, typed_items
from .errors import ParameterError, SizeError

__all__ = [
    "EmitterProfile",
    "ScheduledBurst",
    "TransmissionSchedule",
    "BurstSpan",
    "modulate_ook",
    "apply_impairments",
    "render_buffer",
    "render_session",
]


@dataclass(frozen=True)
class EmitterProfile:
    """Per-device impairment parameters (the ground-truth coloration).

    Defaults are all neutral: a profile constructed with only an id leaves
    waveforms untouched.
    """

    emitter_id: str
    cfo_hz: float = 0.0
    iq_gain_imbalance: float = 1.0
    iq_phase_imbalance_rad: float = 0.0
    phase_noise_linewidth_hz: float = 0.0
    pa_a1: complex = 1.0 + 0.0j
    pa_a3: complex = 0.0 + 0.0j
    ramp_up_samples: int = 0
    ramp_down_samples: int = 0

    def __post_init__(self) -> None:
        typed_fields(self)
        if not isinstance(self.emitter_id, str) or not self.emitter_id:
            raise ParameterError(f"emitter_id must be a non-empty string, got {self.emitter_id!r}")
        for name, value in vars(self).items():  # every number field: the four floats, the PA pair and the ramps
            if name != "emitter_id" and not cmath.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not self.iq_gain_imbalance > 0:
            raise ParameterError(f"iq_gain_imbalance must be > 0, got {self.iq_gain_imbalance}")
        if self.phase_noise_linewidth_hz < 0:
            raise ParameterError("phase_noise_linewidth_hz must be >= 0")
        if abs(self.pa_a1) == 0:
            raise ParameterError("pa_a1 must have non-zero magnitude")
        if self.ramp_up_samples < 0 or self.ramp_down_samples < 0:
            raise ParameterError("ramp_up_samples and ramp_down_samples must be >= 0")

    def iq_mu_nu(self) -> tuple[complex, complex]:
        """The (mu, nu) pair of the IQ-imbalance map z' = mu*z + nu*conj(z)."""
        ge = self.iq_gain_imbalance * cmath.exp(1j * self.iq_phase_imbalance_rad)
        return (1.0 + ge) / 2.0, (1.0 - ge) / 2.0


class ScheduledBurst(NamedTuple):
    emitter_id: str
    start_time_s: float
    payload_bits: tuple[int, ...]


class BurstSpan(NamedTuple):
    """Ground-truth location of one rendered burst inside a session."""

    emitter_id: str
    start_sample: int
    length: int


@dataclass(frozen=True)
class TransmissionSchedule:
    """Which emitter transmits what payload at which instant."""

    entries: tuple[ScheduledBurst, ...]
    session_duration_s: float

    def __post_init__(self) -> None:
        typed_fields(self)
        if not 0 < self.session_duration_s < math.inf:
            raise ParameterError(f"session_duration_s must be a finite number > 0, got {self.session_duration_s}")
        normalized = []
        for i, entry in enumerate(self.entries):
            emitter_id, start, bits = entry
            bits = typed_items(f"entries[{i}].payload_bits", bits, int)
            start = typed(f"entries[{i}].start_time_s", start, float)
            if not bits:
                raise ParameterError(f"entries[{i}].payload_bits must be non-empty")
            if any(b not in (0, 1) for b in bits):
                raise ParameterError(f"entries[{i}].payload_bits must hold only 0 and 1")
            if not start >= 0:
                raise ParameterError(f"entries[{i}].start_time_s must be >= 0, got {start}")
            normalized.append(ScheduledBurst(str(emitter_id), start, bits))
        object.__setattr__(self, "entries", tuple(normalized))


# The most complex128 samples one array can hold: its size in bytes must fit a signed intp.
_MAX_COMPLEX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


def modulate_ook(bits: Sequence[int], samples_per_symbol: int) -> np.ndarray:
    """On-off keying: each 1-bit becomes samples_per_symbol samples of 1+0j."""
    if samples_per_symbol < 2:
        raise ParameterError(f"samples_per_symbol must be >= 2, got {samples_per_symbol}")
    bit_arr = np.asarray(bits)
    if bit_arr.size == 0:
        raise SizeError("bits must be non-empty")
    if not np.all(np.isin(bit_arr, (0, 1))):
        raise ParameterError("bits must contain only 0 and 1")
    n = bit_arr.size * int(samples_per_symbol)
    if n > _MAX_COMPLEX_SAMPLES:  # np.repeat's size would overflow, and it would write past its output
        raise ParameterError(f"len(bits) x samples_per_symbol = {n} samples is more than one array can hold")
    return np.repeat(bit_arr.astype(np.complex128), samples_per_symbol)


def _raised_cosine_ramps(n: int, up: int, down: int) -> np.ndarray | None:
    if up == 0 and down == 0:
        return None
    env = np.ones(n)
    if up:
        env[:up] = 0.5 * (1.0 - np.cos(np.pi * np.arange(up) / up))
    if down:
        env[n - down:] = (0.5 * (1.0 - np.cos(np.pi * np.arange(down) / down)))[::-1]
    return env


def apply_impairments(ideal, profile: EmitterProfile, sample_rate_hz: float, seed: int) -> np.ndarray:
    """Color an ideal burst with the profile's impairments (fixed chain order).

    Deterministic given the seed (only the phase-noise stage draws random
    numbers). Neutral stages are skipped so a fully neutral profile returns
    the input exactly.
    """
    x = as_complex_array(ideal, copy=True)
    if x.size == 0:
        raise SizeError("ideal burst must be non-empty")
    if not sample_rate_hz > 0:
        raise ParameterError("sample_rate_hz must be > 0")
    n = x.size
    up, down = profile.ramp_up_samples, profile.ramp_down_samples
    if up + down > n:
        raise ParameterError(f"ramp_up_samples + ramp_down_samples ({up}+{down}) exceed burst length {n}")

    env = _raised_cosine_ramps(n, up, down)
    if env is not None:
        x *= env

    a1, a3 = profile.pa_a1, profile.pa_a3
    if a1 != 1.0 + 0.0j or a3 != 0.0 + 0.0j:
        x = a1 * x + a3 * x * np.abs(x) ** 2

    mu, nu = profile.iq_mu_nu()
    if mu != 1.0 + 0.0j or nu != 0.0 + 0.0j:
        x = mu * x + nu * np.conj(x)

    if profile.cfo_hz != 0.0:
        x *= np.exp(2j * np.pi * profile.cfo_hz * np.arange(n) / sample_rate_hz)

    if profile.phase_noise_linewidth_hz > 0.0:
        rng = np.random.default_rng(seed)
        std = np.sqrt(2.0 * np.pi * profile.phase_noise_linewidth_hz / sample_rate_hz)
        theta = np.zeros(n)
        theta[1:] = np.cumsum(rng.normal(0.0, std, n - 1))
        x *= np.exp(1j * theta)

    return x


def render_buffer(
    schedule: TransmissionSchedule,
    profiles: Mapping[str, EmitterProfile],
    sample_rate_hz: float,
    samples_per_symbol: int,
    seed: int,
) -> tuple[np.ndarray, list[BurstSpan]]:
    """Render a full session into one new, writable buffer: every scheduled burst summed in.

    Overlapping bursts superpose additively (interference scenarios).
    Bursts are rendered and summed one at a time in a fixed order (ascending
    start sample, ties by entry index), so renders are bit-reproducible and
    an error names the first entry in that order. Returns the buffer, which
    the caller owns, and the exact ground-truth spans in summation order.
    """
    if not sample_rate_hz > 0:
        raise ParameterError("sample_rate_hz must be > 0")
    total = int(round(schedule.session_duration_s * sample_rate_hz))

    # Each entry needs a profile, and its burst spans [round(start * fs), + len(bits) * sps), checked
    # before anything is allocated; a start past the end counts as total + 1, so an infinite one is never rounded.
    entries = schedule.entries
    starts = [int(round(min(entry.start_time_s * sample_rate_hz, total + 1))) for entry in entries]
    order = sorted(range(len(entries)), key=starts.__getitem__)  # stable: ties by entry index
    for k in order:
        emitter_id, start_s, bits = entries[k]
        if emitter_id not in profiles:
            raise ParameterError(f"schedule.entries[{k}].emitter_id '{emitter_id}' has no profile")
        if starts[k] + len(bits) * samples_per_symbol > total:
            raise ParameterError(f"schedule.entries[{k}] ('{emitter_id}' at t={start_s}s) overruns the session end "
                                 f"({len(bits)} bits x samples_per_symbol {samples_per_symbol})")

    buf = np.zeros(total, dtype=np.complex128)
    # One child seed per entry, derived from the session seed.
    child_seeds = np.random.SeedSequence(seed).generate_state(max(len(entries), 1))
    ground_truth: list[BurstSpan] = []
    for k in order:
        entry, start = entries[k], starts[k]
        ideal = modulate_ook(entry.payload_bits, samples_per_symbol)
        burst = apply_impairments(ideal, profiles[entry.emitter_id], sample_rate_hz, int(child_seeds[k]))
        buf[start:start + burst.size] += burst
        ground_truth.append(BurstSpan(entry.emitter_id, start, int(burst.size)))

    return buf, ground_truth


def render_session(
    schedule: TransmissionSchedule,
    profiles: Mapping[str, EmitterProfile],
    sample_rate_hz: float,
    samples_per_symbol: int,
    seed: int,
) -> tuple[IqRecording, list[BurstSpan]]:
    """render_buffer's session as a recording (sealed, see dsp.seal), with its ground truth."""
    buf, ground_truth = render_buffer(schedule, profiles, sample_rate_hz, samples_per_symbol, seed)
    return IqRecording(seal(buf), sample_rate_hz, 0.0, id=f"session-{seed}"), ground_truth
