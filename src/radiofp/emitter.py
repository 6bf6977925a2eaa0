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
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dsp import IqRecording, seal
from .errors import ParameterError, SizeError

__all__ = [
    "EmitterProfile",
    "ScheduledBurst",
    "TransmissionSchedule",
    "BurstSpan",
    "modulate_ook",
    "apply_impairments",
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
        if not self.emitter_id:
            raise ParameterError("emitter_id must be a non-empty string")
        if not self.iq_gain_imbalance > 0:
            raise ParameterError(f"iq_gain_imbalance must be > 0, got {self.iq_gain_imbalance}")
        if self.phase_noise_linewidth_hz < 0:
            raise ParameterError("phase_noise_linewidth_hz must be >= 0")
        if abs(complex(self.pa_a1)) == 0:
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
        if not self.session_duration_s > 0:
            raise ParameterError("session_duration_s must be > 0")
        normalized = []
        for i, entry in enumerate(self.entries):
            emitter_id, start, bits = entry
            bits = tuple(int(b) for b in bits)
            if not bits:
                raise ParameterError(f"entries[{i}].payload_bits must be non-empty")
            if any(b not in (0, 1) for b in bits):
                raise ParameterError(f"entries[{i}].payload_bits must hold only 0 and 1")
            if start < 0:
                raise ParameterError(f"entries[{i}].start_time_s must be >= 0, got {start}")
            normalized.append(ScheduledBurst(str(emitter_id), float(start), bits))
        object.__setattr__(self, "entries", tuple(normalized))


def modulate_ook(bits: Sequence[int], samples_per_symbol: int) -> np.ndarray:
    """On-off keying: each 1-bit becomes samples_per_symbol samples of 1+0j."""
    if samples_per_symbol < 2:
        raise ParameterError(f"samples_per_symbol must be >= 2, got {samples_per_symbol}")
    bit_arr = np.asarray(bits)
    if bit_arr.size == 0:
        raise SizeError("bits must be non-empty")
    if not np.all(np.isin(bit_arr, (0, 1))):
        raise ParameterError("bits must contain only 0 and 1")
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
    x = np.array(ideal, dtype=np.complex128, copy=True)
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

    a1, a3 = complex(profile.pa_a1), complex(profile.pa_a3)
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


def render_session(
    schedule: TransmissionSchedule,
    profiles: Mapping[str, EmitterProfile],
    sample_rate_hz: float,
    samples_per_symbol: int,
    seed: int,
) -> tuple[IqRecording, list[BurstSpan]]:
    """Render a full session: every scheduled burst summed into one buffer.

    Overlapping bursts superpose additively (interference scenarios).
    Bursts are rendered and summed one at a time in a fixed order (ascending
    start sample, ties by entry index), so renders are bit-reproducible and
    an error names the first entry in that order. Returns the recording and
    the exact ground-truth spans in summation order.
    """
    if not sample_rate_hz > 0:
        raise ParameterError("sample_rate_hz must be > 0")
    total = int(round(schedule.session_duration_s * sample_rate_hz))
    buf = np.zeros(total, dtype=np.complex128)

    # One child seed per entry, derived from the session seed.
    entries = schedule.entries
    child_seeds = np.random.SeedSequence(seed).generate_state(max(len(entries), 1))
    starts = [int(round(entry.start_time_s * sample_rate_hz)) for entry in entries]

    ground_truth: list[BurstSpan] = []
    for k in sorted(range(len(entries)), key=starts.__getitem__):  # stable: ties by entry index
        entry, start = entries[k], starts[k]
        try:
            profile = profiles[entry.emitter_id]
        except KeyError:
            raise KeyError(f"schedule references unknown emitter_id '{entry.emitter_id}'") from None
        ideal = modulate_ook(entry.payload_bits, samples_per_symbol)
        burst = apply_impairments(ideal, profile, sample_rate_hz, int(child_seeds[k]))
        if start + burst.size > total:
            raise ParameterError(
                f"schedule.entries[{k}] ('{entry.emitter_id}' at t={entry.start_time_s}s) "
                f"overruns the session end"
            )
        buf[start:start + burst.size] += burst
        ground_truth.append(BurstSpan(entry.emitter_id, start, int(burst.size)))

    recording = IqRecording(seal(buf), sample_rate_hz, 0.0, id=f"session-{seed}")
    return recording, ground_truth
