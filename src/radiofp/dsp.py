"""Complex-baseband signal primitives shared by the whole pipeline.

Hamming windowed-sinc lowpass design, linear-phase FIR filtering with
group-delay compensation (fir_apply, an overlap-save FFT convolution in the
blocks of fir_blocks), instantaneous amplitude / phase / frequency
decomposition, the SNR of two mean powers, and what a capture's stages share:
the blocks written back (write_in_blocks), the exact blocked convolution of
the detector's power track (convolve_same), the mean |z|^2 over a union of
spans (union_runs, runs_mean_power), the one rule by which samples become
complex128 (as_complex_array, and widened_blocks a block at a time), the
in-place helpers (seal, add_white_noise) and the typing of numbers (typed,
typed_items, typed_fields). instantaneous owns the one phase rule: the sign
bit of a zero component carries no phase, and a sample that is exactly 0 has
none.

fir_apply, convolve_same and write_in_blocks write into the out array they
are given (which may be their input), and the helpers change their argument
in place; every other function is pure. Recordings and tap sets are
immutable after construction, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInputError, ParameterError, SizeError

# The SNR estimator never reports less than this; it keeps the tuning
# objective finite when the signal region holds nothing but noise.
SNR_FLOOR_DB = -60.0
_SNR_FLOOR_RATIO = 10.0 ** (SNR_FLOOR_DB / 10.0)
SNR_MIN_SAMPLES = 8  # the fewest samples a region of an SNR estimate may have
# The block length of the capture stages that work in blocks (convolve_same, add_white_noise, the multipath, a data
# file's write, widened_blocks, the detector's |z|^2 and crossings, runs_mean_power), so that each holds only its
# input and its output plus a few blocks.
BLOCK_SAMPLES = 2 ** 16
# fir_blocks' overlap-save runs FFT_FRAMES frames of FFT_LENGTH samples at a time: about 0.5 MiB of scratch,
# 4 arrays of 128 KiB (its inputs, their spectra, the inverse FFT and its outputs).
FFT_LENGTH = 2 ** 11
FFT_FRAMES = 4
CF32_LE = np.dtype("<c8")  # one cf32_le sample: I then Q, each a little-endian float32


def check_decibels(name: str, db) -> None:
    """Raise a ParameterError naming `name` unless the power ratio 10^(db/10) is a finite, positive float
    (db from about -3,236 to +3,082): the one dB rule, which every dB field of a config meets."""
    try:
        usable = 0.0 < 10.0 ** (db / 10.0) < math.inf
    except OverflowError:
        usable = False
    if not usable:
        raise ParameterError(f"{name} must be a dB value with a finite, positive power ratio, got {db}")


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          complex: (numbers.Complex, "a complex number")}
_ANNOTATED = {**{kind: kind for kind in _KINDS}, **{kind.__name__: kind for kind in _KINDS}}  # a type, or its str


def typed(name: str, value, kind: type):
    """value as kind, int, float or complex, the type a config table gives such a field, or a ParameterError naming
    `name`: an int field takes any integral number (not 12.5), a float field any real number, a complex field any
    number (a numpy scalar; never a bool or a str)."""
    abc, what = _KINDS[kind]
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(value, abc)):
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def typed_items(name: str, values, kind: type) -> tuple:
    """The values as a tuple, each through typed naming `name[j]` unless it is of type kind (then no name is built)."""
    return tuple(v if type(v) is kind else typed(f"{name}[{j}]", v, kind) for j, v in enumerate(values))


def typed_fields(record) -> None:
    """Pass each field of the frozen dataclass record annotated int, float or complex through typed, in place:
    the one place a record's number fields get their types, read from its annotations."""
    for f in fields(record):
        if f.type in _ANNOTATED:
            object.__setattr__(record, f.name, typed(f.name, getattr(record, f.name), _ANNOTATED[f.type]))


def check_track(name: str, track, n: int) -> None:
    """Raise a ParameterError naming `name` unless track is a writable float64 array of shape (n,)."""
    if not (isinstance(track, np.ndarray) and track.dtype == np.float64 and track.shape == (n,)
            and track.flags.writeable):
        raise ParameterError(f"{name} must be a writable float64 array of shape ({n},)")


def block_slices(n: int):
    """The slices that cut n samples into blocks of BLOCK_SAMPLES, the last one shorter (stop <= n)."""
    return (slice(start, min(start + BLOCK_SAMPLES, n)) for start in range(0, n, BLOCK_SAMPLES))


def as_complex_array(samples, copy: bool = False) -> np.ndarray:
    """The 1-D complex128 form of samples: the only way any input becomes complex128.

    A complex128 array is returned as it is (a copy if asked); any other input, cf32_le samples included, is
    converted into a new array.
    """
    arr = np.array(samples, dtype=np.complex128) if copy else np.asarray(samples, dtype=np.complex128)
    if arr.ndim != 1:
        raise SizeError(f"expected a 1-D sample sequence, got ndim={arr.ndim}")
    return arr


def seal(arr: np.ndarray) -> np.ndarray:
    """Make arr and every array it views read-only, so an IqRecording adopts it uncopied.

    The stage that allocated arr hands it over this way once it is done writing.
    """
    link = arr
    while isinstance(link, np.ndarray):
        link.setflags(write=False)
        link = link.base
    return arr


def check_finite(samples: np.ndarray) -> None:
    """Raise a ParameterError unless every sample is finite, checked one block of BLOCK_SAMPLES at a time."""
    if not all(np.isfinite(samples[block]).all() for block in block_slices(samples.size)):
        raise ParameterError("samples must be finite (no NaN/Inf)")


def _sealed(arr) -> bool:
    """True for a 1-D complex128 or cf32_le array that nothing can write: it and each array it views are read-only."""
    if not isinstance(arr, np.ndarray) or arr.dtype not in (np.complex128, CF32_LE) or arr.ndim != 1:
        return False
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


@dataclass(frozen=True, eq=False)
class IqRecording:
    """A complex-baseband capture plus its acquisition metadata.

    samples are dimensionless full-scale units (I + jQ). A sealed 1-D complex128 or cf32_le array (see
    seal) is adopted as it is; any other input is copied by as_complex_array, the one widening every stage
    reads samples through, and frozen, so writing to an array passed in never changes a recording.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0
    id: str = ""

    def __post_init__(self) -> None:
        typed_fields(self)
        arr = self.samples if _sealed(self.samples) else as_complex_array(self.samples, copy=True)
        check_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not 0 < self.sample_rate_hz < math.inf:
            raise ParameterError(f"sample_rate_hz must be a finite number > 0, got {self.sample_rate_hz}")
        if not 0 <= self.center_freq_hz < math.inf:
            raise ParameterError(f"center_freq_hz must be a finite number >= 0, got {self.center_freq_hz}")

    def __len__(self) -> int:
        return int(self.samples.size)

    def replace_samples(self, samples) -> "IqRecording":
        """New recording with the same metadata and different samples."""
        return IqRecording(samples, self.sample_rate_hz, self.center_freq_hz, self.id)


@dataclass(frozen=True, eq=False)
class FirTaps:
    """Linear-phase FIR coefficients (odd length, symmetric)."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=np.float64, copy=True)
        if coeffs.ndim != 1 or coeffs.size % 2 == 0 or coeffs.size == 0:
            raise ParameterError("FIR taps must be a 1-D odd-length sequence")
        if not np.allclose(coeffs, coeffs[::-1], rtol=0.0, atol=1e-12):
            raise ParameterError("FIR taps must be symmetric about the center (linear phase)")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def design_lowpass(normalized_cutoff: float, num_taps: int) -> FirTaps:
    """Hamming windowed-sinc lowpass with DC gain exactly 1.

    normalized_cutoff is in cycles/sample, open interval (0, 0.5);
    num_taps must be odd and >= 3 so the filter has integer group delay.
    """
    if not 0.0 < normalized_cutoff < 0.5:
        raise ParameterError(f"normalized_cutoff must lie in (0, 0.5), got {normalized_cutoff}")
    if num_taps < 3 or num_taps % 2 == 0:
        raise ParameterError(f"num_taps must be odd and >= 3, got {num_taps}")
    n = np.arange(num_taps, dtype=np.float64) - (num_taps - 1) / 2.0
    taps = 2.0 * normalized_cutoff * np.sinc(2.0 * normalized_cutoff * n)
    taps *= np.hamming(num_taps)
    taps /= taps.sum()
    return FirTaps(taps)


def write_in_blocks(out: np.ndarray, starts: list[int], back: int, outputs) -> np.ndarray:
    """Write outputs(start, stop), the outputs [start, stop) of one block, into out for each block, in order.

    The blocks run from each of starts (ascending, from 0) to the next, the
    last one to out.size. A block's outputs are written at once, except its
    last back samples: the next block reads the inputs there, so they are
    held (copied) until it has, and out may be the input. One block's
    outputs are alive at a time.
    """
    held = slice(0, 0), out[:0]  # the last block's last back outputs, until the next block reads its inputs
    for start, stop in zip(starts, starts[1:] + [out.size]):
        block = outputs(start, stop)
        out[held[0]] = held[1]
        split = max(stop - back, start)
        out[start:split] = block[:split - start]
        held = slice(split, stop), block[split - start:].copy()
        del block  # so that the next block's outputs are the only ones alive
    out[held[0]] = held[1]
    return out


def convolve_same(x: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The mode="same" np.convolve of x and kernel, np.convolve's bits on this host, written into out: the
    detector's power track. Its per-output dot product runs through the BLAS kernel, which is picked by CPU.

    With m = len(kernel), output k is "full" output k + reach, reach =
    (m - 1) // 2, also for an x shorter than the kernel. out (a new array
    like x by default) may be x itself, or an array of its shape that shares
    no memory with it. The convolution runs in blocks of BLOCK_SAMPLES (or m,
    if longer; a short tail joins the block before it), each over its own
    samples plus back = m - 1 - reach before and reach after them, zero
    padding only at the array's ends: every output is the whole-array dot
    product, so exact silence stays exactly 0. The blocks are written as
    write_in_blocks writes them.
    """
    out = np.empty_like(x) if out is None else out
    n, m = x.size, kernel.size
    if n == 0:
        return out
    reach, back = (m - 1) // 2, m // 2  # back = m - 1 - reach
    step = max(BLOCK_SAMPLES, m)

    def outputs(start: int, stop: int) -> np.ndarray:
        lo = max(start - back, 0)
        return np.convolve(x[lo:min(stop + reach, n)], kernel, mode="full")[start + reach - lo:stop + reach - lo]

    return write_in_blocks(out, list(range(0, n - step + 1, step)) or [0], back, outputs)


def fir_blocks(x: np.ndarray, taps: FirTaps, gain: float | None = None):
    """(starts, back, outputs): fir_apply's blocks over the complex128 samples x, which it only reads.

    outputs(start, stop) returns the outputs [start, stop) as a new array,
    by overlap-save (Stockham 1966): the block's inputs, each times gain if
    one is given (np.multiply: the bits of x * gain) and zero padded only at
    the array's ends, are copied into FFT_FRAMES frames of N = FFT_LENGTH
    samples (more for taps longer than FFT_LENGTH / 2) at a hop of N - m + 1,
    which run through one 2-D FFT, a product with the taps' spectrum and one
    inverse FFT; each frame's last hop outputs are exact linear convolution.
    """
    m = taps.coefficients.size
    back = m // 2
    frame = max(FFT_LENGTH, 1 << (2 * m - 2).bit_length())
    hop = frame - m + 1
    spectrum = np.fft.fft(taps.coefficients, frame)
    padded = np.empty(FFT_FRAMES * hop + m - 1, dtype=np.complex128)  # one block's inputs
    frames = np.lib.stride_tricks.sliding_window_view(padded, frame)[::hop]  # FFT_FRAMES views into padded

    def outputs(start: int, stop: int) -> np.ndarray:
        lo, hi = start - back, min(stop + back, x.size)
        padded[:max(-lo, 0)] = 0
        if gain is None:
            padded[max(-lo, 0):hi - lo] = x[max(lo, 0):hi]
        else:
            np.multiply(x[max(lo, 0):hi], gain, out=padded[max(-lo, 0):hi - lo])
        padded[hi - lo:] = 0
        spec = np.fft.fft(frames[:math.ceil((stop - start) / hop)], axis=1)
        spec *= spectrum
        return np.fft.ifft(spec, axis=1)[:, m - 1:].ravel()[:stop - start]

    return list(range(0, x.size, FFT_FRAMES * hop)), back, outputs


def fir_apply(samples, taps: FirTaps, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded convolution trimmed back to the input length, written into out.

    (num_taps - 1) / 2 samples are dropped from each end of the full
    convolution, so the output stays aligned with the input and downstream
    sample indices remain valid. out (a new array by default) may be the
    input itself, or an array of its shape that shares no memory with it.

    The blocks of fir_blocks are written as write_in_blocks writes them. The
    result is not np.convolve's bits: every output lies within
    1e-13 * sum(|h|) * max(|x|) of the exact dot product, 500 times the
    largest error measured (2e-16 of that scale). For an input within the
    receiver's full scale (and its 63 taps, sum(|h|) < 2.3) that is 3e7 times
    below a 16-bit ADC's half step, so the ADC absorbs it: exact silence
    comes out as values within the bound of 0, which it rounds to 0.
    """
    x = as_complex_array(samples)
    return write_in_blocks(np.empty_like(x) if out is None else out, *fir_blocks(x, taps))


def union_runs(spans, n: int) -> list[list[int]]:
    """The union of (start, stop) spans, each covering range(n)[start:stop], as ascending disjoint runs."""
    runs: list[list[int]] = []
    for start, stop in sorted((r.start, r.stop) for r in (range(n)[a:b] for a, b in spans) if r):
        if runs and start <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], stop)
        else:
            runs.append([start, stop])
    return runs


def runs_mean_power(z: np.ndarray, runs) -> float:
    """Mean |z|^2 over the samples of the [start, stop) runs, np.mean's value within the README float contract;
    nan over no sample. z is complex samples, or a float64 array of their |z|^2 (np.square(np.abs(samples))).

    The runs' |z|^2 values fill one reused buffer of at most BLOCK_SAMPLES, and each full buffer's np.add.reduce
    is added to the total in order (so up to BLOCK_SAMPLES values the result is np.mean's, bit for bit). Both
    forms of an input give the same fills and the same sums."""
    runs = [(start, stop) for start, stop in runs if stop > start]
    count = sum(stop - start for start, stop in runs)
    if not count:
        return math.nan
    buffer, total, filled = np.empty(min(count, BLOCK_SAMPLES)), 0.0, 0
    for start, stop in runs:
        while start < stop:
            take = min(stop - start, buffer.size - filled)
            part = buffer[filled:filled + take]
            if z.dtype == np.float64:
                part[:] = z[start:start + take]
            else:
                np.square(np.abs(as_complex_array(z[start:start + take]), out=part), out=part)
            start, filled = start + take, filled + take
            if filled == buffer.size:
                total, filled = total + float(np.add.reduce(buffer)), 0
    return (total + float(np.add.reduce(buffer[:filled]))) / count  # the last values, short of a full buffer


def instantaneous(samples, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instantaneous amplitude, unwrapped phase, and frequency.

    Returns (amplitude, phase, frequency_hz); frequency is the first
    difference of the unwrapped phase scaled to Hz, so it is one sample
    shorter than the input. The input is already complex baseband, hence
    no analytic-signal construction is needed. The sign bit of a zero
    component carries no phase (np.angle(z + 0.0)), and a sample that is
    exactly 0 holds the phase of the last sample that has one; a leading run
    takes the first such phase.
    """
    z = as_complex_array(samples)
    if z.size < 2:
        raise SizeError(f"need at least 2 samples, got {z.size}")
    amplitude = np.abs(z)
    angle = np.angle(z + 0.0)
    has_phase = z != 0
    if not has_phase.all():
        angle = angle[np.maximum.accumulate(np.where(has_phase, np.arange(z.size), np.argmax(has_phase)))]
    phase = np.unwrap(angle)
    frequency_hz = np.diff(phase) * (sample_rate_hz / (2.0 * np.pi))
    return amplitude, phase, frequency_hz


def widened_blocks(samples: np.ndarray):
    """(block, as_complex_array(samples[block])) for each block of block_slices: a complex128 input's are views."""
    return ((block, as_complex_array(samples[block])) for block in block_slices(samples.size))


def add_white_noise(x: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """Add scale * (N(0, 1) + 1j*N(0, 1)) to the complex array x, in place.

    default_rng(seed) draws every I value before any Q value, one block of
    BLOCK_SAMPLES at a time into one real buffer; the generator's stream
    runs on across blocks. Wherever a draw is non-zero the sums are the bits
    of x + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)).
    """
    rng = np.random.default_rng(seed)
    buffer = np.empty(min(x.size, BLOCK_SAMPLES))
    for part in (x.real, x.imag):
        for block in block_slices(x.size):
            segment = part[block]
            draws = buffer[:segment.size]
            rng.standard_normal(out=draws)
            draws *= scale
            segment += draws
    return x


def snr_db_from_powers(p_sig: float, p_noise: float) -> float:
    """SNR of a region of mean power p_sig over a noise floor of mean power p_noise.

    10*log10(max(p_sig - p_noise, p_noise * 1e-6) / p_noise); the floor
    bounds the result at SNR_FLOOR_DB.
    """
    if p_noise <= 0.0:
        raise DegenerateInputError("noise region has zero power")
    excess = max(p_sig - p_noise, p_noise * _SNR_FLOOR_RATIO)
    return float(10.0 * np.log10(excess / p_noise))
