"""Complex-baseband signal primitives shared by the whole pipeline.

Power-of-two FFT wrappers, Hamming windowed-sinc lowpass design, linear-phase
FIR filtering with group-delay compensation, instantaneous amplitude / phase /
frequency decomposition, a two-region SNR estimator, and the in-place
helpers a capture's stages share (seal, as_sum_of_parts, add_white_noise).

Every other function is pure; recordings and tap sets are immutable after
construction, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, SizeError

# The SNR estimator never reports less than this; it keeps the tuning
# objective finite when the signal region holds nothing but noise.
SNR_FLOOR_DB = -60.0
_SNR_FLOOR_RATIO = 10.0 ** (SNR_FLOOR_DB / 10.0)
SNR_MIN_SAMPLES = 8  # the fewest samples a region of an SNR estimate may have


def as_complex_array(samples) -> np.ndarray:
    """Coerce input to a 1-D complex128 array (copying if needed)."""
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.ndim != 1:
        raise SizeError(f"expected a 1-D sample sequence, got ndim={arr.ndim}")
    return arr


def mean_power(samples) -> float:
    """Mean of |z|^2 over the sequence; 0.0 for an empty sequence."""
    arr = as_complex_array(samples)
    if arr.size == 0:
        return 0.0
    return float(np.mean(np.abs(arr) ** 2))


def seal(arr: np.ndarray) -> np.ndarray:
    """Make arr and every array it views read-only, so an IqRecording adopts it uncopied.

    The stage that allocated arr hands it over this way once it is done writing.
    """
    link = arr
    while isinstance(link, np.ndarray):
        link.setflags(write=False)
        link = link.base
    return arr


def _sealed(arr) -> bool:
    """True for a complex128 array that nothing can write: it and each array it views are read-only."""
    if not isinstance(arr, np.ndarray) or arr.dtype != np.complex128:
        return False
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


@dataclass(frozen=True, eq=False)
class IqRecording:
    """A complex-baseband capture plus its acquisition metadata.

    samples are dimensionless full-scale units (I + jQ). A sealed complex128
    array (see seal) is adopted as it is; any other input is copied and the
    copy frozen, so writing to an array passed in never changes a recording.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0
    id: str = ""

    def __post_init__(self) -> None:
        arr = self.samples if _sealed(self.samples) else np.array(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise SizeError(f"samples must be 1-D, got ndim={arr.ndim}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ParameterError("samples must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not self.sample_rate_hz > 0:
            raise ParameterError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.center_freq_hz < 0:
            raise ParameterError(f"center_freq_hz must be >= 0, got {self.center_freq_hz}")

    def __len__(self) -> int:
        return int(self.samples.size)

    def replace_samples(self, samples) -> "IqRecording":
        """New recording with the same metadata and different samples."""
        return IqRecording(samples, self.sample_rate_hz, self.center_freq_hz, self.id)


@dataclass(frozen=True, eq=False)
class FirTaps:
    """Linear-phase FIR coefficients (odd length, symmetric)."""

    coefficients: np.ndarray
    normalized_cutoff: float

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=np.float64, copy=True)
        if coeffs.ndim != 1 or coeffs.size % 2 == 0 or coeffs.size == 0:
            raise ParameterError("FIR taps must be a 1-D odd-length sequence")
        if not 0.0 < self.normalized_cutoff <= 0.5:
            raise ParameterError(f"normalized_cutoff must lie in (0, 0.5], got {self.normalized_cutoff}")
        if not np.allclose(coeffs, coeffs[::-1], rtol=0.0, atol=1e-12):
            raise ParameterError("FIR taps must be symmetric about the center (linear phase)")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return int(self.coefficients.size)


def _require_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise SizeError(f"FFT length must be a power of two >= 2, got {n}")


def fft_forward(samples) -> np.ndarray:
    """Forward DFT of a power-of-two-length sequence."""
    x = as_complex_array(samples)
    _require_power_of_two(x.size)
    return np.fft.fft(x)


def fft_inverse(spectrum) -> np.ndarray:
    """Inverse DFT; fft_inverse(fft_forward(x)) reconstructs x."""
    spec = as_complex_array(spectrum)
    _require_power_of_two(spec.size)
    return np.fft.ifft(spec)


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
    return FirTaps(taps, normalized_cutoff)


def fir_apply(samples, taps: FirTaps) -> np.ndarray:
    """Zero-padded convolution trimmed back to the input length.

    (num_taps - 1) / 2 samples are dropped from each end of the full
    convolution, so the output stays aligned with the input and downstream
    sample indices remain valid.
    """
    x = as_complex_array(samples)
    if x.size == 0:
        return x
    h = taps.coefficients
    full = np.convolve(x, h, mode="full")
    trim = (h.size - 1) // 2
    return full[trim:trim + x.size]


def instantaneous(recording: IqRecording) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instantaneous amplitude, unwrapped phase, and frequency.

    Returns (amplitude, phase, frequency_hz); frequency is the first
    difference of the unwrapped phase scaled to Hz, so it is one sample
    shorter than the input. The input is already complex baseband, hence
    no analytic-signal construction is needed.
    """
    z = recording.samples
    if z.size < 2:
        raise SizeError(f"need at least 2 samples, got {z.size}")
    amplitude = np.abs(z)
    phase = np.unwrap(np.angle(z))
    frequency_hz = np.diff(phase) * (recording.sample_rate_hz / (2.0 * np.pi))
    return amplitude, phase, frequency_hz


def as_sum_of_parts(z: np.ndarray) -> np.ndarray:
    """Give z, in place, the bits of z.real + 1j*z.imag.

    That sum differs from the parts only in signed zeros: a -0 real part
    becomes +0 unless the imaginary part's sign bit is set, and a -0
    imaginary part becomes +0.
    """
    np.add(z.real, 0.0, out=z.real, where=~np.signbit(z.imag))
    z.imag += 0.0
    return z


def add_white_noise(x: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """Add scale * (N(0, 1) + 1j*N(0, 1)) to the complex array x, in place.

    default_rng(seed) draws every I value before any Q value, into one real
    buffer refilled for each part. Wherever a draw is non-zero the sums are
    the bits of x + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)).
    """
    rng = np.random.default_rng(seed)
    draws = np.empty(x.size)
    for part in (x.real, x.imag):
        rng.standard_normal(out=draws)
        draws *= scale
        part += draws
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


def estimate_snr_db(signal_region, noise_region) -> float:
    """SNR estimate from a signal region and a pure-noise region.

    snr_db_from_powers of the mean |z|^2 of each region; both regions need
    at least SNR_MIN_SAMPLES samples.
    """
    sig = as_complex_array(signal_region)
    noise = as_complex_array(noise_region)
    if sig.size < SNR_MIN_SAMPLES or noise.size < SNR_MIN_SAMPLES:
        raise SizeError(
            f"both regions need >= {SNR_MIN_SAMPLES} samples, got {sig.size} and {noise.size}")
    return snr_db_from_powers(mean_power(sig), mean_power(noise))
