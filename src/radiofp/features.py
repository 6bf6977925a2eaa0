"""Fingerprint feature extraction and dimension reduction.

The catalog concatenates four families, in this fixed order:

  instantaneous statistics (11)
      amp_mean, amp_var, amp_skew, amp_kurt, amp_peak_to_mean, rss_db,
      cfo_est_hz, phase_resid_var, phase_resid_skew, phase_resid_kurt,
      freq_var
      Computed over the steady-state interior of the ROI (central 10%-90%
      span) so power-on/off transients do not pollute stationary moments.
      cfo_est_hz is the least-squares slope of the unwrapped phase; the
      phase_resid_* moments describe what is left after removing that line.
  transient descriptors (2)
      rise_time_samples, fall_time_samples: sample counts between the first
      10% and first 90% crossings of the steady-state amplitude (median of
      the interior), measured from each end. If the amplitude never reaches
      the 90% level both take the sentinel value len(roi).
  wavelet-packet band energies (2^depth)
      wpd_e00 ... : full Haar filter-bank tree, natural (filter-bank) leaf
      order, leaf energies normalized to sum to 1.
  spectral shape (3)
      spectral_centroid_hz, occupied_bw_hz, spectral_flatness

Moment conventions: population (divide by n) variance, skewness
E[(x-u)^3]/s^3 and excess kurtosis E[(x-u)^4]/s^4 - 3 (Gaussian -> 0).
Zero-variance sequences take skew = kurt = 0 so clean synthetic bursts
still produce finite rows.

Changing the catalog (names, order, or WPD depth) changes the catalog
version string. Its length alone tells the six versions apart, so a row's
size is its catalog.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .detect import RegionOfInterest
from .dsp import IqRecording, as_complex_array, instantaneous, typed_fields, typed_items
from .errors import (
    DegenerateInputError,
    FeatureError,
    ParameterError,
    SizeError,
)

__all__ = [
    "ExtractionConfig",
    "FeatureSelection",
    "Moments",
    "catalog_names",
    "catalog_version",
    "catalog_version_of",
    "instantaneous_stats",
    "transient_features",
    "wpd_energies",
    "spectral_features",
    "extract",
    "fisher_select",
]

_INSTANT_NAMES = (
    "amp_mean",
    "amp_var",
    "amp_skew",
    "amp_kurt",
    "amp_peak_to_mean",
    "rss_db",
    "cfo_est_hz",
    "phase_resid_var",
    "phase_resid_skew",
    "phase_resid_kurt",
    "freq_var",
)
_TRANSIENT_NAMES = ("rise_time_samples", "fall_time_samples")
_SPECTRAL_NAMES = ("spectral_centroid_hz", "occupied_bw_hz", "spectral_flatness")

_WPD_DEPTHS = range(1, 7)  # the wavelet-packet depths a catalog may have
_FLATNESS_SEGMENTS = 8
_TINY = np.finfo(float).tiny  # the least normal float64


@dataclass(frozen=True)
class ExtractionConfig:
    """Extraction parameters; wpd_depth fixes the catalog dimensionality."""

    wpd_depth: int = 4

    def __post_init__(self) -> None:
        typed_fields(self)
        if self.wpd_depth not in _WPD_DEPTHS:
            raise ParameterError(
                f"wpd_depth must lie in [{_WPD_DEPTHS[0]}, {_WPD_DEPTHS[-1]}], got {self.wpd_depth}")


def catalog_names(config: ExtractionConfig = ExtractionConfig()) -> tuple[str, ...]:
    """The canonical, ordered feature catalog for a configuration."""
    wpd = tuple(f"wpd_e{i:02d}" for i in range(2 ** config.wpd_depth))
    return _INSTANT_NAMES + _TRANSIENT_NAMES + wpd + _SPECTRAL_NAMES


def catalog_version(config: ExtractionConfig = ExtractionConfig()) -> str:
    return f"fc1-d{config.wpd_depth}"


def catalog_version_of(names: Sequence[str]) -> str | None:
    """The version of the catalog that is exactly `names` (in order), or None."""
    return next((catalog_version(config) for config in map(ExtractionConfig, _WPD_DEPTHS)
                 if catalog_names(config) == tuple(names)), None)


@dataclass(frozen=True, eq=False)
class FeatureSelection:
    """Indices kept after dimension reduction plus the per-feature scores."""

    kept_indices: tuple[int, ...]
    scores: np.ndarray
    index: np.ndarray = field(init=False, repr=False)  # kept_indices as an array, to index a row

    def __post_init__(self) -> None:
        kept = typed_items("kept_indices", self.kept_indices, int)
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        if len(kept) == 0:
            raise ParameterError("kept_indices must be non-empty")
        if any(b <= a for a, b in zip(kept, kept[1:])):
            raise ParameterError("kept_indices must be strictly ascending")
        if kept[0] < 0 or kept[-1] >= scores.size:
            raise ParameterError("kept_indices out of catalog range")
        index = np.array(kept, dtype=np.intp)
        scores.setflags(write=False)
        index.setflags(write=False)
        object.__setattr__(self, "kept_indices", kept)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "index", index)


class Moments(NamedTuple):
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def _normalized_moments(x: np.ndarray) -> Moments:
    """Population moments with the zero-variance convention skew = kurt = 0 for an all-equal x."""
    mean = float(np.mean(x))
    c = x - mean
    variance = float(np.mean(c * c))
    sigma = math.sqrt(variance)
    if variance < _TINY:  # subnormal or underflowed: center x scaled to a peak of 1
        if not np.any(c):
            return Moments(mean, variance, 0.0, 0.0)
        scaled = x / np.max(np.abs(x))
        c = scaled - np.mean(scaled)
        sigma = math.sqrt(float(np.mean(c * c)))
    z = c / sigma  # standardized first, so sigma^3 and sigma^4 cannot underflow
    z2 = z * z
    return Moments(mean, variance, float(np.mean(z2 * z)), float(np.mean(z2 * z2)) - 3.0)


def _interior(z: np.ndarray) -> np.ndarray:
    i0 = int(round(0.1 * z.size))
    i1 = int(round(0.9 * z.size))
    return z[i0:i1]


def instantaneous_stats(roi_samples, sample_rate_hz: float) -> dict[str, float]:
    """Amplitude/phase/frequency statistics over the ROI's steady-state interior."""
    z = as_complex_array(roi_samples)
    if z.size < 16:
        raise SizeError(f"need at least 16 samples, got {z.size}")
    interior = _interior(z)
    if not np.any(interior):
        raise DegenerateInputError("ROI interior is all zero")

    amplitude, phase, frequency = instantaneous(interior, sample_rate_hz)

    amp = _normalized_moments(amplitude)
    rss_db = 10.0 * math.log10(float(np.mean(amplitude ** 2)))

    # Least-squares line on centered sample times t (sum t = 0): slope = <t, phase> / <t, t>,
    # with <t, t> = n(n^2 - 1)/12, and the line passes through the mean phase.
    n = phase.size
    t = np.arange(n) - 0.5 * (n - 1)
    slope = float(np.dot(t, phase)) / (n * (n * n - 1) / 12.0)
    cfo_est_hz = slope * sample_rate_hz / (2.0 * np.pi)
    resid_m = _normalized_moments(phase - float(np.mean(phase)) - slope * t)

    freq_var = float(np.mean((frequency - np.mean(frequency)) ** 2))

    return dict(zip(_INSTANT_NAMES, (amp.mean, amp.variance, amp.skewness, amp.excess_kurtosis,
                                     float(np.max(amplitude)) / amp.mean, rss_db, cfo_est_hz,
                                     resid_m.variance, resid_m.skewness, resid_m.excess_kurtosis, freq_var)))


def transient_features(roi_samples) -> dict[str, float]:
    """Power-on/off transient lengths (10% to 90% of steady-state amplitude)."""
    z = as_complex_array(roi_samples)
    if z.size < 16:
        raise SizeError(f"need at least 16 samples, got {z.size}")
    amplitude = np.abs(z)
    steady = float(np.median(_interior(amplitude)))
    sentinel = float(z.size)
    if steady <= 0.0:
        return dict.fromkeys(_TRANSIENT_NAMES, sentinel)

    def edge_time(amp: np.ndarray) -> float:
        above90 = np.flatnonzero(amp >= 0.9 * steady)
        if above90.size == 0:
            return sentinel
        above10 = np.flatnonzero(amp >= 0.1 * steady)
        return float(above90[0] - above10[0])

    return dict(zip(_TRANSIENT_NAMES, (edge_time(amplitude), edge_time(amplitude[::-1]))))


@functools.lru_cache(maxsize=None)
def _haar_packet_matrix(depth: int) -> np.ndarray:
    """Row k maps a block of 2^depth samples to leaf k: the identity pushed through the tree."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    nodes = [np.eye(2 ** depth)]
    for _level in range(depth):
        nodes = [half for node in nodes
                 for half in ((node[0::2] + node[1::2]) * inv_sqrt2, (node[0::2] - node[1::2]) * inv_sqrt2)]
    matrix = np.vstack(nodes)
    matrix.setflags(write=False)
    return matrix


def wpd_energies(roi_samples, depth: int, normalized: bool = True) -> np.ndarray:
    """Leaf energies of the full Haar wavelet-packet tree.

    Analysis filters are the orthonormal Haar pair (1/sqrt2)[1, 1] and
    (1/sqrt2)[1, -1] with stride-2 downsampling; odd-length nodes are
    zero-padded by one sample before splitting. Leaves are returned in
    natural (filter-bank) order. With normalized=False the raw energies are
    returned, whose sum equals the input energy (Parseval).

    Leaf coefficient j depends only on input block j of 2^depth samples, so the
    tree is one product: the zero-padded input as rows of 2^depth, times the
    transposed packet matrix.
    """
    if depth not in _WPD_DEPTHS:
        raise ParameterError(f"depth must lie in [{_WPD_DEPTHS[0]}, {_WPD_DEPTHS[-1]}], got {depth}")
    x = as_complex_array(roi_samples)
    width = 2 ** depth
    if x.size < width:
        raise ParameterError(f"need at least 2^{depth} samples, got {x.size}")

    blocks = np.concatenate((x, np.zeros(-x.size % width))).reshape(-1, width)
    energies = np.sum(np.abs(blocks @ _haar_packet_matrix(depth).T) ** 2, axis=0)
    if not normalized:
        return energies
    total = energies.sum()
    if total <= 0.0:
        raise DegenerateInputError("cannot normalize leaf energies of an all-zero signal")
    return energies / total


def spectral_features(roi_samples, sample_rate_hz: float) -> dict[str, float]:
    """Spectral centroid, 99%-power occupied bandwidth, and flatness.

    Centroid and bandwidth come from one Hann-windowed power spectrum of the
    ROI zero-padded to the next power of two; the window keeps leakage from
    off-bin tones out of the occupied-bandwidth measure. Flatness is the
    geometric over arithmetic mean of the nonzero bins of an 8-segment
    averaged periodogram; averaging keeps the estimate near 1 for white
    noise, which a single periodogram's exponential bin statistics would not.
    """
    z = as_complex_array(roi_samples)
    if z.size < 64:
        raise SizeError(f"need at least 64 samples, got {z.size}")
    if not np.any(z):
        raise DegenerateInputError("ROI is all zero")

    nfft = 1 << (z.size - 1).bit_length()  # the next power of two
    spectrum = np.fft.fftshift(np.fft.fft(z * np.hanning(z.size), nfft))
    power = np.abs(spectrum) ** 2
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / sample_rate_hz))

    total = float(power.sum())
    centroid = float(np.sum(freqs * power)) / total

    cumulative = np.cumsum(power)
    lo = int(np.searchsorted(cumulative, 0.005 * total, side="left"))
    hi = int(np.searchsorted(cumulative, 0.995 * total, side="left"))
    occupied_bw = float(freqs[min(hi, nfft - 1)] - freqs[lo])

    seg = z.size // _FLATNESS_SEGMENTS
    seg_len = 1 << (seg.bit_length() - 1)  # largest power of two <= seg
    segments = z[:_FLATNESS_SEGMENTS * seg].reshape(_FLATNESS_SEGMENTS, seg)[:, :seg_len]
    acc = np.mean(np.abs(np.fft.fft(segments, axis=1)) ** 2, axis=0)
    nonzero = acc[acc > 0]
    flatness = float(np.exp(np.mean(np.log(nonzero))) / np.mean(nonzero)) if nonzero.size else 0.0

    return dict(zip(_SPECTRAL_NAMES, (centroid, occupied_bw, flatness)))


def extract(
    roi: RegionOfInterest,
    recording: IqRecording,
    config: ExtractionConfig = ExtractionConfig(),
) -> np.ndarray:
    """The full catalog for one ROI of a recording: a 1-D float64 row of the families' values in
    catalog order. A non-finite value raises FeatureError naming the first such feature."""
    z, fs = roi.slice_of(recording), recording.sample_rate_hz
    row = np.array([*instantaneous_stats(z, fs).values(), *transient_features(z).values(),
                    *wpd_energies(z, config.wpd_depth), *spectral_features(z, fs).values()], dtype=np.float64)
    finite = np.isfinite(row)
    if not finite.all():
        raise FeatureError(f"non-finite value for feature '{catalog_names(config)[int(np.argmin(finite))]}'")
    return row


def fisher_select(values, labels: Sequence[str], k: int) -> FeatureSelection:
    """Keep the top-k features of an N x F array of rows by Fisher score.

    Score per feature = population variance of the class means divided by
    the mean within-class (population) variance, floored at 1e-12. Ties
    break toward the lower catalog index; kept_indices come back ascending.
    """
    X = np.asarray(values, dtype=np.float64)
    if X.ndim != 2:
        raise ParameterError(f"values must be an N x F array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ParameterError("values must be finite")
    if len(X) != len(labels):
        raise ParameterError("values and labels must have the same number of rows")
    if not len(X):
        raise ParameterError("need at least one row")

    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ParameterError(f"need >= 2 devices, got {len(classes)}")
    # Each row's class index, found by Python str equality: numpy's <U strings drop a trailing NUL.
    code = {label: i for i, label in enumerate(classes)}
    y = np.array([code[label] for label in labels])
    if np.bincount(y).min() < 2:
        raise ParameterError("need >= 2 rows per device")
    n_features = X.shape[1]
    if not 1 <= k <= n_features:
        raise ParameterError(f"k must lie in [1, {n_features}], got {k}")

    class_means = np.vstack([X[y == i].mean(axis=0) for i in range(len(classes))])
    class_vars = np.vstack([X[y == i].var(axis=0) for i in range(len(classes))])
    between = class_means.var(axis=0)
    within = np.maximum(class_vars.mean(axis=0), 1e-12)
    scores = between / within

    order = np.lexsort((np.arange(n_features), -scores))
    kept = tuple(sorted(int(i) for i in order[:k]))
    return FeatureSelection(kept_indices=kept, scores=scores)
