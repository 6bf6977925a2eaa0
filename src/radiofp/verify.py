"""One-to-one radio identity verification.

A device is enrolled as a Gaussian reference model over its selected
features (mean + ridge-regularized full covariance). A probe claiming that
identity is scored by squared Mahalanobis distance and accepted when the
score is at or below the fingerprint's threshold. Squared distances are
used throughout; thresholds are in d^2 units.

FAR/FRR conventions (distance scores, accept iff d^2 <= t): FAR(t) is
non-decreasing and FRR(t) non-increasing in t; at extreme thresholds the
operating points are (FAR=0, FRR=1) and (FAR=1, FRR=0).

The store format is JSON, one document per device, with floats printed at
full round-trip precision so load(save(fp)) is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import (
    FINGERPRINT,
    FINGERPRINT_STORE_FORMAT,
    STORE,
    atomic_write,
    fields,
    json_text,
    load_json,
    parse,
)
from .errors import CatalogMismatchError, EnrollmentError, ParameterError, ValidationError
from .features import FeatureSelection, FeatureVector, catalog_version_of

__all__ = [
    "DeviceFingerprint",
    "VerificationDecision",
    "EvaluationReport",
    "enroll",
    "verify",
    "mahalanobis_squared",
    "score_vectors",
    "calibrate_threshold",
    "evaluate",
    "save_fingerprint_store",
    "load_fingerprint_store",
]

_FAR_FRR_ANCHORS = (0.001, 0.01, 0.05, 0.1)


@dataclass(frozen=True, eq=False)
class DeviceFingerprint:
    """Enrolled per-device reference model.

    Construction factors the covariance as L L^T and keeps the whitening
    matrix W = L^(-1) (not persisted), so a score is the squared norm of
    W (x - mean) and no probe refactors the covariance. L is computed from the
    unit-diagonal correlation matrix, which keeps W accurate when feature
    scales differ by many orders of magnitude.
    """

    device_id: str
    catalog_version: str
    selection: FeatureSelection
    mean: np.ndarray
    covariance: np.ndarray
    ridge_lambda: float
    threshold: float
    n_enrolled: int
    whitening: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        cov = np.array(self.covariance, dtype=np.float64, copy=True)
        d = len(self.selection.kept_indices)
        if mean.shape != (d,) or cov.shape != (d, d):
            raise ParameterError("mean/covariance dimensions must match the selection size")
        for name, value in (("mean", mean), ("covariance", cov)):
            if not np.all(np.isfinite(value)):
                raise ParameterError(f"{name} must be finite")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
            raise ParameterError("covariance must be symmetric")
        if self.ridge_lambda < 0:
            raise ParameterError("ridge_lambda must be >= 0")
        if not self.threshold > 0:
            raise ParameterError("threshold must be > 0")
        variances = np.diag(cov)
        try:
            if not np.all(variances > 0):
                raise np.linalg.LinAlgError
            # Factor the unit-diagonal correlation matrix and fold the scale back
            # in: inverting the factor of a badly scaled covariance directly loses
            # about two digits against a triangular solve.
            scale = 1.0 / np.sqrt(variances)
            whitening = np.linalg.inv(np.linalg.cholesky(cov * np.outer(scale, scale))) * scale
        except np.linalg.LinAlgError:
            raise ParameterError("covariance must be positive definite") from None
        for name, value in (("mean", mean), ("covariance", cov), ("whitening", whitening)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def with_threshold(self, threshold: float) -> "DeviceFingerprint":
        return DeviceFingerprint(
            self.device_id, self.catalog_version, self.selection,
            self.mean, self.covariance, self.ridge_lambda, threshold, self.n_enrolled,
        )


@dataclass(frozen=True)
class VerificationDecision:
    claimed_id: str
    squared_distance: float
    accepted: bool
    threshold_used: float


def enroll(
    device_id: str,
    vectors: Sequence[FeatureVector],
    selection: FeatureSelection,
    ridge_lambda: float = 1e-3,
) -> DeviceFingerprint:
    """Build a device fingerprint from labeled enrollment vectors.

    Requires n >= max(8, dim + 1) vectors sharing one catalog version.
    Covariance is the sample covariance (divisor n-1) plus
    ridge_lambda * diag(sample variances floored at 1e-12); the result must
    be positive definite or enrollment fails. The initial threshold is the
    chi-square-like default 3 * dim and is meant to be recalibrated.
    """
    if ridge_lambda < 0:
        raise ParameterError("ridge_lambda must be >= 0")
    d = len(selection.kept_indices)
    n_min = max(8, d + 1)
    if len(vectors) < n_min:
        raise EnrollmentError(
            f"need at least {n_min} vectors for dimension {d}, got {len(vectors)}"
        )
    version = vectors[0].catalog_version
    if any(v.catalog_version != version for v in vectors):
        raise CatalogMismatchError("enrollment vectors span multiple catalog versions")

    X = np.vstack([selection.apply(v) for v in vectors])
    mean = X.mean(axis=0)
    cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    diag = np.maximum(X.var(axis=0, ddof=1), 1e-12)
    cov = cov + ridge_lambda * np.diag(diag)
    cov = (cov + cov.T) / 2.0

    try:  # positive definiteness is the only check these fields can fail
        return DeviceFingerprint(device_id, version, selection, mean, cov, float(ridge_lambda),
                                 threshold=3.0 * d, n_enrolled=len(vectors))
    except ParameterError:
        raise EnrollmentError(
            f"covariance for '{device_id}' is not positive definite; "
            f"increase ridge_lambda (got {ridge_lambda})"
        ) from None


def mahalanobis_squared(x: np.ndarray, fingerprint: DeviceFingerprint) -> float:
    """(x - mu)^T Sigma^(-1) (x - mu) as |W (x - mu)|^2 with the cached W = L^(-1).

    A non-finite probe raises; a finite probe whose d^2 overflows scores inf, a reject.
    """
    y = fingerprint.whitening @ (np.asarray(x, dtype=np.float64) - fingerprint.mean)
    d2 = float(y @ y)
    if not math.isfinite(d2):
        # W is triangular with a non-zero diagonal, so a non-finite feature always gets here.
        if not np.all(np.isfinite(x)):
            raise ParameterError(f"probe scored against '{fingerprint.device_id}' is not finite")
        d2 = math.inf  # an overflow is inf, or nan from inf - inf
    return d2


def verify(vector: FeatureVector, fingerprint: DeviceFingerprint) -> VerificationDecision:
    """Score a probe against the claimed identity's reference model."""
    if vector.catalog_version != fingerprint.catalog_version:
        raise CatalogMismatchError(
            f"probe catalog '{vector.catalog_version}' does not match "
            f"fingerprint catalog '{fingerprint.catalog_version}'"
        )
    d2 = mahalanobis_squared(fingerprint.selection.apply(vector), fingerprint)
    return VerificationDecision(
        claimed_id=fingerprint.device_id,
        squared_distance=d2,
        accepted=d2 <= fingerprint.threshold,
        threshold_used=fingerprint.threshold,
    )


def score_vectors(vectors: Sequence[FeatureVector], fingerprint: DeviceFingerprint) -> np.ndarray:
    """Squared distances of many probes against one fingerprint, each from verify()."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing d^2 scores inf
        return np.array([verify(v, fingerprint).squared_distance for v in vectors])


def _curves(genuine, impostor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(union, far, frr): the sorted distinct scores, and FAR and FRR with each one as the threshold."""
    gen = np.sort(np.asarray(genuine, dtype=np.float64))
    imp = np.sort(np.asarray(impostor, dtype=np.float64))
    if gen.size == 0 or imp.size == 0:
        raise ParameterError("genuine and impostor score sets must be non-empty")
    union = np.unique(np.concatenate([gen, imp]))
    far = np.searchsorted(imp, union, side="right") / imp.size
    frr = (gen.size - np.searchsorted(gen, union, side="right")) / gen.size
    return union, far, frr


def calibrate_threshold(genuine_d2, impostor_d2, policy: str = "eer", max_far: float | None = None) -> float:
    """Pick an acceptance threshold from genuine/impostor score sets.

    policy="eer": the midpoint of the interval where FAR and FRR cross over
    the sorted union of scores. policy="target_far": the largest threshold
    whose FAR stays at or below max_far (a value just below the smallest
    score if even that is too permissive).
    """
    union, far, frr = _curves(genuine_d2, impostor_d2)

    if policy == "eer":
        diff = far - frr  # monotone non-decreasing; ends at +1, so it always crosses
        zeros = np.flatnonzero(diff == 0.0)
        if zeros.size:
            return float((union[zeros[0]] + union[zeros[-1]]) / 2.0)
        first_pos = int(np.argmax(diff > 0.0))
        if first_pos == 0:
            return float(union[0])
        return float((union[first_pos - 1] + union[first_pos]) / 2.0)

    if policy == "target_far":
        if max_far is None or not 0.0 <= max_far <= 1.0:
            raise ParameterError("target_far policy needs max_far in [0, 1]")
        ok = np.flatnonzero(far <= max_far)
        if ok.size == 0:
            return float(union[0] - 1.0)
        return float(union[ok[-1]])

    raise ParameterError(f"unknown policy '{policy}'")


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """ROC over the sorted score union plus the equal-error operating point."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    eer: float
    eer_threshold: float
    far_at: dict[float, float]
    frr_at: dict[float, float]


def evaluate(genuine_d2, impostor_d2) -> EvaluationReport:
    """FAR/FRR curves, EER, and anchored error rates for two score sets.

    EER is the average of FAR and FRR at the first threshold (in ascending
    score order) minimizing |FAR - FRR|. far_at maps an FRR anchor to the
    FAR at the smallest threshold reaching that FRR; frr_at maps an FAR
    anchor to the FRR at the largest threshold still within that FAR.
    """
    union, far, frr = _curves(genuine_d2, impostor_d2)

    idx = int(np.argmin(np.abs(far - frr)))
    eer = float((far[idx] + frr[idx]) / 2.0)

    far_at: dict[float, float] = {}
    frr_at: dict[float, float] = {}
    for anchor in _FAR_FRR_ANCHORS:
        i = int(np.argmax(frr <= anchor))  # frr is non-increasing; last value is 0
        far_at[anchor] = float(far[i])
        ok = np.flatnonzero(far <= anchor)
        frr_at[anchor] = float(frr[ok[-1]]) if ok.size else 1.0

    return EvaluationReport(
        thresholds=union,
        far=far,
        frr=frr,
        eer=eer,
        eer_threshold=float(union[idx]),
        far_at=far_at,
        frr_at=frr_at,
    )


def _fingerprint_to_doc(fp: DeviceFingerprint) -> dict:
    return dict(zip(FINGERPRINT, (
        fp.device_id, fp.catalog_version, list(fp.selection.kept_indices),
        fp.selection.scores.tolist(), fp.mean.tolist(), fp.covariance.tolist(),  # row-major
        fp.ridge_lambda, fp.threshold, fp.n_enrolled,
    )))


def save_fingerprint_store(
    fingerprints: Sequence[DeviceFingerprint],
    path,
    catalog_names: Sequence[str] | None = None,
) -> None:
    """Write fingerprints as a versioned JSON store (atomic, full precision).

    catalog_names, when given, records the full ordered feature catalog the
    selections index into, making the store self-describing.
    """
    ids = [fp.device_id for fp in fingerprints]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate device_id in fingerprint store")
    doc = {
        "format": FINGERPRINT_STORE_FORMAT,
        "catalog_names": list(catalog_names) if catalog_names is not None else None,
        "fingerprints": [_fingerprint_to_doc(fp) for fp in fingerprints],
    }
    atomic_write(path, json_text(doc))


def load_fingerprint_store(path, catalog_names: Sequence[str] | None = None) -> dict[str, DeviceFingerprint]:
    """Load a store; with catalog_names given, the catalog the store records must equal
    it, and every fingerprint must have that catalog's version and one selection score per name."""
    doc = parse(load_json(path), STORE)
    if catalog_names is not None and doc["catalog_names"] not in (None, list(catalog_names)):
        raise ValidationError(f"{path}: catalog_names do not match the feature table header")
    expected = None if catalog_names is None else catalog_version_of(catalog_names)
    store: dict[str, DeviceFingerprint] = {}
    for i, f in enumerate(doc["fingerprints"]):
        with fields(f"fingerprints[{i}]"):
            device_id, version, kept, scores, mean, cov, *rest = f.values()
            if expected not in (None, version):
                raise ParameterError(f"catalog_version must be the feature table's {expected!r}, got {version!r}")
            if catalog_names is not None and len(scores) != len(catalog_names):
                raise ParameterError(f"selection_scores must hold one score per catalog feature "
                                     f"({len(catalog_names)}), got {len(scores)}")
            selection = FeatureSelection(tuple(kept), np.asarray(scores))
            fp = DeviceFingerprint(device_id, version, selection, np.asarray(mean), np.asarray(cov), *rest)
        if fp.device_id in store:
            raise ValidationError(f"duplicate device_id '{fp.device_id}' in store")
        store[fp.device_id] = fp
    return store


def genuine_impostor_scores(
    probes: Sequence[FeatureVector],
    labels: Sequence[str],
    store: Mapping[str, DeviceFingerprint],
) -> tuple[np.ndarray, np.ndarray]:
    """Score every probe against every enrolled device.

    Each device's column of scores is split by a label mask: a probe scored
    against the fingerprint of its own label contributes a genuine score,
    against any other fingerprint an impostor score. Scores come out
    device-major.
    """
    if len(probes) != len(labels):
        raise ParameterError("probes and labels must have the same length")
    own = np.asarray(labels, dtype=str) == np.asarray(list(store), dtype=str)[:, None]
    scores = np.array([score_vectors(probes, fp) for fp in store.values()]).reshape(own.shape)
    return scores[own], scores[~own]
