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
from .dsp import typed, typed_fields
from .errors import CatalogMismatchError, EnrollmentError, ParameterError, ValidationError
from .features import FeatureSelection, catalog_version_of

__all__ = [
    "DeviceFingerprint",
    "EvaluationReport",
    "enroll",
    "score_matrix",
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
        typed_fields(self)
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
        if not 0 <= self.ridge_lambda < np.inf:
            raise ParameterError(f"ridge_lambda must be a finite number >= 0, got {self.ridge_lambda}")
        if not 0 < self.threshold < np.inf:
            raise ParameterError(f"threshold must be a finite number > 0, got {self.threshold}")
        if self.n_enrolled < 1:
            raise ParameterError(f"n_enrolled must be > 0, got {self.n_enrolled}")
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


def enroll(
    device_id: str,
    rows,
    selection: FeatureSelection,
    catalog_version: str,
    ridge_lambda: float = 1e-3,
) -> DeviceFingerprint:
    """Build a device fingerprint from its enrollment rows, an n x F array of catalog_version's features.

    Requires n >= max(8, dim + 1) rows. Covariance is the sample covariance
    (divisor n-1) plus ridge_lambda * diag(sample variances floored at 1e-12);
    the result must be positive definite or enrollment fails. The initial
    threshold is the chi-square-like default 3 * dim and is meant to be
    recalibrated.
    """
    ridge_lambda = typed("ridge_lambda", ridge_lambda, float)
    if not 0 <= ridge_lambda < np.inf:
        raise ParameterError(f"ridge_lambda must be a finite number >= 0, got {ridge_lambda}")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != selection.scores.size:
        raise ParameterError(f"rows must be an n x {selection.scores.size} array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ParameterError("rows must be finite")
    d = len(selection.kept_indices)
    n_min = max(8, d + 1)
    if len(rows) < n_min:
        raise EnrollmentError(
            f"need at least {n_min} rows for dimension {d}, got {len(rows)}"
        )

    # np.take keeps the selected columns C-contiguous, and np.cov's bits depend on the layout.
    X = np.take(rows, selection.index, axis=1)
    mean = X.mean(axis=0)
    cov = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    diag = np.maximum(X.var(axis=0, ddof=1), 1e-12)
    cov = cov + ridge_lambda * np.diag(diag)
    cov = (cov + cov.T) / 2.0

    try:  # positive definiteness is the only check these fields can fail
        return DeviceFingerprint(device_id, catalog_version, selection, mean, cov, ridge_lambda,
                                 threshold=3.0 * d, n_enrolled=len(rows))
    except ParameterError:
        raise EnrollmentError(
            f"covariance for '{device_id}' is not positive definite; "
            f"increase ridge_lambda (got {ridge_lambda})"
        ) from None


def score_matrix(values, store: Mapping[str, DeviceFingerprint]) -> np.ndarray:
    """The D x N d^2 of every probe, one row of the N x F array values, against every device of the store, in order.

    Row d is (x - mu)^T Sigma^(-1) (x - mu) over device d's selected features, as |W (x - mu)|^2 with the cached
    W = L^(-1), for all N probes in one matrix product. A table of another width is of another catalog, since
    each catalog version has its own length. A probe with a non-finite selected feature raises; a finite probe
    whose d^2 overflows scores inf, a reject (d^2 > threshold), with no RuntimeWarning.
    """
    values = np.asarray(values, dtype=np.float64)
    scores = np.empty((len(store), *values.shape[:1]))
    for row, fp in zip(scores, store.values()):
        if values.shape[1:] != fp.selection.scores.shape:
            raise CatalogMismatchError(f"a table of shape {values.shape} does not hold rows of fingerprint "
                                       f"catalog '{fp.catalog_version}' ({fp.selection.scores.size})")
        x = values[:, fp.selection.index]
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.subtract(x, fp.mean) @ fp.whitening.T
            np.add.reduce(np.square(y, out=y), axis=1, out=row)
        overflowed = ~np.isfinite(row)
        if overflowed.any():
            # W is triangular with a non-zero diagonal, so a non-finite feature always gets here.
            if not np.isfinite(x[overflowed]).all():
                raise ParameterError(f"probe scored against '{fp.device_id}' is not finite")
            row[overflowed] = np.inf  # an overflow is inf, or nan from inf - inf
    return scores


def calibrate_threshold(genuine_d2, impostor_d2, policy: str = "eer", max_far: float | None = None) -> float:
    """Pick an acceptance threshold from genuine/impostor score sets, on evaluate's ROC.

    policy="eer": evaluate's eer_threshold. policy="target_far": the largest
    ROC threshold whose FAR stays at or below max_far (the float just below
    the smallest score if even that is too permissive, so it accepts no score).
    """
    report = evaluate(genuine_d2, impostor_d2)
    if policy == "eer":
        return report.eer_threshold
    if policy != "target_far":
        raise ParameterError(f"unknown policy '{policy}'")
    if max_far is None or not 0.0 <= max_far <= 1.0:
        raise ParameterError("target_far policy needs max_far in [0, 1]")
    ok = np.flatnonzero(report.far <= max_far)
    return float(report.thresholds[ok[-1]]) if ok.size else float(np.nextafter(report.thresholds[0], -np.inf))


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
    gen = np.sort(np.asarray(genuine_d2, dtype=np.float64))
    imp = np.sort(np.asarray(impostor_d2, dtype=np.float64))
    if gen.size == 0 or imp.size == 0:
        raise ParameterError("genuine and impostor score sets must be non-empty")
    union = np.unique(np.concatenate([gen, imp]))
    far = np.searchsorted(imp, union, side="right") / imp.size
    frr = (gen.size - np.searchsorted(gen, union, side="right")) / gen.size
    gap = far - frr
    idx = int(np.argmin(np.abs(gap, out=gap)))  # in place: no fourth array the size of the score union
    eer = float((far[idx] + frr[idx]) / 2.0)

    far_at: dict[float, float] = {}
    frr_at: dict[float, float] = {}
    for anchor in _FAR_FRR_ANCHORS:
        i = int(np.argmax(frr <= anchor))  # frr is non-increasing; last value is 0
        far_at[anchor] = float(far[i])
        ok = np.flatnonzero(far <= anchor)
        frr_at[anchor] = float(frr[ok[-1]]) if ok.size else 1.0

    return EvaluationReport(union, far, frr, eer, float(union[idx]), far_at, frr_at)


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
    values,
    labels: Sequence[str],
    store: Mapping[str, DeviceFingerprint],
) -> tuple[np.ndarray, np.ndarray]:
    """Score every probe, one row of the N x F array values, against every enrolled device.

    score_matrix's D x N scores are split by a label mask: a probe scored
    against the fingerprint of its own label contributes a genuine score,
    against any other fingerprint an impostor score. Scores come out
    device-major.
    """
    if len(values) != len(labels):
        raise ParameterError("values and labels must have the same number of rows")
    # Two object arrays compare as Python strs: numpy's <U strings, a str scalar included, drop a trailing NUL.
    own = np.asarray(labels, dtype=object) == np.asarray(list(store), dtype=object)[:, None]
    scores = score_matrix(values, store)
    return scores[own], scores[~own]
