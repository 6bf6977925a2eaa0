import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofp.errors import (
    CatalogMismatchError,
    EnrollmentError,
    ParameterError,
    UnsupportedFormatError,
    ValidationError,
)
from radiofp.features import FeatureSelection, FeatureVector
from radiofp.verify import (
    DeviceFingerprint,
    calibrate_threshold,
    enroll,
    evaluate,
    genuine_impostor_scores,
    load_fingerprint_store,
    mahalanobis_squared,
    save_fingerprint_store,
    score_vectors,
    verify,
)

CATALOG = "fc1-test"


def vec(values, version=CATALOG):
    values = np.asarray(values, dtype=float)
    names = tuple(f"f{i}" for i in range(values.size))
    return FeatureVector(names=names, values=values, roi_ref=("r", 0), catalog_version=version)


def full_selection(dim):
    return FeatureSelection(tuple(range(dim)), np.zeros(dim))


def enroll_gaussian(rng, mean, dim=2, n=100, ridge_lambda=1e-6, device_id="dev"):
    vectors = [vec(rng.normal(mean, 1.0, dim)) for _ in range(n)]
    return enroll(device_id, vectors, full_selection(dim), ridge_lambda)


def eer_bruteforce(genuine, impostor):
    """Independent O(n^2) sweep: for each candidate threshold in the sorted
    union, count FAR/FRR with explicit loops; EER averages the two at the
    first |FAR - FRR| minimum."""
    union = sorted(set(list(genuine) + list(impostor)))
    best = None
    for t in union:
        fa = sum(1 for s in impostor if s <= t)
        fr = sum(1 for s in genuine if s > t)
        far = fa / len(impostor)
        frr = fr / len(genuine)
        gap = abs(far - frr)
        if best is None or gap < best[0]:
            best = (gap, (far + frr) / 2.0, t)
    return best[1], best[2]


class TestEnroll:
    def test_mean_recovered(self):
        rng = np.random.default_rng(0)
        mu = np.array([3.0, -1.0])
        fp = enroll_gaussian(rng, mu, n=10_000, ridge_lambda=0.0)
        np.testing.assert_allclose(fp.mean, mu, atol=0.05)

    def test_repeated_vectors_need_ridge(self):
        constant = [vec([1.0, 2.0]) for _ in range(20)]
        with pytest.raises(EnrollmentError):
            enroll("dev", constant, full_selection(2), ridge_lambda=0.0)
        fp = enroll("dev", constant, full_selection(2), ridge_lambda=1e-3)
        assert fp.n_enrolled == 20

    def test_too_few_vectors(self):
        rng = np.random.default_rng(1)
        vectors = [vec(rng.normal(0, 1, 2)) for _ in range(7)]
        with pytest.raises(EnrollmentError):
            enroll("dev", vectors, full_selection(2))

    def test_n_min_scales_with_dimension(self):
        rng = np.random.default_rng(2)
        dim = 12
        vectors = [vec(rng.normal(0, 1, dim)) for _ in range(dim)]  # dim < dim+1
        with pytest.raises(EnrollmentError):
            enroll("dev", vectors, full_selection(dim), ridge_lambda=0.0)

    def test_mixed_catalogs_rejected(self):
        rng = np.random.default_rng(3)
        vectors = [vec(rng.normal(0, 1, 2)) for _ in range(7)] + [vec(np.zeros(2), version="other")]
        with pytest.raises(CatalogMismatchError):
            enroll("dev", vectors, full_selection(2))

    def test_default_threshold(self):
        rng = np.random.default_rng(4)
        fp = enroll_gaussian(rng, np.zeros(3), dim=3)
        assert fp.threshold == 9.0


class TestVerify:
    def test_probe_at_mean_accepted_with_zero_distance(self):
        rng = np.random.default_rng(5)
        fp = enroll_gaussian(rng, np.array([1.0, 2.0]))
        decision = verify(vec(fp.mean), fp)
        assert decision.squared_distance == pytest.approx(0.0, abs=1e-12)
        assert decision.accepted

    def test_identity_covariance_euclidean(self):
        sel = full_selection(2)
        fp = DeviceFingerprint("dev", CATALOG, sel, np.zeros(2), np.eye(2), 0.0, 30.0, 10)
        assert mahalanobis_squared(np.array([3.0, 4.0]), fp) == pytest.approx(25.0, abs=1e-12)

    def test_diagonal_covariance_hand_value(self):
        sel = full_selection(2)
        fp = DeviceFingerprint("dev", CATALOG, sel, np.zeros(2), np.diag([4.0, 1.0]), 0.0, 30.0, 10)
        assert mahalanobis_squared(np.array([2.0, 0.0]), fp) == pytest.approx(1.0, abs=1e-12)

    def test_catalog_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        fp = enroll_gaussian(rng, np.zeros(2))
        with pytest.raises(CatalogMismatchError):
            verify(vec(np.zeros(2), version="other"), fp)

    def test_decision_consistent_with_threshold(self):
        rng = np.random.default_rng(7)
        fp = enroll_gaussian(rng, np.zeros(2)).with_threshold(1e-9)
        decision = verify(vec([5.0, 5.0]), fp)
        assert not decision.accepted
        assert decision.squared_distance > decision.threshold_used

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        dim, n = 4, 400
        X = rng.normal(0, 1, (n, dim)) @ rng.normal(0, 1, (dim, dim)) + rng.normal(0, 5, dim)
        probe = rng.normal(0, 2, dim)
        A = rng.normal(0, 1, (dim, dim)) + 3 * np.eye(dim)
        b = rng.normal(0, 1, dim)

        sel = full_selection(dim)
        fp1 = enroll("dev", [vec(row) for row in X], sel, ridge_lambda=0.0)
        d1 = mahalanobis_squared(probe, fp1)
        fp2 = enroll("dev", [vec(row @ A.T + b) for row in X], sel, ridge_lambda=0.0)
        d2 = mahalanobis_squared(probe @ A.T + b, fp2)
        assert d2 == pytest.approx(d1, rel=1e-6)

    def test_positive_for_probe_off_mean(self):
        rng = np.random.default_rng(9)
        fp = enroll_gaussian(rng, np.zeros(2))
        assert verify(vec([0.1, -0.2]), fp).squared_distance > 0


def small_store(rng):
    """Three enrolled devices with well-apart means: {device_id: fingerprint}."""
    means = {"a": [0.0, 0.0], "b": [4.0, 0.0], "c": [0.0, 4.0]}
    return {d: enroll_gaussian(rng, np.array(m), device_id=d) for d, m in means.items()}


class TestGenuineImpostorScores:
    def probes(self, rng, store, per_device=4):
        labels = [d for d in store for _ in range(per_device)]
        return [vec(store[d].mean + rng.normal(0.0, 1.0, 2)) for d in labels], labels

    def test_multisets_match_a_per_pair_loop(self):
        rng = np.random.default_rng(20)
        store = small_store(rng)
        probes, labels = self.probes(rng, store)
        genuine, impostor = [], []
        for probe, label in zip(probes, labels):
            for device_id, fp in store.items():
                (genuine if device_id == label else impostor).append(verify(probe, fp).squared_distance)
        got_genuine, got_impostor = genuine_impostor_scores(probes, labels, store)
        np.testing.assert_array_equal(np.sort(got_genuine), np.sort(genuine))
        np.testing.assert_array_equal(np.sort(got_impostor), np.sort(impostor))
        n, d = len(probes), len(store)
        assert (got_genuine.size, got_impostor.size) == (n, n * (d - 1))

    def test_unlabeled_probe_is_only_an_impostor(self):
        rng = np.random.default_rng(21)
        store = small_store(rng)
        genuine, impostor = genuine_impostor_scores([vec([1.0, 1.0])], [""], store)
        assert genuine.size == 0
        np.testing.assert_array_equal(
            np.sort(impostor), np.sort([verify(vec([1.0, 1.0]), fp).squared_distance for fp in store.values()]))

    def test_empty_store_gives_two_empty_sets(self):
        genuine, impostor = genuine_impostor_scores([vec([1.0, 1.0])], ["a"], {})
        assert genuine.shape == impostor.shape == (0,)
        with pytest.raises(ParameterError):
            evaluate(genuine, impostor)

    def test_label_count_must_match(self):
        with pytest.raises(ParameterError):
            genuine_impostor_scores([vec([1.0, 1.0])], [], {})


class TestCalibrateThreshold:
    def test_separable_scores(self):
        genuine = [0.5, 1.0, 1.5]
        impostor = [8.0, 9.0, 10.0]
        t = calibrate_threshold(genuine, impostor, policy="eer")
        assert 1.5 <= t <= 8.0
        assert sum(1 for s in impostor if s <= t) == 0
        assert sum(1 for s in genuine if s > t) == 0

    def test_identical_distributions_give_half(self):
        rng = np.random.default_rng(10)
        scores = rng.exponential(1.0, 500)
        t = calibrate_threshold(scores, scores, policy="eer")
        eer, _ = eer_bruteforce(list(scores), list(scores))
        assert eer == pytest.approx(0.5, abs=0.05)
        assert t > 0

    def test_hand_case_crossing_interval(self):
        t = calibrate_threshold([1.0, 2.0, 3.0], [2.5, 4.0, 5.0], policy="eer")
        assert 2.0 < t <= 3.0
        # Brute-force confirms FAR = FRR = 1/3 at the returned threshold.
        far = sum(1 for s in [2.5, 4.0, 5.0] if s <= t) / 3
        frr = sum(1 for s in [1.0, 2.0, 3.0] if s > t) / 3
        assert far == frr == pytest.approx(1 / 3)

    def test_target_far_policy(self):
        genuine = [1.0, 2.0, 3.0, 4.0]
        impostor = [2.5, 3.5, 6.0, 8.0]
        t = calibrate_threshold(genuine, impostor, policy="target_far", max_far=0.25)
        far = sum(1 for s in impostor if s <= t) / len(impostor)
        assert far <= 0.25
        # Largest qualifying threshold: the next union score up breaks the cap.
        above = [s for s in sorted(set(genuine + impostor)) if s > t]
        if above:
            far_next = sum(1 for s in impostor if s <= above[0]) / len(impostor)
            assert far_next > 0.25

    def test_target_far_impossible_falls_below_min(self):
        t = calibrate_threshold([5.0], [1.0, 1.5], policy="target_far", max_far=0.1)
        assert t < 1.0

    def test_empty_inputs_raise(self):
        with pytest.raises(ParameterError):
            calibrate_threshold([], [1.0], policy="eer")

    def test_unknown_policy(self):
        with pytest.raises(ParameterError):
            calibrate_threshold([1.0], [2.0], policy="magic")


class TestEvaluate:
    def test_perfectly_separated(self):
        report = evaluate([1.0, 2.0], [10.0, 20.0])
        assert report.eer == 0.0

    def test_fully_overlapping(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(5.0, 1.0, 400)
        report = evaluate(scores, scores)
        assert report.eer == pytest.approx(0.5, abs=0.05)

    def test_matches_bruteforce_on_random_sets(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            n_g = int(rng.integers(1, 40))
            n_i = int(rng.integers(1, 40))
            genuine = rng.exponential(2.0, n_g)
            impostor = rng.exponential(2.0, n_i) + rng.uniform(0, 3)
            if rng.random() < 0.3:  # force ties across the two sets
                k = min(n_g, n_i, 3)
                impostor[:k] = genuine[:k]
            report = evaluate(genuine, impostor)
            oracle_eer, oracle_t = eer_bruteforce(list(genuine), list(impostor))
            assert report.eer == oracle_eer
            assert report.eer_threshold == oracle_t

    def test_far_monotone_frr_antitone(self):
        rng = np.random.default_rng(13)
        report = evaluate(rng.normal(2, 1, 200), rng.normal(4, 1, 200))
        assert np.all(np.diff(report.far) >= 0)
        assert np.all(np.diff(report.frr) <= 0)

    def test_roc_endpoints(self):
        rng = np.random.default_rng(14)
        genuine = rng.normal(2, 1, 50)
        impostor = rng.normal(4, 1, 50)
        report = evaluate(genuine, impostor)
        # At the largest threshold everything is accepted: (FAR=1, FRR=0).
        assert report.far[-1] == 1.0 and report.frr[-1] == 0.0
        # Below the smallest score nothing is accepted: (FAR=0, FRR=1).
        t_below = report.thresholds[0] - 1.0
        assert np.mean(impostor <= t_below) == 0.0
        assert np.mean(genuine > t_below) == 1.0

    def test_roc_rows_shape(self):
        report = evaluate([1.0, 2.0], [3.0, 4.0])
        roc = np.column_stack([report.far, report.frr, report.thresholds])
        assert roc.shape == (4, 3)
        np.testing.assert_array_equal(roc[:, 2], report.thresholds)

    def test_anchored_rates(self):
        rng = np.random.default_rng(15)
        report = evaluate(rng.normal(0, 1, 300) ** 2, rng.normal(4, 1, 300) ** 2)
        for anchor, far in report.far_at.items():
            assert 0.0 <= far <= 1.0
        for anchor, frr in report.frr_at.items():
            assert 0.0 <= frr <= 1.0


class TestStore:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        fps = [
            enroll_gaussian(rng, np.array([0.0, 1.0]), device_id="a"),
            enroll_gaussian(rng, np.array([5.0, -2.0]), device_id="b").with_threshold(7.25),
        ]
        path = tmp_path / "store.json"
        save_fingerprint_store(fps, path)
        loaded = load_fingerprint_store(path)
        assert set(loaded) == {"a", "b"}
        for fp in fps:
            other = loaded[fp.device_id]
            np.testing.assert_array_equal(other.mean, fp.mean)
            np.testing.assert_array_equal(other.covariance, fp.covariance)
            assert other.threshold == fp.threshold
            assert other.selection.kept_indices == fp.selection.kept_indices
            assert other.catalog_version == fp.catalog_version
            assert other.n_enrolled == fp.n_enrolled

    def test_catalog_names_serialized(self, tmp_path):
        import json
        rng = np.random.default_rng(20)
        fp = enroll_gaussian(rng, np.zeros(2), device_id="a")
        path = tmp_path / "store.json"
        save_fingerprint_store([fp], path, catalog_names=("f0", "f1"))
        doc = json.loads(path.read_text())
        assert doc["catalog_names"] == ["f0", "f1"]
        assert "a" in load_fingerprint_store(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        fp = enroll_gaussian(rng, np.zeros(2), device_id="a")
        with pytest.raises(ValidationError):
            save_fingerprint_store([fp, fp], tmp_path / "dup.json")

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "fingerprints": []}')
        with pytest.raises(UnsupportedFormatError):
            load_fingerprint_store(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(
            '{"format": "fingerprint-store-v1", "fingerprints": [{"device_id": "a"}]}'
        )
        with pytest.raises(ValidationError, match="catalog_version"):
            load_fingerprint_store(path)

    def test_verification_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(18)
        fp = enroll_gaussian(rng, np.array([1.0, 1.0]))
        path = tmp_path / "store.json"
        save_fingerprint_store([fp], path)
        reloaded = load_fingerprint_store(path)["dev"]
        probe = vec([1.3, 0.7])
        assert verify(probe, fp).squared_distance == verify(probe, reloaded).squared_distance


# --- scoring with the cached whitening factor ---------------------------------------

def random_fingerprint(seed, dim, max_condition=1e4):
    """A fingerprint whose covariance is SPD with condition number <= max_condition."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigenvalues = np.exp(rng.uniform(0.0, np.log(max_condition), dim)) * rng.uniform(1e-3, 1e3)
    cov = (q * eigenvalues) @ q.T
    cov = (cov + cov.T) / 2.0
    mean = rng.normal(0.0, 10.0, dim)
    return DeviceFingerprint("dev", CATALOG, full_selection(dim), mean, cov, 0.0, 3.0 * dim, dim + 1)


fingerprints = st.builds(random_fingerprint, st.integers(0, 2**32 - 1), st.integers(1, 12))
bad_values = st.sampled_from([np.nan, np.inf, -np.inf])


class TestWhitenedScoring:
    @settings(max_examples=200, deadline=None)
    @given(fp=fingerprints, seed=st.integers(0, 2**32 - 1))
    def test_matches_solve_on_well_conditioned_covariances(self, fp, seed):
        x = fp.mean + np.random.default_rng(seed).normal(0.0, 3.0, fp.mean.size)
        delta = x - fp.mean
        expected = delta @ np.linalg.solve(fp.covariance, delta)
        assert mahalanobis_squared(x, fp) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 6), which=st.sampled_from(["mean", "covariance"]),
           position=st.integers(0, 35), value=bad_values)
    def test_non_finite_model_rejected_at_construction(self, dim, which, position, value):
        mean, cov = np.zeros(dim), np.eye(dim)
        target = mean if which == "mean" else cov
        target.flat[position % target.size] = value
        with pytest.raises(ParameterError, match=f"{which} must be finite"):
            DeviceFingerprint("dev", CATALOG, full_selection(dim), mean, cov, 0.0, 1.0, 10)

    @settings(max_examples=60, deadline=None)
    @given(fp=fingerprints, position=st.integers(0, 11), value=bad_values)
    def test_non_finite_probe_rejected(self, fp, position, value):
        x = fp.mean.copy()
        x[position % fp.mean.size] = value
        with np.errstate(all="ignore"), pytest.raises(ParameterError, match="not finite"):
            mahalanobis_squared(x, fp)

    @settings(max_examples=60, deadline=None)
    @given(fp=fingerprints, threshold=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_with_threshold_scores_identically(self, fp, threshold, seed):
        x = fp.mean + np.random.default_rng(seed).normal(0.0, 1.0, fp.mean.size)
        moved = fp.with_threshold(threshold)
        assert moved.threshold == threshold
        assert mahalanobis_squared(x, moved) == mahalanobis_squared(x, fp)

    def test_whitening_is_read_only_and_not_persisted(self, tmp_path):
        fp = random_fingerprint(3, 4)
        assert not fp.whitening.flags.writeable
        save_fingerprint_store([fp], tmp_path / "store.json")
        assert "whitening" not in (tmp_path / "store.json").read_text()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_finite_probe_is_rejected(self):
        fp = random_fingerprint(6, 3)
        far = vec([1e200, 0.0, 0.0])
        assert mahalanobis_squared(far.values, fp) == np.inf
        decision = verify(far, fp)
        assert decision.squared_distance == np.inf and not decision.accepted
        near = vec(fp.mean)
        np.testing.assert_array_equal(score_vectors([far, near], fp), [np.inf, 0.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_nan_from_overflow_scores_inf(self):
        # x - mu overflows to inf and the zero above W's diagonal turns it into nan:
        # a finite probe that far away must still read as too far, not raise.
        fp = DeviceFingerprint("dev", CATALOG, full_selection(2), np.array([0.0, -1e308]),
                               np.array([[1.0, 0.5], [0.5, 1.0]]), 0.0, 1.0, 10)
        assert mahalanobis_squared(np.array([0.0, 1e308]), fp) == np.inf

    def test_badly_scaled_covariance_matches_cholesky_solve(self):
        """A real enrolled model (the fingerprint-session workload, seed 7, dev-02): feature
        scales 4.5e-6 to 1.2e3, condition 2.6e17. The stored reference d^2 are
        scipy.linalg.cho_solve values; the plain inv(cholesky(cov)) is up to 6.4e-12 off
        them on these probes, the whitening from the correlation matrix stays within 1e-12."""
        doc = json.loads((Path(__file__).parent / "badly_scaled_covariance.json").read_text())
        dim = len(doc["mean"])
        fp = DeviceFingerprint("dev", CATALOG, full_selection(dim), np.array(doc["mean"]),
                               np.array(doc["covariance"]), 1e-3, 3.0 * dim, 60)
        probes = np.array(doc["probes"])
        expected = np.array(doc["cho_solve_d2"])
        got = [mahalanobis_squared(x, fp) for x in probes]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
