"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every experiment is deterministic given MASTER_SEED; expected values
and tolerances are pinned here, not recalibrated elsewhere.

Desk-scale experiment design notes:

* Verification experiments (criteria 3 and 4) synthesize five emitters with
  impairment parameters drawn from documented, well-separated ranges (see
  draw_profiles). All devices transmit the same fixed all-ones payload so
  that identity information comes from the hardware coloration, not from
  message content. Features are extracted at ground-truth burst spans;
  detector quality is scored separately by criterion 6.
* Impairment observability (criterion 2) uses one probe waveform per case:
  a flat burst for CFO and ramp, a subcarrier-offset burst for IQ imbalance
  (the TX imbalance map mu*z + nu*conj(z) leaves purely real baseband
  untouched since mu + nu = 1, so the probe must occupy the quadrature
  rail), and a smooth Hann-envelope burst for the PA cubic term (two-level
  envelopes are invariant under memoryless compression up to scale, which
  normalized moments ignore).
* The canonical controller plant (criterion 5) is a weak input plus
  front-end noise sized so the two lowest gains quantize to pure silence
  (ADC starvation) and the highest gain clips.
"""

import math
import time

import numpy as np
import pytest

from radiofp.channel import ChannelSpec, add_awgn, propagate
from radiofp.detect import DetectorParams, RegionOfInterest, detect_bursts, match_rois
from radiofp.dsp import IqRecording, mean_power
from radiofp.emitter import (
    EmitterProfile,
    TransmissionSchedule,
    apply_impairments,
    modulate_ook,
    render_session,
)
from radiofp.features import ExtractionConfig, catalog_names, extract, fisher_select, moments, wpd_energies
from radiofp.receiver import ReceiverConfig, acquire
from radiofp.sigmf_io import (
    DatasetSeeds,
    SessionMeta,
    build_dataset,
    read_recording,
    regenerate_from_manifest,
    write_recording,
)
from radiofp.tuning import ObjectiveParams, TuningGrid, objective, tune
from radiofp.verify import enroll, evaluate, score_vectors

MASTER_SEED = 20260808

FS = 1.0e5
SPS = 64
PAYLOAD = (1,) * 32           # 2048-sample bursts
PAD = 256                     # silence margin around single-burst recordings
EXTRACTION = ExtractionConfig(wpd_depth=4)
NAMES = catalog_names(EXTRACTION)

# Fixed propagation channel for the verification experiments.
CHANNEL_TAPS = ((0, 1.0 + 0.0j), (2, 0.25 * np.exp(0.7j)))
PATH_LOSS_DB = 6.0

# Canonical receiver for the verification experiments.
RX_CANONICAL = ReceiverConfig(filter_bw_hz=0.4 * FS, gain_db=0.0, adc_bits=8,
                              full_scale=1.0, frontend_noise_power=1e-6)

# Tuning grid used when the adaptive controller assists at low SNR (criterion 4).
# The bandwidth axis floors at 0.2*fs: the sharpest device ramps occupy about
# +/-10 kHz, and narrower anti-alias filters would smear the transient
# features the verifier relies on.
VERIF_GAINS = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0)
VERIF_BWS = tuple(FS * f for f in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7))

N_ENROLL = 100
N_PROBE = 100


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


# --- shared verification-experiment machinery --------------------------------

def draw_profiles(seed=MASTER_SEED):
    """Five emitters, parameters drawn from well-separated documented ranges.

    Ranges (center +/- jitter): CFO -20..20 Hz in 10 Hz steps +/-3; phase
    noise linewidth 2..10 Hz in 2 Hz steps +/-0.5; ramp-up 10..90 samples in
    20-sample steps +/-3; ramp-down 5..45 in 10-sample steps +/-2; PA gain
    0.98..1.02 in 0.01 steps; PA cubic 0..-0.04 in 0.01 steps.
    """
    rng = np.random.default_rng(seed)
    cfo_centers = [-20.0, -10.0, 0.0, 10.0, 20.0]
    linewidths = [2.0, 4.0, 6.0, 8.0, 10.0]
    ramps_up = [10, 30, 50, 70, 90]
    ramps_down = [5, 15, 25, 35, 45]
    a1_mags = [1.02, 1.01, 1.0, 0.99, 0.98]
    a3_vals = [0.0, -0.01, -0.02, -0.03, -0.04]
    profiles = []
    for i in range(5):
        profiles.append(EmitterProfile(
            emitter_id=f"dev-{i}",
            cfo_hz=cfo_centers[i] + rng.uniform(-3, 3),
            iq_gain_imbalance=1.0 + 0.05 * (i - 2),
            iq_phase_imbalance_rad=0.02 * (i - 2),
            phase_noise_linewidth_hz=max(linewidths[i] + rng.uniform(-0.5, 0.5), 0.0),
            pa_a1=a1_mags[i] + 0.0j,
            pa_a3=a3_vals[i] + 0.0j,
            ramp_up_samples=int(ramps_up[i] + rng.integers(-3, 4)),
            ramp_down_samples=int(ramps_down[i] + rng.integers(-2, 3)),
        ))
    return profiles


def burst_vector(profile, snr_db, rx, seed):
    """One burst through impairments, channel, and receiver, to features."""
    ideal = modulate_ook(PAYLOAD, SPS)
    burst = apply_impairments(ideal, profile, FS, seed=seed)
    x = np.zeros(burst.size + 2 * PAD, dtype=complex)
    x[PAD:PAD + burst.size] = burst
    rec = IqRecording(x, FS)
    rec = propagate(rec, (), ChannelSpec(multipath_taps=CHANNEL_TAPS), seed=0)
    rec = propagate(rec, (), ChannelSpec(path_loss_db=PATH_LOSS_DB), seed=0)
    ref = mean_power(rec.samples[PAD:PAD + burst.size])
    rec = add_awgn(rec, snr_db, ref, seed=seed + 1)
    rec = acquire(rec, rx, seed=seed + 2)
    roi = RegionOfInterest(PAD, burst.size, peak_metric=snr_db, noise_floor=1e-9)
    return extract(roi, rec, EXTRACTION)


def run_verification(snr_db, rx):
    """Enroll 5 devices and score genuine/impostor probes.

    Returns (pooled EvaluationReport, per-device dict of (genuine, impostor)
    score arrays).
    """
    profiles = draw_profiles()
    enroll_vecs, enroll_labels, probe_vecs, probe_labels = [], [], [], []
    for i, prof in enumerate(profiles):
        for b in range(N_ENROLL):
            seed = MASTER_SEED + 1000 * i + 10 * b
            enroll_vecs.append(burst_vector(prof, snr_db, rx, seed))
            enroll_labels.append(prof.emitter_id)
        for b in range(N_PROBE):
            seed = MASTER_SEED + 1000 * i + 10 * (N_ENROLL + b) + 5
            probe_vecs.append(burst_vector(prof, snr_db, rx, seed))
            probe_labels.append(prof.emitter_id)

    selection = fisher_select(enroll_vecs, enroll_labels, k=12)
    per_device = {}
    genuine_all, impostor_all = [], []
    for prof in profiles:
        dev = prof.emitter_id
        vecs = [v for v, l in zip(enroll_vecs, enroll_labels) if l == dev]
        fp = enroll(dev, vecs, selection, ridge_lambda=1e-3)
        own = [v for v, l in zip(probe_vecs, probe_labels) if l == dev]
        other = [v for v, l in zip(probe_vecs, probe_labels) if l != dev]
        g = score_vectors(own, fp)
        imp = score_vectors(other, fp)
        per_device[dev] = (g, imp)
        genuine_all.extend(g)
        impostor_all.extend(imp)
    return evaluate(np.array(genuine_all), np.array(impostor_all)), per_device


_EER_CACHE: dict = {}


def eer_at(snr_db, rx=RX_CANONICAL):
    key = (snr_db, rx)
    if key not in _EER_CACHE:
        _EER_CACHE[key] = run_verification(snr_db, rx)
    return _EER_CACHE[key]


def verification_tuning_plant():
    """Calibration session for the low-SNR controller run of criterion 4.

    Six bursts from the middle device through the fixed channel at 5 dB;
    each controller evaluation re-acquires the same received signal.
    """
    profiles = draw_profiles()
    cal = profiles[2]
    entries = tuple((cal.emitter_id, 0.08192 * i + 0.02, PAYLOAD) for i in range(6))
    schedule = TransmissionSchedule(entries, 0.55)
    clean, truth = render_session(schedule, {cal.emitter_id: cal}, FS, SPS, seed=MASTER_SEED + 77)
    faded = propagate(clean, (), ChannelSpec(multipath_taps=CHANNEL_TAPS), seed=0)
    faded = propagate(faded, (), ChannelSpec(path_loss_db=PATH_LOSS_DB), seed=0)
    mask = np.zeros(len(faded), dtype=bool)
    for span in truth:
        mask[span.start_sample:span.start_sample + span.length] = True
    ref = float(np.mean(np.abs(faded.samples[mask]) ** 2))
    received = add_awgn(faded, 5.0, ref, seed=MASTER_SEED + 78)

    detector = DetectorParams(window=64, open_threshold_db=8.0, close_threshold_db=4.0,
                              min_length=256, merge_gap=256)
    params = ObjectiveParams(clip_weight=0.5, no_roi_penalty=100.0, full_scale=1.0)

    def plant(config: ReceiverConfig):
        acquired = acquire(received, config, seed=MASTER_SEED + 79)
        rois = detect_bursts(acquired, detector)
        return acquired, rois, objective(acquired, rois, params)

    return plant


# --- criterion 1 --------------------------------------------------------------

def test_c1_dsp_correctness_suite():
    start = time.time()
    rng = np.random.default_rng(MASTER_SEED)

    for _ in range(1000):
        n = int(2 ** rng.integers(3, 11))  # 8 .. 1024
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = np.fft.fft(x)
        back = np.fft.ifft(spec)
        assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-9
        energy = np.sum(np.abs(x) ** 2)
        assert abs(np.sum(np.abs(spec) ** 2) / n - energy) / energy <= 1e-9
        depth = int(rng.integers(1, 4))
        raw = wpd_energies(x, depth, normalized=False)
        assert abs(raw.sum() - energy) / energy <= 1e-9

    symmetric = np.concatenate([np.arange(10.0), -np.arange(10.0)])
    assert moments(symmetric).skewness == pytest.approx(0.0, abs=1e-12)

    gaussian = rng.standard_normal(10 ** 6)
    assert abs(moments(gaussian).excess_kurtosis) <= 0.05

    assert time.time() - start < 30.0
    report(1, "DSP correctness suite")


# --- criterion 2 --------------------------------------------------------------

def test_c2_impairment_observability():
    start = time.time()
    n = 2048
    flat = np.ones(n, dtype=complex)
    subcarrier = np.exp(2j * np.pi * 5000.0 * np.arange(n) / FS)
    shaped = np.hanning(2 * n).astype(complex)

    cases = [
        ("cfo", EmitterProfile("x", cfo_hz=250.0), flat, "cfo_est_hz"),
        ("iq", EmitterProfile("x", iq_gain_imbalance=1.2), subcarrier, "amp_var"),
        ("ramp", EmitterProfile("x", ramp_up_samples=100), flat, "rise_time_samples"),
        ("pa", EmitterProfile("x", pa_a3=-0.05 + 0.0j), shaped, "amp_kurt"),
    ]

    def feature_over_bursts(profile, probe, feature, seed0):
        idx = NAMES.index(feature)
        values = []
        for b in range(50):
            burst = apply_impairments(probe, profile, FS, seed=seed0 + 3 * b)
            rec = IqRecording(burst, FS)
            rec = add_awgn(rec, 30.0, mean_power(burst), seed=seed0 + 3 * b + 1)
            roi = RegionOfInterest(0, probe.size, peak_metric=30.0, noise_floor=1e-9)
            values.append(extract(roi, rec, EXTRACTION).values[idx])
        return np.asarray(values)

    neutral = EmitterProfile("x")
    for label, impaired, probe, feature in cases:
        base = feature_over_bursts(neutral, probe, feature, seed0=MASTER_SEED)
        moved = feature_over_bursts(impaired, probe, feature, seed0=MASTER_SEED)
        sigma = max(float(np.std(base)), 1e-12)
        separation = abs(float(np.mean(moved)) - float(np.mean(base))) / sigma
        assert separation >= 5.0, f"{label}: {feature} moved only {separation:.2f} sigma"

    assert time.time() - start < 60.0
    report(2, "impairment observability >= 5 sigma per designated feature")


# --- criterion 3 --------------------------------------------------------------

def test_c3_verification_desk_scale():
    start = time.time()
    pooled, per_device = eer_at(25.0)
    assert pooled.eer <= 0.05, f"pooled EER {pooled.eer:.4f} > 0.05"
    for dev, (genuine, impostor) in per_device.items():
        rep = evaluate(genuine, impostor)
        genuine_accept = float(np.mean(genuine <= rep.eer_threshold))
        assert genuine_accept >= 0.9, f"{dev}: genuine accept {genuine_accept:.3f} < 0.9"
    assert time.time() - start < 300.0
    report(3, f"verification EER at 25 dB = {pooled.eer:.4f} (<= 0.05)")


# --- criterion 4 --------------------------------------------------------------

def test_c4_snr_robustness_and_controller_assist():
    start = time.time()
    eers = {snr: eer_at(snr)[0].eer for snr in (25.0, 15.0, 5.0)}
    assert eers[25.0] <= eers[15.0] <= eers[5.0], f"EER trend not monotone: {eers}"

    grid = TuningGrid(VERIF_GAINS, VERIF_BWS)
    trace = tune(verification_tuning_plant(), grid, strategy="coordinate_descent",
                 budget=28, config_template=RX_CANONICAL)
    tuned_eer = eer_at(5.0, trace.best_config)[0].eer

    corner_eers = []
    for gain in (VERIF_GAINS[0], VERIF_GAINS[-1]):
        for bw in (VERIF_BWS[0], VERIF_BWS[-1]):
            corner = ReceiverConfig(filter_bw_hz=bw, gain_db=gain,
                                    adc_bits=RX_CANONICAL.adc_bits,
                                    full_scale=RX_CANONICAL.full_scale,
                                    frontend_noise_power=RX_CANONICAL.frontend_noise_power)
            corner_eers.append(eer_at(5.0, corner)[0].eer)
    worst_corner = max(corner_eers)
    assert tuned_eer <= worst_corner, (
        f"tuned EER {tuned_eer:.4f} > worst corner {worst_corner:.4f}"
    )
    assert time.time() - start < 600.0
    report(4, f"EER trend {eers[25.0]:.4f} <= {eers[15.0]:.4f} <= {eers[5.0]:.4f}; "
              f"tuned {tuned_eer:.4f} <= worst corner {worst_corner:.4f}")


# --- criterion 5 --------------------------------------------------------------

def test_c5_adaptive_controller_canonical_plant():
    start = time.time()
    gains = (-50.0, -40.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    bws = tuple(FS * f for f in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6))
    template = ReceiverConfig(filter_bw_hz=bws[0], adc_bits=8, full_scale=1.0,
                              frontend_noise_power=1.35e-3)
    detector = DetectorParams(window=64, open_threshold_db=10.0, close_threshold_db=6.0,
                              min_length=256, merge_gap=256)
    params = ObjectiveParams(clip_weight=0.5, no_roi_penalty=100.0, full_scale=1.0)

    profile = EmitterProfile("cal", cfo_hz=120.0, phase_noise_linewidth_hz=3.0,
                             ramp_up_samples=40, ramp_down_samples=40)
    entries = tuple(("cal", 0.08192 * i + 0.02, PAYLOAD) for i in range(6))
    schedule = TransmissionSchedule(entries, 0.55)
    clean, _ = render_session(schedule, {"cal": profile}, FS, SPS, seed=MASTER_SEED + 7)
    received = propagate(clean, (), ChannelSpec(path_loss_db=16.0), seed=0)  # weak input; noise is the front end's

    def plant(config: ReceiverConfig):
        acquired = acquire(received, config, seed=MASTER_SEED + 9)
        rois = detect_bursts(acquired, detector)
        return acquired, rois, objective(acquired, rois, params)

    grid = TuningGrid(gains, bws)
    exhaustive = tune(plant, grid, strategy="exhaustive", config_template=template)
    descent = tune(plant, grid, strategy="coordinate_descent", budget=28,
                   config_template=template)

    assert descent.n_evaluations <= 28
    assert descent.best_value >= exhaustive.best_value - 0.05 * abs(exhaustive.best_value), (
        f"descent {descent.best_value:.3f} not within 5% of exhaustive {exhaustive.best_value:.3f}"
    )

    by_config = {(s.config.gain_db, s.config.filter_bw_hz): s.objective_value
                 for s in exhaustive.steps}
    best_at_min_gain = max(by_config[(gains[0], bw)] for bw in bws)
    best_at_max_gain = max(by_config[(gains[-1], bw)] for bw in bws)
    assert descent.best_value >= best_at_min_gain, "starved extreme not beaten"
    assert descent.best_value >= best_at_max_gain, "clipped extreme not beaten"

    assert time.time() - start < 60.0
    report(5, f"descent {descent.best_value:.2f} ~ exhaustive {exhaustive.best_value:.2f} "
              f"in {descent.n_evaluations} evals; extremes {best_at_min_gain:.1f}/{best_at_max_gain:.1f}")


# --- criterion 6 --------------------------------------------------------------

def test_c6_detector_hit_rate_and_false_alarms():
    start = time.time()
    detector = DetectorParams(window=64, open_threshold_db=10.0, close_threshold_db=6.0,
                              min_length=256, merge_gap=128)
    profile = EmitterProfile("a", cfo_hz=150.0, ramp_up_samples=30, ramp_down_samples=30,
                             phase_noise_linewidth_hz=5.0)
    hits = misses = false_alarms = 0
    for k in range(20):
        seed = MASTER_SEED + 37 * k
        entries = tuple(("a", 0.08 * i + 0.01, PAYLOAD) for i in range(10))
        schedule = TransmissionSchedule(entries, 0.82)
        clean, truth = render_session(schedule, {"a": profile}, FS, SPS, seed=seed)
        mask = np.zeros(len(clean), dtype=bool)
        for span in truth:
            mask[span.start_sample:span.start_sample + span.length] = True
        ref = float(np.mean(np.abs(clean.samples[mask]) ** 2))
        noisy = add_awgn(clean, 15.0, ref, seed=seed + 1)
        rois = detect_bursts(noisy, detector)
        h, m, f = match_rois(rois, truth, tolerance=2 * detector.window)
        hits += h
        misses += m
        false_alarms += f

    total = hits + misses
    assert total == 200
    assert hits / total >= 0.95, f"hit rate {hits / total:.3f} < 0.95"
    assert false_alarms <= 5, f"{false_alarms} false alarms > 5"
    assert time.time() - start < 60.0
    report(6, f"detector {hits}/200 hits, {false_alarms} false alarms at 15 dB")


# --- criterion 7 --------------------------------------------------------------

def eer_bruteforce(genuine, impostor):
    """Independent O(n^2) threshold sweep with explicit counting loops."""
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


def test_c7_metrics_match_bruteforce_oracle():
    start = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(100):
        n_g = int(rng.integers(1, 60))
        n_i = int(rng.integers(1, 60))
        genuine = rng.exponential(2.0, n_g)
        impostor = rng.exponential(2.0, n_i) + rng.uniform(0.0, 4.0)
        if rng.random() < 0.3:  # force cross-set ties
            k = min(n_g, n_i, 4)
            impostor[:k] = genuine[:k]
        report_ = evaluate(genuine, impostor)
        oracle_eer, oracle_threshold = eer_bruteforce(list(genuine), list(impostor))
        assert report_.eer == oracle_eer
        assert report_.eer_threshold == oracle_threshold
    assert time.time() - start < 10.0
    report(7, "evaluate EER equals O(n^2) sweep oracle exactly on 100 score sets")


# --- criterion 8 --------------------------------------------------------------

def test_c8_persistence_round_trip_and_replay(tmp_path):
    start = time.time()
    rng = np.random.default_rng(MASTER_SEED + 2)

    for k in range(50):
        n = int(rng.integers(100, 5000))
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
        rec = IqRecording(samples.astype(np.complex128), FS, 433e6, id=f"s{k}")
        meta = SessionMeta.for_recording(rec)
        stem = tmp_path / f"session_{k:02d}"
        write_recording(rec, meta, stem)
        loaded, _ = read_recording(stem)
        assert np.array_equal(loaded.samples.astype(np.complex64), samples)

    profiles = {p.emitter_id: p for p in draw_profiles()}
    entries = tuple((f"dev-{i % 5}", 0.03 * i, PAYLOAD) for i in range(8))
    schedule = TransmissionSchedule(entries, 0.27)
    channel_spec_args = dict(snr_db=20.0, multipath_taps=CHANNEL_TAPS, path_loss_db=PATH_LOSS_DB)
    from radiofp.channel import ChannelSpec
    result = build_dataset(
        schedule, profiles, ChannelSpec(**channel_spec_args), RX_CANONICAL,
        DatasetSeeds(MASTER_SEED, MASTER_SEED + 1, MASTER_SEED + 2),
        tmp_path / "build1", FS, SPS,
    )
    replay = regenerate_from_manifest(result.manifest_file, tmp_path / "build2")
    assert result.data_file.read_bytes() == replay.data_file.read_bytes()
    assert result.meta_file.read_bytes() == replay.meta_file.read_bytes()

    assert time.time() - start < 30.0
    report(8, "50 sessions round-trip bitwise; manifest replay byte-identical")
