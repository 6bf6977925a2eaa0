import tracemalloc

import numpy as np
import pytest

from radiofp.detect import RegionOfInterest
from radiofp.dsp import BLOCK_SAMPLES, SNR_MIN_SAMPLES, IqRecording, snr_db_from_powers
from radiofp.errors import ParameterError, SizeError, TuningError
from radiofp.receiver import ReceiverConfig
from radiofp.tuning import (
    ObjectiveParams,
    _noise_power,
    TuningGrid,
    acquisition_metrics,
    objective,
    tune,
    write_trace_csv,
)

FS = 1.0e5


def mean_power(x):
    """The reference mean |z|^2 of a sample sequence."""
    return float(np.mean(np.abs(x) ** 2))


def power_of(samples):
    """The float64 |z|^2 of samples, as receiver.acquire_power writes a capture's."""
    return np.square(np.abs(samples))


def clip_of(samples, full_scale):
    """The reference clipping ratio: the mean of |I| or |Q| >= full_scale - full_scale * 1e-9."""
    limit = full_scale - full_scale * 1e-9
    return float(np.mean((np.abs(samples.real) >= limit) | (np.abs(samples.imag) >= limit)))


def estimate_snr_db(signal_region, noise_region):
    """The reference SNR of two regions of at least SNR_MIN_SAMPLES: snr_db_from_powers of their mean_power."""
    assert len(signal_region) >= SNR_MIN_SAMPLES and len(noise_region) >= SNR_MIN_SAMPLES
    return snr_db_from_powers(mean_power(signal_region), mean_power(noise_region))


def recording_with_roi(snr_db_exact, n=4000):
    """Deterministic recording whose measured ROI SNR is exactly snr_db_exact.

    Noise region: alternating +/-1 (mean power exactly 1). Signal region:
    constant amplitude so that P_sig - P_noise = 10^(snr/10).
    """
    x = np.zeros(n, dtype=complex)
    x[0::2] = 1.0
    x[1::2] = -1.0
    roi_len = n // 4
    start = n // 2
    amp = np.sqrt(10.0 ** (snr_db_exact / 10.0) + 1.0)
    x[start:start + roi_len] = amp
    rec = IqRecording(x, FS)
    roi = RegionOfInterest(start, roi_len, peak_metric=snr_db_exact, noise_floor=1.0)
    return rec, [roi]


def synthetic_plant(surface):
    """Plant closure over a (gain, bw) -> objective lookup table; no ROI, so no SNR estimate and no clipping."""

    def plant(config: ReceiverConfig):
        return surface[(config.gain_db, config.filter_bw_hz)], float("nan"), 0.0, 0

    return plant


def unimodal_surface(gains, bws, peak_g, peak_b):
    surface = {}
    for g in gains:
        for b in bws:
            surface[(g, b)] = 50.0 - (g - peak_g) ** 2 - ((b - peak_b) / 1000.0) ** 2
    return surface


GAINS7 = tuple(float(g) for g in range(-10, 60, 10))
BWS7 = tuple(float(b) for b in range(10_000, 45_000, 5_000))


class TestObjective:
    def test_no_roi_penalty(self):
        assert objective(np.zeros(1000), [], 0.0)[0] == -100.0

    def test_snr_only_without_clipping(self):
        # full_scale far above every sample: the clip term is exactly zero.
        rec, rois = recording_with_roi(20.0)
        clip = clip_of(rec.samples, 1e6)
        assert clip == 0.0
        assert objective(power_of(rec.samples), rois, clip)[0] == pytest.approx(20.0, abs=1e-9)

    def test_full_clipping_costs_whole_penalty(self):
        # full_scale at the noise amplitude puts every sample at the rails.
        rec, rois = recording_with_roi(20.0)
        clip = clip_of(rec.samples, 1.0)
        assert clip == 1.0
        params = ObjectiveParams(clip_weight=0.5)
        assert objective(power_of(rec.samples), rois, clip, params)[0] == pytest.approx(20.0 - 0.5 * 100.0, abs=1e-9)

    def test_formula_composition(self):
        # Independent measurement of both terms through the reference helpers
        # must reproduce the objective (arithmetic: 25 dB, clip 0.25 -> 12.5).
        rec, rois = recording_with_roi(25.0)
        full_scale = 2.0  # rails only the ROI samples (amplitude ~17.8)
        clip = clip_of(rec.samples, full_scale)
        assert clip == 0.25  # the ROI occupies a quarter of the recording
        mask = np.ones(len(rec), dtype=bool)
        mask[rois[0].start_sample:rois[0].end_sample] = False
        snr = estimate_snr_db(rois[0].slice_of(rec), rec.samples[mask])
        params = ObjectiveParams(clip_weight=0.5)
        assert objective(power_of(rec.samples), rois, clip, params)[0] == pytest.approx(snr - 0.5 * 100.0 * clip,
                                                                                     abs=1e-9)
        assert objective(power_of(rec.samples), rois, clip, params)[0] == pytest.approx(25.0 - 12.5, abs=1e-9)

    def test_trace_objective_uses_the_receivers_full_scale(self):
        """A plant on a receiver of full scale 2.0, clipping measured against it, and the default ObjectiveParams:
        each trace row's objective comes from its own snr_est_db and clip_ratio, or is the flat penalty when the
        SNR is nan."""
        rec, rois = recording_with_roi(25.0)
        params = ObjectiveParams()

        def plant(config):
            scaled = rec.samples * 10.0 ** (config.gain_db / 20.0)
            found = rois if config.filter_bw_hz > 1.0 else []
            return objective(power_of(scaled), found, clip_of(scaled, config.full_scale))

        template = ReceiverConfig(filter_bw_hz=1.0, full_scale=2.0)
        trace = tune(plant, TuningGrid((-30.0, -20.0, 0.0), (1.0, 2.0)), config_template=template)
        assert {step.clip_ratio for step in trace.steps} == {0.0, 0.25}
        for step in trace.steps:
            if np.isnan(step.snr_est_db):
                assert step.objective_value == -params.no_roi_penalty
            else:
                assert step.objective_value == step.snr_est_db - params.clip_weight * 100.0 * step.clip_ratio


class TestObjectiveParams:
    @pytest.mark.parametrize("name", ["clip_weight", "no_roi_penalty"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "0.5", True, None])
    def test_a_field_that_is_not_a_finite_real_number_is_named(self, name, value):
        with pytest.raises(ParameterError, match=name):
            ObjectiveParams(**{name: value})

    def test_fields_take_any_real_number_as_float(self):
        params = ObjectiveParams(clip_weight=np.float32(0.25), no_roi_penalty=np.int64(50))
        assert (params.clip_weight, params.no_roi_penalty) == (0.25, 50.0)
        assert type(params.clip_weight) is float and type(params.no_roi_penalty) is float


class TestAcquisitionMetrics:
    def recording_with_rois(self, lengths):
        rng = np.random.default_rng(4)
        x = 0.05 * (rng.standard_normal(6000) + 1j * rng.standard_normal(6000))
        rois = []
        for k, length in enumerate(lengths):
            start = 500 + 1200 * k
            x[start:start + length] += (k + 1) * 0.2 * np.exp(0.3j * np.arange(length))
            rois.append(RegionOfInterest(start, length, peak_metric=10.0, noise_floor=1e-3))
        return IqRecording(x, FS), rois

    def test_equals_mean_of_per_roi_estimates(self):
        rec, rois = self.recording_with_rois([300, 700, 64, 1000])
        mask = np.ones(len(rec), dtype=bool)
        for roi in rois:
            mask[roi.start_sample:roi.end_sample] = False
        complement = rec.samples[mask]
        expected = float(np.mean([estimate_snr_db(roi.slice_of(rec), complement) for roi in rois]))
        snr, clip = acquisition_metrics(power_of(rec.samples), rois, 0.125)
        assert snr == expected
        assert clip == 0.125

    def test_gaps_give_the_masked_complement_bits(self):
        """Unsorted, overlapping and end-touching ROIs: the SNR bits of estimate_snr_db against the masked complement."""
        n = 3 * BLOCK_SAMPLES + 11
        rng = np.random.default_rng(5)
        x = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rois = [RegionOfInterest(start, 3000, 10.0, 1e-3)
                for start in (n - 3000, 100, 2 * BLOCK_SAMPLES - 2999, 1500, BLOCK_SAMPLES - 1000)]
        for roi in rois:
            x[roi.start_sample:roi.end_sample] *= 20.0
        rec = IqRecording(x, FS)
        mask = np.ones(n, dtype=bool)
        for roi in rois:
            mask[roi.start_sample:roi.end_sample] = False
        expected = float(np.mean([estimate_snr_db(roi.slice_of(rec), x[mask]) for roi in rois]))
        assert acquisition_metrics(power_of(x), rois, 0.0)[0] == expected

    def test_peak_memory_is_the_complement_power_alone(self):
        """The ROIs and their complement reduced from the |z|^2 one block of floats at a time: 0.02x the complex
        capture here, which a gathered complement's |z|^2 would have held a quarter of."""
        n = 2 ** 21
        x = np.full(n, 0.01 + 0.01j)
        rois = [RegionOfInterest(start, 4096, 10.0, 1e-3) for start in range(0, n, 8192)]
        rec = IqRecording(x, FS)
        power = power_of(rec.samples)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            acquisition_metrics(power, rois, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * rec.samples.nbytes

    def test_noise_power_holds_one_block(self):
        """runs_mean_power over the gaps, 16 blocks of them: one block of float |z|^2, never the complement's,
        and mean_power's value within the float contract (1e-12 relative)."""
        n = 2 ** 21
        rng = np.random.default_rng(9)
        rec = IqRecording(0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), FS)
        rois = [RegionOfInterest(start, 4096, 10.0, 1e-3) for start in range(0, n, 8192)]
        power = power_of(rec.samples)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p_noise = _noise_power(power, rois)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        mask = np.ones(n, dtype=bool)
        for roi in rois:
            mask[roi.start_sample:roi.end_sample] = False
        want = mean_power(rec.samples[mask])
        assert abs(p_noise - want) <= 1e-12 * want
        assert peak <= BLOCK_SAMPLES * rec.samples.itemsize  # the gathered complement's was 0.25x the capture

    def test_short_roi_raises_size_error(self):
        rec, rois = self.recording_with_rois([300, 5, 700])
        with pytest.raises(SizeError):
            acquisition_metrics(power_of(rec.samples), rois, 0.0)

    def test_a_roi_past_the_end_is_refused(self):
        rec, rois = self.recording_with_rois([300, 700])
        with pytest.raises(ParameterError, match="past the end"):
            acquisition_metrics(power_of(rec.samples[:rois[-1].end_sample - 1]), rois, 0.0)

    def test_silent_complement_is_nan(self):
        x = np.zeros(1000, dtype=complex)
        x[100:400] = 0.5
        snr, _clip = acquisition_metrics(power_of(x), [RegionOfInterest(100, 300, 10.0, 1e-3)], 0.0)
        assert np.isnan(snr)

    def test_underflowing_complement_is_nan(self):
        """Gap samples of 1e-170 are not zero, but their |z|^2 underflows to 0: no usable measurement,
        not a DegenerateInputError from the SNR of a zero noise power."""
        x = np.full(1000, 1e-170, dtype=complex)
        x[100:400] = 0.5
        snr, clip = acquisition_metrics(power_of(x), [RegionOfInterest(100, 300, 10.0, 1e-3)], 0.0)
        assert np.isnan(snr) and clip == 0.0


class TestTuningGrid:
    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            TuningGrid((0.0, -1.0), (1.0,))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            TuningGrid((), (1.0,))

    def test_gain_without_a_finite_positive_power_ratio_is_named(self):
        with pytest.raises(ParameterError, match=r"gain_db_values\[1\]"):
            TuningGrid((0.0, 8000.0), (1.0,))

    def test_axis_values_must_be_real_numbers(self):
        """A str value was parsed by float() and accepted."""
        with pytest.raises(ParameterError, match=r"filter_bw_hz_values\[0\] must be a real number"):
            TuningGrid((0.0,), ("1e4",))
        grid = TuningGrid((np.float32(1.5), 3), (np.int64(10),))
        assert all(type(v) is float for v in grid.gain_db_values + grid.filter_bw_hz_values)

    def test_size(self):
        assert TuningGrid(GAINS7, BWS7).size == 49


class TestTune:
    def test_single_point_grid(self):
        grid = TuningGrid((3.0,), (5000.0,))
        plant = synthetic_plant({(3.0, 5000.0): 42.0})
        trace = tune(plant, grid, strategy="exhaustive")
        assert trace.n_evaluations == 1
        assert trace.best_value == 42.0
        assert trace.best_config.gain_db == 3.0

    def test_exhaustive_finds_grid_max(self):
        rng = np.random.default_rng(0)
        surface = {(g, b): float(rng.normal()) for g in GAINS7 for b in BWS7}
        grid = TuningGrid(GAINS7, BWS7)
        trace = tune(synthetic_plant(surface), grid, strategy="exhaustive")
        assert trace.n_evaluations == 49
        assert trace.best_value == max(surface.values())

    def test_coordinate_descent_matches_exhaustive_on_unimodal(self):
        surface = unimodal_surface(GAINS7, BWS7, peak_g=20.0, peak_b=30_000.0)
        grid = TuningGrid(GAINS7, BWS7)
        exh = tune(synthetic_plant(surface), grid, strategy="exhaustive")
        cd = tune(synthetic_plant(surface), grid, strategy="coordinate_descent", budget=28)
        assert cd.best_value == exh.best_value
        assert cd.n_evaluations <= 28

    def test_coordinate_descent_never_below_start(self):
        rng = np.random.default_rng(1)
        surface = {(g, b): float(rng.normal()) for g in GAINS7 for b in BWS7}
        grid = TuningGrid(GAINS7, BWS7)
        start_value = surface[(GAINS7[3], BWS7[3])]  # grid midpoint
        cd = tune(synthetic_plant(surface), grid, strategy="coordinate_descent", budget=49)
        assert cd.best_value >= start_value

    def test_budget_respected(self):
        surface = unimodal_surface(GAINS7, BWS7, peak_g=50.0, peak_b=40_000.0)
        grid = TuningGrid(GAINS7, BWS7)
        trace = tune(synthetic_plant(surface), grid, strategy="exhaustive", budget=10)
        assert trace.n_evaluations == 10

    def test_all_trace_configs_belong_to_grid(self):
        surface = unimodal_surface(GAINS7, BWS7, peak_g=0.0, peak_b=10_000.0)
        grid = TuningGrid(GAINS7, BWS7)
        trace = tune(synthetic_plant(surface), grid, strategy="coordinate_descent")
        for step in trace.steps:
            assert step.config.gain_db in GAINS7
            assert step.config.filter_bw_hz in BWS7

    def test_ties_break_toward_lower_gain_then_bw(self):
        surface = {(g, b): 1.0 for g in GAINS7 for b in BWS7}  # flat surface
        grid = TuningGrid(GAINS7, BWS7)
        trace = tune(synthetic_plant(surface), grid, strategy="exhaustive")
        assert trace.best_config.gain_db == GAINS7[0]
        assert trace.best_config.filter_bw_hz == BWS7[0]

    def test_deterministic(self):
        surface = unimodal_surface(GAINS7, BWS7, peak_g=30.0, peak_b=20_000.0)
        grid = TuningGrid(GAINS7, BWS7)
        t1 = tune(synthetic_plant(surface), grid, strategy="coordinate_descent")
        t2 = tune(synthetic_plant(surface), grid, strategy="coordinate_descent")
        assert [s.config for s in t1.steps] == [s.config for s in t2.steps]
        assert t1.best_config == t2.best_config

    def test_zero_budget_raises(self):
        grid = TuningGrid((0.0,), (1000.0,))
        with pytest.raises(TuningError):
            tune(synthetic_plant({(0.0, 1000.0): 1.0}), grid, budget=0)

    @pytest.mark.parametrize("argument, value", [("max_rounds", 2.5), ("max_rounds", True), ("max_rounds", "8"),
                                                 ("budget", 2.5), ("budget", True), ("budget", "3")])
    def test_a_count_that_is_not_an_integer_is_named(self, argument, value):
        grid = TuningGrid(GAINS7, BWS7)
        surface = unimodal_surface(GAINS7, BWS7, peak_g=20.0, peak_b=30_000.0)
        with pytest.raises(ParameterError, match=argument):
            tune(synthetic_plant(surface), grid, strategy="coordinate_descent", **{argument: value})

    def test_integral_counts_are_taken(self):
        grid = TuningGrid(GAINS7, BWS7)
        surface = unimodal_surface(GAINS7, BWS7, peak_g=20.0, peak_b=30_000.0)
        trace = tune(synthetic_plant(surface), grid, budget=np.int64(3), max_rounds=np.int32(2))
        assert trace.n_evaluations == 3

    def test_unknown_strategy_raises(self):
        grid = TuningGrid((0.0,), (1000.0,))
        with pytest.raises(ParameterError):
            tune(synthetic_plant({(0.0, 1000.0): 1.0}), grid, strategy="anneal")

    def test_template_fields_carried(self):
        grid = TuningGrid((0.0,), (1000.0,))
        template = ReceiverConfig(filter_bw_hz=1.0, adc_bits=10, full_scale=2.0,
                                  frontend_noise_power=1e-4)
        trace = tune(synthetic_plant({(0.0, 1000.0): 1.0}), grid, config_template=template)
        cfg = trace.best_config
        assert cfg.adc_bits == 10 and cfg.full_scale == 2.0 and cfg.frontend_noise_power == 1e-4


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        surface = unimodal_surface(GAINS7, BWS7, peak_g=20.0, peak_b=30_000.0)
        grid = TuningGrid(GAINS7, BWS7)
        trace = tune(synthetic_plant(surface), grid, strategy="exhaustive")
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,gain_db,filter_bw_hz,objective,snr_est_db,clip_ratio,n_rois"
        assert len(lines) == 1 + 49
