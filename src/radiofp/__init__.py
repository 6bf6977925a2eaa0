"""radiofp: a deterministic RF-fingerprinting workbench.

Simulates hardware-colored radio bursts, acquires them through a parametric
SDR receiver model, extracts device fingerprints, performs one-to-one
identity verification, and closes the loop with an adaptive controller that
tunes receiver parameters for feature quality.
"""

from .channel import ChannelSpec, add_awgn, apply_multipath, apply_path_loss, propagate
from .detect import DetectorParams, MatchReport, RegionOfInterest, detect_bursts, match_rois
from .dsp import (
    FirTaps,
    IqRecording,
    design_lowpass,
    estimate_snr_db,
    fft_forward,
    fft_inverse,
    instantaneous,
)
from .emitter import (
    BurstSpan,
    EmitterProfile,
    ScheduledBurst,
    TransmissionSchedule,
    apply_impairments,
    modulate_ook,
    render_session,
)
from .features import (
    ExtractionConfig,
    FeatureSelection,
    FeatureVector,
    catalog_names,
    catalog_version,
    extract,
    fisher_select,
)
from .receiver import ReceiverConfig, acquire, clipping_ratio
from .sigmf_io import (
    DatasetSeeds,
    SessionMeta,
    build_dataset,
    read_recording,
    read_schedule,
    regenerate_from_manifest,
    write_recording,
    write_schedule,
)
from .tuning import ObjectiveParams, TuningGrid, TuningTrace, objective, replan_on_drift, tune
from .verify import (
    DeviceFingerprint,
    VerificationDecision,
    calibrate_threshold,
    enroll,
    evaluate,
    load_fingerprint_store,
    save_fingerprint_store,
    verify,
)

__version__ = "0.1.0"
