"""radiofp: a deterministic RF-fingerprinting workbench.

Simulates hardware-colored radio bursts, acquires them through a parametric
SDR receiver model, extracts device fingerprints, performs one-to-one
identity verification, and closes the loop with an adaptive controller that
tunes receiver parameters for feature quality.

The names exported here are the public API, as the README's "Library use"
section lists them; everything else is reached through its module.
"""

from .channel import add_awgn
from .detect import DetectorParams, RegionOfInterest, detect_bursts, match_rois
from .dsp import IqRecording, instantaneous
from .emitter import EmitterProfile, apply_impairments, modulate_ook
from .features import (
    ExtractionConfig,
    FeatureSelection,
    catalog_names,
    catalog_version,
    extract,
    fisher_select,
)
from .receiver import ReceiverConfig, acquire
from .sigmf_io import SessionMeta, read_recording, regenerate_from_manifest, write_recording
from .verify import (
    DeviceFingerprint,
    calibrate_threshold,
    enroll,
    evaluate,
    genuine_impostor_scores,
    load_fingerprint_store,
    save_fingerprint_store,
    score_matrix,
)

__version__ = "0.1.0"
