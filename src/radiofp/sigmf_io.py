"""SigMF-compatible persistence for recordings, schedules, and datasets.

Each session is a file pair: <stem>.sigmf-data holds interleaved I,Q as
little-endian 32-bit floats with no header (the SigMF "cf32_le" datatype;
exactly 8 bytes per complex sample, I first), and <stem>.sigmf-meta is a
JSON document with "global", "captures", and "annotations" sections using
SigMF core field names. Ground-truth emitter labels ride in the
annotations' "core:label" field.

Every document is parsed through the field tables in radiofp.config.
Session metadata is parsed permissively (unknown fields from other SigMF
tools are ignored); schedule documents and manifests are parsed strictly
(an unknown field is an error naming the field). All writes are atomic
(temp file + rename) and all JSON is emitted with sorted keys so reruns
are byte-identical.

A dataset build renders a session, runs it through the channel and the
receiver, and writes the session pair plus a self-contained manifest from
which the byte-identical dataset can be regenerated.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelSpec, propagate
from .config import (
    ANNOTATION,
    CAPTURE,
    DATATYPE,
    ENTRY,
    GLOBAL,
    MANIFEST,
    MANIFEST_FORMAT,
    META,
    PROFILE,
    SCHEDULE_FORMAT,
    SIGMF_VERSION,
    DatasetSeeds,
    atomic_write,
    check_session_size,
    json_text,
    load_json,
    parse,
    schedule_document,
)
from .dsp import IqRecording, as_sum_of_parts, seal
from .emitter import BurstSpan, EmitterProfile, TransmissionSchedule, render_session
from .errors import ConsistencyError, CorruptDataError, UnsupportedFormatError, ValidationError
from .receiver import ReceiverConfig, acquire

__all__ = [
    "DATATYPE",
    "CaptureInfo",
    "AnnotationSpan",
    "SessionMeta",
    "DatasetSeeds",
    "DatasetBuildResult",
    "write_recording",
    "read_recording",
    "write_schedule",
    "read_schedule",
    "build_dataset",
    "regenerate_from_manifest",
    "read_manifest",
]


@dataclass(frozen=True)
class CaptureInfo:
    sample_start: int = 0
    center_freq_hz: float = 0.0
    datetime_str: str = ""


@dataclass(frozen=True)
class AnnotationSpan:
    sample_start: int
    sample_count: int
    label: str
    comment: str = ""

    def __post_init__(self) -> None:
        if self.sample_start < 0 or self.sample_count <= 0:
            raise ValidationError("annotation must have sample_start >= 0 and sample_count > 0")


@dataclass(frozen=True)
class SessionMeta:
    """The metadata half of a session file pair."""

    sample_rate_hz: float
    description: str = ""
    datatype: str = DATATYPE
    version: str = SIGMF_VERSION
    recording_id: str = ""
    sample_count: int | None = None
    captures: tuple[CaptureInfo, ...] = field(default_factory=tuple)
    annotations: tuple[AnnotationSpan, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.datatype != DATATYPE:
            raise UnsupportedFormatError(f"datatype must be '{DATATYPE}', got '{self.datatype}'")
        anns = tuple(self.annotations)
        starts = [a.sample_start for a in anns]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValidationError("annotations must be sorted by sample_start")
        object.__setattr__(self, "captures", tuple(self.captures))
        object.__setattr__(self, "annotations", anns)

    @staticmethod
    def for_recording(
        recording: IqRecording,
        ground_truth: Sequence[BurstSpan] = (),
        description: str = "",
    ) -> "SessionMeta":
        anns = tuple(
            AnnotationSpan(span.start_sample, span.length, span.emitter_id)
            for span in sorted(ground_truth, key=lambda s: (s.start_sample, s.emitter_id))
        )
        return SessionMeta(
            sample_rate_hz=recording.sample_rate_hz,
            description=description,
            recording_id=recording.id,
            sample_count=len(recording),
            captures=(CaptureInfo(0, recording.center_freq_hz),),
            annotations=anns,
        )


def _check_annotation_bounds(meta: SessionMeta, n_samples: int) -> None:
    for ann in meta.annotations:
        if ann.sample_start + ann.sample_count > n_samples:
            raise ValidationError(
                f"annotation [{ann.sample_start}, +{ann.sample_count}) exceeds "
                f"recording length {n_samples}"
            )


def data_path(path_stem) -> Path:
    return Path(f"{path_stem}.sigmf-data")


def meta_path(path_stem) -> Path:
    return Path(f"{path_stem}.sigmf-meta")


def write_recording(recording: IqRecording, meta: SessionMeta, path_stem) -> tuple[Path, Path]:
    """Write a session pair; validates before touching the filesystem.

    Sample data is stored as float32, so values already representable in
    float32 round-trip bit-identically.
    """
    if meta.sample_rate_hz != recording.sample_rate_hz:
        raise ValidationError(
            f"meta sample_rate_hz {meta.sample_rate_hz} != recording {recording.sample_rate_hz}"
        )
    _check_annotation_bounds(meta, len(recording))
    meta = replace(meta, sample_count=len(recording), recording_id=meta.recording_id or recording.id)

    interleaved = np.empty(2 * len(recording), dtype="<f4")
    interleaved[0::2] = recording.samples.real
    interleaved[1::2] = recording.samples.imag

    global_section = dict(zip(GLOBAL, astuple(meta)))
    captures = [  # an empty core:datetime is left out
        {key: value for key, value in zip(CAPTURE, astuple(cap)) if value != ""}
        for cap in (meta.captures or (CaptureInfo(0, recording.center_freq_hz),))
    ]
    annotations = [dict(zip(ANNOTATION, astuple(ann))) for ann in meta.annotations]
    doc = {"global": global_section, "captures": captures, "annotations": annotations}

    dpath, mpath = data_path(path_stem), meta_path(path_stem)
    atomic_write(dpath, interleaved)
    atomic_write(mpath, json_text(doc))
    return dpath, mpath


def read_recording(path_stem) -> tuple[IqRecording, SessionMeta]:
    """Read a session pair back; inverse of write_recording.

    Unknown metadata fields are ignored so files from other SigMF tools
    still load, but the datatype must be cf32_le and the data size must
    agree with the metadata.
    """
    dpath, mpath = data_path(path_stem), meta_path(path_stem)
    raw = dpath.read_bytes()
    if len(raw) % 8 != 0:
        raise CorruptDataError(f"{dpath} holds {len(raw)} bytes, not a whole number of cf32 samples")
    doc = parse(load_json(mpath), META, strict=False)

    interleaved = np.frombuffer(raw, dtype="<f4")
    samples = np.empty(interleaved.size // 2, dtype=np.complex128)
    samples.real = interleaved[0::2]
    samples.imag = interleaved[1::2]
    as_sum_of_parts(samples)  # the signed zeros of I + 1j*Q

    claimed = doc["global"]["workbench:sample_count"]
    if claimed is not None and claimed != samples.size:
        raise ConsistencyError(f"meta claims {claimed} samples but data holds {samples.size}")

    captures = tuple(CaptureInfo(*c.values()) for c in doc["captures"])
    annotations = tuple(AnnotationSpan(*a.values()) for a in doc["annotations"])
    meta = SessionMeta(*list(doc["global"].values())[:-1], samples.size, captures, annotations)
    _check_annotation_bounds(meta, samples.size)

    center = captures[0].center_freq_hz if captures else 0.0
    recording = IqRecording(seal(samples), meta.sample_rate_hz, center, meta.recording_id)
    return recording, meta


# --- schedule documents -----------------------------------------------------

def _profile_to_doc(profile: EmitterProfile) -> dict:
    doc = {name: getattr(profile, name) for name in PROFILE}
    for name in ("pa_a1", "pa_a3"):
        doc[name] = [complex(doc[name]).real, complex(doc[name]).imag]
    return doc


def schedule_to_doc(schedule: TransmissionSchedule, profiles: Mapping[str, EmitterProfile]) -> dict:
    for key, profile in profiles.items():
        if key != profile.emitter_id:
            raise ValidationError(f"profile map key '{key}' != emitter_id '{profile.emitter_id}'")
    known = set(profiles.keys())
    for entry in schedule.entries:
        if entry.emitter_id not in known:
            raise ValidationError(f"schedule references unknown emitter_id '{entry.emitter_id}'")
    return {
        "format": SCHEDULE_FORMAT,
        "session_duration_s": schedule.session_duration_s,
        "profiles": [_profile_to_doc(profiles[i]) for i in sorted(profiles)],
        "entries": [dict(zip(ENTRY, entry)) for entry in schedule.entries],
    }


def write_schedule(schedule: TransmissionSchedule, profiles: Mapping[str, EmitterProfile], path) -> Path:
    path = Path(path)
    atomic_write(path, json_text(schedule_to_doc(schedule, profiles)))
    return path


def read_schedule(path) -> tuple[TransmissionSchedule, dict[str, EmitterProfile]]:
    return schedule_document(load_json(path))


# --- dataset building --------------------------------------------------------

@dataclass(frozen=True)
class DatasetBuildResult:
    data_file: Path
    meta_file: Path
    manifest_file: Path
    ground_truth: tuple[BurstSpan, ...]


def build_dataset(
    schedule: TransmissionSchedule,
    profiles: Mapping[str, EmitterProfile],
    channel: ChannelSpec,
    rx: ReceiverConfig,
    seeds: DatasetSeeds,
    out_dir,
    sample_rate_hz: float,
    samples_per_symbol: int,
    stem: str = "session",
) -> DatasetBuildResult:
    """Render, propagate, acquire, and persist one session plus its manifest.

    The manifest embeds the schedule, profiles, channel, receiver config,
    and seeds, so regenerate_from_manifest() reproduces the data files
    byte-identically. Partial outputs are removed if anything fails.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Each stage's input is dropped once consumed, so at most three captures are alive at once.
    rendered, ground_truth = render_session(
        schedule, profiles, sample_rate_hz, samples_per_symbol, seeds.render
    )
    received = propagate(rendered, ground_truth, channel, seeds.channel)
    del rendered
    acquired = acquire(received, rx, seeds.frontend)
    del received

    meta = SessionMeta.for_recording(acquired, ground_truth, description="synthesized session")
    manifest = {
        "format": MANIFEST_FORMAT,
        "sample_rate_hz": sample_rate_hz,
        "samples_per_symbol": samples_per_symbol,
        "seeds": asdict(seeds),
        "channel": channel.to_doc(),
        "receiver": asdict(rx),
        "schedule": schedule_to_doc(schedule, profiles),
        "sessions": [
            {"stem": stem, "data_file": f"{stem}.sigmf-data", "meta_file": f"{stem}.sigmf-meta"}
        ],
    }

    written: list[Path] = []
    try:
        dpath, mpath = write_recording(acquired, meta, out_dir / stem)
        written.extend([dpath, mpath])
        manifest_file = out_dir / "manifest.json"
        atomic_write(manifest_file, json_text(manifest))
        written.append(manifest_file)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return DatasetBuildResult(dpath, mpath, manifest_file, tuple(ground_truth))


def read_manifest(manifest_path) -> dict:
    """Load and strictly validate a dataset manifest; returns its parsed fields."""
    doc = parse(load_json(manifest_path), MANIFEST)
    check_session_size(doc["schedule"][0].session_duration_s, doc["sample_rate_hz"])
    return doc


def regenerate_from_manifest(manifest_path, out_dir) -> DatasetBuildResult:
    """Rebuild a dataset from its manifest; output is byte-identical."""
    doc = read_manifest(manifest_path)
    if len(doc["sessions"]) != 1:
        raise ValidationError("manifest must describe exactly one session")
    schedule, profiles = doc["schedule"]
    return build_dataset(
        schedule, profiles, doc["channel"], doc["receiver"], doc["seeds"], out_dir,
        doc["sample_rate_hz"], doc["samples_per_symbol"], stem=doc["sessions"][0]["stem"],
    )
