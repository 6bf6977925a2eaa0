"""SigMF-compatible persistence for recordings, schedules, and datasets.

Each session is a file pair: <stem>.sigmf-data holds interleaved I,Q as
little-endian 32-bit floats with no header (the SigMF "cf32_le" datatype;
exactly 8 bytes per complex sample, I first), and <stem>.sigmf-meta is a
JSON document with "global", "captures", and "annotations" sections using
SigMF core field names. Ground-truth emitter labels ride in the
annotations' "core:label" field. A recording read back holds the file's
cf32_le samples as they are (dsp.CF32_LE), which stages read through the one
widening to complex128, dsp.as_complex_array.

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

import os
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .channel import ChannelSpec, propagate_in_place
from .config import (
    ANNOTATION,
    CAPTURE,
    DATATYPE,
    ENTRY,
    MANIFEST,
    MANIFEST_FORMAT,
    META,
    PROFILE,
    SCHEDULE_FORMAT,
    SIGMF_VERSION,
    DatasetSeeds,
    atomic_write,
    check_below_sample_rate,
    check_session_size,
    file_name,
    json_text,
    load_json,
    parse,
)
from .dsp import CF32_LE, IqRecording, block_slices, check_finite, seal, typed_fields
from .emitter import BurstSpan, EmitterProfile, TransmissionSchedule, render_buffer
from .errors import ConsistencyError, CorruptDataError, ValidationError
from .receiver import ReceiverConfig, acquire_in_place

__all__ = [
    "DATATYPE",
    "CaptureInfo",
    "AnnotationSpan",
    "SessionMeta",
    "DatasetSeeds",
    "DatasetBuildResult",
    "write_recording",
    "read_recording",
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
        typed_fields(self)
        if self.sample_start < 0 or self.sample_count <= 0:
            raise ValidationError("annotation must have sample_start >= 0 and sample_count > 0")


@dataclass(frozen=True, kw_only=True)
class SessionMeta:
    """The metadata half of a session file pair, less what its recording holds.

    The file's core:sample_rate, workbench:recording_id and workbench:sample_count
    are the recording's, and its core:datatype is DATATYPE.
    """

    description: str = ""
    version: str = SIGMF_VERSION
    captures: tuple[CaptureInfo, ...] = ()
    annotations: tuple[AnnotationSpan, ...] = ()

    def __post_init__(self) -> None:
        anns = tuple(self.annotations)
        starts = [a.sample_start for a in anns]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValidationError("annotations must be sorted by sample_start")
        object.__setattr__(self, "captures", tuple(self.captures))
        object.__setattr__(self, "annotations", anns)


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
    float32 round-trip bit-identically. It is converted and written one
    block of BLOCK_SAMPLES at a time, so no interleaved copy of the whole
    capture is made. If the meta write fails, the data file is removed.
    """
    _check_annotation_bounds(meta, len(recording))
    global_section = {
        "core:sample_rate": recording.sample_rate_hz, "core:description": meta.description,
        "core:datatype": DATATYPE, "core:version": meta.version,
        "workbench:recording_id": recording.id, "workbench:sample_count": len(recording),
    }
    captures = [  # an empty core:datetime is left out
        {key: value for key, value in zip(CAPTURE, astuple(cap)) if value != ""}
        for cap in (meta.captures or (CaptureInfo(0, recording.center_freq_hz),))
    ]
    annotations = [dict(zip(ANNOTATION, astuple(ann))) for ann in meta.annotations]
    doc = {"global": global_section, "captures": captures, "annotations": annotations}

    dpath, mpath = data_path(path_stem), meta_path(path_stem)
    samples = recording.samples
    atomic_write(dpath, (samples[block].astype(CF32_LE) for block in block_slices(samples.size)))
    try:
        atomic_write(mpath, json_text(doc))
    except BaseException:
        dpath.unlink()
        raise
    return dpath, mpath


def read_recording(path_stem) -> tuple[IqRecording, SessionMeta]:
    """Read a session pair back; inverse of write_recording.

    Unknown metadata fields are ignored so files from other SigMF tools
    still load, but the datatype must be cf32_le and the data size must
    agree with the metadata. The data file is read in one call into one sealed
    cf32_le array, the recording's: no complex128 capture is made. It is read,
    not mapped, so a file cut short is a CorruptDataError, not a SIGBUS.
    """
    dpath, mpath = data_path(path_stem), meta_path(path_stem)
    with open(dpath, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % CF32_LE.itemsize != 0:
            raise CorruptDataError(f"{dpath} holds {size} bytes, not a whole number of cf32 samples")
        doc = parse(load_json(mpath), META, strict=False)
        samples = np.fromfile(fh, CF32_LE, size // CF32_LE.itemsize)
    if samples.nbytes < size:  # the file shrank after its size was taken
        raise CorruptDataError(f"{dpath} ended at sample {samples.size} of {size // CF32_LE.itemsize}")

    info = doc["global"]
    claimed = info["workbench:sample_count"]
    if claimed is not None and claimed != samples.size:
        raise ConsistencyError(f"meta claims {claimed} samples but data holds {samples.size}")

    captures = tuple(CaptureInfo(*c.values()) for c in doc["captures"])
    annotations = tuple(AnnotationSpan(*a.values()) for a in doc["annotations"])
    meta = SessionMeta(description=info["core:description"], version=info["core:version"],
                       captures=captures, annotations=annotations)
    _check_annotation_bounds(meta, samples.size)

    center = captures[0].center_freq_hz if captures else 0.0
    recording = IqRecording(seal(samples), info["core:sample_rate"], center, info["workbench:recording_id"])
    return recording, meta


# --- schedule documents -----------------------------------------------------

def _profile_to_doc(profile: EmitterProfile) -> dict:
    doc = {name: getattr(profile, name) for name in PROFILE}
    for name in ("pa_a1", "pa_a3"):
        doc[name] = [doc[name].real, doc[name].imag]
    return doc


def schedule_to_doc(schedule: TransmissionSchedule, profiles: Mapping[str, EmitterProfile]) -> dict:
    for key, profile in profiles.items():
        if key != profile.emitter_id:
            raise ValidationError(f"profile map key '{key}' != emitter_id '{profile.emitter_id}'")
    return {
        "format": SCHEDULE_FORMAT,
        "session_duration_s": schedule.session_duration_s,
        "profiles": [_profile_to_doc(profiles[i]) for i in sorted(profiles)],
        "entries": [dict(zip(ENTRY, entry)) for entry in schedule.entries],
    }


# --- dataset building --------------------------------------------------------

@dataclass(frozen=True)
class DatasetBuildResult:
    data_file: Path
    meta_file: Path
    manifest_file: Path
    ground_truth: tuple[BurstSpan, ...]


def received_buffer(schedule: TransmissionSchedule, profiles: Mapping[str, EmitterProfile], channel: ChannelSpec,
                    seeds: DatasetSeeds, sample_rate_hz: float, samples_per_symbol: int):
    """(samples, ground truth): render_buffer's new buffer, which the caller owns, run through propagate_in_place.
    Each stage's output is checked as a recording's samples are (dsp.check_finite)."""
    samples, ground_truth = render_buffer(schedule, profiles, sample_rate_hz, samples_per_symbol, seeds.render)
    check_finite(samples)
    check_finite(propagate_in_place(samples, ground_truth, channel, seeds.channel))
    return samples, ground_truth


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
    byte-identically. stem must be a bare file name. Partial outputs are
    removed if anything fails.
    """
    file_name(stem, "stem")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Render, channel and receiver all work on one buffer, so one capture is alive. The last stage's
    # output becomes the recording (sealed: adopted uncopied) with the id and metadata render_session gives.
    samples, ground_truth = received_buffer(schedule, profiles, channel, seeds, sample_rate_hz, samples_per_symbol)
    acquire_in_place(samples, sample_rate_hz, rx, seeds.frontend)
    acquired = IqRecording(seal(samples), sample_rate_hz, 0.0, id=f"session-{seeds.render}")

    annotations = [AnnotationSpan(span.start_sample, span.length, span.emitter_id)
                   for span in sorted(ground_truth, key=lambda s: (s.start_sample, s.emitter_id))]
    meta = SessionMeta(description="synthesized session", annotations=annotations)
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

    dpath, mpath = write_recording(acquired, meta, out_dir / stem)  # both files, or neither
    del samples, acquired  # so that no capture is alive while the manifest text is built
    manifest_file = out_dir / "manifest.json"
    try:
        atomic_write(manifest_file, json_text(manifest))
    except BaseException:
        dpath.unlink()
        mpath.unlink()
        raise
    return DatasetBuildResult(dpath, mpath, manifest_file, tuple(ground_truth))


def read_manifest(manifest_path) -> dict:
    """Load and strictly validate a dataset manifest (each data_file and meta_file the stem's); returns its fields."""
    doc = parse(load_json(manifest_path), MANIFEST)
    for i, session in enumerate(doc["sessions"]):
        for name, path in (("data_file", data_path(session["stem"])), ("meta_file", meta_path(session["stem"]))):
            if session[name] != path.name:
                raise ValidationError(f"sessions[{i}].{name} must be '{path.name}', got {session[name]!r:.60}")
    check_session_size(doc["schedule"][0].session_duration_s, doc["sample_rate_hz"])
    check_below_sample_rate([doc["receiver"].filter_bw_hz], doc["sample_rate_hz"], "receiver.filter_bw_hz")
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
