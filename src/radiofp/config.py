"""Every document radiofp reads or writes: field tables, one parser, one writer.

A field table maps each field of a document section to (converter, default),
where the default is REQUIRED, or DEFAULT to leave an absent field to the
dataclass or function the section feeds. parse() checks that a section is an
object, rejects unknown fields (SigMF meta allows them: other tools add their
own), converts types and fills defaults. Domain checks stay in the dataclasses:
record() builds one and re-raises its ParameterError as a ValidationError
prefixed with the section path. Those messages start with the field name, so
an error reads "detector.window must be >= 4, got 2".
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .channel import ChannelSpec
from .detect import DetectorParams
from .dsp import typed_fields
from .emitter import EmitterProfile, ScheduledBurst, TransmissionSchedule
from .errors import ParameterError, TuningError, UnsupportedFormatError, ValidationError
from .features import ExtractionConfig
from .receiver import ReceiverConfig

REQUIRED = object()  # the field must be present
DEFAULT = object()   # an absent field keeps the default of what the section feeds

DATATYPE = "cf32_le"
SIGMF_VERSION = "1.0.0"
SCHEDULE_FORMAT = "schedule-v1"
MANIFEST_FORMAT = "dataset-manifest-v1"
FINGERPRINT_STORE_FORMAT = "fingerprint-store-v1"
# The most samples a session may have: one complex128 capture of it is 2 GiB. A build
# holds one capture; each stage of tune holds two (its input and its output).
MAX_SESSION_SAMPLES = 2 ** 27


@dataclasses.dataclass(frozen=True)
class DatasetSeeds:
    """Every random draw in a dataset build is pinned by these three seeds."""

    render: int
    channel: int
    frontend: int

    def __post_init__(self) -> None:
        typed_fields(self)
        for name, seed in dataclasses.asdict(self).items():
            if seed < 0:
                raise ParameterError(f"{name} must be >= 0, got {seed}")


# --- parsing -------------------------------------------------------------------

def _join(where: str, name) -> str:
    return f"{where}.{name}" if where else str(name)


def _expected(value, where: str, what: str) -> ValidationError:
    return ValidationError(f"{where} must be {what}, got {value!r:.60}")


@contextmanager
def fields(where: str):
    """Re-raise a domain error from the block as a ValidationError about `where`."""
    try:
        yield
    except (ParameterError, TuningError) as exc:
        raise ValidationError(_join(where, exc)) from None


def parse(doc, table: dict, where: str = "", strict: bool = True) -> dict:
    """Check, convert and default one section; returns its fields in table order."""
    if not isinstance(doc, dict):
        raise _expected(doc, where or "the document", "a JSON object")
    unknown = sorted(doc.keys() - table.keys()) if strict else []
    if unknown:
        raise ValidationError(f"unknown field '{_join(where, unknown[0])}'")
    out = {}
    for name, (convert, default) in table.items():
        if name in doc:
            out[name] = convert(doc[name], _join(where, name))
        elif default is REQUIRED:
            raise ValidationError(f"missing field '{_join(where, name)}'")
        elif default is not DEFAULT:
            out[name] = default
    return out


def _typed(kinds, what: str, accept=lambda value: True, cast=lambda value: value):
    def convert(value, where):
        if isinstance(value, bool) or not isinstance(value, kinds) or not accept(value):
            raise _expected(value, where, what)
        return cast(value)
    return convert


integer = _typed(int, "an integer")
count = _typed(int, "an integer >= 0", lambda v: v >= 0)
positive_count = _typed(int, "an integer > 0", lambda v: v > 0)
text = _typed(str, "a string")
number = _typed((int, float), "a finite number", lambda v: abs(v) <= sys.float_info.max, float)
non_negative = _typed((int, float), "a finite number >= 0", lambda v: 0 <= v <= sys.float_info.max, float)
positive = _typed((int, float), "a finite number > 0", lambda v: 0 < v <= sys.float_info.max, float)
_list = _typed(list, "a list")
# A name joined onto a directory: one that could leave it, or name the directory itself, is refused.
file_name = _typed(str, "a bare file name (no path separator or NUL, not '', '.' or '..')",
                   lambda v: v not in ("", ".", "..") and not any(c in v for c in "/\\\0"))


def array(item):
    return lambda value, where: [item(v, f"{where}[{i}]") for i, v in enumerate(_list(value, where))]


def _fixed(value, where: str, what: str, *items) -> list:
    if len(_list(value, where)) != len(items):
        raise _expected(value, where, what)
    return [item(v, f"{where}[{i}]") for i, (item, v) in enumerate(zip(items, value))]


def pair(value, where: str) -> complex:
    return complex(*_fixed(value, where, "[re, im]", number, number))


def tap(value, where: str) -> tuple[int, complex]:
    delay, re, im = _fixed(value, where, "[delay_samples, gain_re, gain_im]", integer, number, number)
    return delay, complex(re, im)


def matrix(value, where: str) -> list:
    rows = array(array(number))(value, where)
    if len({len(row) for row in rows}) > 1:
        raise _expected(value, where, "a matrix (rows of equal length)")
    return rows


def nullable(convert):
    return lambda value, where: None if value is None else convert(value, where)


def format_of(expected: str):
    def convert(value, where):
        if value != expected:
            raise UnsupportedFormatError(f"unsupported {where} {value!r:.60} (expected '{expected}')")
        return value
    return convert


def section(table: dict, strict: bool = True):
    return lambda value, where: parse(value, table, where, strict)


def record(cls, table: dict):
    """Converter that parses a section and builds `cls` from its fields."""
    def convert(value, where):
        parsed = parse(value, table, where)
        with fields(where):
            return cls(**parsed)
    return convert


_BY_ANNOTATION = {"int": integer, "float": number, "str": text, "complex": pair}


def table_of(cls, all_required: bool = False, **converters) -> dict:
    """A dataclass's field table: converters from its (string) annotations, defaults from the class."""
    return {
        f.name: (converters.get(f.name) or _BY_ANNOTATION[f.type],
                 DEFAULT if f.default is not dataclasses.MISSING and not all_required else REQUIRED)
        for f in dataclasses.fields(cls)
    }


def check_session_size(duration_s: float, sample_rate_hz: float) -> None:
    """Reject a session of more than MAX_SESSION_SAMPLES samples before anything is allocated."""
    samples = duration_s * sample_rate_hz
    if samples > MAX_SESSION_SAMPLES + 0.5:  # round(samples) > MAX_SESSION_SAMPLES, or an overflow
        raise ValidationError(
            f"schedule.session_duration_s {duration_s} at sample_rate_hz {sample_rate_hz} gives "
            f"{samples:.4g} samples, above the cap of {MAX_SESSION_SAMPLES}"
        )


def check_below_sample_rate(values, sample_rate_hz: float, where: str) -> None:
    """Reject a bandwidth at or above the sample rate where it is parsed, before anything is allocated."""
    if max(values) >= sample_rate_hz:
        raise ValidationError(f"{where} must be below sample_rate_hz {sample_rate_hz}, got {max(values)}")


def build_schedule(parsed: dict, profiles, where: str):
    """(TransmissionSchedule, profiles by id) from a parsed schedule section."""
    by_id: dict[str, EmitterProfile] = {}
    for profile in profiles:
        if profile.emitter_id in by_id:
            raise ValidationError(f"duplicate emitter_id '{profile.emitter_id}' in profiles")
        by_id[profile.emitter_id] = profile
    for i, entry in enumerate(parsed["entries"]):
        if entry.emitter_id not in by_id:
            field = _join(where, f"entries[{i}].emitter_id")
            raise ValidationError(f"{field} '{entry.emitter_id}' has no profile")
    with fields(where):
        return TransmissionSchedule(tuple(parsed["entries"]), parsed["session_duration_s"]), by_id


def schedule_document(value, where: str = ""):
    """Converter for a schedule document, which carries its own profiles."""
    parsed = parse(value, SCHEDULE_DOCUMENT, where)
    return build_schedule(parsed, parsed["profiles"], where)


def load_json(path):
    """Parse a JSON file; a missing or malformed file is a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


# --- field tables ----------------------------------------------------------------

def required(convert, *names: str) -> dict:
    return dict.fromkeys(names, (convert, REQUIRED))


PROFILE = table_of(EmitterProfile, all_required=True)
ENTRY = {**required(text, "emitter_id"), **required(number, "start_time_s"),
         **required(array(integer), "payload_bits")}
SCHEDULE = {
    "format": (format_of(SCHEDULE_FORMAT), SCHEDULE_FORMAT),
    "session_duration_s": (number, REQUIRED),
    "entries": (array(record(ScheduledBurst, ENTRY)), REQUIRED),
}
SCHEDULE_DOCUMENT = {**SCHEDULE, **required(format_of(SCHEDULE_FORMAT), "format"),
                     **required(array(record(EmitterProfile, PROFILE)), "profiles")}
CHANNEL = table_of(ChannelSpec, all_required=True, multipath_taps=array(tap),
                   snr_db=lambda value, where: math.inf if value == "inf" else number(value, where))
RECEIVER = table_of(ReceiverConfig, all_required=True)
SEEDS = table_of(DatasetSeeds)
ENROLLMENT = {"ridge_lambda": (number, DEFAULT), "keep_features": (nullable(integer), None)}
TUNING = {
    **required(array(number), "gain_db_values", "filter_bw_hz_values"),
    "strategy": (text, DEFAULT), "budget": (nullable(integer), DEFAULT), "max_rounds": (integer, DEFAULT),
    "objective": (section(dict.fromkeys(("clip_weight", "no_roi_penalty"), (number, DEFAULT))), {}),
}

# The experiment config. A section a command does not use may be absent (None).
EXPERIMENT = {
    "sample_rate_hz": (positive, None),
    "samples_per_symbol": (integer, None),
    "stem": (file_name, "session"),
    "seeds": (record(DatasetSeeds, SEEDS), None),
    "profiles": (array(record(EmitterProfile, PROFILE)), None),
    "schedule": (section(SCHEDULE), None),
    "channel": (record(ChannelSpec, CHANNEL), None),
    "receiver": (record(ReceiverConfig, RECEIVER), None),
    "detector": (record(DetectorParams, table_of(DetectorParams)), DetectorParams()),
    "extraction": (record(ExtractionConfig, table_of(ExtractionConfig)), ExtractionConfig()),
    "enrollment": (section(ENROLLMENT), {"keep_features": None}),
    "tuning": (section(TUNING), None),
}
MANIFEST = {
    **required(format_of(MANIFEST_FORMAT), "format"),
    **{name: (convert, REQUIRED) for name, (convert, _) in EXPERIMENT.items()
       if name in ("sample_rate_hz", "samples_per_symbol", "seeds", "channel", "receiver")},
    **required(schedule_document, "schedule"),
    **required(array(section({**required(file_name, "stem"), **required(text, "data_file", "meta_file")})),
               "sessions"),
}

# SigMF meta, parsed with strict=False throughout. CAPTURE and ANNOTATION list
# their fields in CaptureInfo and AnnotationSpan order, so sigmf_io converts
# between the two by position. Of GLOBAL, SessionMeta holds the description and
# version; the rate, id and sample count are the recording's.
GLOBAL = {
    "core:sample_rate": (positive, REQUIRED), "core:description": (text, ""),
    "core:datatype": (format_of(DATATYPE), REQUIRED), "core:version": (text, SIGMF_VERSION),
    "workbench:recording_id": (text, ""), "workbench:sample_count": (nullable(count), None),
}
CAPTURE = {"core:sample_start": (count, 0), "core:frequency": (non_negative, 0.0), "core:datetime": (text, "")}
ANNOTATION = {"core:sample_start": (count, REQUIRED), "core:sample_count": (positive_count, REQUIRED),
              "core:label": (text, ""), "core:comment": (text, "")}
META = {
    "global": (section(GLOBAL, strict=False), REQUIRED),
    "captures": (array(section(CAPTURE, strict=False)), []),
    "annotations": (array(section(ANNOTATION, strict=False)), []),
}
# In DeviceFingerprint order, with its selection as the two fields after catalog_version.
FINGERPRINT = {
    **required(text, "device_id", "catalog_version"), **required(array(integer), "kept_indices"),
    **required(array(number), "selection_scores", "mean"), **required(matrix, "covariance"),
    **required(number, "ridge_lambda", "threshold"), **required(positive_count, "n_enrolled"),
}
STORE = {
    **required(format_of(FINGERPRINT_STORE_FORMAT), "format"),
    "catalog_names": (nullable(array(text)), None),
    **required(array(section(FINGERPRINT)), "fingerprints"),
}


# --- writing ---------------------------------------------------------------------

_UMASK = os.umask(0o022)  # read the process umask; mkstemp would create the file 0600
os.umask(_UMASK)
CSV_BLOCK_ROWS = 1024  # the rows csv_chunks turns into text at a time


def json_text(doc) -> str:
    """The byte-stable JSON form of every document radiofp writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_chunks(header, rows) -> Iterator[str]:
    """The CSV text of header and rows, one chunk per CSV_BLOCK_ROWS rows (the header alone first).

    One csv.writer runs over one small buffer, emptied after each chunk, so the
    chunks join into the bytes of one csv.writer over the whole table (its
    quoting, \\r\\n line ends) while only a block of it is ever held as text.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    rows = iter(rows)
    while buffer.tell():  # every row writes at least its line end
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        writer.writerows(itertools.islice(rows, CSV_BLOCK_ROWS))


def atomic_write(path, data) -> None:
    """Replace `path` with `data` via a unique temp file and a rename.

    `data` is a str (written UTF-8 encoded), any bytes-like object, such as
    a contiguous numpy array, whose buffer is written without a copy, or an
    iterator of such chunks, each written as it arrives, so the whole
    content is never held at once.

    Readers never see a partial file; on failure, an exception from the
    iterator included, the temp file is removed and an existing target is
    left as it was.
    """
    path = Path(path)
    chunks = data if isinstance(data, Iterator) else (data,)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
