"""Exception taxonomy for the workbench.

Everything derives from WorkbenchError so callers can catch broadly; the
CLI maps ValidationError (bad configs / bad files) to exit code 2 and the
rest to exit code 1.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class SizeError(WorkbenchError, ValueError):
    """Input sequence has an unusable length (too short, wrong radix, ...)."""


class ParameterError(WorkbenchError, ValueError):
    """A parameter is outside its documented domain."""


class DegenerateInputError(WorkbenchError, ValueError):
    """Input is formally valid but carries no usable information (all-zero, zero variance)."""


class FeatureError(WorkbenchError, ValueError):
    """Feature extraction produced a non-finite or undefined value."""


class CatalogMismatchError(WorkbenchError, ValueError):
    """Feature vectors from different catalog versions were mixed."""


class EnrollmentError(WorkbenchError, ValueError):
    """Device enrollment failed (too few samples, degenerate covariance)."""


class TuningError(WorkbenchError, RuntimeError):
    """The receiver tuning loop could not run (zero budget)."""


class DataFormatError(WorkbenchError, ValueError):
    """Base for on-disk format problems."""


class CorruptDataError(DataFormatError):
    """Data file is damaged (size not a whole number of samples)."""


class UnsupportedFormatError(DataFormatError):
    """File declares a datatype or format version this build does not handle."""


class ConsistencyError(DataFormatError):
    """Metadata and data disagree (claimed length vs actual length)."""


class ValidationError(WorkbenchError, ValueError):
    """A document or configuration violates its schema; message names the field."""
