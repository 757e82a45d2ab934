"""Exception taxonomy shared across the package.

Every library error subclasses DistilRobustError. The CLI maps errors onto
stable exit codes by type:

- exit 1: validation and numeric failures, and DataError, which reports bad
  content in a manifest, checkpoint, export or metrics file (a checkpoint cut
  short exits 1, and so does a training WAV that cannot be decoded, since
  training wraps its error in DataError);
- exit 2: OSError from the standard library (a missing or unreadable file) and
  WavFormatError, a WAV container that cannot be decoded, as `augment` reports
  it.
"""


class DistilRobustError(Exception):
    """Base class for all library errors."""


class WavFormatError(DistilRobustError):
    """Malformed RIFF/WAVE container."""


class UnsupportedWavError(WavFormatError):
    """Structurally valid WAV whose codec/width is not supported."""


class SampleRateError(DistilRobustError):
    """Operands carry different sample rates."""


class DegenerateSignalError(DistilRobustError):
    """Signal has no energy where energy is required (zero RMS, all-zero taps)."""


class ShapeError(DistilRobustError):
    """Tensor/array operands have incompatible shapes."""


class ParameterError(DistilRobustError):
    """An operation argument is out of its valid range."""


class ConfigError(DistilRobustError):
    """Invalid or inconsistent configuration."""


class NumericError(DistilRobustError):
    """Non-finite value where a finite one is required."""


class DataError(DistilRobustError):
    """Bad content in a user-supplied data file: manifest, checkpoint, export or metrics log."""
