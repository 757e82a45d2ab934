"""Exception taxonomy shared across the package.

Every library error subclasses DistilRobustError. The CLI maps errors onto
stable exit codes by type:

- exit 1: validation and numeric failures, and DataError, which reports bad
  content in a manifest, checkpoint, export or metrics file (a checkpoint cut
  short exits 1, and so does a corpus WAV that `train` cannot decode, since
  training wraps its error in DataError);
- exit 2: OSError from the standard library (a missing or unreadable file) and
  WavFormatError, any other WAV that cannot be decoded. Its UnsupportedWavError
  covers a WAV at any rate but the package's one, 16 kHz.
"""


class DistilRobustError(Exception):
    """Base class for all library errors."""


class WavFormatError(DistilRobustError):
    """Malformed RIFF/WAVE container."""


class UnsupportedWavError(WavFormatError):
    """Structurally valid WAV whose codec, width or rate (16 kHz only) is not supported."""


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
