"""Exception types shared across the package."""


class ShiftStereoError(Exception):
    """Base class for all package errors."""


class ShapeError(ShiftStereoError, ValueError):
    """An operation rejected its inputs (shape, extent, or range mismatch)."""


class ConfigError(ShiftStereoError, ValueError):
    """A configuration object violates its invariants."""


class ParseError(ShiftStereoError, ValueError):
    """A file reader rejected malformed input."""


class CheckpointError(ShiftStereoError):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """An unreadable file, bad magic bytes, or a truncated/garbled checkpoint payload."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint entries do not match the requested model configuration."""


class TrainingDiverged(ShiftStereoError):
    """Training hit a non-finite loss; carries the last good checkpoint path."""

    def __init__(self, message, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
