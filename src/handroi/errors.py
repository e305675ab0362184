"""Typed errors shared across the package.

Each error carries the exit code the command line returns for it: 2 for
usage, input, weights and divergence errors, 3 for a mismatch between
files, 4 for an id that is not found, 1 for any other (internal) error.
"""


class HandRoiError(Exception):
    """Base class for all handroi errors."""
    exit_code = 1


class UsageError(HandRoiError):
    """A command line asks for something the command cannot do."""
    exit_code = 2


class NotFound(HandRoiError):
    """A requested sample id is not in the dataset."""
    exit_code = 4


class DegenerateGeometry(HandRoiError):
    """Geometric input has no usable extent (coincident points, zero areas)."""


class InvalidAspect(HandRoiError):
    """Aspect ratio must be strictly positive."""


class InvalidImage(HandRoiError):
    """Image dimensions must be strictly positive."""


class DegenerateHand(HandRoiError):
    """Hand keypoints collapse to a zero-size hand."""


class InvalidSample(HandRoiError):
    """Sample carries non-finite or otherwise unusable values."""


class ShapeError(HandRoiError):
    """Array shapes are inconsistent with the network layout."""


class InvalidDataset(HandRoiError):
    """Dataset cannot be used for the requested operation."""
    exit_code = 2


class EmptyDataset(InvalidDataset):
    """No usable samples."""


class TrainingDiverged(HandRoiError):
    """Loss became non-finite during training."""
    exit_code = 2


class ParseError(HandRoiError):
    """A data file could not be parsed; carries file/line context."""
    exit_code = 2


class DuplicateId(ParseError):
    """The same sample id appears more than once."""


class JoinError(HandRoiError):
    """Two row sets do not cover the same sample ids."""
    exit_code = 3


class WeightsFormatError(HandRoiError):
    """Weights file is malformed (truncated, bad shapes)."""
    exit_code = 2


class VersionError(WeightsFormatError):
    """Weights file magic or format version is not recognized."""
