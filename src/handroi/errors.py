"""Typed errors shared across the package."""


class HandRoiError(Exception):
    """Base class for all handroi errors."""


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


class EmptyDataset(InvalidDataset):
    """No usable samples."""


class TrainingDiverged(HandRoiError):
    """Loss became non-finite during training."""


class ParseError(HandRoiError):
    """A data file could not be parsed; carries file/line context."""


class DuplicateId(ParseError):
    """The same sample id appears more than once."""


class JoinError(HandRoiError):
    """Two row sets do not cover the same sample ids."""


class WeightsFormatError(HandRoiError):
    """Weights file is malformed (truncated, bad shapes)."""


class VersionError(WeightsFormatError):
    """Weights file magic or format version is not recognized."""
