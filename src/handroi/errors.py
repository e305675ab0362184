"""The package's errors: one type per command-line exit code.

Each type carries the exit code the command line returns for it: 2 for an
input the command cannot use (a flag value, a malformed or empty file, a
weights file of another layout, training that diverges), 3 for two row
files that do not cover the same sample ids, 4 for an id that is not
found, and 1 for a broken internal precondition that no command-line
input reaches. DegenerateHand is the one error that callers catch.
"""


class HandRoiError(Exception):
    """Base class of all handroi errors; raised itself for a broken internal precondition."""
    exit_code = 1


class InputError(HandRoiError):
    """A command line, data file or weights file the command cannot use."""
    exit_code = 2


class JoinError(HandRoiError):
    """Two row sets do not cover the same sample ids."""
    exit_code = 3


class NotFound(HandRoiError):
    """A requested sample id is not in the dataset."""
    exit_code = 4


class DegenerateHand(HandRoiError):
    """Hand landmarks or keypoints give no usable box: too few, coincident or not finite."""
