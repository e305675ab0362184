"""The package's errors: one type per command-line exit code.

Each type carries the exit code the command line returns for it: 2 for an
input the command cannot use (a flag value, a malformed or empty file, a
weights file of another layout, training that diverges), 3 for two row
files that do not cover the same sample ids, 4 for an id that is not
found, and 1 for a broken internal precondition that no command-line
input reaches. Each fact a command uses is checked where it enters, by
the readers, and HandRoiError itself is raised in three places only:
`dataset._dataset_lines`, for a Dataset to write that holds a non-finite
value; `model.save_weights`, for heads of another layout; and the
one-hand view `heuristic.gold_roi`, which no command calls, for a
degenerate hand (the commands read the reason codes that
`heuristic.gold_rois` returns).
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
