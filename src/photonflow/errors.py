"""Exception types shared by all photonflow modules.

Two failure categories are distinguished throughout the package:

* ``InvalidInput`` -- an argument is malformed or inconsistent with the
  object it is applied to (wrong mode index, mismatched spaces, a fit
  window containing no usable data).
* ``ConfigurationError`` -- the arguments are individually valid but the
  combination violates a validity guard (time step too large, truncation
  too small, pulse spectrum wider than the mode grid).

The CLI maps parse/configuration problems to exit code 2 and runtime
invariant violations to exit code 3.
"""


class PhotonflowError(Exception):
    """Base class for all package errors."""


class InvalidInput(PhotonflowError):
    """An argument was rejected as malformed or inconsistent."""


class ConfigurationError(PhotonflowError):
    """A parameter combination violates a validity guard."""


class ScenarioError(PhotonflowError):
    """A scenario file failed to parse or validate."""


class InvariantViolation(PhotonflowError):
    """A physical invariant check failed during or after a run, whose results it keeps."""

    def __init__(self, message: str, results: dict | None = None):
        super().__init__(message)
        self.results = results
