"""Exception types shared by all photonflow modules, and the argument checks.

``InvalidInput``: a malformed argument.  ``ConfigurationError``: valid arguments
whose combination violates a validity guard.  The CLI maps both to exit code 2
and an ``InvariantViolation`` to exit code 3.  Every exported constructor and
public function runs ``check_finite``, ``check_positive``, ``check_count`` and
``check_sequence`` on its own arguments, so a bad argument never ends in a bare
error or a silent nan; each raises ``InvalidInput`` naming the argument in
``arg``, from which the scenario layer names the file key.
"""

import cmath
import math
import operator

import numpy as np


class PhotonflowError(Exception):
    """Base class for all package errors; ``arg`` names the argument at fault, if one is."""

    def __init__(self, message: str, arg: str | None = None):
        super().__init__(message)
        self.arg = arg


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


def _scalar(name: str, x, number: type, rule: str, ok, error: type = InvalidInput):
    """``number(x)`` if ``x`` is one number, not text, that passes ``ok``."""
    try:
        value = None if isinstance(x, str) or np.ndim(x) else number(x)
    except (TypeError, ValueError):
        value = None
    if value is None or not ok(value):
        raise error(f"{name} must be {rule}, got {x}", arg=name)
    return value


def check_finite(name: str, x, number: type = float):
    """``x`` as a finite float, or as a finite complex with ``number=complex``."""
    return _scalar(name, x, number, "a finite number", cmath.isfinite)


def check_positive(name: str, x, error: type = InvalidInput) -> float:
    """``x`` as a positive finite float; anything else raises ``error`` naming ``name``."""
    return _scalar(name, x, float, "positive and finite", lambda v: 0.0 < v < math.inf, error)


def check_count(name: str, n, least: int = 1) -> int:
    """``n`` as an int, if it is an integer (not a float) of at least ``least``."""
    return _scalar(name, n, operator.index, f"an integer >= {least}", lambda k: k >= least)


def check_sequence(name: str, x, least: int = 0, size: int | None = None):
    """``x``, if it is one-dimensional with ``size`` entries, or with at least ``least``."""
    n = len(x) if np.ndim(x) == 1 else -1
    if n < least or size is not None and n != size:
        want = f"{size}" if size is not None else f"at least {least}"
        raise InvalidInput(f"{name} must be a sequence of {want} entries, got {x}", arg=name)
    return x
