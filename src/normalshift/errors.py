"""Exception hierarchy for the normalshift package, and the locator that
error messages use to name the state that failed."""

import numpy as np


def first_bad(mask, *arrays):
    """Locate the first True entry of `mask` on the broadcast batch grid.

    Each array carries its components on the last axis (pass a scalar
    field s as s[..., None]); its leading axes broadcast with `mask`.
    Returns the index on the broadcast grid and each array's components
    there, so an error names the failing lane's own point even when the
    inputs were broadcast against each other."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shape = np.broadcast_shapes(np.shape(mask),
                                *(a.shape[:-1] for a in arrays))
    flat = int(np.argmax(np.broadcast_to(mask, shape)))
    idx = tuple(int(i) for i in np.unravel_index(flat, shape))
    return idx, [np.broadcast_to(a, shape + a.shape[-1:])[idx]
                 for a in arrays]


def point_str(p):
    """A point as a tuple of floats, for error messages."""
    return str(tuple(float(c) for c in np.ravel(p)))


class NormalShiftError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(NormalShiftError):
    """Source text does not match the expression grammar."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class UnknownFunctionError(ExprSyntaxError):
    """Call to a function name outside the fixed function set."""


class ArityError(ExprSyntaxError):
    """Function called with the wrong number of arguments."""


class UnboundVariableError(NormalShiftError):
    """Evaluation environment is missing a referenced variable."""


class DomainEvalError(NormalShiftError):
    """Evaluation left the mathematical domain of some subexpression."""

    def __init__(self, message, subexpr):
        super().__init__(f"{message} in subexpression '{subexpr}'")
        self.subexpr = subexpr


class MetricError(NormalShiftError):
    """Metric is not symmetric positive-definite where required."""


class FrameError(NormalShiftError):
    """Degenerate tangent frame on a hypersurface."""


class ZeroSpeedError(NormalShiftError):
    """Velocity modulus below the structural threshold."""


class VanishingDerivativeError(NormalShiftError):
    """Speed derivative of a defining scalar function vanished."""


class IntegrationAborted(NormalShiftError):
    """Trajectory integration stopped early; carries the partial result."""

    def __init__(self, message, partial=None, step=None, time=None):
        super().__init__(message)
        self.partial = partial
        self.step = step
        self.time = time


class PathError(NormalShiftError):
    """Invalid path specification or endpoint mismatch."""


class ContinuationError(NormalShiftError):
    """Parameter continuation failed (left the positive axis, or the
    field could not be evaluated along the path)."""

    def __init__(self, message, t=None, point=None):
        ctx = ""
        if t is not None:
            ctx = f" at path parameter t={t:.6g}"
            if point is not None:
                ctx += f", x={point_str(point)}"
        super().__init__(message + ctx)
        self.t = t
        self.point = point


class TableError(NormalShiftError):
    """Monotone sample table is invalid or queried outside its range."""


class DeckInvarianceError(NormalShiftError):
    """Field is not invariant under the deck transformation group."""


class CompatibilityError(NormalShiftError):
    """Mixed-path consistency defect above threshold: the covector data
    is not closed, or the surface loop carries a nontrivial twist."""


class PositivityError(NormalShiftError):
    """A quantity required to be positive was not."""


class ConfigError(NormalShiftError):
    """Scenario file could not be parsed."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ScenarioError(NormalShiftError):
    """Scenario is syntactically valid but semantically inconsistent."""

    def __init__(self, message, path):
        super().__init__(f"{path}: {message}")
        self.path = path
