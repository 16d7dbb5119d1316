"""Exception hierarchy for the msseg package."""

import numbers


class MeshSegError(Exception):
    """Base class for all msseg errors."""


class MeshFormatError(MeshSegError):
    """Raised when a mesh file cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TopologyError(MeshSegError):
    """Unsupported mesh topology (non-triangle faces, non-manifold edges)."""


class DegenerateGeometryError(MeshSegError):
    """Zero-area face or vanishing averaged normal."""


class DimensionError(MeshSegError):
    """Field shape does not match the mesh or a companion field."""


class ParameterError(MeshSegError):
    """Invalid solver or model parameter."""


class FeatureError(MeshSegError):
    """Feature construction failed (no interior edges, eigensolver trouble)."""


class NumericError(MeshSegError):
    """A linear solve or eigensolve did not reach the required residual."""


class InitializationError(MeshSegError):
    """Clustering initialization failed to produce non-empty classes."""


def check_integer(name, value):
    """ParameterError unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
