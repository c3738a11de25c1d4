"""Exception hierarchy for the :mod:`repro` layout decomposition library.

All exceptions raised by the public API derive from :class:`ReproError`, so a
caller can catch a single base class.  Subclasses are split by the subsystem
that detects the problem (geometry, I/O, optimisation, decomposition) to keep
error handling targeted without forcing callers to import internal modules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GeometryError(ReproError):
    """Raised when a geometric primitive is constructed or used incorrectly.

    Examples: a rectangle with negative extent, a polygon with fewer than
    three vertices, or a non-rectilinear polygon passed to a routine that only
    supports Manhattan geometry.
    """


class LayoutError(ReproError):
    """Raised for inconsistent layout containers (duplicate ids, bad layers)."""


class LayoutIOError(ReproError):
    """Raised when a layout file cannot be parsed or serialised."""


class GraphError(ReproError):
    """Raised for malformed decomposition graphs or invalid graph operations."""


class SolverError(ReproError):
    """Raised when an optimisation substrate (ILP/SDP) fails to solve."""


class DecompositionError(ReproError):
    """Raised when the end-to-end decomposition flow cannot produce masks."""


class ConfigurationError(ReproError):
    """Raised for invalid user-facing configuration (bad K, bad thresholds)."""


class ComponentWireError(ReproError):
    """Raised for malformed component requests/responses (HTTP 400)."""
