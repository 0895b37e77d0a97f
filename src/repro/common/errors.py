"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one base class.  Subclasses mark which subsystem failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class TopologyError(ReproError):
    """A topology was constructed or queried with invalid parameters."""


class RoutingError(ReproError):
    """A routing function could not produce a legal output port."""


class SimulationError(ReproError):
    """The simulation kernel detected an internal inconsistency."""


class AuditError(SimulationError):
    """An invariant audit failed (see :mod:`repro.validate`).

    Instances carry the failing check, the simulated tick, and — when the
    auditor was given an artifact directory — the path of the JSON repro
    artifact that reproduces the failing run.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.check: str | None = None
        self.tick: int | None = None
        self.artifact: dict | None = None
        self.artifact_path: str | None = None


class TrafficError(ReproError):
    """A trace or traffic generator was used incorrectly."""


class TrainingError(ReproError):
    """The offline ML training pipeline failed."""

