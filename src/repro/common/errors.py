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


class ExecError(ReproError):
    """The parallel execution layer (:mod:`repro.exec`) failed."""


class PoolTimeoutError(ExecError):
    """One or more pool tasks exceeded their per-task wall-clock budget.

    Timed-out tasks are *not* silently re-run inline — an inline retry of
    a hanging task would hang the caller too.  ``indices`` identifies the
    offending tasks (submission order); everything that completed before
    the timeout has already been delivered through the caller's
    ``on_result`` hook, so a checkpointed campaign can resume.
    """

    def __init__(self, indices: list[int], timeout: float | None) -> None:
        super().__init__(
            f"{len(indices)} pool task(s) exceeded the {timeout}s "
            f"per-task timeout (indices {indices})"
        )
        self.indices = indices
        self.timeout = timeout


class TrainingError(ReproError):
    """The offline ML training pipeline failed."""

