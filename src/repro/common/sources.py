"""Source digests: hash modules by reading their files, never importing them.

The run cache (:mod:`repro.exec.cache`) and the experiment memo
(:mod:`repro.experiments.artifact`) key their entries by a digest of the
source files that can change a result: the kernel's for runs and
captures, the traffic generator's for suites, the recorder's (with the
kernel's) for telemetry counters, the ridge fit's (with the kernel's)
for trained weights.  Reading those files by path keeps the digests
free of numpy and of the kernel, so a warm ``repro-all`` computes every
memo key without importing the simulator.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

#: The directory holding the top-level ``repro`` package.
_ROOT = Path(__file__).resolve().parents[2]

#: Modules whose source determines simulation results.  Editing any of
#: these changes the code-version digest and invalidates cached runs.
#: ``tests/test_versioned_modules.py`` asserts this set covers everything
#: :mod:`repro.noc.simulator` imports, transitively to a fixpoint, and
#: holds nothing the kernel does not reach.
_VERSIONED_MODULES: tuple[str, ...] = (
    "repro.common.config",
    "repro.common.errors",
    "repro.common.units",
    "repro.core.controller",
    "repro.core.features",
    "repro.core.modes",
    "repro.core.states",
    "repro.core.thresholds",
    "repro.noc.array_sim",
    "repro.noc.buffer",
    "repro.noc.network",
    "repro.noc.packet",
    "repro.noc.router",
    "repro.noc.simulator",
    "repro.noc.stats",
    "repro.noc.topology",
    "repro.power.accounting",
    "repro.power.dsent",
    "repro.traffic.trace",
)

#: Modules whose source determines a generated benchmark trace:
#: everything :func:`repro.traffic.benchmarks.generate_benchmark_trace`
#: imports, transitively.  Suite cache entries hash these instead of
#: ``_VERSIONED_MODULES``, so a kernel edit keeps every cached suite.
_TRAFFIC_MODULES: tuple[str, ...] = (
    "repro.common.errors",
    "repro.common.rng",
    "repro.traffic.benchmarks",
    "repro.traffic.trace",
)

#: The telemetry recorder's modules outside ``_VERSIONED_MODULES``; a
#: telemetry cache entry hashes these on top of its run's key.
_TELEMETRY_MODULES: tuple[str, ...] = (
    "repro.telemetry.metrics",
    "repro.telemetry.recorder",
)


#: The offline fit's modules outside ``_VERSIONED_MODULES``; a weights
#: cache entry hashes these on top of its training set's capture key.
_TRAINING_MODULES: tuple[str, ...] = (
    "repro.ml.metrics",
    "repro.ml.ridge",
    "repro.ml.training",
)


def hash_sources(h: "hashlib._Hash", names: tuple[str, ...]) -> None:
    """Feed each module's dotted name, then its source bytes, into ``h``.

    ``repro.a.b`` is read from ``repro/a/b.py`` or, for a package, from
    ``repro/a/b/__init__.py``: the file an import would have loaded.
    """
    for name in names:
        base = _ROOT.joinpath(*name.split("."))
        path = base.with_suffix(".py")
        if not path.is_file():
            path = base / "__init__.py"
        h.update(name.encode())
        h.update(path.read_bytes())


@lru_cache(maxsize=None)
def source_digest(names: tuple[str, ...]) -> str:
    """Short digest of the sources of ``names`` (see :func:`hash_sources`)."""
    h = hashlib.sha256()
    hash_sources(h, names)
    return h.hexdigest()[:16]


def code_version() -> str:
    """Digest of every simulation-relevant source file."""
    return source_digest(_VERSIONED_MODULES)


def traffic_version() -> str:
    """Digest of the benchmark-trace generator's source files."""
    return source_digest(_TRAFFIC_MODULES)


def telemetry_version() -> str:
    """Digest of the telemetry recorder's own source files."""
    return source_digest(_TELEMETRY_MODULES)


def training_version() -> str:
    """Digest of the ridge fit's own source files."""
    return source_digest(_TRAINING_MODULES)
