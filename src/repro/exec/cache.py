"""Content-addressed on-disk cache for simulation results.

A :class:`RunCache` stores every result a campaign computes and reads,
in five entry kinds, each under its own file prefix and key:

* ``run`` — one :class:`~repro.experiments.runner.ModelMetrics` per
  evaluation run (JSON),
* ``capture`` — the reactive training captures of one (policy, config,
  feature set, training set), one ``(X, y)`` dataset per trace
  (``.npz``; see :func:`capture_key`),
* ``weights`` — one ML model's trained ridge weight vector (``.npz``;
  see :func:`weights_key`),
* ``suite`` — one plain 14-trace benchmark suite, every trace's columns
  and name (``.npz``; see :func:`suite_key`),
* ``telemetry`` — the counters and drain flag of one telemetry-recorded
  run (JSON; see :func:`telemetry_key`).

Run and capture keys hash everything that determines the run's outcome:

* the full :class:`~repro.common.config.SimConfig` (every field except the
  non-semantic ``extra`` dict),
* the trace's content fingerprint (name, length, duration, column sample),
* the policy name and resolved feature-set composition,
* the trained weight vector (byte-exact) or its absence (reactive run),
* a *code version* hashed over the sources of every module that can change
  a simulation's outcome, so editing the kernel invalidates old results,
* a schema version for the serialized payload itself.

A suite key hashes only its recipe and the traffic generator's sources,
so a kernel edit keeps every suite; a telemetry key is its run's key
plus the recorder's sources; a weights key is its training set's
capture key plus the fit's sources, validation traces and lambda sweep.

Entries are written atomically (temp file + rename).  A read validates
the schema, the embedded key, and the payload's fields; anything
corrupted, truncated, or stale is **discarded, never trusted** — the run
is simply re-simulated (the suite regenerated, the model refitted).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
import zipfile
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.common.config import SimConfig
from repro.common.errors import TrafficError
# The code-version digest reads module sources by path (see
# repro.common.sources); both names stay importable from here.
from repro.common.sources import (  # noqa: F401
    _VERSIONED_MODULES,
    code_version,
    telemetry_version,
    training_version,
    traffic_version,
)
from repro.traffic.suite import SUITE_ORDER
from repro.traffic.trace import Trace, trace_fingerprint

if TYPE_CHECKING:  # pragma: no cover - avoids an exec<->experiments cycle
    from repro.experiments.runner import ModelMetrics

#: Bump when the serialized payload layout changes.  v2: ModelMetrics
#: gained ``drained`` — v1 entries could report a deadlocked (safety-cap)
#: run as clean, so they must never be trusted again.  v3: ModelMetrics
#: gained the graceful-degradation ledger (forced wakes, retransmitted
#: flits, safe-mode entries, predictor fallbacks) and run keys gained a
#: fault-configuration digest.  v4: run keys gained the served model's
#: registry fingerprint and the online-learning configuration digest, so
#: cached results can never mix model versions or online/offline runs.
#: v5: ``SimConfig`` gained ``backend`` (object vs array kernel); the
#: field joins the config digest automatically, but the bump retires v4
#: entries whose keys predate it.  v6: ``ModelMetrics`` gained a
#: drift-monitor trip counter; the payload field set changed, so older
#: entries must be re-simulated.
#: v7: a fabric registry landed (two extra topologies, since retired, and
#: precomputed route tables) and the default backend flipped to
#: ``array``; its module joined the code digest and older entries
#: predate that coverage.  v8: the model
#: lifecycle tier was retired — ``ModelMetrics`` lost the drift-monitor
#: counter and run keys lost their ``model=`` and ``online=`` parts.
#: Still v8 after fault injection was retired: ``ModelMetrics`` lost its
#: three fault fields and run keys their ``faults=`` part, so older
#: entries already miss on the key and on the payload's field set.
SCHEMA_VERSION = 8


def _weights_digest(weights: np.ndarray | None) -> str:
    """Byte-exact identity of a weight vector (or its absence)."""
    if weights is None:
        return "reactive"
    arr = np.ascontiguousarray(np.asarray(weights, dtype=float))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _config_digest_parts(config: SimConfig) -> str:
    """Stable serialization of every semantic SimConfig field."""
    fields = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(SimConfig)
        if f.name != "extra"
    }
    return json.dumps(fields, sort_keys=True, default=repr)


def run_key(
    policy: str,
    trace: Trace,
    config: SimConfig,
    weights: np.ndarray | None,
    feature_names: tuple[str, ...],
    feature_set_name: str,
    allowed_modes: tuple[int, ...] | None = None,
) -> str:
    """The content address of one (policy, trace, config, weights) run.

    ``allowed_modes`` restricts the DVFS ladder; it adds a key part only
    when set, so unrestricted runs keep their keys.
    """
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"code={code_version()}",
        f"policy={policy}",
        f"features={feature_set_name}:{','.join(feature_names)}",
        f"config={_config_digest_parts(config)}",
        f"trace={trace_fingerprint(trace)}",
        f"weights={_weights_digest(weights)}",
    ]
    if allowed_modes is not None:
        ladder = sorted(set(allowed_modes))
        parts.append(f"modes={','.join(map(str, ladder))}")
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:24]


def capture_key(
    policy: str,
    config: SimConfig,
    feature_names: tuple[str, ...],
    feature_set_name: str,
    group: str,
) -> str:
    """The content address of one capture entry.

    A reactive run reads no weights and charges no label energy, so its
    ``(X, y)`` depends only on the policy, trace, config, captured
    feature set and code version.  One entry holds the captures of one
    (policy, config, feature set) for one ``group`` — the training set
    they serve, so an entry never outgrows one suite — keyed inside by
    :func:`~repro.traffic.trace.trace_fingerprint`; the ``capture`` kind
    keeps it from ever aliasing a run entry.
    """
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"code={code_version()}",
        "kind=capture",
        f"policy={policy}",
        f"features={feature_set_name}:{','.join(feature_names)}",
        f"config={_config_digest_parts(config)}",
        f"group={group}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:24]


def weights_key(capture: str, validation: str,
                lambdas: tuple[float, ...]) -> str:
    """The content address of one model's trained weights.

    ``capture`` is the :func:`capture_key` of the model's training set
    (at the model's own feature set), so the schema, code version,
    policy, features, config and training traces are already in it; the
    fit's own sources, the validation set's :func:`training_set_group`
    string and the lambda sweep (exact ``repr``) join it here.
    """
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"training={training_version()}",
        "kind=weights",
        f"capture={capture}",
        f"validation={validation}",
        f"lambdas={','.join(repr(float(lam)) for lam in lambdas)}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:24]


def suite_key(num_cores: int, duration_ns: float, seed: int) -> str:
    """The content address of one plain 14-trace suite.

    A generated trace depends only on its recipe and the traffic
    generator's sources, so the key hashes :func:`traffic_version`, not
    :func:`code_version`: editing the kernel keeps every cached suite.
    """
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"traffic={traffic_version()}",
        "kind=suite",
        f"recipe={int(num_cores)},{float(duration_ns)!r},{int(seed)}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:24]


def telemetry_key(run: str) -> str:
    """The content address of one telemetry-recorded run's counters.

    ``run`` is the run's :func:`run_key`; the recorder's own sources
    join it, since they decide which counters a run reports.
    """
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"telemetry={telemetry_version()}",
        "kind=telemetry",
        f"run={run}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:24]


def _check_header(payload, key: str, **stamps: str) -> None:
    """Raise unless an entry's schema, key and source stamps are current."""
    if int(payload["schema"]) != SCHEMA_VERSION:
        raise ValueError(f"schema mismatch: {payload['schema']!r}")
    if str(payload["key"]) != key:
        raise ValueError("cache entry key does not match its address")
    for name, current in stamps.items():
        if str(payload[name]) != current:
            raise ValueError(f"cache entry predates the current {name}")


def _metrics_to_payload(key: str, metrics: "ModelMetrics") -> dict:
    data = dataclasses.asdict(metrics)
    data["mode_distribution"] = {
        str(k): float(v) for k, v in metrics.mode_distribution.items()
    }
    return {"schema": SCHEMA_VERSION, "key": key, "metrics": data}


@lru_cache(maxsize=1)
def _metric_fields() -> tuple[str, ...]:
    # Imported lazily: repro.experiments imports this package at load time.
    from repro.experiments.runner import ModelMetrics

    return tuple(f.name for f in dataclasses.fields(ModelMetrics))


def _metrics_from_payload(key: str, payload: dict) -> "ModelMetrics":
    """Rebuild metrics from a cache payload; raises on any inconsistency."""
    from repro.experiments.runner import ModelMetrics

    _check_header(payload, key)
    data = dict(payload["metrics"])
    if set(data) != set(_metric_fields()):
        raise ValueError(f"metric fields mismatch: {sorted(data)}")
    data["mode_distribution"] = {
        int(k): float(v) for k, v in data["mode_distribution"].items()
    }
    data["packets_delivered"] = int(data["packets_delivered"])
    data["drained"] = bool(data["drained"])
    return ModelMetrics(**data)


def _encode_run(key: str, metrics: "ModelMetrics") -> bytes:
    return json.dumps(_metrics_to_payload(key, metrics)).encode()


def _decode_run(key: str, data: bytes) -> "ModelMetrics":
    return _metrics_from_payload(key, json.loads(data))


#: A capture entry: trace fingerprint -> that trace's ``(X, y)``.
Captures = dict[str, tuple[np.ndarray, np.ndarray]]


def _encode_capture(key: str, captures: Captures) -> bytes:
    members = {}
    for fingerprint, (x, y) in sorted(captures.items()):
        members[f"x_{fingerprint}"] = x
        members[f"y_{fingerprint}"] = y
    buf = io.BytesIO()
    np.savez(buf, schema=SCHEMA_VERSION, key=key, code=code_version(),
             **members)
    return buf.getvalue()


def _decode_capture(key: str, data: bytes) -> Captures:
    """Rebuild one capture entry; raises on any inconsistency."""
    captures: Captures = {}
    with np.load(io.BytesIO(data), allow_pickle=False) as entry:
        _check_header(entry, key, code=code_version())
        for name in entry.files:
            if name.startswith("x_"):
                x, y = entry[name], entry[f"y_{name[2:]}"]
                if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
                    raise ValueError(
                        f"capture shapes mismatch: {x.shape}, {y.shape}"
                    )
                captures[name[2:]] = (x, y)
    return captures


def _encode_weights(key: str, weights: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, schema=SCHEMA_VERSION, key=key, weights=weights)
    return buf.getvalue()


def _decode_weights(key: str, data: bytes) -> np.ndarray:
    """Rebuild one weight vector, byte for byte; raises on any
    inconsistency."""
    with np.load(io.BytesIO(data), allow_pickle=False) as entry:
        _check_header(entry, key)
        weights = entry["weights"]
    if weights.dtype != np.float64 or weights.ndim != 1:
        raise ValueError(
            f"weights mismatch: {weights.dtype}, {weights.shape}"
        )
    return weights


#: Column -> dtype of every trace in a suite entry (as generated).
_TRACE_COLUMNS = {
    "src": np.int32, "dst": np.int32, "kind": np.uint8, "t_ns": np.float64,
}


def _encode_suite(key: str, traces: tuple[Trace, ...]) -> bytes:
    members = {
        f"{column}_{i}": getattr(trace, column)
        for i, trace in enumerate(traces)
        for column in _TRACE_COLUMNS
    }
    buf = io.BytesIO()
    np.savez(buf, schema=SCHEMA_VERSION, key=key, traffic=traffic_version(),
             num_cores=traces[0].num_cores,
             names=np.array([t.name for t in traces]), **members)
    return buf.getvalue()


def _decode_suite(key: str, data: bytes) -> tuple[Trace, ...]:
    """Rebuild one suite entry's traces, in ``SUITE_ORDER``; raises on any
    inconsistency (every trace is re-validated by :class:`Trace`)."""
    with np.load(io.BytesIO(data), allow_pickle=False) as entry:
        _check_header(entry, key, traffic=traffic_version())
        names = tuple(str(name) for name in entry["names"])
        if names != SUITE_ORDER:
            raise ValueError(f"suite names mismatch: {names}")
        num_cores = int(entry["num_cores"])
        traces = []
        for i, name in enumerate(names):
            columns = {c: entry[f"{c}_{i}"] for c in _TRACE_COLUMNS}
            for column, dtype in _TRACE_COLUMNS.items():
                if columns[column].dtype != dtype:
                    raise ValueError(
                        f"{name}.{column} dtype mismatch: "
                        f"{columns[column].dtype}"
                    )
            traces.append(Trace(**columns, num_cores=num_cores, name=name))
    return tuple(traces)


#: A telemetry entry: sorted counter name -> value, and whether the run
#: drained.
Telemetry = tuple[dict[str, int], bool]


def _encode_telemetry(key: str, value: Telemetry) -> bytes:
    counters, drained = value
    return json.dumps({"schema": SCHEMA_VERSION, "key": key,
                       "counters": counters, "drained": drained}).encode()


def _decode_telemetry(key: str, data: bytes) -> Telemetry:
    """Rebuild one telemetry entry; raises on any inconsistency."""
    payload = json.loads(data)
    _check_header(payload, key)
    counters, drained = payload["counters"], payload["drained"]
    if not isinstance(counters, dict) or not isinstance(drained, bool) \
            or not all(type(value) is int for value in counters.values()):
        raise ValueError("telemetry entry fields mismatch")
    return counters, drained


#: Entry kind -> (file suffix, encoder, decoder).
_KINDS = {
    "run": ("json", _encode_run, _decode_run),
    "capture": ("npz", _encode_capture, _decode_capture),
    "weights": ("npz", _encode_weights, _decode_weights),
    "suite": ("npz", _encode_suite, _decode_suite),
    "telemetry": ("json", _encode_telemetry, _decode_telemetry),
}


class RunCache:
    """Content-addressed store of per-run results.

    Parameters
    ----------
    cache_dir:
        Directory for entries (created on first write).  One file per
        entry, named ``<kind>-<key>.<suffix>``: ``run-<key>.json`` holds
        a :class:`ModelMetrics`, ``capture-<key>.npz`` the training
        captures of one (policy, config, feature set, training set),
        per trace, ``weights-<key>.npz`` one model's trained weights,
        ``suite-<key>.npz`` one plain benchmark suite and
        ``telemetry-<key>.json`` one recorded run's counters.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.discarded = 0

    def path_for(self, key: str, kind: str = "run") -> Path:
        """Filesystem location of one cache entry."""
        return self.cache_dir / f"{kind}-{key}.{_KINDS[kind][0]}"

    def get(self, key: str, kind: str = "run"):
        """Look up one entry; corrupted or stale entries are deleted."""
        path = self.path_for(key, kind)
        try:
            value = _KINDS[kind][2](key, path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError, TrafficError,
                zipfile.BadZipFile, EOFError):
            # Corrupted / truncated / wrong-schema entry: do not trust it.
            self.discarded += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        self.hits += 1
        return value

    def put(self, key: str, value, kind: str = "run") -> None:
        """Store one entry crash-safely: temp file + fsync + atomic rename.

        A reader never observes a partial entry — either the old state or
        the complete new file.  The fsync before the rename closes the
        power-loss window where the rename survives but the data does
        not; a kill -9 mid-``put`` leaves at worst an orphaned temp file,
        which readers never look at (entries are addressed by exact name).
        Concurrent writers of the same key each stage their own per-pid
        temp file; whichever rename lands last wins whole (the results
        are content-addressed, so both files hold identical payloads).
        """
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            payload = _KINDS[kind][1](key, value)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{kind}-{os.getpid()}-", suffix=".tmp",
                dir=self.cache_dir,
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path_for(key, kind))
            except OSError:
                os.unlink(tmp)
                raise
        except OSError:  # pragma: no cover - cache write is best-effort
            pass

    def stats(self) -> dict[str, int]:
        """Hit/miss/discard counters for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "discarded": self.discarded,
        }


def run_cache_for(cache_dir: str | Path | None) -> RunCache | None:
    """The run cache under an experiment cache directory (None: uncached)."""
    return None if cache_dir is None else RunCache(Path(cache_dir) / "runs")
