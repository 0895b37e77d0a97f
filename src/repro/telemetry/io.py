"""Serialization of telemetry runs: JSONL series and JSON summaries.

One telemetry directory holds, per run (or per campaign task):

* ``series-<label>.jsonl`` — header line + time-ordered epoch rows,
* ``summary-<label>.json`` — the mergeable metric-set aggregate,

plus, for campaigns, a merged ``campaign-summary.json``.
:func:`validate_dir` checks every artifact against the schema — used by
``dozznoc telemetry --check``, the CI smoke job, and the tests.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.telemetry.metrics import MetricSet
from repro.telemetry.recorder import EPOCH_ROW_FIELDS, TelemetryRecorder

#: Bump when the serialized series/summary layout changes.
TELEMETRY_SCHEMA = 1

SERIES_KIND = "dozznoc-telemetry-series"
SUMMARY_KIND = "dozznoc-telemetry-summary"

_LABEL_RE = re.compile(r"[^A-Za-z0-9._-]+")


def safe_label(label: str) -> str:
    """A filesystem-safe version of a run label."""
    return _LABEL_RE.sub("-", label) or "run"


# ---------------------------------------------------------------------- #
# Writers
# ---------------------------------------------------------------------- #


def write_series(
    directory: str | Path, label: str, recorder: TelemetryRecorder
) -> Path:
    """Write one run's epoch series as JSONL; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"series-{safe_label(label)}.jsonl"
    header = {
        "type": "header",
        "schema": TELEMETRY_SCHEMA,
        "kind": SERIES_KIND,
        "meta": recorder.meta,
        "epoch_fields": list(EPOCH_ROW_FIELDS),
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for values in recorder.epoch_rows:
            row = dict(zip(EPOCH_ROW_FIELDS, values))
            row["type"] = "epoch"
            fh.write(json.dumps(row) + "\n")
    return path


def summary_payload(
    metrics: MetricSet, meta: dict | None = None
) -> dict:
    """The JSON payload for one (possibly merged) summary."""
    return {
        "schema": TELEMETRY_SCHEMA,
        "kind": SUMMARY_KIND,
        "meta": dict(meta or {}),
        "metrics": metrics.to_dict(),
    }


def write_summary(
    directory: str | Path,
    label: str,
    metrics: MetricSet,
    meta: dict | None = None,
) -> Path:
    """Write one summary as JSON; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"summary-{safe_label(label)}.json"
    path.write_text(
        json.dumps(summary_payload(metrics, meta), indent=2, sort_keys=True)
        + "\n"
    )
    return path


# ---------------------------------------------------------------------- #
# Readers
# ---------------------------------------------------------------------- #


def load_summary(path: str | Path) -> tuple[dict, MetricSet]:
    """Load one summary JSON; returns ``(meta, metrics)``."""
    payload = json.loads(Path(path).read_text())
    errors = validate_summary_payload(payload)
    if errors:
        raise ValueError(
            f"invalid telemetry summary {path}: " + "; ".join(errors)
        )
    return payload["meta"], MetricSet.from_dict(payload["metrics"])


def iter_series(path: str | Path):
    """Yield ``(header, rows)`` for one series file (rows as dicts)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"series file {path} is empty")
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------- #
# Schema validation
# ---------------------------------------------------------------------- #

_EPOCH_TYPES = {
    "tick": int, "router": int, "epoch": int, "mode": int, "state": str,
    "ibu": (int, float), "pred": (int, float, type(None)),
    "idle_cycles": int, "sends": int, "recvs": int, "flits_out": int,
    "wakes": int, "switches": int, "off_cycles_total": int,
}


def validate_series_lines(lines: list[str], where: str = "") -> list[str]:
    """Schema-check one series file's lines; returns human-readable errors."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{where}: {msg}" if where else msg)

    if not lines:
        err("file is empty")
        return errors
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        err(f"header is not JSON ({exc})")
        return errors
    if header.get("type") != "header":
        err("first line is not a header record")
    if header.get("schema") != TELEMETRY_SCHEMA:
        err(f"schema {header.get('schema')!r} != {TELEMETRY_SCHEMA}")
    if header.get("kind") != SERIES_KIND:
        err(f"kind {header.get('kind')!r} != {SERIES_KIND!r}")
    if header.get("epoch_fields") != list(EPOCH_ROW_FIELDS):
        err("header epoch_fields do not match the schema")

    last_tick = -1
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            err(f"line {lineno}: not JSON ({exc})")
            continue
        rtype = row.get("type")
        if rtype == "epoch":
            for name, types in _EPOCH_TYPES.items():
                if name not in row:
                    err(f"line {lineno}: epoch row missing {name!r}")
                elif not isinstance(row[name], types) or (
                    isinstance(row[name], bool)
                ):
                    err(
                        f"line {lineno}: epoch field {name!r} has type "
                        f"{type(row[name]).__name__}"
                    )
        else:
            err(f"line {lineno}: unknown row type {rtype!r}")
            continue
        tick = row.get("tick")
        if isinstance(tick, int):
            if tick < last_tick:
                err(f"line {lineno}: tick {tick} < previous {last_tick}")
            last_tick = tick
    return errors


def validate_summary_payload(payload: dict, where: str = "") -> list[str]:
    """Schema-check one summary payload; returns human-readable errors."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{where}: {msg}" if where else msg)

    if payload.get("schema") != TELEMETRY_SCHEMA:
        err(f"schema {payload.get('schema')!r} != {TELEMETRY_SCHEMA}")
    if payload.get("kind") != SUMMARY_KIND:
        err(f"kind {payload.get('kind')!r} != {SUMMARY_KIND!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        err("missing metrics mapping")
        return errors
    try:
        MetricSet.from_dict(metrics)
    except (ValueError, KeyError, TypeError) as exc:
        err(f"metrics do not parse: {exc}")
    return errors


def validate_dir(directory: str | Path) -> list[str]:
    """Validate every telemetry artifact in one directory."""
    directory = Path(directory)
    if not directory.is_dir():
        return [f"{directory} is not a directory"]
    errors: list[str] = []
    series = sorted(directory.glob("series-*.jsonl"))
    summaries = sorted(directory.glob("*summary*.json"))
    if not series and not summaries:
        return [f"{directory} holds no telemetry artifacts"]
    for path in series:
        errors.extend(
            validate_series_lines(
                path.read_text().splitlines(), where=path.name
            )
        )
    for path in summaries:
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            errors.append(f"{path.name}: not JSON ({exc})")
            continue
        errors.extend(validate_summary_payload(payload, where=path.name))
    return errors
