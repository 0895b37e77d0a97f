"""``dozznoc repro-all``: one-command reproduction of every result.

This module owns the declarative registry behind the push-button
artifact: every paper table/figure plus the extension studies, each
reduced to one :class:`ReproEntry` whose builder returns a plain JSON
payload of the shape::

    {"headlines": {...},                  # scalar regression gates
     "table":     {"headers": [...], "rows": [[...], ...]},
     "data":      {...}}                  # full structured result

:func:`run_repro_all` drives the selected entries through the existing
campaign engine (inheriting the run cache, process pool and telemetry merge via ``--cache-dir``/``--jobs``),
layers an :class:`~repro.experiments.artifact.ExperimentMemo` on top so
a second invocation over the same cache directory replays every payload
from disk, writes the schema-versioned ``out/`` tree (raw JSON + CSV +
manifest + one static HTML report), and diffs every headline against the
committed per-scale expectation files (``tests/expectations/*.json``).
Any drift — a changed value, a headline without coverage, or an
experiment without committed expectations — exits nonzero, and so does
a failed claim: each entry's claims (:mod:`repro.experiments.claims`)
are checked on its payload after every build or memo replay.

Builders import ``figures``, ``tables`` and ``campaign`` inside their
bodies, so a warm rerun that replays every payload from the memo never
imports numpy or the kernel (``tests/test_startup.py``); every module a
builder imports must be covered by the memo's code version
(``tests/test_memo_modules.py``).

Determinism contract: the manifest and report are byte-for-byte
functions of (scale, backend, seed, code); ``--jobs``, cache state and
wall-clock never appear in any emitted byte.  The resume/jobs tests in
``tests/test_repro_all.py`` assert this with file-level equality.

Expectations are regenerated loudly with
``PYTHONPATH=src python -m tests.regen_expectations --scale quick``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.common.config import SimConfig
from repro.experiments.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactLayout,
    ExperimentMemo,
    canonical_json,
    memo_key,
    sha256_file,
    write_json,
)
from repro.experiments.claims import CLAIMS, Claim, evaluate_claims
from repro.experiments.profiles import MODEL_NAMES, EvalScale
from repro.experiments.report import csv_text, render_html_report

if TYPE_CHECKING:  # pragma: no cover - builders import the kernel lazily
    from repro.experiments.campaign import CampaignResult

#: Bump when the expectation-file shape changes.
EXPECTATIONS_SCHEMA = 1

#: The two supported evaluation scales.
SCALE_NAMES = ("quick", "paper")

_REGEN_HINT = (
    "if intentional, regenerate with `PYTHONPATH=src python -m "
    "tests.regen_expectations --scale <scale>` and justify the diff "
    "in review"
)


def resolve_scale(
    name: str,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
    backend: str = "array",
) -> EvalScale:
    """Materialize one named scale with the CLI knobs applied."""
    if name == "quick":
        scale = EvalScale.quick(cache_dir)
    elif name == "paper":
        scale = EvalScale.paper(cache_dir)
    else:
        raise ValueError(f"unknown scale {name!r}; choices: {SCALE_NAMES}")
    return replace(scale, jobs=jobs, sim=scale.sim.with_(backend=backend))


def cmesh_sim(scale_name: str, backend: str = "array") -> SimConfig:
    """The concentrated-mesh configuration matching one scale.

    Paper scale uses the paper's 4x4 cmesh (64 cores); quick scale uses a
    2x2 cmesh with the same concentration (16 cores, matching the quick
    mesh's core count) so the Section IV.B.2 leg stays seconds-fast.
    """
    if scale_name == "paper":
        return SimConfig.paper_cmesh(backend=backend)
    return SimConfig(
        topology="cmesh", radix=2, concentration=4, epoch_cycles=150,
        backend=backend,
    )


def scale_fingerprint(scale_name: str, scale: EvalScale) -> str:
    """The memo-key component identifying one (scale, backend, seed).

    Scale *profile* constants (mesh radix, epoch size, duration) are
    covered by the memo code version, which hashes the sources of this
    module and of :mod:`repro.experiments.profiles`.
    """
    return f"{scale_name}|backend={scale.sim.backend}|seed={scale.seed}"


@dataclass
class ReproContext:
    """Shared state handed to every experiment builder."""

    scale_name: str
    scale: EvalScale
    _campaigns: dict = field(default_factory=dict)

    def run_cache(self):
        """The run-level cache implied by the scale (None when uncached)."""
        from repro.exec.cache import run_cache_for

        return run_cache_for(self.scale.cache_dir)

    def campaign(
        self,
        compressed: bool = False,
        sim: SimConfig | None = None,
        models: tuple[str, ...] = MODEL_NAMES,
    ) -> CampaignResult:
        """Run (or replay) one campaign; repeated asks share the result.

        The in-process memo only saves redundant cache lookups — the run
        cache under ``cache_dir`` already makes a repeated campaign
        cheap — but it lets fig7 reuse fig8's uncompressed campaign
        without any ordering constraint between the two builders.
        """
        from repro.experiments.campaign import CampaignConfig, run_campaign

        sim = sim or self.scale.sim
        key = (repr(sim), compressed, models)
        if key not in self._campaigns:
            self._campaigns[key] = run_campaign(
                CampaignConfig(
                    sim=sim,
                    duration_ns=self.scale.duration_ns,
                    compressed=compressed,
                    seed=self.scale.seed,
                    models=models,
                    cache_dir=self.scale.cache_dir,
                    jobs=self.scale.jobs,
                )
            )
        return self._campaigns[key]


# ---------------------------------------------------------------------- #
# Payload builders — one per experiment
# ---------------------------------------------------------------------- #


def _table_payload(table_id: str) -> Callable[[ReproContext], dict]:
    def build(ctx: ReproContext) -> dict:
        from repro.experiments.tables import ALL_TABLES

        cmp = ALL_TABLES[table_id]()
        width = len(cmp.measured_rows[0]) if cmp.measured_rows else 0
        headers = list(cmp.headers)
        if len(headers) != width:
            headers = [f"c{i}" for i in range(width)]
        rows = [["measured", *row] for row in cmp.measured_rows]
        rows += [["paper", *row] for row in cmp.paper_rows]
        return {
            "headlines": {
                "max_abs_error": float(cmp.max_abs_error),
                "rows": len(cmp.measured_rows),
            },
            "table": {"headers": ["source", *headers], "rows": rows},
            "data": {"name": cmp.name},
        }

    return build


def _build_fig5(ctx: ReproContext) -> dict:
    from repro.experiments.figures import fig5_waveforms

    r = fig5_waveforms()
    rows = [
        ["wakeup", r.wakeup.v_from, r.wakeup.v_to, r.t_wakeup_ns,
         len(r.wakeup.v)],
        ["switch", r.switch.v_from, r.switch.v_to, r.t_switch_ns,
         len(r.switch.v)],
    ]
    return {
        "headlines": {
            "t_wakeup_ns": float(r.t_wakeup_ns),
            "t_switch_ns": float(r.t_switch_ns),
        },
        "table": {
            "headers": ["transition", "v_from", "v_to", "settling_ns",
                        "samples"],
            "rows": rows,
        },
        "data": {"paper_t_wakeup_ns": 8.5, "paper_t_switch_ns": 6.9},
    }


def _build_fig6(ctx: ReproContext) -> dict:
    from repro.experiments.figures import fig6_efficiency

    r = fig6_efficiency()
    rows = [
        [float(v), float(b), float(s), float(s - b)]
        for v, b, s in zip(r.voltages, r.baseline, r.simo)
    ]
    gains = [row[3] for row in rows]
    return {
        "headlines": {
            "mean_improvement": sum(gains) / len(gains),
            "max_improvement": max(gains),
            "min_simo_efficiency": min(row[2] for row in rows),
        },
        "table": {
            "headers": ["vout", "baseline", "simo", "gain"],
            "rows": rows,
        },
        "data": {"n_points": len(rows)},
    }


def _build_fig7(ctx: ReproContext) -> dict:
    from repro.experiments.figures import fig7_mode_distribution

    dist = fig7_mode_distribution(ctx.campaign())
    rows = []
    headlines = {}
    for model in sorted(dist):
        centroids = []
        for bench in sorted(dist[model]):
            per_mode = dist[model][bench]
            centroids.append(
                sum(m * f for m, f in sorted(per_mode.items()))
            )
            for mode, frac in sorted(per_mode.items()):
                rows.append([model, bench, mode, float(frac)])
        # One drift-sensitive scalar per model: the mode centroid moves
        # whenever any benchmark's distribution shifts at all.
        headlines[f"mode_centroid_{model}"] = sum(centroids) / len(centroids)
    return {
        "headlines": headlines,
        "table": {
            "headers": ["model", "benchmark", "mode", "fraction"],
            "rows": rows,
        },
        "data": {"distribution": dist},
    }


def _campaign_rows(setting: str, result: CampaignResult) -> list[list]:
    return [
        [
            setting,
            row["model"],
            row["static_savings_pct"],
            row["dynamic_savings_pct"],
            row["throughput_loss_pct"],
            row["latency_increase_pct"],
            row["gated_fraction_pct"],
            row["undrained_runs"],
        ]
        for row in result.summary_rows()
    ]


_CAMPAIGN_TABLE_HEADERS = [
    "setting", "model", "static_savings_pct", "dynamic_savings_pct",
    "throughput_loss_pct", "latency_increase_pct", "gated_fraction_pct",
    "undrained_runs",
]


def _campaign_headlines(setting: str, result: CampaignResult) -> dict:
    out = {}
    for row in result.summary_rows():
        prefix = f"{setting}_{row['model']}" if setting else str(row["model"])
        out[f"{prefix}_static_savings_pct"] = row["static_savings_pct"]
        out[f"{prefix}_dynamic_savings_pct"] = row["dynamic_savings_pct"]
        out[f"{prefix}_throughput_loss_pct"] = row["throughput_loss_pct"]
    out_key = f"{setting}_undrained_runs" if setting else "undrained_runs"
    out[out_key] = len(result.undrained_runs())
    return out


def _build_fig8(ctx: ReproContext) -> dict:
    from repro.experiments.campaign import campaign_summary_payload

    compressed = ctx.campaign(compressed=True)
    uncompressed = ctx.campaign()
    return {
        "headlines": {
            **_campaign_headlines("compressed", compressed),
            **_campaign_headlines("uncompressed", uncompressed),
        },
        "table": {
            "headers": _CAMPAIGN_TABLE_HEADERS,
            "rows": _campaign_rows("compressed", compressed)
            + _campaign_rows("uncompressed", uncompressed),
        },
        "data": {
            "compressed": campaign_summary_payload(compressed),
            "uncompressed": campaign_summary_payload(uncompressed),
        },
    }


def _build_cmesh(ctx: ReproContext) -> dict:
    from repro.experiments.campaign import campaign_summary_payload

    result = ctx.campaign(
        sim=cmesh_sim(ctx.scale_name, backend=ctx.scale.sim.backend)
    )
    return {
        "headlines": _campaign_headlines("", result),
        "table": {
            "headers": _CAMPAIGN_TABLE_HEADERS,
            "rows": _campaign_rows("cmesh", result),
        },
        "data": {"summary": campaign_summary_payload(result)},
    }


def _build_fig9(ctx: ReproContext) -> dict:
    from repro.experiments.figures import fig9_feature_accuracy

    accs = fig9_feature_accuracy(ctx.scale)
    rows = []
    headlines = {}
    for fa in accs:
        for bench in sorted(fa.per_benchmark):
            rows.append([fa.feature, bench, float(fa.per_benchmark[bench])])
        rows.append([fa.feature, "average", float(fa.average)])
        headlines[f"accuracy_{fa.feature}"] = float(fa.average)
    return {
        "headlines": headlines,
        "table": {
            "headers": ["feature", "benchmark", "accuracy"],
            "rows": rows,
        },
        "data": {"n_features": len(accs)},
    }


def _build_epoch_sweep(ctx: ReproContext) -> dict:
    from repro.experiments.figures import epoch_size_sweep

    points = epoch_size_sweep(ctx.scale)
    best = min(points, key=lambda p: p.validation_rmse)
    return {
        "headlines": {
            "best_epoch_cycles": int(best.epoch_cycles),
            "min_validation_rmse": float(best.validation_rmse),
            "max_validation_accuracy": max(
                float(p.validation_accuracy) for p in points
            ),
        },
        "table": {
            "headers": ["epoch_cycles", "validation_rmse",
                        "validation_accuracy", "n_train_samples"],
            "rows": [
                [p.epoch_cycles, p.validation_rmse, p.validation_accuracy,
                 p.n_train_samples]
                for p in points
            ],
        },
        "data": {"n_points": len(points)},
    }


def _build_feature_ablation(ctx: ReproContext) -> dict:
    from repro.experiments.figures import feature_ablation

    r = feature_ablation(ctx.scale)
    keys = sorted(r.reduced)
    return {
        "headlines": {
            "reduced_static_savings": float(r.reduced["static_savings"]),
            "full_static_savings": float(r.full["static_savings"]),
            "max_rel_difference": max(
                float(r.relative_difference(k)) for k in keys
            ),
        },
        "table": {
            "headers": ["variant", *keys],
            "rows": [
                ["reduced-5", *[float(r.reduced[k]) for k in keys]],
                ["full-41", *[float(r.full[k]) for k in keys]],
            ],
        },
        "data": {"reduced": r.reduced, "full": r.full},
    }


def _build_tidle(ctx: ReproContext) -> dict:
    from repro.exec.pool import SimTask, run_sim_tasks
    from repro.traffic.suite import suite_for

    from repro.experiments.figures import t_idle_sweep

    points = t_idle_sweep(ctx.scale)
    headlines = {}
    for p in points:
        headlines[f"static_savings_t{p.t_idle}"] = float(p.static_savings)
        headlines[f"wake_events_t{p.t_idle}"] = float(p.wake_events)
    # One raw (un-normalized) energy headline: the normalized savings
    # above are ratios, where a uniform power-model perturbation cancels
    # to within rounding — the sweep's own baseline run (a cache hit when
    # a cache_dir is set, since t_idle_sweep just ran it) re-anchors the
    # expectations diff to absolute picojoules.
    suite = suite_for(ctx.scale)
    trace = suite.test[1]  # t_idle_sweep's default benchmark_index
    (base,) = run_sim_tasks(
        [SimTask(policy="baseline", trace=trace, sim=ctx.scale.sim)],
        jobs=1,
        cache=ctx.run_cache(),
    )
    headlines["baseline_static_pj"] = float(base.static_pj)
    return {
        "headlines": headlines,
        "table": {
            "headers": ["t_idle", "static_savings", "dynamic_savings",
                        "throughput_loss", "gated_fraction", "wake_events"],
            "rows": [
                [p.t_idle, p.static_savings, p.dynamic_savings,
                 p.throughput_loss, p.gated_fraction, p.wake_events]
                for p in points
            ],
        },
        "data": {"benchmark": trace.name},
    }


def _build_buffers(ctx: ReproContext) -> dict:
    from repro.experiments.figures import buffer_depth_sweep

    points = buffer_depth_sweep(ctx.scale)
    headlines = {}
    for p in points:
        headlines[f"static_savings_d{p.buffer_depth}"] = float(
            p.static_savings
        )
        headlines[f"avg_latency_ns_d{p.buffer_depth}"] = float(
            p.avg_latency_ns
        )
    return {
        "headlines": headlines,
        "table": {
            "headers": ["buffer_depth", "static_savings", "dynamic_savings",
                        "throughput_loss", "avg_latency_ns"],
            "rows": [
                [p.buffer_depth, p.static_savings, p.dynamic_savings,
                 p.throughput_loss, p.avg_latency_ns]
                for p in points
            ],
        },
        "data": {"n_points": len(points)},
    }


def _build_ladder(ctx: ReproContext) -> dict:
    from repro.experiments.figures import mode_ladder_ablation

    points = mode_ladder_ablation(ctx.scale)
    return {
        "headlines": {
            f"static_savings_m{len(p.allowed_modes)}": float(p.static_savings)
            for p in points
        },
        "table": {
            "headers": ["ladder", "allowed_modes", "static_savings",
                        "dynamic_savings", "throughput_loss"],
            "rows": [
                [p.label, " ".join(str(m) for m in p.allowed_modes),
                 p.static_savings, p.dynamic_savings, p.throughput_loss]
                for p in points
            ],
        },
        "data": {"n_ladders": len(points)},
    }


def _build_telemetry(ctx: ReproContext) -> dict:
    from repro.exec.cache import telemetry_key
    from repro.exec.pool import SimTask
    from repro.traffic.suite import suite_for

    trace = suite_for(ctx.scale).test[0]
    sim = ctx.scale.sim
    cache = ctx.run_cache()
    key = telemetry_key(SimTask("dozznoc", trace, sim).cache_key())
    entry = None if cache is None else cache.get(key, "telemetry")
    if entry is None:
        from repro.core.controller import make_policy
        from repro.noc.simulator import run_simulation
        from repro.telemetry import TelemetryRecorder
        from repro.telemetry.metrics import Counter

        recorder = TelemetryRecorder(series=False)
        result = run_simulation(sim, trace, make_policy("dozznoc"),
                                telemetry=recorder)
        entry = (
            {
                name: int(metric.value)
                for name, metric in sorted(recorder.metrics.metrics.items())
                if isinstance(metric, Counter)
            },
            bool(result.drained),
        )
        if cache is not None:
            cache.put(key, entry, "telemetry")
    counters, drained = entry
    return {
        "headlines": {**counters, "drained": drained},
        "table": {
            "headers": ["counter", "value"],
            "rows": [[name, value] for name, value in counters.items()],
        },
        "data": {"benchmark": trace.name, "policy": "dozznoc"},
    }


# ---------------------------------------------------------------------- #
# The declarative registry
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ReproEntry:
    """One experiment in the push-button artifact."""

    id: str
    title: str
    kind: str  # "table" | "figure" | "text" | "extension"
    build: Callable[[ReproContext], dict]
    claims: tuple[Claim, ...] = ()


REPRO_EXPERIMENTS: dict[str, ReproEntry] = {
    e.id: e
    for e in (
        ReproEntry("table1", "Table I: LDO dropout ranges", "table",
                   _table_payload("table1"), CLAIMS["table1"]),
        ReproEntry("table2", "Table II: switch-latency matrix", "table",
                   _table_payload("table2"), CLAIMS["table2"]),
        ReproEntry("table3", "Table III: cycle costs", "table",
                   _table_payload("table3"), CLAIMS["table3"]),
        ReproEntry("table4", "Table IV: reduced feature set", "table",
                   _table_payload("table4"), CLAIMS["table4"]),
        ReproEntry("table5", "Table V: power model", "table",
                   _table_payload("table5"), CLAIMS["table5"]),
        ReproEntry("fig5", "Fig 5: regulator transients", "figure",
                   _build_fig5, CLAIMS["fig5"]),
        ReproEntry("fig6", "Fig 6: delivery efficiency", "figure",
                   _build_fig6, CLAIMS["fig6"]),
        ReproEntry("fig7", "Fig 7: DVFS mode distribution", "figure",
                   _build_fig7, CLAIMS["fig7"]),
        ReproEntry("fig8", "Fig 8: throughput + normalized energy",
                   "figure", _build_fig8, CLAIMS["fig8"]),
        ReproEntry("fig9", "Fig 9/11: single-feature accuracy", "figure",
                   _build_fig9, CLAIMS["fig9"]),
        ReproEntry("cmesh", "IV.B.2: concentrated-mesh results", "text",
                   _build_cmesh, CLAIMS["cmesh"]),
        ReproEntry("epoch_sweep", "IV.B.1: epoch-size trade-off", "text",
                   _build_epoch_sweep, CLAIMS["epoch_sweep"]),
        ReproEntry("feature_ablation", "IV.B.1: 5 vs 41 features", "text",
                   _build_feature_ablation, CLAIMS["feature_ablation"]),
        ReproEntry("tidle", "III.B: T-Idle trade-off (extension)",
                   "extension", _build_tidle, CLAIMS["tidle"]),
        ReproEntry("buffers", "buffer-depth sweep (extension)", "extension",
                   _build_buffers, CLAIMS["buffers"]),
        ReproEntry("ladder", "DVFS-ladder granularity (extension)",
                   "extension", _build_ladder, CLAIMS["ladder"]),
        ReproEntry("telemetry", "deterministic telemetry counters "
                   "(extension)", "extension", _build_telemetry),
    )
}


def select_entries(only: Sequence[str] | None) -> list[ReproEntry]:
    """Resolve a ``--only`` selection (id order; None = everything)."""
    if only is None:
        return [REPRO_EXPERIMENTS[k] for k in sorted(REPRO_EXPERIMENTS)]
    unknown = sorted(set(only) - set(REPRO_EXPERIMENTS))
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; "
            f"choices: {sorted(REPRO_EXPERIMENTS)}"
        )
    return [REPRO_EXPERIMENTS[k] for k in sorted(set(only))]


# ---------------------------------------------------------------------- #
# Expectations
# ---------------------------------------------------------------------- #


def default_expectations_path(scale_name: str) -> Path | None:
    """Locate the committed ``tests/expectations/<scale>.json``.

    Checked relative to the package's repo root (src layout) first, then
    the working directory — so both an installed checkout and a plain
    ``PYTHONPATH=src`` invocation find the committed files.
    """
    import repro

    candidates = (
        Path(repro.__file__).resolve().parents[2],
        Path.cwd(),
    )
    for root in candidates:
        path = root / "tests" / "expectations" / f"{scale_name}.json"
        if path.is_file():
            return path
    return None


def load_expectations(
    spec: str | Path | None, scale_name: str
) -> tuple[dict | None, str]:
    """Resolve the expectations source: explicit path, auto, or 'none'."""
    if spec is not None:
        if str(spec) == "none":
            return None, "none"
        path = Path(spec)
        return json.loads(path.read_text()), path.name
    path = default_expectations_path(scale_name)
    if path is None:
        return None, "none"
    return json.loads(path.read_text()), path.name


def _floats_close(got: float, want: float, rel_tol: float) -> bool:
    return got == want or abs(got - want) <= max(
        rel_tol * abs(want), rel_tol
    )


def diff_expectations(
    expected: dict | None,
    source: str,
    experiments: Mapping[str, dict],
    scale_name: str,
) -> dict:
    """Compare run headlines against one expectations payload.

    Returns the manifest's ``expectations`` section.  Every run
    experiment must either be listed ``unchecked`` or have full headline
    coverage — an uncovered experiment or headline is *drift*, not a
    silent pass.
    """
    if expected is None:
        return {
            "status": "skipped", "source": source, "checked": 0,
            "failures": [], "unchecked": sorted(experiments),
        }
    failures: list[dict] = []

    def fail(exp_id: str, headline: str, problem: str) -> None:
        failures.append(
            {"experiment": exp_id, "headline": headline, "problem": problem}
        )

    if expected.get("schema") != EXPECTATIONS_SCHEMA:
        fail("-", "-", f"expectations schema {expected.get('schema')!r} != "
             f"{EXPECTATIONS_SCHEMA}")
    if expected.get("scale") != scale_name:
        fail("-", "-", f"expectations are for scale "
             f"{expected.get('scale')!r}, run is {scale_name!r}")
    unchecked = set(expected.get("unchecked", ()))
    specs = expected.get("experiments", {})
    checked = 0
    for exp_id in sorted(experiments):
        if exp_id in unchecked:
            continue
        spec = specs.get(exp_id)
        if spec is None:
            fail(exp_id, "-", "experiment ran but has no committed "
                 f"expectations; {_REGEN_HINT}")
            continue
        got = experiments[exp_id]["headlines"]
        for key in sorted(set(spec) | set(got)):
            if key not in got:
                fail(exp_id, key, "expected headline missing from the run; "
                     + _REGEN_HINT)
                continue
            if key not in spec:
                fail(exp_id, key, "headline not covered by expectations; "
                     + _REGEN_HINT)
                continue
            checked += 1
            want = spec[key]["value"]
            value = got[key]
            if spec[key].get("exact", False):
                ok = value == want
            else:
                rel = float(spec[key].get("rel_tol", 1e-9))
                ok = isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ) and _floats_close(float(value), float(want), rel)
            if not ok:
                fail(exp_id, key,
                     f"value {value!r} drifted from expected {want!r}; "
                     + _REGEN_HINT)
    return {
        "status": "clean" if not failures else "drift",
        "source": source,
        "checked": checked,
        "failures": failures,
        "unchecked": sorted(i for i in experiments if i in unchecked),
    }


def expectations_payload(
    manifest: dict, unchecked: Sequence[str] = ()
) -> dict:
    """Build an expectations file from a run manifest (the regen path).

    Floats get an explicit tolerance; integers, booleans and strings are
    exact — the golden-trace split.
    """
    experiments = {}
    for exp_id in sorted(manifest["experiments"]):
        if exp_id in unchecked:
            continue
        headlines = manifest["experiments"][exp_id]["headlines"]
        specs = {}
        for key in sorted(headlines):
            value = headlines[key]
            if isinstance(value, float) and not isinstance(value, bool):
                specs[key] = {"value": value, "rel_tol": 1e-9}
            else:
                specs[key] = {"value": value, "exact": True}
        experiments[exp_id] = specs
    return {
        "schema": EXPECTATIONS_SCHEMA,
        "scale": manifest["scale"],
        "unchecked": sorted(unchecked),
        "experiments": experiments,
    }


# ---------------------------------------------------------------------- #
# The driver
# ---------------------------------------------------------------------- #


@dataclass
class ReproOptions:
    """Everything ``dozznoc repro-all`` parameterizes."""

    scale: str = "quick"
    jobs: int = 1
    cache_dir: str | Path | None = None
    backend: str = "array"
    out_dir: str | Path = "out"
    only: Sequence[str] | None = None
    #: Expectations file path; None auto-discovers the committed
    #: per-scale file, the string "none" disables the diff.
    expectations: str | Path | None = None


@dataclass
class ReproReport:
    """What one invocation produced (for tests and the CLI)."""

    exit_code: int
    manifest: dict
    layout: ArtifactLayout
    cached: tuple[str, ...]
    computed: tuple[str, ...]


def _payload_ok(payload: dict) -> bool:
    """Shape guard for memoized payloads (stale entries recompute)."""
    return (
        isinstance(payload.get("headlines"), dict)
        and isinstance(payload.get("table"), dict)
        and isinstance(payload["table"].get("headers"), list)
        and isinstance(payload["table"].get("rows"), list)
    )


def entry_payload(
    entry: ReproEntry, ctx: ReproContext, memo: ExperimentMemo | None
) -> tuple[dict, bool]:
    """One entry's payload, and whether the experiment memo served it."""
    key = memo_key(entry.id, scale_fingerprint(ctx.scale_name, ctx.scale))
    payload = memo.get(key) if memo is not None else None
    if payload is not None and _payload_ok(payload):
        return payload, True
    # Round-trip through canonical JSON so the fresh and memo-replayed
    # paths serialize identically (tuples become lists, numpy scalars
    # become numbers, int keys strings).
    payload = json.loads(canonical_json(entry.build(ctx)))
    if memo is not None:
        memo.put(key, payload)
    return payload, False


def run_repro_all(
    options: ReproOptions, log: Callable[[str], None] = print
) -> ReproReport:
    """Produce the full reproduction artifact; see the module docstring.

    Exit code 0 when the expectations diff is clean (or disabled) and no
    claim fails, 1 on any drift or failed claim.  The emitted tree is
    byte-deterministic: neither ``jobs``, nor cache hit/miss state, nor
    wall-clock appears in it.
    """
    scale = resolve_scale(
        options.scale,
        cache_dir=options.cache_dir,
        jobs=options.jobs,
        backend=options.backend,
    )
    entries = select_entries(options.only)
    ctx = ReproContext(options.scale, scale)
    layout = ArtifactLayout(options.out_dir)
    memo = (
        None if options.cache_dir is None
        else ExperimentMemo(options.cache_dir)
    )

    cached: list[str] = []
    computed: list[str] = []
    payloads: dict[str, dict] = {}
    experiments: dict[str, dict] = {}
    files: dict[str, str] = {}
    csv_tables: dict[str, tuple] = {}
    for entry in entries:
        payload, from_memo = entry_payload(entry, ctx, memo)
        payloads[entry.id] = payload
        (cached if from_memo else computed).append(entry.id)
        log(f"repro-all: {entry.id}: {'cached' if from_memo else 'computed'}")
        raw_path = write_json(
            layout.raw_path(entry.id),
            {
                "kind": "repro-experiment",
                "schema": ARTIFACT_SCHEMA,
                "id": entry.id,
                "title": entry.title,
                "experiment_kind": entry.kind,
                "scale": options.scale,
                "payload": payload,
            },
        )
        table = payload["table"]
        csv_path = layout.csv_path(entry.id)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(csv_text(table["headers"], table["rows"]))
        files[layout.relative(raw_path)] = sha256_file(raw_path)
        files[layout.relative(csv_path)] = sha256_file(csv_path)
        csv_tables[entry.id] = (table["headers"], table["rows"])
        experiments[entry.id] = {
            "title": entry.title,
            "kind": entry.kind,
            "headlines": payload["headlines"],
            "files": {
                "raw": layout.relative(raw_path),
                "csv": layout.relative(csv_path),
            },
        }

    claims = evaluate_claims(entries, payloads, options.scale)
    for exp_id, results in claims.items():
        experiments[exp_id]["claims"] = results
    expected, source = load_expectations(options.expectations, options.scale)
    expectations = diff_expectations(
        expected, source, experiments, options.scale
    )
    manifest = {
        "kind": "repro-manifest",
        "schema": ARTIFACT_SCHEMA,
        "scale": options.scale,
        "backend": scale.sim.backend,
        "seed": scale.seed,
        "selected": [e.id for e in entries],
        "experiments": experiments,
        "files": files,
        "expectations": expectations,
        "bench": layout.bench_artifacts(),
    }
    write_json(layout.manifest_path, manifest)
    layout.report_path.write_text(render_html_report(manifest, csv_tables))

    for failure in expectations["failures"]:
        log(
            f"repro-all: DRIFT {failure['experiment']}."
            f"{failure['headline']}: {failure['problem']}"
        )
    outcomes = [c["holds"] for results in claims.values() for c in results]
    for exp_id, results in claims.items():
        for claim in results:
            if claim["holds"] is False:
                log(f"repro-all: CLAIM FAILED {exp_id}: {claim['text']}")
    log(
        f"repro-all: {len(entries)} experiment(s) "
        f"({len(cached)} from the experiment memo), expectations "
        f"{expectations['status']} ({expectations['checked']} headline(s) "
        f"checked against {expectations['source']}), claims "
        f"{outcomes.count(True)} held, {outcomes.count(False)} failed, "
        f"{outcomes.count('skipped')} skipped -> {layout.manifest_path}"
    )
    drift = expectations["status"] not in ("clean", "skipped")
    exit_code = 1 if drift or False in outcomes else 0
    return ReproReport(
        exit_code=exit_code,
        manifest=manifest,
        layout=layout,
        cached=tuple(cached),
        computed=tuple(computed),
    )
