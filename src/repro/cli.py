"""Command-line interface.

``dozznoc`` (or ``python -m repro``) exposes the library's main entry
points without writing any Python:

* ``dozznoc tables`` — regenerate Tables I-V and compare to the paper,
* ``dozznoc figure fig5|fig6|fig7|fig8|fig9`` — regenerate a figure,
* ``dozznoc run --policy dozznoc --benchmark canneal`` — one simulation,
* ``dozznoc campaign [--compressed] [--cmesh]`` — the full evaluation,
* ``dozznoc telemetry DIR [DIR2]`` — tabulate, diff or validate telemetry
  directories written by ``run``/``campaign`` ``--telemetry``,
* ``dozznoc repro-all`` — the push-button artifact: every table, figure
  and extension into a versioned ``out/`` tree with an HTML report,
  diffed against committed expectations (see ``docs/repro.md``),
* ``dozznoc list`` — available benchmarks, policies and experiments.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.config import SimConfig
from repro.experiments.profiles import MODEL_NAMES, EvalScale
from repro.experiments.report import format_distribution, format_table

# Building the parser imports no numpy and no kernel code: its choices
# come from numpy-free name tables (MODEL_NAMES doubles as the policy
# registry's names), and each command handler imports its own
# implementation.  tests/test_startup.py keeps every table equal to the
# registry it mirrors.

#: The benchmark registry's names (``repro.traffic.benchmarks.BENCHMARKS``).
BENCHMARK_NAMES: tuple[str, ...] = (
    "blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
    "fluidanimate", "swaptions", "vips", "barnes", "fft", "lu", "radix",
    "water",
)


def _scale(args: argparse.Namespace) -> EvalScale:
    from dataclasses import replace
    from pathlib import Path

    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None and Path(cache_dir).exists() \
            and not Path(cache_dir).is_dir():
        sys.exit(f"dozznoc: error: --cache-dir {cache_dir!r} is not a directory")
    duration = getattr(args, "duration", None)
    if getattr(args, "quick", False):
        scale = EvalScale.quick()
    elif getattr(args, "cmesh", False):
        scale = EvalScale.cmesh()
    else:
        scale = EvalScale(duration_ns=duration if duration else 12_000.0)
    if duration:
        # An explicit --duration also scales the quick/cmesh profiles.
        scale = replace(scale, duration_ns=duration)
    return replace(
        scale,
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None) or scale.cache_dir,
        audit=getattr(args, "audit", False),
    )


def _model_cell(row: dict) -> str:
    """Model column text; loudly marks rows built from undrained runs."""
    label = str(row["model"])
    if row.get("undrained_runs"):
        label += f"  !! {row['undrained_runs']} UNDRAINED"
    return label


def _warn_undrained(result) -> None:
    """Print a loud warning for campaign runs that did not drain."""
    undrained = result.undrained_runs()
    if not undrained:
        return
    bar = "!" * 70
    print(f"\n{bar}", file=sys.stderr)
    print(
        f"WARNING: {len(undrained)} run(s) did NOT drain the network — "
        "they hit the safety cap or horizon with packets stuck in flight.\n"
        "Their metrics measure a truncated run; do not read them as clean "
        "results:",
        file=sys.stderr,
    )
    for trace, model in undrained:
        print(f"  - trace {trace!r}, model {model!r}", file=sys.stderr)
    print(bar, file=sys.stderr)


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.tables import ALL_TABLES

    for name, fn in ALL_TABLES.items():
        cmp = fn()
        print(f"\n{cmp.name}  (max |error| vs paper: {cmp.max_abs_error:.3g})")
        rows = [list(r) for r in cmp.measured_rows]
        headers = list(cmp.headers)
        if len(headers) != len(rows[0]):
            headers = [f"c{i}" for i in range(len(rows[0]))]
        print(format_table(headers, rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        fig5_waveforms,
        fig6_efficiency,
        fig7_mode_distribution,
        fig8_throughput_energy,
        fig9_feature_accuracy,
    )

    name = args.name
    if name == "fig5":
        r = fig5_waveforms()
        print(f"T-Wakeup (0->0.8V): {r.t_wakeup_ns:.2f} ns (paper: 8.5 ns)")
        print(f"T-Switch (0.8->1.2V): {r.t_switch_ns:.2f} ns (paper: 6.9 ns)")
    elif name == "fig6":
        r = fig6_efficiency()
        rows = [
            (f"{v:.2f}", f"{b:.3f}", f"{s:.3f}", f"{(s - b):+.3f}")
            for v, b, s in zip(r.voltages, r.baseline, r.simo)
        ]
        print(format_table(("Vout", "baseline", "SIMO", "gain"), rows))
    elif name == "fig7":
        dists = fig7_mode_distribution(_scale(args))
        for model, per_bench in dists.items():
            print(f"\n{model}:")
            for bench, dist in per_bench.items():
                print(f"  {bench:15s} {format_distribution(dist)}")
    elif name == "fig8":
        r = fig8_throughput_energy(_scale(args))
        for label, campaign in (
            ("compressed", r.compressed),
            ("uncompressed", r.uncompressed),
        ):
            print(f"\nFig 8 ({label}):")
            rows = [
                (
                    _model_cell(row),
                    f"{row['static_savings_pct']:.1f}",
                    f"{row['dynamic_savings_pct']:.1f}",
                    f"{row['throughput_loss_pct']:.1f}",
                    f"{row['latency_increase_pct']:.1f}",
                )
                for row in campaign.summary_rows()
            ]
            print(
                format_table(
                    ("model", "static sav %", "dyn sav %", "thr loss %", "lat +%"),
                    rows,
                )
            )
            _warn_undrained(campaign)
    elif name == "fig9":
        rows = [
            (fa.feature, f"{fa.average:.2f}")
            for fa in fig9_feature_accuracy(_scale(args))
        ]
        print(format_table(("feature", "mode-selection accuracy"), rows))
    else:
        print(f"unknown figure {name!r}", file=sys.stderr)
        return 2
    return 0


def _registry(args: argparse.Namespace):
    """Open the model registry named by --registry (required)."""
    if not getattr(args, "registry", None):
        sys.exit("dozznoc: error: this operation requires --registry DIR")
    from repro.models import ModelRegistry

    return ModelRegistry(args.registry)


def _online_config(args: argparse.Namespace):
    """Build an OnlineConfig from run/campaign --online* flags (or None)."""
    if not getattr(args, "online", False):
        return None
    from repro.models import OnlineConfig

    return OnlineConfig(
        lam=args.online_lam,
        forgetting=args.forgetting,
        warmup_updates=args.warmup,
        drift_threshold=args.drift_threshold,
        drift_action=args.drift_action,
    )


def _print_shadow_report(shadow, candidate_fp: str) -> None:
    """Shadow stats + a default-gate verdict after a run."""
    from repro.models import PromotionGate

    scored, cand_err, inc_err, wins, skipped = shadow.counter_values()
    print(f"{'shadow candidate':28s} {candidate_fp}")
    print(f"{'shadow pairs scored':28s} {scored:d} (+{skipped:d} skipped)")
    if scored:
        from repro.common.units import MICRO

        print(f"{'shadow cand mean |err|':28s} "
              f"{cand_err / (scored * MICRO):.6g}")
        print(f"{'shadow incumbent mean |err|':28s} "
              f"{inc_err / (scored * MICRO):.6g}")
    decision = PromotionGate().evaluate(scored, cand_err, inc_err, wins)
    verdict = "PROMOTE" if decision.promoted else "REJECT"
    print(f"{'shadow gate (default)':28s} {verdict}: {decision.reason}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.controller import make_policy
    from repro.noc.simulator import run_simulation
    from repro.traffic.benchmarks import generate_benchmark_trace
    from repro.traffic.compression import compress_trace

    topology = args.topology or ("cmesh" if args.cmesh else "mesh")
    if topology == "cmesh":
        base = SimConfig.paper_cmesh()
    elif topology == "mesh":
        base = SimConfig.paper_mesh()
    else:
        # Torus / ring at 64 cores (radix 8): bubble fabrics need two
        # max-length packet cells per input buffer (see docs/fabrics.md).
        base = SimConfig(topology=topology, radix=8, concentration=1,
                         buffer_depth=10)
    config = base.with_(switching=args.switching, backend=args.backend)
    trace = generate_benchmark_trace(
        args.benchmark, num_cores=config.num_cores, duration_ns=args.duration,
        seed=args.seed,
    )
    if args.compressed:
        trace = compress_trace(trace)
    auditor = None
    if args.audit:
        from repro.validate.invariants import InvariantAuditor

        auditor = InvariantAuditor(artifact_dir=args.artifact_dir)
    faults = None
    if args.faults:
        from repro.faults import FaultConfig

        faults = FaultConfig.moderate(seed=args.seed)
    if args.profile and not args.telemetry:
        print("dozznoc run: --profile requires --telemetry DIR",
              file=sys.stderr)
        return 2
    telemetry = None
    if args.telemetry:
        from repro.telemetry import TelemetryRecorder

        telemetry = TelemetryRecorder()
    # Model lifecycle: serve registered weights, learn online, shadow a
    # candidate (see docs/models.md).
    weights = None
    served = None
    if args.model:
        registry = _registry(args)
        served = registry.get(args.model)
        if served.policy != args.policy:
            sys.exit(
                f"dozznoc: error: model {served.fingerprint} belongs to "
                f"policy {served.policy!r}, not {args.policy!r}"
            )
        weights = served.weights_array()
    policy = make_policy(args.policy, weights=weights)
    if served is not None:
        _registry(args).check_compatible(
            served, policy.feature_set, config.epoch_cycles
        )
    online = _online_config(args)
    shadow = None
    candidate = None
    if args.shadow:
        from repro.models import ShadowScorer

        candidate = _registry(args).get(args.shadow)
        _registry(args).check_compatible(
            candidate, policy.feature_set, config.epoch_cycles
        )
        shadow = ShadowScorer(
            candidate.weights_array(), incumbent_weights=weights
        )
    from repro.telemetry.recorder import maybe_cprofile

    with maybe_cprofile(args.profile) as prof:
        result = run_simulation(config, trace, policy,
                                audit=auditor, faults=faults,
                                telemetry=telemetry, online=online,
                                shadow=shadow)
    if telemetry is not None:
        from repro.telemetry import write_series, write_summary

        label = f"{args.policy}-{trace.name}"
        series_path = write_series(args.telemetry, label, telemetry)
        summary_path, prom_path = write_summary(
            args.telemetry, label, telemetry.metrics, telemetry.meta
        )
        print(f"{'telemetry series':28s} {series_path}")
        print(f"{'telemetry summary':28s} {summary_path} / {prom_path.name}")
        if prof is not None:
            from repro.telemetry.recorder import write_profile

            raw, txt = write_profile(prof, args.telemetry, label)
            print(f"{'profile':28s} {raw} / {txt.name}")
    for key, value in sorted(result.summary().items()):
        print(f"{key:28s} {value:.6g}")
    print(f"{'drained':28s} {result.drained}")
    if served is not None:
        print(f"{'served model':28s} {served.fingerprint} "
              f"(val RMSE {served.validation_rmse:.4g})")
    if online is not None:
        print(f"{'online updates':28s} {result.stats.online_updates:d}")
        print(f"{'online divergences':28s} "
              f"{result.stats.online_divergences:d}")
        print(f"{'drift alerts':28s} {result.stats.drift_alerts:d}")
    if shadow is not None and candidate is not None:
        _print_shadow_report(shadow, candidate.fingerprint)
    if auditor is not None:
        print(f"{'audits':28s} {auditor.epoch_audits} epoch + "
              f"{auditor.end_audits} end-of-run, all invariants held")
    if not result.drained:
        print(
            "WARNING: the run did NOT drain (safety cap or horizon hit with "
            "packets in flight); metrics above measure a truncated run.",
            file=sys.stderr,
        )
    if args.map:
        from repro.experiments.heatmap import spatial_report

        print()
        print(spatial_report(result))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traffic.benchmarks import generate_benchmark_trace
    from repro.traffic.compression import compress_trace

    trace = generate_benchmark_trace(
        args.benchmark, num_cores=args.cores, duration_ns=args.duration,
        seed=args.seed,
    )
    if args.compressed:
        trace = compress_trace(trace)
    print(f"benchmark:      {trace.name}")
    print(f"entries:        {len(trace)}")
    print(f"duration:       {trace.duration_ns:.1f} ns")
    print(f"rate:           {trace.injection_rate:.5f} pkt/ns/core")
    print(f"requests:       {trace.request_fraction():.1%}")
    per_core = trace.packets_to_core()
    print(f"hottest sink:   core {int(per_core.argmax())} "
          f"({int(per_core.max())} packets)")
    if args.out:
        if args.out.endswith(".jsonl"):
            trace.save_jsonl(args.out)
        else:
            trace.save_npz(args.out)
        print(f"written to:     {args.out}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import (
        CampaignConfig,
        campaign_run_cache,
        run_campaign,
    )

    scale = _scale(args)
    if (args.model or args.shadow) and not args.registry:
        sys.exit("dozznoc: error: --model/--shadow require --registry DIR")
    models = MODEL_NAMES
    if args.models:
        # Canonical MODEL_NAMES order regardless of flag order, so the
        # task list (and every cache key and table row) is the same.
        picked = set(args.models) | {"baseline"}
        models = tuple(m for m in MODEL_NAMES if m in picked)
    campaign = CampaignConfig(
        sim=scale.sim,
        duration_ns=scale.duration_ns,
        compressed=args.compressed,
        seed=args.seed,
        models=models,
        cache_dir=scale.cache_dir,
        jobs=scale.jobs,
        audit=scale.audit,
        telemetry_dir=args.telemetry,
        registry_dir=args.registry,
        registry_models=tuple(args.model or ()),
        online=_online_config(args),
        shadow_model=args.shadow,
        promote_on_pass=args.promote_on_pass,
    )
    cache = campaign_run_cache(campaign)
    result = run_campaign(campaign, cache=cache)
    if args.summary_out:
        from repro.experiments.campaign import write_campaign_summary

        write_campaign_summary(result, args.summary_out)
    rows = [
        (
            _model_cell(row),
            f"{row['static_savings_pct']:.1f}",
            f"{row['dynamic_savings_pct']:.1f}",
            f"{row['throughput_loss_pct']:.1f}",
            f"{row['latency_increase_pct']:.1f}",
            f"{row['gated_fraction_pct']:.1f}",
        )
        for row in result.summary_rows()
    ]
    print(
        format_table(
            ("model", "static sav %", "dyn sav %", "thr loss %", "lat +%", "gated %"),
            rows,
            title=f"Campaign ({campaign.sim.topology}, "
            f"{'compressed' if args.compressed else 'uncompressed'})",
        )
    )
    if cache is not None:
        print(
            f"run cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"[{cache.cache_dir}]"
        )
    if result.resumed_tasks:
        print(
            f"resumed {result.resumed_tasks} task(s) from a previous "
            "attempt's checkpoint journal"
        )
    if args.summary_out:
        print(f"summary: {args.summary_out}")
    if args.telemetry:
        from repro.telemetry.diff import CAMPAIGN_SUMMARY
        from pathlib import Path

        print(f"telemetry: {Path(args.telemetry) / CAMPAIGN_SUMMARY}")
    if result.promotion is not None:
        verdict = "PROMOTE" if result.promotion.get("promoted") else "REJECT"
        applied = (
            " (applied to registry)"
            if result.promotion.get("promoted_in_registry") else ""
        )
        print(
            f"promotion gate: {verdict}{applied}: "
            f"{result.promotion.get('reason')}"
        )
    _warn_undrained(result)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        diff_summaries,
        dir_summary,
        format_diff,
        format_summary,
        validate_dir,
    )

    dirs = [args.dir] + ([args.dir_b] if args.dir_b else [])
    if args.check:
        rc = 0
        for d in dirs:
            errors = validate_dir(d)
            if errors:
                rc = 1
                for e in errors:
                    print(f"{d}: {e}", file=sys.stderr)
            else:
                print(f"{d}: OK")
        return rc
    if args.dir_b:
        _, a = dir_summary(args.dir)
        _, b = dir_summary(args.dir_b)
        rows = diff_summaries(a, b)
        print(format_diff(
            rows, only_changed=not args.all,
            title=f"telemetry diff: a={args.dir} b={args.dir_b}",
        ))
        return 0
    meta, metrics = dir_summary(args.dir)
    print(format_summary(meta, metrics))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.validate.fuzz import run_fuzz

    report = run_fuzz(
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        artifact_dir=args.artifact_dir,
        replay=args.replay,
        progress=(None if args.quiet else
                  (lambda line: print(line, flush=True))),
        faults=args.faults,
        online=args.online,
        backend_differential=args.differential_backend,
        fabrics=tuple(args.fabrics) if args.fabrics else None,
    )
    print(report.summary())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------- #
# dozznoc model: registry lifecycle (see docs/models.md)
# ---------------------------------------------------------------------- #


def _cmd_model_train(args: argparse.Namespace) -> int:
    from repro.ml.training import train_policy_model
    from repro.traffic.suite import build_suite

    registry = _registry(args)
    config = SimConfig.paper_mesh()
    suite = build_suite(
        num_cores=config.num_cores, duration_ns=args.duration,
        seed=args.seed, compressed=args.compressed,
    )
    result = train_policy_model(
        args.policy, suite.train, suite.validation, config
    )
    record = registry.register_training_result(
        result, config,
        train_traces=suite.train,
        validation_traces=suite.validation,
        note=args.note,
    )
    print(f"registered:     {record.fingerprint}")
    print(f"policy:         {record.policy}")
    print(f"feature set:    {record.feature_set} "
          f"(schema {record.feature_schema})")
    print(f"lambda:         {record.lam:g}")
    print(f"train RMSE:     {result.train_rmse:.5f}")
    print(f"val RMSE:       {result.validation_rmse:.5f}")
    print(f"val accuracy:   {result.validation_accuracy:.3f}")
    return 0


def _cmd_model_list(args: argparse.Namespace) -> int:
    registry = _registry(args)
    records = registry.records()
    if args.ids_only:
        for record in records:
            print(record.fingerprint)
        return 0
    if not records:
        print(f"no models registered in {args.registry}")
        return 0
    active = registry.active_map()
    rows = [
        (
            record.fingerprint,
            record.policy + (
                " *" if active.get(record.policy) == record.fingerprint
                else ""
            ),
            record.feature_set,
            f"{record.lam:g}",
            f"{record.validation_rmse:.5f}",
            f"{record.validation_accuracy:.3f}",
        )
        for record in records
    ]
    print(format_table(
        ("fingerprint", "policy", "features", "lambda", "val RMSE", "val acc"),
        rows, title=f"model registry: {args.registry} (* = active)",
    ))
    return 0


def _cmd_model_show(args: argparse.Namespace) -> int:
    registry = _registry(args)
    record = registry.get(args.model)
    active = registry.active_map().get(record.policy) == record.fingerprint
    print(f"fingerprint:    {record.fingerprint}"
          f"{'  (active)' if active else ''}")
    print(f"policy:         {record.policy}")
    print(f"feature set:    {record.feature_set} "
          f"(schema {record.feature_schema})")
    print(f"features:       {', '.join(record.feature_names)}")
    print(f"epoch cycles:   {record.epoch_cycles}")
    print(f"lambda:         {record.lam:g}")
    print(f"train RMSE:     {record.train_rmse:.5f}")
    print(f"val RMSE:       {record.validation_rmse:.5f}")
    print(f"val accuracy:   {record.validation_accuracy:.3f}")
    print(f"weights:        {list(record.weights)}")
    print(f"train traces:   {', '.join(record.train_traces) or '-'}")
    print(f"val traces:     {', '.join(record.validation_traces) or '-'}")
    if record.note:
        print(f"note:           {record.note}")
    return 0


def _cmd_model_eval(args: argparse.Namespace) -> int:
    """Shadow-evaluate a candidate against the incumbent on one run."""
    from repro.core.controller import make_policy
    from repro.models import ShadowScorer
    from repro.noc.simulator import run_simulation
    from repro.traffic.benchmarks import generate_benchmark_trace

    registry = _registry(args)
    candidate = registry.get(args.model)
    config = SimConfig.paper_mesh()
    registry.check_compatible(
        candidate, make_policy(candidate.policy).feature_set,
        config.epoch_cycles,
    )
    incumbent = None
    if args.incumbent:
        incumbent = registry.get(args.incumbent)
    else:
        incumbent = registry.active(candidate.policy)
    inc_weights = None if incumbent is None else incumbent.weights_array()
    trace = generate_benchmark_trace(
        args.benchmark, num_cores=config.num_cores,
        duration_ns=args.duration, seed=args.seed,
    )
    policy = make_policy(candidate.policy, weights=inc_weights)
    shadow = ShadowScorer(
        candidate.weights_array(), incumbent_weights=inc_weights
    )
    result = run_simulation(config, trace, policy, shadow=shadow)
    inc_label = (
        "reactive threshold policy" if incumbent is None
        else f"model {incumbent.fingerprint}"
    )
    print(f"{'benchmark':28s} {trace.name}")
    print(f"{'incumbent':28s} {inc_label}")
    print(f"{'drained':28s} {result.drained}")
    _print_shadow_report(shadow, candidate.fingerprint)
    return 0


def _cmd_model_promote(args: argparse.Namespace) -> int:
    record = _registry(args).promote(args.model)
    print(f"promoted {record.fingerprint} as the active "
          f"{record.policy!r} model")
    return 0


def _cmd_model_gc(args: argparse.Namespace) -> int:
    registry = _registry(args)
    removed = registry.gc()
    kept = registry.store.fingerprints()
    print(f"removed {len(removed)} model(s), kept {len(kept)} active")
    for fingerprint in removed:
        print(f"  - {fingerprint}")
    return 0


def _cmd_repro_all(args: argparse.Namespace) -> int:
    from repro.experiments.repro_all import ReproOptions, run_repro_all

    report = run_repro_all(
        ReproOptions(
            scale=args.scale,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            backend=args.backend,
            out_dir=args.out,
            only=args.only,
            expectations=args.expectations,
        )
    )
    return report.exit_code


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.core.controller import POLICIES
    from repro.experiments.repro_all import REPRO_EXPERIMENTS
    from repro.experiments.tables import ALL_TABLES
    from repro.traffic.benchmarks import BENCHMARKS

    print("benchmarks:", ", ".join(sorted(BENCHMARKS)))
    print("policies:  ", ", ".join(sorted(POLICIES)))
    print("tables:    ", ", ".join(sorted(ALL_TABLES)))
    print("figures:   ", "fig5, fig6, fig7, fig8, fig9")
    print("repro-all: ", ", ".join(sorted(REPRO_EXPERIMENTS)))
    return 0


def _add_model_run_flags(p: argparse.ArgumentParser) -> None:
    """Model-lifecycle flags shared by ``run`` and ``campaign``."""
    p.add_argument("--registry", default=None, metavar="DIR",
                   help="model registry directory (see 'dozznoc model')")
    p.add_argument("--online", action="store_true",
                   help="update the ML predictor online (per-epoch RLS)")
    p.add_argument("--online-lam", type=float, default=1e-2,
                   help="online ridge penalty (default 0.01)")
    p.add_argument("--forgetting", type=float, default=1.0,
                   help="online forgetting factor in (0, 1] (default 1.0)")
    p.add_argument("--warmup", type=int, default=8,
                   help="online updates before learned weights go live")
    p.add_argument("--drift-threshold", type=float, default=0.0,
                   help="feature-drift alert threshold (0 = monitor off)")
    p.add_argument("--drift-action", default="none",
                   choices=["none", "reset", "fallback"],
                   help="what a drift alert does (default: count only)")
    p.add_argument("--shadow", default=None, metavar="MODEL",
                   help="registered candidate to score in shadow "
                        "(never acted on)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="dozznoc", description="DozzNoC reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate Tables I-V").set_defaults(
        fn=_cmd_tables
    )

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument("name", choices=["fig5", "fig6", "fig7", "fig8", "fig9"])
    p_fig.add_argument("--quick", action="store_true", help="small fast profile")
    p_fig.add_argument("--duration", type=float, default=None,
                       help="trace duration in ns (default 12000; also "
                            "overrides the --quick profile's duration)")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1=serial, 0=all CPUs)")
    p_fig.add_argument("--cache-dir", default=None,
                       help="cache trained weights and simulation results")
    p_fig.add_argument("--audit", action="store_true",
                       help="run invariant audits on every simulation")
    p_fig.set_defaults(fn=_cmd_figure, cmesh=False)

    p_run = sub.add_parser("run", help="run one policy on one benchmark")
    p_run.add_argument("--policy", choices=sorted(MODEL_NAMES),
                       default="dozznoc")
    p_run.add_argument("--benchmark", choices=sorted(BENCHMARK_NAMES),
                       default="blackscholes")
    p_run.add_argument("--duration", type=float, default=12_000.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--compressed", action="store_true")
    p_run.add_argument("--topology", default=None,
                       choices=["mesh", "cmesh", "torus", "ring"],
                       help="fabric to simulate (default: mesh; torus and "
                            "ring run 64 cores at radix 8 with the bubble "
                            "buffer depth)")
    p_run.add_argument("--cmesh", action="store_true",
                       help="shorthand for --topology cmesh")
    p_run.add_argument("--switching", choices=["vct", "wormhole"],
                       default="vct")
    p_run.add_argument(
        "--backend",
        choices=["object", "array"],
        default="array",
        help=(
            "simulator kernel: 'array' (structure-of-arrays fast path, "
            "default) or 'object' (reference); bit-identical results"
        ),
    )
    p_run.add_argument("--map", action="store_true",
                       help="print per-router heatmaps")
    p_run.add_argument("--audit", action="store_true",
                       help="run invariant audits (epoch + end-of-run)")
    p_run.add_argument("--artifact-dir", default=None,
                       help="where to dump a JSON repro artifact on "
                            "audit failure")
    p_run.add_argument("--faults", action="store_true",
                       help="inject the 'moderate' deterministic fault "
                            "profile (all four fault classes)")
    p_run.add_argument("--telemetry", default=None, metavar="DIR",
                       help="capture per-epoch telemetry and write the "
                            "series/summary artifacts into DIR")
    p_run.add_argument("--model", default=None, metavar="MODEL",
                       help="serve a registered model's weights "
                            "(fingerprint or unique prefix)")
    _add_model_run_flags(p_run)
    p_run.add_argument("--profile", action="store_true",
                       help="capture a cProfile of the run into the "
                            "--telemetry directory")
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser("trace", help="generate / inspect a trace")
    p_trace.add_argument("--benchmark", choices=sorted(BENCHMARK_NAMES),
                         default="canneal")
    p_trace.add_argument("--cores", type=int, default=64)
    p_trace.add_argument("--duration", type=float, default=8_000.0)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--compressed", action="store_true")
    p_trace.add_argument("--out", default=None,
                         help="write to .npz or .jsonl")
    p_trace.set_defaults(fn=_cmd_trace)

    p_camp = sub.add_parser("campaign", help="full train-then-test evaluation")
    p_camp.add_argument("--compressed", action="store_true")
    p_camp.add_argument("--cmesh", action="store_true")
    p_camp.add_argument("--quick", action="store_true")
    p_camp.add_argument("--duration", type=float, default=None,
                        help="trace duration in ns (default 12000; also "
                             "overrides the --quick profile's duration)")
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--models", nargs="+", choices=sorted(MODEL_NAMES),
                        default=None, metavar="MODEL",
                        help="subset of models to evaluate (baseline is "
                             "always included; default: all five)")
    p_camp.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1=serial, 0=all CPUs)")
    p_camp.add_argument("--cache-dir", default=None,
                        help="cache trained weights and simulation results")
    p_camp.add_argument("--audit", action="store_true",
                        help="run invariant audits on every evaluation run")
    p_camp.add_argument("--model", action="append", default=None,
                        metavar="MODEL",
                        help="serve a registered model instead of training "
                             "its policy (repeatable)")
    _add_model_run_flags(p_camp)
    p_camp.add_argument("--promote-on-pass", action="store_true",
                        help="promote the --shadow candidate in the "
                             "registry when the gate passes")
    p_camp.add_argument("--telemetry", default=None, metavar="DIR",
                        help="write per-task telemetry plus a merged "
                             "campaign-summary into DIR")
    p_camp.add_argument("--summary-out", default=None, metavar="PATH",
                        help="write the deterministic campaign summary "
                             "artifact (byte-identical across serial and "
                             "parallel execution)")
    p_camp.set_defaults(fn=_cmd_campaign)

    p_tel = sub.add_parser(
        "telemetry",
        help="tabulate one telemetry dir, diff two, or --check schemas",
    )
    p_tel.add_argument("dir", help="telemetry directory (run or campaign)")
    p_tel.add_argument("dir_b", nargs="?", default=None,
                       help="second directory to diff against")
    p_tel.add_argument("--check", action="store_true",
                       help="validate every artifact against the schema "
                            "(exit 1 on any error)")
    p_tel.add_argument("--all", action="store_true",
                       help="when diffing, show unchanged metrics too")
    p_tel.set_defaults(fn=_cmd_telemetry)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz: random configs x traces x all policies, "
             "audits on, serial-vs-cached-vs-parallel comparison",
    )
    p_fuzz.add_argument("--trials", type=int, default=25)
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="master seed; (seed, trial) is deterministic")
    p_fuzz.add_argument("--jobs", type=int, default=2,
                        help="workers for the parallel differential leg")
    p_fuzz.add_argument("--artifact-dir", default="fuzz-artifacts",
                        help="where to write JSON repro artifacts on failure")
    p_fuzz.add_argument("--replay", type=int, default=None, metavar="TRIAL",
                        help="run only this trial index (replay a failure "
                             "artifact's seed/trial pair)")
    p_fuzz.add_argument("--faults", action="store_true",
                        help="draw a random fault-injection profile per "
                             "trial and fuzz the graceful-degradation "
                             "paths too")
    p_fuzz.add_argument("--online", action="store_true",
                        help="also draw a random online-learning config "
                             "per trial (ML policies learn per-epoch)")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
    p_fuzz.add_argument(
        "--differential-backend",
        action="store_true",
        help=(
            "re-run every clean trial on the array kernel "
            "(--backend array) and require identical metrics"
        ),
    )
    p_fuzz.add_argument(
        "--fabrics", nargs="+", default=None, metavar="FABRIC",
        choices=["mesh", "cmesh", "torus", "ring"],
        help="restrict the per-trial topology draw to these fabrics "
             "(default: all four)",
    )
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_model = sub.add_parser(
        "model",
        help="model lifecycle: train/list/show/eval/promote/gc a registry",
    )
    msub = p_model.add_subparsers(dest="model_command", required=True)

    def registry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--registry", required=True, metavar="DIR",
                       help="model registry directory")

    m_train = msub.add_parser(
        "train", help="train a policy model and register the artifact"
    )
    m_train.add_argument("--policy", choices=["lead", "dozznoc", "turbo"],
                         default="dozznoc")
    m_train.add_argument("--duration", type=float, default=12_000.0,
                         help="per-trace duration in ns for the training "
                              "suite (default 12000)")
    m_train.add_argument("--seed", type=int, default=0)
    m_train.add_argument("--compressed", action="store_true")
    m_train.add_argument("--note", default="",
                         help="free-form note stored with the artifact")
    registry_arg(m_train)
    m_train.set_defaults(fn=_cmd_model_train)

    m_list = msub.add_parser("list", help="list registered models")
    m_list.add_argument("--ids-only", action="store_true",
                        help="print bare fingerprints, one per line")
    registry_arg(m_list)
    m_list.set_defaults(fn=_cmd_model_list)

    m_show = msub.add_parser("show", help="show one model's metadata")
    m_show.add_argument("model", help="fingerprint or unique prefix")
    registry_arg(m_show)
    m_show.set_defaults(fn=_cmd_model_show)

    m_eval = msub.add_parser(
        "eval",
        help="shadow-score a candidate vs the incumbent on one benchmark",
    )
    m_eval.add_argument("model", help="candidate fingerprint or prefix")
    m_eval.add_argument("--incumbent", default=None, metavar="MODEL",
                        help="explicit incumbent (default: the active "
                             "model, else the reactive policy)")
    m_eval.add_argument("--benchmark", choices=sorted(BENCHMARK_NAMES),
                        default="canneal")
    m_eval.add_argument("--duration", type=float, default=12_000.0)
    m_eval.add_argument("--seed", type=int, default=0)
    registry_arg(m_eval)
    m_eval.set_defaults(fn=_cmd_model_eval)

    m_promote = msub.add_parser(
        "promote", help="mark a model active for its policy"
    )
    m_promote.add_argument("model", help="fingerprint or unique prefix")
    registry_arg(m_promote)
    m_promote.set_defaults(fn=_cmd_model_promote)

    m_gc = msub.add_parser(
        "gc", help="delete every non-active model artifact"
    )
    registry_arg(m_gc)
    m_gc.set_defaults(fn=_cmd_model_gc)

    p_repro = sub.add_parser(
        "repro-all",
        help="reproduce every table/figure/extension into a versioned "
             "out/ tree with an HTML report, and diff the headline "
             "numbers against committed expectations (exit 1 on drift)",
    )
    p_repro.add_argument("--scale", choices=["quick", "paper"],
                         default="quick",
                         help="evaluation scale (default: quick)")
    p_repro.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1=serial, 0=all CPUs); "
                              "never affects the emitted bytes")
    p_repro.add_argument("--cache-dir", default=None,
                         help="run cache + experiment memo; a rerun over "
                              "the same directory replays every payload")
    p_repro.add_argument(
        "--backend", choices=["object", "array"], default="array",
        help="simulator kernel for every simulation-backed experiment "
             "(default: array; both emit identical bytes)",
    )
    p_repro.add_argument("--out", default="out", metavar="DIR",
                         help="artifact root (default: out/)")
    p_repro.add_argument("--only", nargs="+", default=None, metavar="EXP",
                         help="run a subset of experiments "
                              "(see 'dozznoc list')")
    p_repro.add_argument("--expectations", default=None, metavar="PATH",
                         help="expectations file (default: the committed "
                              "tests/expectations/<scale>.json; 'none' "
                              "disables the diff)")
    p_repro.set_defaults(fn=_cmd_repro_all)

    sub.add_parser("list", help="list benchmarks/policies/experiments").set_defaults(
        fn=_cmd_list
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
