"""Command-line interface.

``dozznoc`` (or ``python -m repro``) exposes the library's main entry
points without writing any Python:

* ``dozznoc tables`` — regenerate Tables I-V and check their claims,
* ``dozznoc figure EXP`` — build one ``repro-all`` experiment and print
  its table and claim outcomes,
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
from repro.experiments.report import format_table

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


def _check_cache_dir(cache_dir: str | None) -> None:
    from pathlib import Path

    if cache_dir is not None and Path(cache_dir).exists() \
            and not Path(cache_dir).is_dir():
        sys.exit(f"dozznoc: error: --cache-dir {cache_dir!r} is not a directory")


def _scale(args: argparse.Namespace) -> EvalScale:
    """The campaign command's evaluation scale."""
    from dataclasses import replace

    _check_cache_dir(args.cache_dir)
    if args.quick:
        scale = EvalScale.quick()
    elif args.cmesh:
        scale = EvalScale.cmesh()
    else:
        scale = EvalScale()
    if args.duration:
        # An explicit --duration also scales the quick/cmesh profiles.
        scale = replace(scale, duration_ns=args.duration)
    return replace(scale, jobs=args.jobs, cache_dir=args.cache_dir,
                   audit=args.audit)


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


def _show_experiments(
    ids: list[str], scale: str = "paper", jobs: int = 1,
    cache_dir: str | None = None,
) -> int:
    """Print registry payload tables plus their claim outcomes.

    Exit 1 when a claim fails, as ``repro-all`` does.  A cache
    directory shares repro-all's experiment memo, so a payload that a
    ``repro-all`` over it stored replays without simulating.
    """
    from repro.experiments.artifact import ExperimentMemo
    from repro.experiments.report import claim_outcome
    from repro.experiments.repro_all import (
        ReproContext,
        entry_payload,
        evaluate_claims,
        resolve_scale,
        select_entries,
    )

    ctx = ReproContext(scale, resolve_scale(scale, cache_dir, jobs))
    memo = None if cache_dir is None else ExperimentMemo(cache_dir)
    entries = select_entries(ids)
    payloads = {e.id: entry_payload(e, ctx, memo)[0] for e in entries}
    claims = evaluate_claims(entries, payloads, scale)
    for entry in entries:
        table = payloads[entry.id]["table"]
        print()
        print(format_table(table["headers"], table["rows"],
                           title=f"{entry.id}: {entry.title}"))
        for claim in claims[entry.id]:
            print(f"  claim {claim_outcome(claim['holds'])}: {claim['text']}")
    failed = any(c["holds"] is False for cs in claims.values() for c in cs)
    return 1 if failed else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.repro_all import REPRO_EXPERIMENTS

    return _show_experiments(
        [i for i, e in REPRO_EXPERIMENTS.items() if e.kind == "table"]
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    _check_cache_dir(args.cache_dir)
    return _show_experiments([args.name], args.scale, args.jobs,
                             args.cache_dir)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.controller import make_policy
    from repro.noc.simulator import run_simulation
    from repro.traffic.benchmarks import generate_benchmark_trace
    from repro.traffic.compression import compress_trace

    topology = args.topology or ("cmesh" if args.cmesh else "mesh")
    if topology == "cmesh":
        base = SimConfig.paper_cmesh()
    else:
        base = SimConfig.paper_mesh()
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
    if args.profile and not args.telemetry:
        print("dozznoc run: --profile requires --telemetry DIR",
              file=sys.stderr)
        return 2
    telemetry = None
    if args.telemetry:
        from repro.telemetry import TelemetryRecorder

        telemetry = TelemetryRecorder()
    # No trained weights here: an ML policy runs reactively.  The
    # campaign is the train-then-test path.
    policy = make_policy(args.policy)
    from repro.telemetry.recorder import maybe_cprofile

    with maybe_cprofile(args.profile) as prof:
        result = run_simulation(config, trace, policy,
                                audit=auditor, telemetry=telemetry)
    if telemetry is not None:
        from repro.telemetry import write_series, write_summary

        label = f"{args.policy}-{trace.name}"
        series_path = write_series(args.telemetry, label, telemetry)
        summary_path = write_summary(
            args.telemetry, label, telemetry.metrics, telemetry.meta
        )
        print(f"{'telemetry series':28s} {series_path}")
        print(f"{'telemetry summary':28s} {summary_path}")
        if prof is not None:
            from repro.telemetry.recorder import write_profile

            raw, txt = write_profile(prof, args.telemetry, label)
            print(f"{'profile':28s} {raw} / {txt.name}")
    for key, value in sorted(result.summary().items()):
        print(f"{key:28s} {value:.6g}")
    print(f"{'drained':28s} {result.drained}")
    if auditor is not None:
        print(f"{'audits':28s} {auditor.epoch_audits} epoch + "
              f"{auditor.end_audits} end-of-run, all invariants held")
    if not result.drained:
        print(
            "WARNING: the run did NOT drain (safety cap or horizon hit with "
            "packets in flight); metrics above measure a truncated run.",
            file=sys.stderr,
        )
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
        print(f"resumed {result.resumed_tasks} task(s) from the run cache")
    if args.summary_out:
        print(f"summary: {args.summary_out}")
    if args.telemetry:
        from repro.telemetry.diff import CAMPAIGN_SUMMARY
        from pathlib import Path

        print(f"telemetry: {Path(args.telemetry) / CAMPAIGN_SUMMARY}")
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
        backend_differential=args.differential_backend,
    )
    print(report.summary())
    return 0 if report.ok else 1


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
    print("repro-all: ", ", ".join(sorted(REPRO_EXPERIMENTS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="dozznoc", description="DozzNoC reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "tables", help="regenerate Tables I-V and check their claims"
    ).set_defaults(
        fn=_cmd_tables
    )

    from repro.experiments.repro_all import REPRO_EXPERIMENTS, SCALE_NAMES

    p_fig = sub.add_parser(
        "figure",
        help="build one repro-all experiment; print its table and claims",
    )
    p_fig.add_argument("name", choices=sorted(REPRO_EXPERIMENTS))
    p_fig.add_argument("--scale", choices=SCALE_NAMES, default="paper",
                       help="evaluation scale (default: paper)")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1=serial, 0=all CPUs)")
    p_fig.add_argument("--cache-dir", default=None,
                       help="run cache + experiment memo, shared with "
                            "repro-all")
    p_fig.set_defaults(fn=_cmd_figure)

    p_run = sub.add_parser("run", help="run one policy on one benchmark")
    p_run.add_argument("--policy", choices=sorted(MODEL_NAMES),
                       default="dozznoc")
    p_run.add_argument("--benchmark", choices=sorted(BENCHMARK_NAMES),
                       default="blackscholes")
    p_run.add_argument("--duration", type=float, default=12_000.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--compressed", action="store_true")
    p_run.add_argument("--topology", default=None,
                       choices=["mesh", "cmesh"],
                       help="network to simulate (default: mesh; both "
                            "run the paper's 64 cores)")
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
    p_run.add_argument("--audit", action="store_true",
                       help="run invariant audits (epoch + end-of-run)")
    p_run.add_argument("--artifact-dir", default=None,
                       help="where to dump a JSON repro artifact on "
                            "audit failure")
    p_run.add_argument("--telemetry", default=None, metavar="DIR",
                       help="capture per-epoch telemetry and write the "
                            "series/summary artifacts into DIR")
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
    p_fuzz.set_defaults(fn=_cmd_fuzz)

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
             "(default: array; both give identical csv/ bytes and "
             "headlines)",
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
