"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py <spec.json>

``run.py`` writes the spec and runs this script once per repetition, so
every repetition pays interpreter start-up and ``import repro.cli`` the
way a user's invocation does.  The spec gives the workload kind
(``repro-all`` or ``campaign``), its cache and output directories, jobs,
seed and trace duration, and where to write the result.  When the spec
names a spans file the repetition is traced (see ``tracing.py``) and the
spans are written there after the workload ends.

The script drives only public entry points: ``run_repro_all`` and
``run_campaign``.  It reports what it observed; ``run.py`` judges it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracing import Tracer, install_layers


def _repro_all(spec: dict) -> dict:
    from repro.experiments import repro_all
    from repro.experiments.artifact import validate_manifest

    report = repro_all.run_repro_all(
        repro_all.ReproOptions(
            scale="quick",
            jobs=spec["jobs"],
            cache_dir=spec["cache_dir"],
            out_dir=spec["out_dir"],
        ),
        log=lambda line: None,
    )
    return {
        "exit_code": report.exit_code,
        "selected": report.manifest["selected"],
        "drift": report.manifest["expectations"]["failures"],
        "problems": validate_manifest(report.manifest, report.layout),
    }


def _array_speedup(originals: dict, spec: dict, weights: dict) -> dict:
    """Object-kernel time over array-kernel time for one 8x8 replay.

    Calls the unwrapped functions, so the replay adds no spans.
    """
    from repro.common.config import SimConfig
    from repro.core.controller import make_policy
    from repro.traffic.benchmarks import TEST_BENCHMARKS

    sim = SimConfig.paper_mesh()
    trace = originals["generate_benchmark_trace"](
        TEST_BENCHMARKS[0], sim.num_cores, spec["duration_ns"], spec["seed"])
    run = originals["run_simulation"]
    out = {}
    for policy in ("baseline", "dozznoc"):
        seconds = {}
        for backend in ("array", "object"):
            start = time.perf_counter()
            run(sim.with_(backend=backend), trace,
                make_policy(policy, weights=weights.get(policy)))
            seconds[backend] = time.perf_counter() - start
        out[policy] = seconds["object"] / seconds["array"]
    return out


def _campaign(spec: dict, originals: dict | None) -> dict:
    from repro.common.config import SimConfig
    from repro.experiments import campaign

    result = campaign.run_campaign(
        campaign.CampaignConfig(
            sim=SimConfig.paper_mesh(),
            duration_ns=spec["duration_ns"],
            seed=spec["seed"],
            jobs=spec["jobs"],
        )
    )
    campaign.write_campaign_summary(
        result, Path(spec["out_dir"]) / "campaign.json")
    report = {
        "simulations": sum(len(m) for m in result.metrics.values()),
        "undrained": len(result.undrained_runs()),
    }
    if spec.get("speedup") and originals is not None:
        start = time.perf_counter()
        report["array_speedup"] = _array_speedup(
            originals, spec, result.weights)
        report["replay_s"] = time.perf_counter() - start
    return report


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer() if spec.get("spans") else None
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the user-facing entry point)

    import_s = time.perf_counter() - start
    originals = None
    if tracer is not None:
        tracer.record("process.import", import_s)
        originals = install_layers(tracer)
    if spec["kind"] == "repro-all":
        report = _repro_all(spec)
    else:
        report = _campaign(spec, originals)
    Path(spec["result"]).write_text(json.dumps(report))
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.finished_spans()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
