"""Telemetry layer: differential bit-identity, schema, recorder, CLI.

The load-bearing guarantee is the *differential* one: attaching a
:class:`~repro.telemetry.TelemetryRecorder` must not move a single bit of
the simulation result, and running with ``telemetry=None`` must execute
no telemetry code at all (the kernel only ever holds ``None`` — there is
no disabled-recorder object to pay for).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.simulator import run_simulation
from repro.telemetry import (
    TelemetryRecorder,
    dir_summary,
    format_diff,
    diff_summaries,
    load_summary,
    validate_dir,
    write_series,
    write_summary,
)
from repro.telemetry.io import iter_series, validate_series_lines
from repro.traffic.benchmarks import generate_benchmark_trace


def _trace(benchmark="blackscholes", duration_ns=1_000.0, seed=0):
    return generate_benchmark_trace(
        benchmark, num_cores=16, duration_ns=duration_ns, seed=seed
    )


def _assert_bit_identical(a, b):
    """Two SimResults agree on every measured quantity, exactly."""
    sa, sb = a.summary(), b.summary()
    assert sa == sb
    assert a.drained == b.drained
    assert a.elapsed_ns == b.elapsed_ns
    for field in ("static_pj", "dynamic_pj", "wake_pj", "ml_pj",
                  "gated_time_ns", "powered_time_ns", "flit_hops"):
        assert np.array_equal(
            getattr(a.accountant, field), getattr(b.accountant, field)
        ), field


# ---------------------------------------------------------------------- #
# Differential: telemetry never changes results
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", ["baseline", "pg", "dozznoc", "turbo"])
def test_telemetry_off_vs_on_bit_identical(small_config, policy):
    trace = _trace()
    off = run_simulation(small_config, trace, make_policy(policy))
    on = run_simulation(
        small_config, trace, make_policy(policy),
        telemetry=TelemetryRecorder(),
    )
    _assert_bit_identical(off, on)


def test_telemetry_bit_identical_with_proactive(small_config):
    trace = _trace("canneal")
    weights = np.array([0.05, 0.01, 0.01, -0.002, 0.8])
    off = run_simulation(
        small_config, trace, make_policy("dozznoc", weights=weights),
    )
    tel = TelemetryRecorder()
    on = run_simulation(
        small_config, trace, make_policy("dozznoc", weights=weights),
        telemetry=tel,
    )
    _assert_bit_identical(off, on)
    # The proactive prediction path was actually exercised.
    assert tel.metrics.metrics["predictions_total"].value > 0


def test_disabled_run_holds_no_recorder(small_config):
    from repro.noc.simulator import Simulator

    sim = Simulator(small_config, _trace(), make_policy("baseline"))
    assert sim._telemetry is None


# ---------------------------------------------------------------------- #
# Recorder semantics
# ---------------------------------------------------------------------- #


@pytest.fixture
def recorded(small_config):
    trace = _trace("bodytrack", duration_ns=1_500.0)
    tel = TelemetryRecorder()
    result = run_simulation(
        small_config, trace, make_policy("dozznoc"), telemetry=tel
    )
    return tel, result


def test_recorder_counters_track_the_run(recorded):
    tel, result = recorded
    m = tel.metrics.metrics
    assert m["epochs_total"].value == len(tel.epoch_rows)
    assert m["epochs_total"].value > 0
    # Wake latency observations require a begin AND a completion.
    assert m["wake_latency_ticks"].count <= m["wake_events_total"].value
    assert m["wake_events_total"].value > 0
    # Mode residency: settled active + gated residency covers the run.
    residency = sum(
        m[f"mode_residency_ticks_mode{i}"].value for i in range(3, 8)
    )
    assert residency + m["gated_residency_ticks"].value > 0
    assert m["wake_events_total"].value == result.accountant.wake_events.sum()


def test_recorder_meta_and_series_rows(recorded):
    tel, result = recorded
    assert tel.meta["policy"] == "dozznoc"
    assert tel.meta["num_routers"] == 16
    assert tel.meta["drained"] == result.drained
    assert tel.meta["packets_delivered"] == result.stats.packets_delivered
    ticks = [row[0] for row in tel.epoch_rows]
    assert ticks == sorted(ticks)
    rids = {row[1] for row in tel.epoch_rows}
    assert rids <= set(range(16)) and len(rids) > 1


def test_series_capture_can_be_disabled(small_config):
    tel = TelemetryRecorder(series=False)
    run_simulation(small_config, _trace(), make_policy("dozznoc"),
                   telemetry=tel)
    assert tel.epoch_rows == []
    assert tel.metrics.metrics["epochs_total"].value > 0


# ---------------------------------------------------------------------- #
# Serialization + schema validation
# ---------------------------------------------------------------------- #


def test_artifacts_round_trip_and_validate(recorded, tmp_path):
    tel, _ = recorded
    series = write_series(tmp_path, "t", tel)
    summary = write_summary(tmp_path, "t", tel.metrics, tel.meta)
    assert validate_dir(tmp_path) == []

    header, rows = iter_series(series)
    assert header["meta"]["policy"] == "dozznoc"
    assert len([r for r in rows if r["type"] == "epoch"]) == len(tel.epoch_rows)

    meta, metrics = load_summary(summary)
    assert meta == tel.meta
    assert metrics.to_dict() == tel.metrics.to_dict()


def test_validation_catches_corruption(recorded, tmp_path):
    tel, _ = recorded
    series = write_series(tmp_path, "t", tel)
    write_summary(tmp_path, "t", tel.metrics, tel.meta)

    lines = series.read_text().splitlines()
    bad = json.loads(lines[1])
    bad["mode"] = "seven"  # type violation
    lines[1] = json.dumps(bad)
    errors = validate_series_lines(lines, where="t")
    assert any("mode" in e for e in errors)

    summary_path = tmp_path / "summary-t.json"
    payload = json.loads(summary_path.read_text())
    payload["kind"] = "something-else"
    summary_path.write_text(json.dumps(payload))
    errors = validate_dir(tmp_path)
    assert any("kind" in e for e in errors)


def test_diff_reports_changes_and_silence(recorded, tmp_path):
    tel, _ = recorded
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_summary(a, "t", tel.metrics, tel.meta)
    write_summary(b, "t", tel.metrics, tel.meta)
    _, ma = dir_summary(a)
    _, mb = dir_summary(b)
    assert format_diff(diff_summaries(ma, mb)) == \
        "telemetry diff: no differences"

    mb.metrics["epochs_total"].value += 7
    rows = diff_summaries(ma, mb)
    rendered = format_diff(rows)
    assert "epochs_total" in rendered and "7" in rendered


# ---------------------------------------------------------------------- #
# Exec-pool + CLI integration
# ---------------------------------------------------------------------- #


def test_sim_task_telemetry_dir_writes_artifacts(small_config, tmp_path):
    from repro.exec.pool import PoolHealth, SimTask, run_sim_tasks

    trace = _trace(duration_ns=600.0)
    task = SimTask(policy="pg", trace=trace, sim=small_config,
                   telemetry_dir=str(tmp_path))
    plain = SimTask(policy="pg", trace=trace, sim=small_config)
    # Telemetry is not part of the content address.
    assert task.cache_key() == plain.cache_key()

    health = PoolHealth()
    run_sim_tasks([task], jobs=1, health=health)
    assert health.tasks == 1 and health.cached == 0
    assert (tmp_path / f"series-pg-{trace.name}.jsonl").is_file()
    assert validate_dir(tmp_path) == []


def test_pool_health_counts_cache_hits(small_config, tmp_path):
    from repro.exec.cache import RunCache
    from repro.exec.pool import PoolHealth, SimTask, run_sim_tasks

    trace = _trace(duration_ns=600.0)
    tasks = [SimTask(policy=p, trace=trace, sim=small_config)
             for p in ("baseline", "pg")]
    cache = RunCache(tmp_path / "runs")
    run_sim_tasks(tasks, jobs=1, cache=cache)
    health = PoolHealth()
    again = run_sim_tasks(tasks, jobs=1, cache=cache, health=health)
    assert health.tasks == 2 and health.cached == 2
    assert len(again) == 2


def test_cli_run_and_telemetry_subcommand(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "tel"
    rc = main([
        "run", "--policy", "pg", "--benchmark", "blackscholes",
        "--duration", "400", "--telemetry", str(out),
    ])
    assert rc == 0
    assert validate_dir(out) == []

    assert main(["telemetry", str(out), "--check"]) == 0
    capsys.readouterr()
    assert main(["telemetry", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "epochs_total" in shown

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["telemetry", str(empty), "--check"]) == 1


def test_cli_profile_requires_telemetry_dir(capsys):
    from repro.cli import main

    rc = main(["run", "--policy", "pg", "--duration", "50", "--profile"])
    assert rc == 2
    assert "--telemetry" in capsys.readouterr().err


def test_profile_capture_writes_pstats(small_config, tmp_path):
    from repro.telemetry.recorder import maybe_cprofile, write_profile

    with maybe_cprofile(False) as prof:
        assert prof is None
    with maybe_cprofile(True) as prof:
        run_simulation(small_config, _trace(duration_ns=200.0),
                       make_policy("baseline"))
    raw, txt = write_profile(prof, tmp_path, "unit")
    assert raw.stat().st_size > 0
    assert "cumulative" in txt.read_text()


def test_campaign_summary_merges_tasks_and_health(small_config, tmp_path):
    """Campaign aggregate == exact merge of per-task summaries (+ pool/phase
    counters), independent of how the pool split the work."""
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.telemetry.metrics import merge_metric_sets

    campaign = CampaignConfig(
        sim=small_config,
        duration_ns=260.0,
        models=("baseline", "pg"),
        telemetry_dir=tmp_path,
        jobs=1,
    )
    result = run_campaign(campaign)
    assert validate_dir(tmp_path) == []
    meta, merged = dir_summary(tmp_path)  # picks campaign-summary.json
    assert meta["kind"] == "campaign"
    assert meta["pool"]["tasks"] == merged.metrics["pool_tasks_total"].value
    # The runs the cache served are reported once, as pool_tasks_cached.
    assert meta["pool"]["cached"] == result.resumed_tasks
    assert merged.metrics["pool_tasks_cached"].value == result.resumed_tasks
    assert "resumed_tasks" not in meta
    assert not [n for n in merged.metrics if "resumed" in n]

    task_sets = [
        load_summary(p)[1] for p in sorted(tmp_path.glob("summary-*.json"))
    ]
    assert task_sets, "campaign wrote no per-task summaries"
    refold = merge_metric_sets(task_sets)
    for name, metric in refold.metrics.items():
        assert merged.metrics[name].to_dict() == metric.to_dict(), name
