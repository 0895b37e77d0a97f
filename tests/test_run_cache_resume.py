"""Crash-safe run cache: interrupted campaigns resume from it alone.

Every evaluation run is cached, atomically, the moment it finishes.
Re-running a campaign against the same ``cache_dir`` replays completed
tasks from the cache (reported as ``resumed_tasks``) and produces the
same final table as an uninterrupted run.
"""

from repro.exec.cache import RunCache
from repro.exec.pool import SimTask, run_sim_tasks
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.common.config import SimConfig
from repro.traffic.benchmarks import generate_benchmark_trace

QUICK_SIM = SimConfig(topology="mesh", radix=3, epoch_cycles=60)


def _metrics(seed: float):
    from repro.experiments.runner import ModelMetrics

    return ModelMetrics(
        model="pg", trace="uniform", throughput_flits_per_ns=0.5,
        avg_latency_ns=9.0, static_pj=seed, dynamic_pj=2 * seed,
        gated_fraction=0.1, elapsed_ns=100.0, packets_delivered=7,
        mode_distribution={7: 1.0},
    )


class TestCachePutCrashSafety:
    def test_no_temp_residue_after_puts(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        for i in range(5):
            cache.put(f"key-{i}", _metrics(float(i + 1)))
        leftovers = [
            p for p in (tmp_path / "runs").iterdir()
            if not (p.name.startswith("run-") and p.name.endswith(".json"))
        ]
        assert leftovers == []
        assert cache.get("key-3") == _metrics(4.0)

    def test_stray_temp_file_never_served(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        cache.put("key", _metrics(1.0))
        # A crash between mkstemp and os.replace leaves an orphan temp
        # file; entries are addressed by exact name, so reads ignore it.
        (tmp_path / "runs" / ".run-orphan.tmp").write_bytes(b"garbage")
        assert cache.get("key") == _metrics(1.0)


def _campaign(tmp_path, **overrides):
    kwargs = dict(
        sim=QUICK_SIM,
        duration_ns=700.0,
        seed=3,
        models=("baseline", "pg"),
        cache_dir=tmp_path / "cache",
        jobs=1,
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


def _table(result):
    return result.summary_rows()


class TestCampaignResume:
    def test_fresh_campaign_resumes_nothing(self, tmp_path):
        result = run_campaign(_campaign(tmp_path))
        assert result.resumed_tasks == 0

    def test_rerun_resumes_every_task_with_identical_table(self, tmp_path):
        first = run_campaign(_campaign(tmp_path))
        second = run_campaign(_campaign(tmp_path))
        n_eval_tasks = len(first.metrics) * len(first.config.models)
        assert second.resumed_tasks == n_eval_tasks
        assert _table(second) == _table(first)

    def test_partial_cache_resumes_partially(self, tmp_path):
        # An "interrupted" first attempt: only a subset of the models ran
        # to completion before the campaign died.
        run_campaign(_campaign(tmp_path, models=("baseline",)))
        resumed = run_campaign(_campaign(tmp_path))
        n_traces = len(resumed.metrics)
        assert resumed.resumed_tasks == n_traces  # the baseline runs
        # And it matches a from-scratch campaign bit for bit.
        scratch = run_campaign(_campaign(tmp_path / "fresh"))
        assert _table(resumed) == _table(scratch)

    def test_resume_does_not_resimulate(self, tmp_path):
        campaign = _campaign(tmp_path)
        run_campaign(campaign)
        cache = RunCache(campaign.cache_dir / "runs")
        run_campaign(campaign, cache=cache)
        assert cache.misses == 0 and cache.hits > 0


class TestIncrementalCheckpointing:
    def test_interrupted_batch_loses_only_inflight_work(self, tmp_path):
        """Completed tasks are cached the moment they finish."""
        trace = generate_benchmark_trace(
            "blackscholes", num_cores=QUICK_SIM.num_cores, duration_ns=500.0,
            seed=0,
        )
        tasks = [
            SimTask(policy=p, trace=trace, sim=QUICK_SIM)
            for p in ("baseline", "pg")
        ]
        cache = RunCache(tmp_path / "runs")

        # Run only the first task, as an interrupted batch would have.
        run_sim_tasks(tasks[:1], jobs=1, cache=cache)
        on_disk = RunCache(tmp_path / "runs")  # counters of its own
        assert on_disk.get(tasks[0].cache_key()) is not None
        assert on_disk.get(tasks[1].cache_key()) is None

        # The "resumed" full batch replays task 0 from the cache.
        results = run_sim_tasks(tasks, jobs=1, cache=cache)
        assert cache.hits == 1 and cache.misses == 2
        assert len(results) == 2
        assert on_disk.get(tasks[1].cache_key()) == results[1]
