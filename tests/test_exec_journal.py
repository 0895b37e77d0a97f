"""Checkpoint journal + crash-safe cache: interrupted campaigns resume.

The journal is an append-only JSONL record of completed evaluation tasks,
fsynced per entry, tolerant of a torn final line. Re-running a campaign
against the same ``cache_dir`` replays completed tasks from the cache
(reported as ``resumed_tasks``) and produces the same final table as an
uninterrupted run.
"""

import dataclasses
import json
import os

from repro.exec.cache import RunCache
from repro.exec.journal import CampaignJournal
from repro.exec.pool import SimTask, run_sim_tasks
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.common.config import SimConfig
from repro.traffic.benchmarks import generate_benchmark_trace

QUICK_SIM = SimConfig(topology="mesh", radix=3, epoch_cycles=60)


class TestCampaignJournal:
    def test_mark_done_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as j:
            assert len(j) == 0 and not j.done("k1")
            j.mark("k1")
            j.mark("k2", cached=True)
            assert j.done("k1") and "k2" in j
            assert len(j) == 2

        reloaded = CampaignJournal(path)
        assert reloaded.done("k1") and reloaded.done("k2")
        assert len(reloaded) == 2

    def test_mark_is_idempotent_on_disk(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as j:
            for _ in range(5):
                j.mark("same-key")
        assert len(path.read_text().splitlines()) == 1
        assert len(CampaignJournal(path)) == 1

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as j:
            j.mark("good-1")
            j.mark("good-2")
        # Simulate a crash mid-append: a torn, non-JSON final line.
        with open(path, "a") as fh:
            fh.write('{"key": "torn-en')
        j = CampaignJournal(path)
        assert j.done("good-1") and j.done("good-2")
        assert not j.done("torn-en")
        # The journal stays appendable after recovery.
        with j:
            j.mark("good-3")
        assert CampaignJournal(path).done("good-3")

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        j = CampaignJournal(tmp_path / "absent.jsonl")
        assert len(j) == 0

    def test_lease_records_are_not_completed_work(self, tmp_path):
        # Journals left by older multi-worker campaigns also hold lease
        # records.  Those carry a "key" too (the task being worked on),
        # but only done records count, so such a journal still resumes
        # with the right count.
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as j:
            j.mark("done-task")
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "lease": "claim", "key": "leased-task", "wid": "a:1:x",
                "worker": "a", "seq": 1, "token": 1, "deadline": 10.0,
                "t": 0.0,
            }) + "\n")
        reloaded = CampaignJournal(path)
        assert reloaded.done("done-task")
        assert not reloaded.done("leased-task")
        assert len(reloaded) == 1


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

    def test_partial_journal_resumes_partially(self, tmp_path):
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

    def test_journal_written_next_to_cache(self, tmp_path):
        campaign = _campaign(tmp_path)
        run_campaign(campaign)
        journal_path = campaign.cache_dir / "journal.jsonl"
        assert journal_path.exists()
        entries = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        assert all("key" in e for e in entries)
        assert len(entries) > 0


class TestIncrementalCheckpointing:
    def test_interrupted_batch_loses_only_inflight_work(self, tmp_path):
        """Completed tasks are cached/journalled the moment they finish."""
        trace = generate_benchmark_trace(
            "blackscholes", num_cores=QUICK_SIM.num_cores, duration_ns=500.0,
            seed=0,
        )
        tasks = [
            SimTask(policy=p, trace=trace, sim=QUICK_SIM)
            for p in ("baseline", "pg")
        ]
        cache = RunCache(tmp_path / "runs")
        journal = CampaignJournal(tmp_path / "journal.jsonl")

        # Run only the first task, as an interrupted batch would have.
        with journal:
            run_sim_tasks(tasks[:1], jobs=1, cache=cache, journal=journal)
        assert len(CampaignJournal(tmp_path / "journal.jsonl")) == 1

        # The "resumed" full batch replays task 0 from the cache.
        journal2 = CampaignJournal(tmp_path / "journal.jsonl")
        with journal2:
            results = run_sim_tasks(
                tasks, jobs=1, cache=cache, journal=journal2
            )
        assert cache.hits == 1 and cache.misses == 2
        assert len(results) == 2
        assert journal2.done(tasks[0].cache_key())
        assert journal2.done(tasks[1].cache_key())
