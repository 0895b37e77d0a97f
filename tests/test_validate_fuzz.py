"""Differential fuzz harness: determinism, clean runs, replay, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.traffic.trace import trace_fingerprint
from repro.validate import build_trial, run_fuzz


class TestBuildTrial:
    def test_deterministic(self):
        a = build_trial(7, 3)
        b = build_trial(7, 3)
        assert a.config == b.config
        assert trace_fingerprint(a.trace) == trace_fingerprint(b.trace)
        if a.weights is None:
            assert b.weights is None
        else:
            assert (a.weights == b.weights).all()

    def test_distinct_across_indices_and_seeds(self):
        prints = {
            (seed, idx): trace_fingerprint(build_trial(seed, idx).trace)
            for seed in (0, 1)
            for idx in range(4)
        }
        assert len(set(prints.values())) == len(prints)

    def test_configs_are_runnable_shapes(self):
        for idx in range(12):
            trial = build_trial(0, idx)
            cfg = trial.config
            assert cfg.buffer_depth >= max(
                cfg.request_flits, cfg.response_flits
            )
            assert trial.trace.num_cores == cfg.num_cores
            assert cfg.seed == idx

    def test_weights_only_for_ml_policies(self):
        trial = build_trial(0, 0)
        assert trial.weights_for("baseline") is None
        assert trial.weights_for("pg") is None
        for policy in ("lead", "dozznoc", "turbo"):
            w = trial.weights_for(policy)
            assert w is None or isinstance(w, np.ndarray)


class TestRunFuzz:
    def test_small_session_is_clean(self, tmp_path):
        report = run_fuzz(
            trials=2, seed=0, jobs=1, artifact_dir=tmp_path
        )
        assert report.ok
        assert report.failures == []
        assert report.trials_run == 2
        assert report.runs >= 2 * 5  # five policies per trial, serial leg
        assert report.epoch_audits > 0
        assert "0 failure(s)" in report.summary()
        assert not list(tmp_path.glob("*.json"))  # no artifacts when clean

    def test_replay_runs_single_trial(self, tmp_path):
        full = run_fuzz(trials=1, seed=0, jobs=1, artifact_dir=tmp_path)
        replayed = run_fuzz(
            trials=5, seed=0, jobs=1, artifact_dir=tmp_path, replay=0
        )
        assert replayed.trials_run == 1
        assert replayed.ok
        assert replayed.runs == full.runs
        assert replayed.epoch_audits == full.epoch_audits

    def test_progress_callback_sees_each_trial(self, tmp_path):
        lines: list[str] = []
        run_fuzz(
            trials=2,
            seed=1,
            jobs=1,
            artifact_dir=tmp_path,
            progress=lines.append,
        )
        assert sum("trial 0" in line for line in lines) >= 1
        assert sum("trial 1" in line for line in lines) >= 1


class TestFuzzCli:
    def test_cli_exit_zero_on_clean(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--trials", "1",
                "--seed", "0",
                "--jobs", "1",
                "--artifact-dir", str(tmp_path),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_cli_rejects_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--no-such-flag"])
