"""End-to-end tests for ``dozznoc repro-all``.

One session-scoped fixture pays for a full quick-scale run; every
layout/validation/expectations assertion reads from it.  The
resume/determinism tests rerun over the same cache directory (must be
fully memoized and byte-identical) and compare ``--jobs 1`` against
``--jobs 4`` on fresh caches.  The perturbation sentinel mirrors
``tests/golden``: a 1e-6 static-power skew must flip the exit code.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.artifact import validate_manifest
from repro.experiments.repro_all import (
    REPRO_EXPERIMENTS,
    EXPECTATIONS_SCHEMA,
    ReproContext,
    ReproOptions,
    diff_expectations,
    evaluate_claims,
    expectations_payload,
    resolve_scale,
    run_repro_all,
    select_entries,
)


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    """One full quick-scale run in a fresh cache dir (the expensive run)."""
    base = tmp_path_factory.mktemp("repro-all-e2e")
    options = ReproOptions(
        scale="quick", jobs=2, cache_dir=base / "cache",
        out_dir=base / "out",
    )
    report = run_repro_all(options, log=lambda line: None)
    return base, options, report


class TestEndToEnd:
    def test_exit_clean(self, e2e):
        _, _, report = e2e
        assert report.exit_code == 0
        assert report.manifest["expectations"]["status"] == "clean"
        assert report.manifest["expectations"]["failures"] == []
        assert report.manifest["expectations"]["source"] == "quick.json"
        assert report.manifest["expectations"]["checked"] > 100
        claims = {
            (exp_id, c["text"]): c["holds"]
            for exp_id, entry in report.manifest["experiments"].items()
            for c in entry["claims"]
        }
        assert len(claims) > 50
        # The 4x4 quick mesh never leaves M3, so fig7's load-dependent
        # claim applies at paper scale only; every other claim holds.
        skipped = [k for k, v in claims.items() if v == "skipped"]
        assert [exp_id for exp_id, _ in skipped] == ["fig7"]
        assert all(v is True for k, v in claims.items() if k not in skipped)

    def test_out_layout(self, e2e):
        base, _, report = e2e
        out = base / "out"
        assert (out / "manifest.json").is_file()
        assert (out / "report.html").is_file()
        for exp_id in REPRO_EXPERIMENTS:
            assert (out / "raw" / f"{exp_id}.json").is_file()
            assert (out / "csv" / f"{exp_id}.csv").is_file()
        assert sorted(report.manifest["experiments"]) == sorted(
            REPRO_EXPERIMENTS
        )

    def test_manifest_schema_validates(self, e2e):
        _, _, report = e2e
        assert validate_manifest(report.manifest, report.layout) == []

    def test_manifest_on_disk_round_trips(self, e2e):
        base, _, report = e2e
        on_disk = json.loads((base / "out" / "manifest.json").read_text())
        assert on_disk == report.manifest

    def test_raw_payloads_carry_headlines(self, e2e):
        base, _, _ = e2e
        for exp_id in REPRO_EXPERIMENTS:
            raw = json.loads(
                (base / "out" / "raw" / f"{exp_id}.json").read_text()
            )
            assert raw["kind"] == "repro-experiment"
            assert raw["id"] == exp_id
            assert isinstance(raw["payload"]["headlines"], dict)
            assert raw["payload"]["headlines"]

    def test_no_environment_leakage(self, e2e):
        """Nothing host- or run-specific may reach the emitted bytes."""
        base, options, _ = e2e
        for name in ("manifest.json", "report.html"):
            text = (base / "out" / name).read_text()
            assert str(base) not in text  # no absolute paths
            assert str(options.cache_dir) not in text
            assert "jobs" not in json.loads(
                (base / "out" / "manifest.json").read_text()
            )


class TestResumeDeterminism:
    def test_rerun_fully_cached_and_byte_identical(self, e2e, tmp_path):
        base, options, first = e2e
        rerun = run_repro_all(
            ReproOptions(
                scale="quick", jobs=2, cache_dir=options.cache_dir,
                out_dir=tmp_path / "out",
            ),
            log=lambda line: None,
        )
        assert rerun.exit_code == 0
        assert rerun.computed == ()
        assert sorted(rerun.cached) == sorted(REPRO_EXPERIMENTS)
        assert _tree(tmp_path / "out") == _tree(base / "out")

    def test_jobs_do_not_change_bytes(self, tmp_path):
        """--jobs 4 over a fresh cache matches --jobs 1 byte-for-byte."""
        trees = []
        for jobs in (1, 4):
            d = tmp_path / f"jobs{jobs}"
            report = run_repro_all(
                ReproOptions(
                    scale="quick", jobs=jobs, cache_dir=d / "cache",
                    out_dir=d / "out", only=("tidle", "buffers"),
                ),
                log=lambda line: None,
            )
            assert report.exit_code == 0
            trees.append(_tree(d / "out"))
        assert trees[0] == trees[1]

    def test_edit_loop_rerun_generates_no_trace_and_runs_no_kernel(
        self, tmp_path, monkeypatch
    ):
        """Over a filled run cache minus the memo, as after editing a
        builder, the suites and the telemetry run are cache reads."""
        import repro.exec.pool as pool
        import repro.noc.simulator as simulator
        import repro.traffic.suite as suite_mod

        monkeypatch.setattr(suite_mod, "_MEMO", {})

        def run(out: str):
            return run_repro_all(
                ReproOptions(
                    scale="quick", jobs=1, cache_dir=tmp_path / "cache",
                    out_dir=tmp_path / out, only=("telemetry", "tidle"),
                ),
                log=lambda line: None,
            )

        assert run("out-first").exit_code == 0
        shutil.rmtree(tmp_path / "cache" / "experiments")
        suite_mod._MEMO.clear()

        def forbidden(*args, **kwargs):
            raise AssertionError("the edit-loop rerun left the caches")

        monkeypatch.setattr(suite_mod, "generate_benchmark_trace", forbidden)
        monkeypatch.setattr(simulator, "run_simulation", forbidden)
        monkeypatch.setattr(pool, "run_simulation", forbidden)
        rerun = run("out")
        assert rerun.exit_code == 0
        assert sorted(rerun.computed) == ["telemetry", "tidle"]
        assert _tree(tmp_path / "out") == _tree(tmp_path / "out-first")


class TestPerturbationSentinel:
    def test_power_model_skew_flips_exit_code(self, tmp_path, monkeypatch):
        """A 1e-6 static-power skew must register as expectation drift.

        Mirrors the ``tests/golden`` sentinel: patch the accounting
        module's binding and rerun in a *fresh* cache dir at ``--jobs 1``
        (the patch neither survives a cache hit nor crosses a process
        boundary).
        """
        import repro.power.accounting as accounting

        original = accounting.static_power_w
        monkeypatch.setattr(
            accounting, "static_power_w",
            lambda v, *a, **k: original(v, *a, **k) * (1 + 1e-6),
        )
        report = run_repro_all(
            ReproOptions(
                scale="quick", jobs=1, cache_dir=tmp_path / "cache",
                out_dir=tmp_path / "out", only=("tidle",),
            ),
            log=lambda line: None,
        )
        assert report.exit_code == 1
        assert report.manifest["expectations"]["status"] == "drift"
        drifted = {
            f["headline"]
            for f in report.manifest["expectations"]["failures"]
        }
        assert "baseline_static_pj" in drifted


class TestRegistryAndSelection:
    def test_covers_every_registry_experiment(self):
        """repro-all covers every experiment the retired per-experiment
        benches ran, paper artifacts and extensions."""
        bench_ids = {
            "table1", "table2", "table3", "table4", "table5",
            "fig5", "fig6", "fig7", "fig8", "fig9",
            "cmesh", "epoch_sweep", "feature_ablation",
            "tidle", "buffers", "ladder",
        }
        assert bench_ids <= set(REPRO_EXPERIMENTS)

    def test_every_paper_artifact_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5",
            "fig5", "fig6", "fig7", "fig8", "fig9",
            "cmesh", "epoch_sweep", "feature_ablation",
        }
        assert expected <= set(REPRO_EXPERIMENTS)

    def test_extensions_marked(self):
        for exp_id in ("tidle", "buffers", "ladder"):
            assert REPRO_EXPERIMENTS[exp_id].kind == "extension"

    def test_selection_is_sorted_and_validated(self):
        entries = select_entries(["tidle", "fig5", "tidle"])
        assert [e.id for e in entries] == ["fig5", "tidle"]
        assert len(select_entries(None)) == len(REPRO_EXPERIMENTS)
        with pytest.raises(KeyError, match="nope"):
            select_entries(["nope"])

    def test_cli_wiring(self, tmp_path, capsys):
        rc = main([
            "repro-all", "--only", "table1", "--out",
            str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "report.html").is_file()
        out = capsys.readouterr().out
        assert "table1: computed" in out
        assert "expectations clean" in out


class TestExpectationsDiff:
    def _manifest(self, headlines):
        return {"scale": "quick", "experiments": {
            "exp": {"headlines": headlines}
        }}

    def _expected(self, specs, unchecked=()):
        return {
            "schema": EXPECTATIONS_SCHEMA, "scale": "quick",
            "unchecked": list(unchecked), "experiments": {"exp": specs},
        }

    def test_clean_within_tolerance(self):
        got = {"exp": {"headlines": {"x": 1.0 + 1e-12, "n": 3}}}
        expected = self._expected({
            "x": {"value": 1.0, "rel_tol": 1e-9},
            "n": {"value": 3, "exact": True},
        })
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "clean"
        assert diff["checked"] == 2

    def test_drift_beyond_tolerance(self):
        got = {"exp": {"headlines": {"x": 1.0 + 1e-6}}}
        expected = self._expected({"x": {"value": 1.0, "rel_tol": 1e-9}})
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "drift"
        assert diff["failures"][0]["headline"] == "x"

    def test_exact_means_exact(self):
        got = {"exp": {"headlines": {"n": 4}}}
        expected = self._expected({"n": {"value": 3, "exact": True}})
        assert diff_expectations(expected, "t.json", got, "quick")[
            "status"] == "drift"

    def test_uncovered_headline_is_drift_both_ways(self):
        got = {"exp": {"headlines": {"a": 1, "b": 2}}}
        expected = self._expected({"a": {"value": 1, "exact": True},
                                   "c": {"value": 9, "exact": True}})
        diff = diff_expectations(expected, "t.json", got, "quick")
        problems = {(f["headline"]) for f in diff["failures"]}
        assert problems == {"b", "c"}

    def test_experiment_without_spec_is_drift(self):
        got = {"exp": {"headlines": {"a": 1}}}
        expected = {"schema": EXPECTATIONS_SCHEMA, "scale": "quick",
                    "unchecked": [], "experiments": {}}
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "drift"

    def test_unchecked_experiments_are_skipped(self):
        got = {"exp": {"headlines": {"a": 1}}}
        expected = {"schema": EXPECTATIONS_SCHEMA, "scale": "quick",
                    "unchecked": ["exp"], "experiments": {}}
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "clean"
        assert diff["unchecked"] == ["exp"]

    def test_scale_and_schema_mismatch(self):
        got = {"exp": {"headlines": {}}}
        expected = {"schema": 99, "scale": "paper", "unchecked": ["exp"],
                    "experiments": {}}
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "drift"
        assert len(diff["failures"]) == 2

    def test_missing_file_skips(self):
        diff = diff_expectations(None, "none", {"exp": {"headlines": {}}},
                                 "quick")
        assert diff["status"] == "skipped"
        assert diff["unchecked"] == ["exp"]

    def test_regen_round_trip_is_clean(self):
        """expectations_payload(manifest) always diffs clean vs itself."""
        manifest = {
            "scale": "quick",
            "experiments": {
                "exp": {"headlines": {"x": 0.25, "n": 3, "ok": True,
                                      "name": "canneal"}},
                "other": {"headlines": {"y": -1.5}},
            },
        }
        payload = expectations_payload(manifest, unchecked=("other",))
        assert payload["experiments"]["exp"]["x"] == {
            "value": 0.25, "rel_tol": 1e-9
        }
        assert payload["experiments"]["exp"]["n"] == {
            "value": 3, "exact": True
        }
        assert payload["experiments"]["exp"]["ok"] == {
            "value": True, "exact": True
        }
        diff = diff_expectations(
            payload, "t.json", manifest["experiments"], "quick"
        )
        assert diff["status"] == "clean"


def _raw_payload(e2e, exp_id: str) -> dict:
    base, _, _ = e2e
    raw = json.loads((base / "out" / "raw" / f"{exp_id}.json").read_text())
    return raw["payload"]


def _outcomes(exp_id: str, payloads: dict, scale: str = "quick") -> dict:
    entries = [REPRO_EXPERIMENTS[exp_id]]
    return {
        c["text"]: c["holds"]
        for c in evaluate_claims(entries, payloads, scale)[exp_id]
    }


def _swap_static_savings(payload: dict) -> dict:
    """fig8 with DozzNoC's and LEAD's uncompressed static savings
    swapped; headlines untouched."""
    doctored = copy.deepcopy(payload)
    headers = doctored["table"]["headers"]
    col = headers.index("static_savings_pct")
    rows = {
        row[1]: row for row in doctored["table"]["rows"]
        if row[0] == "uncompressed"
    }
    rows["dozznoc"][col], rows["lead"][col] = (
        rows["lead"][col], rows["dozznoc"][col]
    )
    return doctored


class TestClaims:
    def test_every_entry_but_telemetry_declares_a_claim(self):
        for exp_id, entry in REPRO_EXPERIMENTS.items():
            if exp_id == "telemetry":
                assert entry.claims == ()
            else:
                assert entry.claims, exp_id
            for claim in entry.claims:
                assert set(claim.needs) <= set(REPRO_EXPERIMENTS)

    def test_fig8_claim_bites_when_lead_outsaves_dozznoc(self, e2e):
        payload = _raw_payload(e2e, "fig8")
        text = "DozzNoC saves at least 5 points more static energy than LEAD"
        assert _outcomes("fig8", {"fig8": payload})[text] is True
        doctored = _swap_static_savings(payload)
        assert _outcomes("fig8", {"fig8": doctored})[text] is False

    def test_fig9_claim_bites_when_ibu_is_weakest(self, e2e):
        payload = _raw_payload(e2e, "fig9")
        text = "IBU is the strongest single feature"
        assert _outcomes("fig9", {"fig9": payload})[text] is True
        doctored = copy.deepcopy(payload)
        heads = doctored["headlines"]
        heads["accuracy_ibu"] = min(heads.values()) - 0.01
        assert _outcomes("fig9", {"fig9": doctored})[text] is False

    def test_cross_experiment_claim_needs_both_payloads(self, e2e):
        text = ("DozzNoC saves more static energy on the mesh than on the "
                "cmesh (paper: 53% vs 39%)")
        cmesh = {"cmesh": _raw_payload(e2e, "cmesh")}
        assert _outcomes("cmesh", cmesh)[text] == "skipped"
        both = {**cmesh, "fig8": _raw_payload(e2e, "fig8")}
        assert _outcomes("cmesh", both)[text] is True

    def test_paper_only_claim_applies_at_paper_scale(self, e2e):
        payloads = {"fig7": _raw_payload(e2e, "fig7")}
        text = ("DozzNoC spends over 5% of its epochs in M4-M7 on some "
                "benchmark")
        assert _outcomes("fig7", payloads)[text] == "skipped"
        assert _outcomes("fig7", payloads, "paper")[text] is False

    def test_failed_claim_exits_1_with_clean_expectations(
        self, e2e, tmp_path, monkeypatch
    ):
        doctored = _swap_static_savings(_raw_payload(e2e, "fig8"))
        entry = REPRO_EXPERIMENTS["fig8"]
        monkeypatch.setitem(
            REPRO_EXPERIMENTS, "fig8",
            dataclasses.replace(entry, build=lambda ctx: doctored),
        )
        lines: list[str] = []
        report = run_repro_all(
            ReproOptions(scale="quick", out_dir=tmp_path / "out",
                         only=("fig8",)),
            log=lines.append,
        )
        assert report.manifest["expectations"]["status"] == "clean"
        assert report.exit_code == 1
        failed = [c["text"] for c in
                  report.manifest["experiments"]["fig8"]["claims"]
                  if c["holds"] is False]
        assert ("DozzNoC saves at least 5 points more static energy than "
                "LEAD") in failed
        assert any("CLAIM FAILED fig8" in line for line in lines)
        assert "FAILS" in (tmp_path / "out" / "report.html").read_text()


def test_telemetry_entry_is_keyed_by_its_sim_task(tmp_path):
    """The telemetry counters' cache key derives from the run's own
    SimTask key, so one rule decides which inputs split a run key."""
    from repro.exec.cache import telemetry_key
    from repro.exec.pool import SimTask
    from repro.traffic.suite import suite_for

    ctx = ReproContext("quick", resolve_scale("quick", cache_dir=tmp_path))
    REPRO_EXPERIMENTS["telemetry"].build(ctx)
    trace = suite_for(ctx.scale).test[0]
    key = telemetry_key(SimTask("dozznoc", trace, ctx.scale.sim).cache_key())
    assert ctx.run_cache().get(key, "telemetry") is not None
