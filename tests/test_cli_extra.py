"""Tests for the newer CLI surfaces: trace, run --switching."""

import pytest

from repro.cli import build_parser, main
from repro.traffic.trace import Trace


class TestTraceCommand:
    def test_trace_stats(self, capsys):
        rc = main(["trace", "--benchmark", "fft", "--cores", "16",
                   "--duration", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries:" in out
        assert "rate:" in out
        assert "hottest sink:" in out

    def test_trace_writes_npz(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        rc = main(["trace", "--benchmark", "dedup", "--cores", "16",
                   "--duration", "400", "--out", str(out_file)])
        assert rc == 0
        trace = Trace.load_npz(out_file)
        assert trace.num_cores == 16
        assert len(trace) > 0

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        rc = main(["trace", "--benchmark", "lu", "--cores", "16",
                   "--duration", "300", "--out", str(out_file)])
        assert rc == 0
        trace = Trace.load_jsonl(out_file)
        assert trace.num_cores == 16

    def test_trace_compressed_is_shorter(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["trace", "--benchmark", "water", "--cores", "16",
              "--duration", "600", "--out", str(a)])
        main(["trace", "--benchmark", "water", "--cores", "16",
              "--duration", "600", "--compressed", "--out", str(b)])
        assert Trace.load_npz(b).duration_ns < Trace.load_npz(a).duration_ns

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--benchmark", "doom3"])


class TestRunExtras:
    def test_run_wormhole(self, capsys):
        rc = main(["run", "--policy", "baseline", "--benchmark", "swaptions",
                   "--duration", "300", "--switching", "wormhole"])
        assert rc == 0
        assert "packets_delivered" in capsys.readouterr().out

    def test_switching_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--switching", "circuit"])
