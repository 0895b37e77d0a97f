"""Smoke tests: every example script runs end to end (reduced scale).

Examples are documentation that executes; these tests keep them honest.
Each example module exposes ``main()``; scale constants are monkeypatched
down so the whole file runs in seconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_at_least_three_examples(self):
        assert len(ALL_EXAMPLES) >= 3

    def test_quickstart_present(self):
        assert "quickstart.py" in ALL_EXAMPLES

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_every_example_has_main_and_docstring(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), name
        assert module.__doc__ and "Run:" in module.__doc__, name


class TestExamplesRun:
    def test_quickstart(self, capsys, monkeypatch):
        module = load_example("quickstart.py")
        monkeypatch.setattr(module, "DURATION_NS", 600.0)
        module.main()
        out = capsys.readouterr().out
        assert "DozzNoC saved" in out

    def test_compare_models(self, capsys, monkeypatch):
        module = load_example("compare_models.py")
        monkeypatch.setattr(module, "DURATION_NS", 500.0)
        monkeypatch.setattr(sys, "argv", ["compare_models.py", "swaptions"])
        module.main()
        out = capsys.readouterr().out
        assert "normalized to Baseline" in out
        assert "DozzNoC (ML+DVFS+PG)" in out

    def test_regulator_study(self, capsys):
        module = load_example("regulator_study.py")
        module.main()
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "2x tau" in out

    def test_energy_proportionality(self, capsys, monkeypatch):
        module = load_example("energy_proportionality.py")
        monkeypatch.setattr(module, "DURATION_NS", 800.0)
        monkeypatch.setattr(sys, "argv", ["energy_proportionality.py",
                                          "swaptions"])
        module.main()
        out = capsys.readouterr().out
        assert "power-vs-demand correlation" in out
