"""Shared infrastructure for the two speed benches.

``bench_simulator_speed.py`` times the simulator kernel and
``bench_campaign_speed.py`` the campaign engine; each writes a
human-readable report to ``benchmarks/out/``.  The paper's tables and
figures are not benches: ``dozznoc repro-all`` builds them and checks
their claims (``docs/repro.md``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


@pytest.fixture(scope="session")
def report_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def artifact_out() -> Path:
    """The repo-root ``out/`` tree bench datapoints share with repro-all.

    Overridable with ``REPRO_BENCH_ARTIFACT_OUT`` so CI can point bench
    artifacts at the same directory a ``repro-all`` job populated.
    """
    return Path(
        os.environ.get("REPRO_BENCH_ARTIFACT_OUT", BENCH_DIR.parent / "out")
    )


def write_report(report_dir: Path, name: str, text: str) -> None:
    """Write (and echo) one bench's report."""
    path = report_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")
