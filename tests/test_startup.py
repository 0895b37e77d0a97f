"""Start-up guards: the CLI and a warm repro-all never import the kernel.

Each probe runs in a fresh interpreter, because this test process has
long since imported numpy.  The probe prints the ``repro``/``numpy``
modules it ended with; the assertions name what must be absent.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import BENCHMARK_NAMES
from repro.common.sources import _VERSIONED_MODULES, code_version

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a warm start must never load.
_KERNEL = ("numpy", "repro.noc.simulator")

_REPORT = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'numpy' or m.startswith('repro'))))"
)


def _loaded_after(code: str, cwd: Path | None = None) -> set[str]:
    """Modules loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _run_cli(argv: list[str]) -> str:
    """Code running ``python -m repro <argv>``; a nonzero exit fails it."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
    )


def test_import_cli_loads_no_kernel():
    loaded = _loaded_after("import repro.cli")
    assert "repro.cli" in loaded
    assert not loaded & set(_KERNEL), sorted(loaded & set(_KERNEL))


def test_help_loads_no_kernel():
    loaded = _loaded_after(_run_cli(["--help"]))
    assert "repro.cli" in loaded
    assert not loaded & set(_KERNEL), sorted(loaded & set(_KERNEL))


def test_cache_import_loads_no_kernel():
    """Reading a run-cache entry needs ``repro.exec.cache`` only; the
    package's re-exports of the pool must not drag the kernel in."""
    loaded = _loaded_after("import repro.exec.cache")
    assert "repro.exec.cache" in loaded
    assert "repro.exec.pool" not in loaded
    assert "repro.noc.simulator" not in loaded


def test_exec_reexports_resolve_lazily():
    loaded = _loaded_after(
        "import sys\n"
        "import repro.exec as e\n"
        "assert 'repro.exec.pool' not in sys.modules\n"
        "assert all(getattr(e, name) for name in e.__all__)"
    )
    assert "repro.exec.pool" in loaded


def test_warm_repro_all_loads_no_kernel(tmp_path):
    argv = ["repro-all", "--scale", "quick", "--only", "table1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out")]
    cold = _loaded_after(_run_cli(argv), cwd=tmp_path)
    assert "numpy" in cold, "the first run should have computed table1"
    warm = _loaded_after(_run_cli(argv), cwd=tmp_path)
    assert "repro.experiments.repro_all" in warm
    assert not warm & set(_KERNEL), sorted(warm & set(_KERNEL))
    # The warm run evaluated table1's claims from the replayed payload.
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    claims = manifest["experiments"]["table1"]["claims"]
    assert claims and all(c["holds"] is True for c in claims)


def test_code_version_matches_an_import_based_digest():
    h = hashlib.sha256()
    for name in _VERSIONED_MODULES:
        module = importlib.import_module(name)
        h.update(name.encode())
        h.update(Path(module.__file__).read_bytes())
    assert code_version() == h.hexdigest()[:16]


def test_cli_name_tables_mirror_their_registries():
    from repro.core.controller import POLICIES
    from repro.experiments import campaign, figures, profiles, runner
    from repro.experiments.repro_all import REPRO_EXPERIMENTS
    from repro.traffic.benchmarks import BENCHMARKS

    assert profiles.MODEL_NAMES == tuple(POLICIES)
    assert BENCHMARK_NAMES == tuple(BENCHMARKS)
    assert runner.MODEL_NAMES is profiles.MODEL_NAMES
    assert figures.EvalScale is profiles.EvalScale
    assert campaign.MODEL_NAMES is profiles.MODEL_NAMES
    # The registry the `list` and `repro-all --only` commands read is
    # itself numpy-free, so it needs no mirror.
    loaded = _loaded_after(
        "from repro.experiments.repro_all import REPRO_EXPERIMENTS\n"
        f"assert sorted(REPRO_EXPERIMENTS) == {sorted(REPRO_EXPERIMENTS)!r}"
    )
    assert not loaded & set(_KERNEL), sorted(loaded & set(_KERNEL))
