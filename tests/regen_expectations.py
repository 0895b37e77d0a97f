"""Regenerate the committed ``tests/expectations/<scale>.json`` files.

Run from the repo root::

    PYTHONPATH=src python -m tests.regen_expectations --scale quick

This re-executes ``repro-all`` at the requested scale with the
expectations diff disabled, then rewrites the committed file from the
fresh manifest: every float headline gets an explicit ``rel_tol``
(1e-9 by default — the golden-trace tolerance), every integer, boolean
and string is ``exact``.  Experiments listed with ``--unchecked`` are
recorded but never diffed; both committed files pin every experiment.
Paper scale takes about 4 minutes on 2 workers; ``--cache-dir`` over a
finished ``repro-all --scale paper`` run replays it from the memo.

Regenerating expectations is a **loud, reviewed act**: the diff of the
JSON file is the evidence that headline numbers moved, and the commit
message must say why.  Never regen to silence a drift you cannot
explain.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.experiments.artifact import canonical_json
from repro.experiments.repro_all import (
    SCALE_NAMES,
    ReproOptions,
    expectations_payload,
    run_repro_all,
)


def regen(
    scale: str,
    out_path: Path,
    cache_dir: str | None = None,
    jobs: int = 1,
    backend: str = "array",
    only: list[str] | None = None,
    unchecked: list[str] | None = None,
) -> Path:
    """Run repro-all and rewrite one expectations file from its manifest."""
    with tempfile.TemporaryDirectory(prefix="regen-expectations-") as tmp:
        report = run_repro_all(
            ReproOptions(
                scale=scale,
                jobs=jobs,
                cache_dir=cache_dir or str(Path(tmp) / "cache"),
                backend=backend,
                out_dir=Path(tmp) / "out",
                only=only,
                expectations="none",
            )
        )
    payload = expectations_payload(report.manifest, unchecked or ())
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(canonical_json(payload))
    return out_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate tests/expectations/<scale>.json"
    )
    parser.add_argument("--scale", choices=SCALE_NAMES, default="quick")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None,
                        help="reuse a run cache (fresh temp dir otherwise)")
    parser.add_argument("--backend", choices=["object", "array"],
                        default="array")
    parser.add_argument("--only", nargs="+", default=None, metavar="EXP",
                        help="limit the regenerated experiments")
    parser.add_argument("--unchecked", nargs="+", default=None,
                        metavar="EXP",
                        help="experiments recorded but never diffed")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: "
                             "tests/expectations/<scale>.json)")
    args = parser.parse_args(argv)
    out_path = Path(
        args.out
        or Path(__file__).resolve().parent / "expectations"
        / f"{args.scale}.json"
    )
    path = regen(
        args.scale,
        out_path,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        backend=args.backend,
        only=args.only,
        unchecked=args.unchecked,
    )
    print(f"regenerated {path}")
    print(
        "REVIEW THE DIFF: every changed value is a headline number that "
        "moved; the commit must explain why."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
