"""Evaluation profiles: the compared models and the experiment scales.

Numpy-free, so the CLI parser and a warm ``repro-all`` can read them
without importing the kernel.  Both shape experiment payloads, so this
module's source is part of the experiment memo's code version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.common.config import SimConfig

#: The five models, Figure 8 order.
MODEL_NAMES: tuple[str, ...] = ("baseline", "pg", "lead", "dozznoc", "turbo")


@dataclass(frozen=True)
class EvalScale:
    """Scale knobs for simulation-backed experiments.

    ``paper()`` approximates the paper's setup (8x8 mesh, epoch 500);
    ``quick()`` is a minutes-to-seconds profile for tests and CI.
    ``jobs`` is forwarded to the exec layer (1 = serial, <=0 = one worker
    per CPU); results are identical at any ``jobs``.
    """

    sim: SimConfig = field(default_factory=SimConfig.paper_mesh)
    duration_ns: float = 12_000.0
    seed: int = 0
    cache_dir: str | Path | None = None
    jobs: int = 1
    #: Attach invariant auditors (repro.validate) to campaign runs.
    audit: bool = False

    @classmethod
    def paper(cls, cache_dir: str | Path | None = None) -> "EvalScale":
        return cls(sim=SimConfig.paper_mesh(), duration_ns=12_000.0,
                   cache_dir=cache_dir)

    @classmethod
    def quick(cls, cache_dir: str | Path | None = None) -> "EvalScale":
        return cls(
            sim=SimConfig(topology="mesh", radix=4, epoch_cycles=150),
            duration_ns=2_500.0,
            cache_dir=cache_dir,
        )

    @classmethod
    def cmesh(cls, cache_dir: str | Path | None = None) -> "EvalScale":
        return cls(sim=SimConfig.paper_cmesh(), duration_ns=12_000.0,
                   cache_dir=cache_dir)
