"""Golden-trace fingerprints: definition, computation, LOUD regeneration.

The golden suite freezes the end-to-end summary of a small
config x trace x policy matrix into ``tests/golden/*.json``.  Any change
to the kernel, the power model, a policy, or trace generation that moves
a single number fails ``tests/test_golden_trace.py`` with a per-field
diff — silent behavioural drift cannot land.

Regenerating the fingerprints is therefore a *deliberate, reviewed* act::

    PYTHONPATH=src python -m tests.regen_golden

which rewrites every file, prints NEW / UPDATED / unchanged per case, and
reminds you to justify the diff in review.  Fingerprints are compared
with **exact** equality: JSON's ``repr``-based float serialization
round-trips ``float`` exactly, so there is no tolerance to hide behind.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.simulator import run_simulation
from repro.traffic.benchmarks import generate_benchmark_trace

#: Where the frozen fingerprints live (committed to the repo).
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Literal proactive weights for the reduced-5 feature order
#: (bias, core_sends, core_recvs, off_time, ibu).  Deliberately *not*
#: trained — training adds minutes and its own drift surface; a fixed
#: vector exercises the proactive prediction path just as well.
PROACTIVE_WEIGHTS = (0.05, 0.01, 0.01, -0.002, 0.8)

#: Shared small-but-real substrate: 4x4 mesh run to drain.
_MESH4 = {
    "topology": "mesh", "radix": 4, "concentration": 1,
    "epoch_cycles": 100,
}

#: The paper's second configuration at quick scale: a 2x2 concentrated
#: mesh with four cores per router (``repro_all.cmesh_sim("quick")``).
_CMESH2 = {
    "topology": "cmesh", "radix": 2, "concentration": 4,
    "epoch_cycles": 150,
}

#: The paper's 4x4 concentrated mesh (four cores per router, 64 cores)
#: at its own epoch, for one short run per headline policy.
_PAPER_CMESH = SimConfig.paper_cmesh()
_CMESH4 = {
    "topology": _PAPER_CMESH.topology, "radix": _PAPER_CMESH.radix,
    "concentration": _PAPER_CMESH.concentration,
    "epoch_cycles": _PAPER_CMESH.epoch_cycles,
}

#: The paper's 8x8 mesh at its 500-cycle epoch, for one short run.
_MESH8 = {
    "topology": "mesh", "radix": 8, "concentration": 1,
    "epoch_cycles": 500,
}


def golden_cases() -> list[dict]:
    """The frozen config x trace x policy matrix (one dict per case)."""
    cases: list[dict] = []

    def case(
        name: str, policy: str, benchmark: str,
        switching: str = "vct", weights: tuple | None = None,
        duration_ns: float = 600.0, seed: int = 0,
        substrate: dict = _MESH4,
    ) -> None:
        entry = {
            "id": name,
            "config": dict(substrate, switching=switching),
            "benchmark": benchmark,
            "duration_ns": duration_ns,
            "seed": seed,
            "policy": policy,
            "weights": weights,
        }
        cases.append(entry)

    # Every policy, reactive, on one trace (the mode-ladder spread).
    for policy in ("baseline", "pg", "lead", "dozznoc", "turbo"):
        case(f"mesh4-vct-blackscholes-{policy}", policy, "blackscholes")
    # The paper's two configurations: the quick cmesh under the paper's
    # three headline policies, short runs of the paper's 4x4 cmesh, and
    # one short run at the 8x8 scale.
    for policy in ("baseline", "pg", "dozznoc"):
        case(f"cmesh2-vct-blackscholes-{policy}", policy, "blackscholes",
             substrate=_CMESH2)
    for policy in ("baseline", "dozznoc"):
        case(f"cmesh4-vct-blackscholes-{policy}", policy, "blackscholes",
             substrate=_CMESH4)
    case("mesh8-vct-blackscholes-dozznoc", "dozznoc", "blackscholes",
         substrate=_MESH8)
    # A second traffic pattern, wormhole switching, and the proactive path.
    case("mesh4-vct-canneal-dozznoc", "dozznoc", "canneal")
    case("mesh4-wormhole-canneal-dozznoc", "dozznoc", "canneal",
         switching="wormhole")
    case("mesh4-vct-canneal-dozznoc-proactive", "dozznoc", "canneal",
         weights=PROACTIVE_WEIGHTS)
    return cases


def compute_fingerprint(case: dict) -> dict:
    """Run one case and reduce it to its (JSON-exact) fingerprint."""
    config = SimConfig(**case["config"])
    trace = generate_benchmark_trace(
        case["benchmark"],
        num_cores=config.num_cores,
        duration_ns=case["duration_ns"],
        seed=case["seed"],
    )
    weights = (
        None if case["weights"] is None
        else np.asarray(case["weights"], dtype=float)
    )
    result = run_simulation(
        config, trace, make_policy(case["policy"], weights=weights)
    )
    fingerprint = {
        "case": {k: v for k, v in case.items() if k != "id"},
        "drained": bool(result.drained),
        "summary": {k: result.summary()[k] for k in sorted(result.summary())},
    }
    # Normalize through JSON so in-memory and reloaded fingerprints
    # compare with plain ==.  repr-based float serialization makes this
    # lossless — equality stays exact, not approximate.
    return json.loads(json.dumps(fingerprint))


def golden_path(case_id: str) -> Path:
    return GOLDEN_DIR / f"{case_id}.json"


def main() -> int:
    bar = "!" * 72
    print(bar)
    print("!! REGENERATING GOLDEN FINGERPRINTS")
    print("!! Every rewritten file redefines expected simulator behaviour.")
    print("!! Only commit the diff if the behaviour change is intentional —")
    print("!! and justify it in the PR description.")
    print(bar)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in golden_cases():
        path = golden_path(case["id"])
        old = json.loads(path.read_text()) if path.exists() else None
        fingerprint = compute_fingerprint(case)
        path.write_text(
            json.dumps(fingerprint, indent=2, sort_keys=True) + "\n"
        )
        status = (
            "NEW" if old is None
            else "unchanged" if old == fingerprint
            else "UPDATED"
        )
        print(f"  {status:9s} {path.relative_to(GOLDEN_DIR.parent.parent)}")
    print("done: review `git diff tests/golden/` before committing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
