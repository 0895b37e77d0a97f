"""Randomized differential fuzzing of the simulation kernel.

Each *trial* draws a small random configuration (a mesh or a cmesh,
plus buffer depths, packet lengths, epoch size, switching mode, optional
horizon) and a random trace, then runs **all five policies** three ways:

1. **serial** — a direct :class:`~repro.noc.simulator.Simulator` run with
   a full :class:`~repro.validate.invariants.InvariantAuditor` attached,
2. **cached** — the same run through :func:`repro.exec.pool.run_sim_tasks`
   with a :class:`~repro.exec.cache.RunCache`, twice: the first pass
   exercises the miss-compute-store path, the second the hit path (so the
   serializer round-trip is part of the differential),
3. **parallel** — all trials' tasks fanned over a process pool at the end.

With ``--differential-backend`` a fourth leg re-runs every clean serial
task on the structure-of-arrays kernel (``backend="array"``,
:mod:`repro.noc.array_sim`) with its own auditor attached and demands
``ModelMetrics`` equality against the object-kernel run — the randomized
proof that the two kernels are bit-identical, across all five policies
and both switching modes.

Every leg must produce *identical* :class:`ModelMetrics`; any divergence,
and any invariant violation, is recorded as a failure with a JSON repro
artifact.  Trials are deterministic: trial ``i`` under ``--seed s`` always
draws the same configuration and trace (``np.random.default_rng((s, i))``),
so a failure artifact's ``(seed, trial)`` pair replays exactly via
``dozznoc fuzz --seed s --replay i``.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.common.config import SimConfig
from repro.common.errors import AuditError
from repro.core.controller import make_policy
from repro.core.features import REDUCED_FEATURES
from repro.exec.cache import RunCache
from repro.exec.pool import SimTask, run_sim_tasks
from repro.experiments.runner import MODEL_NAMES, ModelMetrics
from repro.noc.simulator import Simulator
from repro.traffic.trace import KIND_REQUEST, KIND_RESPONSE, Trace
from repro.validate.invariants import InvariantAuditor, write_artifact

#: Policies without trained weights; ML policies run reactive or, when the
#: trial draws weights, proactive.
ML_POLICIES = ("lead", "dozznoc", "turbo")


@dataclass(frozen=True)
class FuzzTrial:
    """One deterministic fuzz case: config, trace, optional weights."""

    index: int
    master_seed: int
    config: SimConfig
    trace: Trace
    weights: np.ndarray | None  # shared by the ML policies when not None

    def weights_for(self, policy: str) -> np.ndarray | None:
        return self.weights if policy in ML_POLICIES else None


@dataclass(frozen=True)
class FuzzFailure:
    """One recorded fuzz failure (invariant violation or leg mismatch)."""

    trial: int
    policy: str
    kind: str  # "invariant" | "differential-cached" | "differential-parallel"
    #          | "differential-backend"
    message: str
    artifact_path: str | None


@dataclass
class FuzzReport:
    """Outcome of one fuzz session."""

    master_seed: int
    trials_run: int
    runs: int
    epoch_audits: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.trials_run} trial(s), {self.runs} audited run(s), "
            f"{self.epoch_audits} epoch audit(s), "
            f"{len(self.failures)} failure(s)  [seed {self.master_seed}]"
        ]
        for f in self.failures:
            where = f"  -> {f.artifact_path}" if f.artifact_path else ""
            lines.append(
                f"  FAIL trial {f.trial} policy {f.policy} [{f.kind}]: "
                f"{f.message}{where}"
            )
        return "\n".join(lines)


def build_trial(master_seed: int, index: int) -> FuzzTrial:
    """Draw trial ``index``'s configuration and trace, deterministically."""
    rng = np.random.default_rng((master_seed, index))
    if rng.random() < 0.25:
        topology, radix, concentration = "cmesh", 2, 4
    else:
        topology, radix, concentration = "mesh", int(rng.integers(2, 5)), 1
    request_flits = int(rng.integers(1, 3))
    response_flits = int(rng.integers(2, 6))
    longest = max(request_flits, response_flits)
    config = SimConfig(
        topology=topology,
        radix=radix,
        concentration=concentration,
        buffer_depth=longest + int(rng.integers(0, 5)),
        request_flits=request_flits,
        response_flits=response_flits,
        epoch_cycles=int(rng.integers(20, 150)),
        t_idle=int(rng.integers(1, 7)),
        switching=str(rng.choice(["vct", "wormhole"])),
        horizon_ns=None,
        seed=index,
    )
    n_cores = config.num_cores
    n_entries = int(rng.integers(5, 120))
    mean_gap = float(rng.uniform(1.0, 40.0))
    t = 0.0
    entries = []
    for _ in range(n_entries):
        t += float(rng.exponential(mean_gap))
        src = int(rng.integers(0, n_cores))
        dst = int(rng.integers(0, n_cores - 1))
        if dst >= src:
            dst += 1
        kind = KIND_RESPONSE if rng.random() < 0.5 else KIND_REQUEST
        entries.append((src, dst, kind, t))
    if rng.random() < 0.2:
        config = config.with_(horizon_ns=float(t * rng.uniform(0.3, 1.2)))
    trace = Trace.from_entries(
        entries, n_cores, name=f"fuzz-{master_seed}-{index}"
    )
    weights = None
    if rng.random() < 0.5:
        weights = rng.normal(0.0, 0.4, size=len(REDUCED_FEATURES))
        weights[0] = abs(weights[0])  # bias toward plausible utilizations
    return FuzzTrial(
        index=index,
        master_seed=master_seed,
        config=config,
        trace=trace,
        weights=weights,
    )


def _metrics_diff(a: ModelMetrics, b: ModelMetrics) -> str:
    """Human-readable field-level diff of two metric records."""
    deltas = []
    for f in dataclasses.fields(ModelMetrics):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            deltas.append(f"{f.name}: {va!r} != {vb!r}")
    return "; ".join(deltas) or "(no field difference?)"


def run_fuzz(
    trials: int,
    seed: int = 0,
    jobs: int = 2,
    artifact_dir: str | Path | None = None,
    replay: int | None = None,
    progress: Callable[[str], None] | None = None,
    backend_differential: bool = False,
) -> FuzzReport:
    """Run a fuzz session and return its report.

    Parameters
    ----------
    trials:
        Number of trials (trial indices ``0..trials-1``).
    seed:
        Master seed; the same ``(seed, trials)`` pair is fully
        deterministic.
    jobs:
        Worker count for the parallel differential leg (1 degenerates to a
        serial re-run, still a valid determinism check).
    artifact_dir:
        Where to write one JSON repro artifact per failure.
    replay:
        Run only this trial index (for replaying a failure artifact).
    progress:
        Optional sink for per-trial progress lines.
    backend_differential:
        Re-run every clean serial task on the array kernel
        (``backend="array"``) and require identical ``ModelMetrics`` —
        the object-vs-array bit-identity leg.
    """
    report = FuzzReport(master_seed=seed, trials_run=0, runs=0, epoch_audits=0)
    indices = [replay] if replay is not None else list(range(trials))
    serial_by_task: list[tuple[FuzzTrial, str, SimTask, ModelMetrics]] = []

    with tempfile.TemporaryDirectory(prefix="fuzz-runcache-") as tmp:
        cache = RunCache(Path(tmp))
        for index in indices:
            trial = build_trial(seed, index)
            report.trials_run += 1
            ok_serial = _serial_leg(trial, report, artifact_dir)
            if ok_serial:
                _cached_leg(trial, ok_serial, cache, report, artifact_dir)
                if backend_differential:
                    _backend_leg(trial, ok_serial, report, artifact_dir)
                serial_by_task.extend(
                    (trial, policy, task, metrics)
                    for policy, (task, metrics) in ok_serial.items()
                )
            if progress is not None:
                progress(
                    f"trial {index}: {len(ok_serial)}/{len(MODEL_NAMES)} "
                    f"policies clean ({trial.config.topology} r{trial.config.radix}, "
                    f"{len(trial.trace)} entries, {trial.config.switching})"
                )

        _parallel_leg(serial_by_task, jobs, report, artifact_dir)
    return report


# ---------------------------------------------------------------------- #
# The legs
# ---------------------------------------------------------------------- #


def _serial_leg(
    trial: FuzzTrial,
    report: FuzzReport,
    artifact_dir: str | Path | None,
) -> dict[str, tuple[SimTask, ModelMetrics]]:
    """Audited direct runs; returns per-policy tasks+metrics that passed."""
    ok: dict[str, tuple[SimTask, ModelMetrics]] = {}
    for policy_name in MODEL_NAMES:
        weights = trial.weights_for(policy_name)
        auditor = InvariantAuditor(
            artifact_dir=artifact_dir,
            context={
                "fuzz_master_seed": trial.master_seed,
                "fuzz_trial": trial.index,
                "replay": (
                    f"dozznoc fuzz --seed {trial.master_seed} "
                    f"--replay {trial.index}"
                ),
            },
        )
        policy = make_policy(policy_name, weights=weights)
        report.runs += 1
        try:
            result = Simulator(
                trial.config, trial.trace, policy, audit=auditor
            ).run()
        except AuditError as err:
            report.failures.append(
                FuzzFailure(
                    trial=trial.index,
                    policy=policy_name,
                    kind="invariant",
                    message=str(err),
                    artifact_path=err.artifact_path,
                )
            )
            continue
        report.epoch_audits += auditor.epoch_audits
        task = SimTask(
            policy=policy_name,
            trace=trial.trace,
            sim=trial.config,
            weights=weights,
            audit=True,
        )
        ok[policy_name] = (task, ModelMetrics.from_result(result))
    return ok


def _record_mismatch(
    report: FuzzReport,
    artifact_dir: str | Path | None,
    trial: FuzzTrial,
    policy: str,
    kind: str,
    expected: ModelMetrics,
    got: ModelMetrics,
) -> None:
    message = _metrics_diff(expected, got)
    path = None
    if artifact_dir is not None:
        payload = {
            "kind": kind,
            "message": message,
            "policy": policy,
            "trace": trial.trace.name,
            "seed": trial.config.seed,
            "fuzz_master_seed": trial.master_seed,
            "fuzz_trial": trial.index,
            "config": dataclasses.asdict(trial.config),
            "expected": dataclasses.asdict(expected),
            "got": dataclasses.asdict(got),
            "replay": (
                f"dozznoc fuzz --seed {trial.master_seed} "
                f"--replay {trial.index}"
            ),
        }
        path = str(
            write_artifact(
                artifact_dir, f"{kind}-trial{trial.index}-{policy}", payload
            )
        )
    report.failures.append(
        FuzzFailure(
            trial=trial.index,
            policy=policy,
            kind=kind,
            message=message,
            artifact_path=path,
        )
    )


def _backend_leg(
    trial: FuzzTrial,
    ok_serial: dict[str, tuple[SimTask, ModelMetrics]],
    report: FuzzReport,
    artifact_dir: str | Path | None,
) -> None:
    """Re-run clean serial tasks on the array kernel; demand identical metrics.

    Imports :class:`~repro.noc.array_sim.ArraySimulator` lazily so plain
    fuzz runs never pay for the second kernel.
    """
    from repro.noc.array_sim import ArraySimulator

    array_config = trial.config.with_(backend="array")
    for policy_name, (task, metrics) in ok_serial.items():
        auditor = InvariantAuditor(
            artifact_dir=artifact_dir,
            context={
                "fuzz_master_seed": trial.master_seed,
                "fuzz_trial": trial.index,
                "backend": "array",
                "replay": (
                    f"dozznoc fuzz --seed {trial.master_seed} "
                    f"--replay {trial.index} --differential-backend"
                ),
            },
        )
        policy = make_policy(policy_name, weights=task.weights)
        report.runs += 1
        try:
            result = ArraySimulator(
                array_config, trial.trace, policy, audit=auditor
            ).run()
        except AuditError as err:
            report.failures.append(
                FuzzFailure(
                    trial=trial.index,
                    policy=policy_name,
                    kind="differential-backend",
                    message=f"array-backend invariant: {err}",
                    artifact_path=err.artifact_path,
                )
            )
            continue
        report.epoch_audits += auditor.epoch_audits
        got = ModelMetrics.from_result(result)
        if got != metrics:
            _record_mismatch(
                report, artifact_dir, trial, policy_name,
                "differential-backend", metrics, got,
            )


def _cached_leg(
    trial: FuzzTrial,
    ok_serial: dict[str, tuple[SimTask, ModelMetrics]],
    cache: RunCache,
    report: FuzzReport,
    artifact_dir: str | Path | None,
) -> None:
    """Miss-compute-store, then hit: both must match the serial leg."""
    policies = list(ok_serial)
    tasks = [ok_serial[p][0] for p in policies]
    for pass_name in ("cached-miss", "cached-hit"):
        try:
            results = run_sim_tasks(tasks, jobs=1, cache=cache)
        except AuditError as err:
            report.failures.append(
                FuzzFailure(
                    trial=trial.index,
                    policy="?",
                    kind="invariant",
                    message=f"[{pass_name}] {err}",
                    artifact_path=err.artifact_path,
                )
            )
            return
        for policy, got in zip(policies, results):
            expected = ok_serial[policy][1]
            if got != expected:
                _record_mismatch(
                    report, artifact_dir, trial, policy,
                    "differential-cached", expected, got,
                )


def _parallel_leg(
    serial_by_task: list[tuple[FuzzTrial, str, SimTask, ModelMetrics]],
    jobs: int,
    report: FuzzReport,
    artifact_dir: str | Path | None,
) -> None:
    """One pool fan-out over every clean task; must match serial exactly."""
    if not serial_by_task:
        return
    tasks = [task for _, _, task, _ in serial_by_task]
    try:
        results = run_sim_tasks(tasks, jobs=jobs)
    except AuditError as err:
        report.failures.append(
            FuzzFailure(
                trial=-1,
                policy="?",
                kind="invariant",
                message=f"[parallel] {err}",
                artifact_path=err.artifact_path,
            )
        )
        return
    for (trial, policy, _, expected), got in zip(serial_by_task, results):
        if got != expected:
            _record_mismatch(
                report, artifact_dir, trial, policy,
                "differential-parallel", expected, got,
            )
