"""Outside-in span tracing for one benchmark repetition.

The tracer never edits the program: it replaces the public functions of
each layer with thin wrappers, in every ``repro.*`` module that bound
them, and records one span per call (name, parent, duration, plus a few
attributes read from the call's arguments and result).  Spans stay in
memory and are written once the repetition ends.  A span's self time is
its duration minus the time its child spans cover; since all wrapped
calls happen on the main thread the children of a span never overlap.

Layer spans (see README.md for which end-to-end metric each should move):

``experiments.repro_all``   run_repro_all (artifact, CSV, manifest, report I/O)
``experiments.<id>``        one REPRO_EXPERIMENTS builder
``experiments.campaign``    run_campaign
``experiments.memo.*``      ExperimentMemo.get / put
``exec.pool.{train,sim}``   run_train_tasks / run_sim_tasks
``exec.cache.{get,put}``    RunCache.get / put
``traffic.generate_trace``  generate_benchmark_trace
``ml.collect_dataset``      collect_dataset (a capture loop)
``ml.fit_ridge``            fit_ridge
``noc.<fabric><radix>.<sim|capture>``  run_simulation; a capture is a
                            kernel run with ``collect_features=True``
``process.import``          ``import repro.cli``
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import resource
import statistics
import sys
import time
from typing import Callable

#: Fabrics the quick and paper scales simulate, as ``<topology><radix>``.
FABRICS = ("mesh4", "cmesh2", "torus4", "ring3", "mesh8")

#: The five power-management models of a campaign.
POLICIES = ("baseline", "pg", "lead", "dozznoc", "turbo")


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, seconds: float) -> None:
        """Add a finished top-level span measured elsewhere."""
        self.spans.append(
            {"name": name, "parent": None, "dur": seconds, "child": 0.0}
        )

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[dict], str],
        probe: Callable[[dict], Callable[[object], dict]] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``name`` is a span name or a function of the bound arguments;
        ``probe(bound)`` runs before the call and returns a function of
        the result giving the span's attributes.
        """
        signature = inspect.signature(fn)
        needs_args = callable(name) or probe is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = {}
            if needs_args:
                ba = signature.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            span = {
                "name": name(bound) if callable(name) else name,
                "parent": self._stack[-1] if self._stack else None,
                "child": 0.0,
            }
            finish = probe(bound) if probe is not None else None
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur"] = time.perf_counter() - start
                self._stack.pop()
                if span["parent"] is not None:
                    self.spans[span["parent"]]["child"] += span["dur"]
            if finish is not None:
                span.update(finish(result))
            return result

        return wrapper

    def finished_spans(self) -> list[dict]:
        """Every span with its self time, ready to serialise."""
        return [
            {
                "name": s["name"],
                "dur": s["dur"],
                "self": s["dur"] - s["child"],
                **{k: v for k, v in s.items()
                   if k not in ("name", "parent", "dur", "child")},
            }
            for s in self.spans
        ]


def _patch_function(tracer: Tracer, module, attr: str, name, probe=None):
    """Wrap ``module.attr`` and every ``repro.*`` binding of the same object."""
    original = getattr(module, attr)
    wrapper = tracer.wrap(original, name, probe)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return original


def _patch_method(tracer: Tracer, cls, attr: str, name, probe=None):
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, probe))


def _cpu_seconds() -> float:
    """User+system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _pool_probe(bound: dict):
    jobs = bound.get("jobs")
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    before = _cpu_seconds()
    return lambda result: {"jobs": jobs, "cpu": _cpu_seconds() - before}


def _hit_probe(bound: dict):
    return lambda result: {"hit": result is not None}


def _trace_probe(bound: dict):
    key = [bound["name"], bound["num_cores"], bound["duration_ns"],
           bound["seed"]]
    return lambda result: {"key": repr(key)}


def _noc_name(bound: dict) -> str:
    config = bound["config"]
    kind = "capture" if bound["collect_features"] else "sim"
    return f"noc.{config.topology}{config.radix}.{kind}"


def install_layers(tracer: Tracer) -> dict:
    """Wrap every layer's public functions.

    Returns the unwrapped kernel and trace generator, for work that must
    not be traced.
    """
    from repro.core.modes import MODE_MAX
    from repro.exec import cache, pool
    from repro.experiments import artifact, campaign, repro_all
    from repro.ml import ridge, training
    from repro.noc import simulator
    from repro.traffic import benchmarks
    from repro.traffic.trace import trace_fingerprint

    def noc_probe(bound: dict):
        config = bound["config"]

        def finish(result) -> dict:
            return {
                "policy": result.policy_name,
                "router_cycles": (config.num_routers * result.elapsed_ns
                                  * MODE_MAX.freq_ghz),
                "key": repr((result.policy_name,
                             trace_fingerprint(bound["trace"]), config)),
            }

        return finish

    originals = {
        "run_simulation": _patch_function(
            tracer, simulator, "run_simulation", _noc_name, noc_probe),
        "generate_benchmark_trace": _patch_function(
            tracer, benchmarks, "generate_benchmark_trace",
            "traffic.generate_trace", _trace_probe),
    }
    _patch_function(tracer, training, "collect_dataset", "ml.collect_dataset")
    _patch_function(tracer, ridge, "fit_ridge", "ml.fit_ridge")
    _patch_function(tracer, pool, "run_sim_tasks", "exec.pool.sim",
                    _pool_probe)
    _patch_function(tracer, pool, "run_train_tasks", "exec.pool.train",
                    _pool_probe)
    _patch_function(tracer, campaign, "run_campaign", "experiments.campaign")
    _patch_function(tracer, repro_all, "run_repro_all",
                    "experiments.repro_all")
    _patch_method(tracer, cache.RunCache, "get", "exec.cache.get", _hit_probe)
    _patch_method(tracer, cache.RunCache, "put", "exec.cache.put")
    _patch_method(tracer, artifact.ExperimentMemo, "get",
                  "experiments.memo.get", _hit_probe)
    _patch_method(tracer, artifact.ExperimentMemo, "put",
                  "experiments.memo.put")
    for exp_id, entry in list(repro_all.REPRO_EXPERIMENTS.items()):
        repro_all.REPRO_EXPERIMENTS[exp_id] = dataclasses.replace(
            entry, build=tracer.wrap(entry.build, f"experiments.{exp_id}")
        )
    return originals


# ---------------------------------------------------------------------- #
# Spans -> per-layer metrics
# ---------------------------------------------------------------------- #


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict],
    pool_spans: list[dict],
    experiment_ids: list[str],
) -> dict[str, float]:
    """Fold one traced repetition's spans into the per-layer metrics.

    ``pool_spans`` come from the traced repetition at the workload's own
    ``jobs`` (they give ``exec.pool.*``); everything else comes from
    ``spans``, a traced repetition at ``jobs=1``, where every kernel run
    happens in the traced process.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_s(name: str) -> float:
        return sum(s["self"] for s in by_name.get(name, ()))

    def unique_ratio(group: list[dict]) -> float:
        return _ratio(len({s["key"] for s in group}), len(group))

    def hit_ratio(name: str) -> float:
        group = by_name.get(name, [])
        return _ratio(sum(s["hit"] for s in group), len(group))

    m: dict[str, float] = {}
    gen = by_name.get("traffic.generate_trace", [])
    m["traffic.generate_trace.calls"] = len(gen)
    m["traffic.generate_trace.self_s"] = self_s("traffic.generate_trace")
    m["traffic.generate_trace.unique_ratio"] = unique_ratio(gen)

    noc = [s for s in spans if s["name"].startswith("noc.")]
    captures = [s for s in noc if s["name"].endswith(".capture")]
    m["ml.capture.calls"] = len(captures)
    m["ml.capture.self_s"] = sum(s["self"] for s in captures)
    m["ml.capture.unique_ratio"] = unique_ratio(captures)
    m["ml.collect_dataset.self_s"] = self_s("ml.collect_dataset")
    m["ml.fit_ridge.calls"] = calls("ml.fit_ridge")
    m["ml.fit_ridge.self_s"] = self_s("ml.fit_ridge")

    def cycles_per_s(group: list[dict]) -> float:
        return _ratio(sum(s["router_cycles"] for s in group),
                      sum(s["self"] for s in group))

    for fabric in FABRICS:
        for kind in ("sim", "capture"):
            name = f"noc.{fabric}.{kind}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.router_cycles_per_s"] = cycles_per_s(
                by_name.get(name, []))
    for policy in POLICIES:
        m[f"noc.mesh8.{policy}.router_cycles_per_s"] = cycles_per_s(
            [s for s in noc
             if s["name"].startswith("noc.mesh8.") and s["policy"] == policy])

    for op in ("get", "put"):
        m[f"exec.cache.{op}.calls"] = calls(f"exec.cache.{op}")
        m[f"exec.cache.{op}.self_s"] = self_s(f"exec.cache.{op}")
    m["exec.cache.hit_ratio"] = hit_ratio("exec.cache.get")
    for kind in ("train", "sim"):
        group = [s for s in pool_spans if s["name"] == f"exec.pool.{kind}"]
        wall = sum(s["dur"] for s in group)
        busy = sum(s["cpu"] for s in group)
        jobs = max((s["jobs"] for s in group), default=1)
        m[f"exec.pool.{kind}.wall_s"] = wall
        m[f"exec.pool.{kind}.efficiency"] = _ratio(busy, jobs * wall)

    for exp_id in experiment_ids:
        m[f"experiments.{exp_id}.wall_s"] = sum(
            s["dur"] for s in by_name.get(f"experiments.{exp_id}", ()))
    m["experiments.memo.hit_ratio"] = hit_ratio("experiments.memo.get")
    m["experiments.memo.get.self_s"] = self_s("experiments.memo.get")
    m["experiments.memo.put.self_s"] = self_s("experiments.memo.put")
    m["experiments.repro_all.self_s"] = self_s("experiments.repro_all")
    return m


def covered_seconds(spans: list[dict]) -> float:
    """Wall time inside any layer span (the sum of all self times)."""
    return sum(s["self"] for s in spans)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
