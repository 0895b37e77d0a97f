"""The run cache's source digests must cover what they stand for.

``repro.exec.cache`` hashes the sources of ``_VERSIONED_MODULES`` into
every run and capture key; a module that influences simulation results
but is missing from that set lets stale cached metrics survive a kernel
edit.  This test statically extracts everything :mod:`repro.noc.simulator`
imports — transitively, to a fixpoint — and asserts each module is in
the versioned set, and that the set holds nothing the kernel does not
reach.  Suite keys hash ``_TRAFFIC_MODULES``, telemetry keys add
``_TELEMETRY_MODULES`` and weights keys add ``_TRAINING_MODULES``; each
gets the same check against the trace generator, the telemetry recorder
and the offline fit.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

from repro.common.sources import (
    _TELEMETRY_MODULES,
    _TRAFFIC_MODULES,
    _TRAINING_MODULES,
)
from repro.exec.cache import _VERSIONED_MODULES, code_version


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _module_imports(name: str) -> set[str]:
    """Top-level ``repro.*`` modules imported by ``name``.

    ``if TYPE_CHECKING:`` blocks are skipped — typing-only imports never
    execute and cannot change results.  ``from pkg.mod import Thing``
    resolves to ``pkg.mod`` unless ``Thing`` is itself a module.
    """
    spec = importlib.util.find_spec(name)
    assert spec is not None and spec.origin is not None, name
    tree = ast.parse(Path(spec.origin).read_text())
    found: set[str] = set()

    def scan(body) -> None:
        for node in body:
            if isinstance(node, ast.If):
                test = node.test
                is_type_checking = (
                    isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
                ) or (
                    isinstance(test, ast.Attribute)
                    and test.attr == "TYPE_CHECKING"
                )
                if is_type_checking:
                    continue
                scan(node.body)
                scan(node.orelse)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        found.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("repro"):
                    for alias in node.names:
                        child = f"{node.module}.{alias.name}"
                        found.add(child if _is_module(child) else node.module)

    scan(tree.body)
    return found


def _transitive_imports(root: str) -> set[str]:
    """Every ``repro.*`` module reachable from ``root`` — full fixpoint.

    Breadth-first over :func:`_module_imports` until no new module
    appears, so a dependency added three hops deep still fails the
    coverage assertion below.
    """
    reachable = {root}
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for module in sorted(frontier):
            for child in _module_imports(module):
                if child not in reachable:
                    reachable.add(child)
                    nxt.append(child)
        frontier = nxt
    return reachable


def test_simulator_imports_are_all_versioned():
    reachable = _transitive_imports("repro.noc.simulator")
    assert len(reachable) > 1, "scan found no imports — the extractor is broken"
    missing = reachable - set(_VERSIONED_MODULES)
    assert not missing, (
        f"modules reachable from the simulator but absent from "
        f"_VERSIONED_MODULES (cached runs would survive edits to them): "
        f"{sorted(missing)}"
    )


def test_versioned_modules_are_all_reached_by_the_kernel():
    # The converse guard: an entry nothing in the kernel imports cannot
    # change a run, yet editing it would invalidate every cached run and
    # capture.
    reachable = set()
    for root in ("repro.noc.simulator", "repro.noc.array_sim",
                 "repro.core.controller"):
        reachable |= _transitive_imports(root)
    extra = set(_VERSIONED_MODULES) - reachable
    assert not extra, (
        f"_VERSIONED_MODULES entries the kernel never imports (edits to "
        f"them needlessly invalidate cached runs): {sorted(extra)}"
    )


def test_traffic_digest_covers_the_trace_generator():
    reachable = _transitive_imports("repro.traffic.benchmarks")
    missing = reachable - set(_TRAFFIC_MODULES)
    assert not missing, (
        f"modules the trace generator imports but the suite key does not "
        f"hash (cached suites would survive edits to them): {sorted(missing)}"
    )


def test_telemetry_key_covers_the_recorder():
    reachable = _transitive_imports("repro.telemetry.recorder")
    assert "repro.telemetry.metrics" in reachable
    missing = reachable - set(_TELEMETRY_MODULES) - set(_VERSIONED_MODULES)
    assert not missing, (
        f"modules the telemetry recorder imports but the telemetry key "
        f"does not hash: {sorted(missing)}"
    )


def test_training_digest_is_exactly_the_fit_outside_the_kernel():
    # Weights keys hash _TRAINING_MODULES on top of the kernel's code
    # version (through the training set's capture key), so the list must
    # be exactly what the fit reaches beyond _VERSIONED_MODULES: a
    # missing module lets stale weights survive an edit, an extra one
    # retrains for nothing.
    reachable = _transitive_imports("repro.ml.training")
    outside = reachable - set(_VERSIONED_MODULES)
    assert outside == set(_TRAINING_MODULES), (
        f"modules the fit reaches outside the kernel: {sorted(outside)}; "
        f"_TRAINING_MODULES: {sorted(_TRAINING_MODULES)}"
    )


def test_fixpoint_is_strictly_deeper_than_one_level():
    # Guard the guard: the fixpoint must see modules a two-level scan
    # misses.  The policy layer reaches repro.common.errors only three
    # hops down (controller -> features -> noc.topology -> errors).
    root = "repro.core.controller"
    level1 = _module_imports(root)
    shallow = {root} | set(level1)
    for module in sorted(level1):
        shallow |= _module_imports(module)
    deep = _transitive_imports(root)
    assert shallow <= deep
    assert "repro.common.errors" in deep - shallow, (
        "the transitive fixpoint no longer reaches repro.common.errors "
        "beyond two levels; pick another module only a deep scan finds"
    )


def test_versioned_modules_all_exist():
    for name in (_VERSIONED_MODULES + _TRAFFIC_MODULES + _TELEMETRY_MODULES
                 + _TRAINING_MODULES):
        assert _is_module(name), f"versioned module {name!r} does not exist"


def test_code_version_is_stable_and_nonempty():
    v = code_version()
    assert v and v == code_version()
