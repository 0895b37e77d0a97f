"""The experiment memo's digest must cover everything repro-all runs.

A warm ``repro-all`` replays each experiment's payload from the memo
when the memo key matches, and the key's code part hashes the sources of
``_VERSIONED_MODULES`` (the kernel) plus ``_MEMO_MODULES`` (everything
else that shapes a payload).  A module that shapes a payload but is in
neither set lets a warm rerun replay a stale payload after an edit.

Builders import the kernel inside their bodies, so unlike
``tests/test_versioned_modules.py`` this scan follows function-local
imports too, from :mod:`repro.experiments.repro_all` to a fixpoint.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

from repro.exec.cache import _VERSIONED_MODULES
from repro.experiments.artifact import _MEMO_MODULES
from tests.test_versioned_modules import _is_module

#: Modules repro-all imports that never shape a payload, with why.
_ALLOWED = {
    "repro": "package re-exports; repro-all reads only its file path",
    "repro._lazy": "resolves package re-exports on first access",
    "repro.common.sources": "computes the digests themselves",
    "repro.experiments.claims": "claims are checked on payloads after "
                                "every build or memo replay",
    "repro.experiments.report": "renders out/ CSV and HTML from payloads "
                                "on every run, memoised or not",
    "repro.telemetry": "package re-exports of recorder and metrics",
    "repro.telemetry.diff": "telemetry side files, only with telemetry_dir",
    "repro.telemetry.io": "telemetry side files, only with telemetry_dir",
    "repro.validate.invariants": "the auditor observes runs, never "
                                 "changes them",
}


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _all_imports(name: str) -> set[str]:
    """Every ``repro.*`` module ``name`` imports, at any nesting depth.

    ``if TYPE_CHECKING:`` blocks are skipped; ``from pkg import thing``
    resolves to ``pkg.thing`` when that is a module, else to ``pkg``.
    """
    spec = importlib.util.find_spec(name)
    assert spec is not None and spec.origin is not None, name
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names
                         if a.name.startswith("repro"))
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro"):
                for alias in node.names:
                    child = f"{node.module}.{alias.name}"
                    found.add(child if _is_module(child) else node.module)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(Path(spec.origin).read_text()))
    return found


def _reachable(root: str) -> set[str]:
    reachable = {root}
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for module in sorted(frontier):
            for child in _all_imports(module):
                if child not in reachable:
                    reachable.add(child)
                    nxt.append(child)
        frontier = nxt
    return reachable


def test_repro_all_imports_are_all_memo_versioned():
    reachable = _reachable("repro.experiments.repro_all")
    assert "repro.noc.simulator" in reachable, (
        "the scan missed the builders' function-local imports"
    )
    missing = reachable - set(_VERSIONED_MODULES) - set(_MEMO_MODULES) \
        - set(_ALLOWED)
    assert not missing, (
        f"modules repro-all imports but the memo digest does not cover "
        f"(a warm rerun would replay stale payloads after edits to them): "
        f"{sorted(missing)}"
    )


def test_allowlist_is_tight():
    reachable = _reachable("repro.experiments.repro_all")
    assert set(_ALLOWED) <= reachable, sorted(set(_ALLOWED) - reachable)
    digested = set(_VERSIONED_MODULES) | set(_MEMO_MODULES)
    assert not set(_ALLOWED) & digested


def test_memo_modules_all_exist():
    for name in _MEMO_MODULES:
        assert _is_module(name), f"memo module {name!r} does not exist"


def test_scan_sees_function_local_imports():
    # Guard the guard: a builder-only import must be found.
    assert "repro.experiments.figures" in _all_imports(
        "repro.experiments.repro_all"
    )
