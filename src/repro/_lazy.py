"""PEP 562 re-exports for the package ``__init__`` modules.

A package lists the names it re-exports in a table of name -> defining
module; :func:`lazy_exports` turns that table into the package's module
``__getattr__``.  A name's module is imported on first access and the
value is then bound on the package, so later lookups are plain attribute
reads.  Importing a package therefore costs nothing beyond its own file.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(package: str, exports: dict[str, str]) -> Callable:
    """The module ``__getattr__`` of ``package``, resolving ``exports``."""

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
