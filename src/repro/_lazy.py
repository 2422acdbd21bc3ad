"""Lazy public names for package ``__init__`` modules (PEP 562).

A package lists where each public name is defined; the defining module
is imported the first time the name is read, so ``import repro`` (and
every front-end path that only needs a light submodule) never pays for
numpy or the simulator.  The value is then cached in the package
namespace, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a defining module to the public names it provides,
    in the shape of the ``from module import (...)`` lines it replaces.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
