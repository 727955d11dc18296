"""Package re-exports resolved on first access (PEP 562).

A package init that re-exports names from its submodules with plain
``from ... import`` statements loads every one of those submodules, and
everything they import, even in a program that reads none of the names.
:func:`lazy_exports` builds the ``__getattr__`` and ``__dir__`` of such a
package instead: a re-exported name imports its submodule when it is
first read and is then stored in the package namespace, so later reads
are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule, named relative to the package, to
    the names the package re-exports from it.
    """
    owner = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owner})

    return sorted(owner), __getattr__, __dir__
