"""Lazy package exports: a package root that imports only what is used.

A package ``__init__`` that re-exports its submodules' names eagerly
makes every import of any one submodule pay for all of them (and for
NumPy, through the few that compute with it).  Instead, a root declares
where each public name lives and binds the PEP 562 module
``__getattr__`` this module builds::

    __getattr__, __all__ = lazy_exports(__name__, {
        "repro.sim.engine": ("Environment", "Event"),
        "repro.sim.rng": ("RngStreams",),
    })

``from repro.sim import Environment`` then imports
:mod:`repro.sim.engine` on first use and caches the name on the
package, so later lookups are plain attribute reads; importing a
submodule (``from repro.sim import engine``) runs the submodule alone.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, homes: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], List[str]]:
    """A package's ``__getattr__`` and ``__all__`` from where its names live.

    ``homes`` maps each defining module to the public names ``package``
    exports from it; a name's module is imported on its first use."""
    where = {name: module for module, names in homes.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(where)
