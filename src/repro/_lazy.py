"""Package re-exports that import their defining module on first use.

A package ``__init__`` lists its re-exports by defining module and
installs the pair this returns as its module ``__getattr__`` and
``__dir__`` (PEP 562)::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.config": ("SimulationConfig",),
    })

``from package import Name`` and ``package.Name`` then import
``repro.config`` on first access and cache ``Name`` in the package, so
``import package`` loads none of the modules behind its re-exports.
The package keeps the same names under ``if TYPE_CHECKING:`` imports,
which is where static checkers read them.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose
    re-exports are ``exports``: defining module -> the names it gives."""
    home = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
