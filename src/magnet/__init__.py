"""MAG model degree laws: sampling, exact analytics, limits, bounds.

Submodules and their public names load on first access (PEP 562), so
``import magnet`` loads no numpy.
"""

import importlib
import importlib.util

from ._version import __version__

_MODULES = ("errors", "model", "degree_dist", "sampler", "limits", "bounds", "experiments")


def _submodule(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__"] + [n for m in _MODULES for n in _submodule(m).__all__]
    elif importlib.util.find_spec(f"{__name__}.{name}") is not None:
        value = _submodule(name)
    else:
        # a private name is in no __all__: it fails without loading anything
        owners = (_submodule(m) for m in _MODULES if not name.startswith("_"))
        owner = next((m for m in owners if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
