"""Annealed Ising model on d-regular configuration-model graphs.

Exact finite-size computations via pairing-count weight tables, the
thermodynamic limit via a scalar variational problem, and the critical
behavior at beta_c = atanh(1/(d-1)): exponents, amplitudes, the
specific-heat jump, and the quartic n^{3/4} scaling limit.

The package exports every module's public names; each module's __all__ is
the one list of them. Only `thermo`, the stdlib-only limit side, is imported
with the package. The numpy-backed modules are imported on first use of a
submodule or of any other public name (PEP 562), so the limit side loads no
numpy.
"""

import importlib.util

from .thermo import *  # noqa: F403

__version__ = "0.1.0"
_MODULES = ("kernels", "matching", "thermo", "finiten", "criticality")  # in __all__'s order


def _load() -> dict:
    """Import every module, bind its public names here and set __all__; return the namespace."""
    names = globals()
    if "__all__" not in names:
        mods = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        exported = {attr: getattr(mod, attr) for mod in mods for attr in mod.__all__}
        for attr, value in exported.items():
            names.setdefault(attr, value)
        names["__all__"] = ["__version__", *exported]
    return names


def __getattr__(name: str):
    qualified = f"{__name__}.{name}"
    if name.isidentifier() and not name.startswith("_") and importlib.util.find_spec(qualified):
        return importlib.import_module(qualified)  # a submodule (cli, say): import it alone
    # no module exports a private name: answer those without importing numpy
    if (name.startswith("_") and name != "__all__") or name not in _load():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(_load())
