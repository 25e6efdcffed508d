"""Slice-constrained projection of variational problems with a-priori bounds.

The package solves discretized weak problems ``a(z, v) = b(v)`` two ways:
the classical projection onto a trial space tested against a test space, and
a constrained variant that additionally keeps the approximation inside a
nested family of distance slices.  Both come with computable worst-case
error bounds.  Every problem is a synthetic instance with a known solution,
built by a generator, so the bounds are checked against actual errors.

``import msrom`` binds only the config names (:mod:`msrom.config`), so that
checking a config loads no numpy; the numeric modules load on first use.
"""

import sys
from importlib import import_module

from . import config
from .config import *

__version__ = "0.1.0"


def __getattr__(name: str):
    """The first lookup of an unbound name (PEP 562) imports the numeric modules
    and binds their public names and ``__all__`` here; later lookups skip this."""
    namespace = globals()
    if "__all__" in namespace:  # all loaded: the name does not exist
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = list(config.__all__)
    for layer in ("spaces", "problems", "spectral", "solvers", "bounds", "cli"):
        module = import_module(f"{__name__}.{layer}")  # `from . import` would call this again
        namespace.update((public, getattr(module, public)) for public in module.__all__)
        names += module.__all__
    namespace["__all__"] = [*names, "__version__"]
    return getattr(sys.modules[__name__], name)


def __dir__() -> list:
    return sorted({*globals(), *getattr(sys.modules[__name__], "__all__")})
