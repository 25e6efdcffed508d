"""Slice-constrained projection of variational problems with a-priori bounds.

The package solves discretized weak problems ``a(z, v) = b(v)`` two ways:
the classical projection onto a trial space tested against a test space, and
a constrained variant that additionally keeps the approximation inside a
nested family of distance slices.  Both come with computable worst-case
error bounds, plus synthetic instance generators with known ground truth so
the bounds can be checked against actual errors.
"""

from . import bounds, cli, problems, solvers, spaces, spectral
from .bounds import *
from .cli import *
from .problems import *
from .solvers import *
from .spaces import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    *spaces.__all__,
    *problems.__all__,
    *spectral.__all__,
    *solvers.__all__,
    *bounds.__all__,
    *cli.__all__,
    "__version__",
]
