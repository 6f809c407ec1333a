"""Convergence acceleration for scalar, vector, and matrix sequences.

The package builds epsilon-algorithm tables over arbitrary element spaces:
the classical scalar recursion with singular-block repairs
(:class:`ScalarEpsTable`), the full topological algorithms that alternate
between a space and its dual (:class:`TeaTable`), and the simplified
topological algorithms that drive a three-term element recursion with
coefficients read off the scalar shadow (:class:`TopoEpsTable`).  Each table
holds O(K) state, and hands each new diagonal to its caller as it streams.
Around the tables sit an independent linear-solve oracle for the
underlying sequence transformation (:mod:`epsaccel.oracle`),
generators for test and application sequences (:mod:`epsaccel.sequences`),
an experiment harness (:mod:`epsaccel.harness`), plain-text sequence I/O
(:mod:`epsaccel.seqio`), and a command line (``epsaccel``).

Terms go in, and entries come out, as plain numpy arrays: float64 or
complex128, of dimension 0 (scalars), 1 (vectors) or 2 (matrices).
"""

from .scalar_eps import ScalarEpsTable, SingularEvent
from .topo_eps import TeaTable, TopoEpsTable
from .vectorspace import DimensionMismatchError, Functional

__version__ = "0.1.0"

__all__ = [
    "ScalarEpsTable",
    "SingularEvent",
    "TopoEpsTable",
    "TeaTable",
    "Functional",
    "DimensionMismatchError",
    "__version__",
]
