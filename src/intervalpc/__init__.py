"""Minimum path covers with one fixed endpoint on interval graphs.

The oracle, bipartite and generator APIs live in their submodules
(``from intervalpc.oracle import ...``); importing them loads numpy.
"""

from .graphcore import (IntervalModel, OrderedGraph, OrderingViolation,
                        build_ordering, validate_ordering)
from .engine import (InternalInvariantViolation, Path, PathCover, solve_1pc,
                     epsilon_vector, serialize_cover, parse_cover)

__version__ = "0.1.0"
