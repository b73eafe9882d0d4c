"""arcschemes: coherent closure of graphs and circular-arc decomposition.

The package computes the smallest coherent configuration refining a
graph's edge relation (2-dimensional Weisfeiler-Leman stabilization),
implements circular-arc models with their reduction, and produces
constructive certificates for circular-arc graphs whose scheme is an
association scheme.
"""

from .arcs import (
    ArcFunction,
    ReducedArcFunction,
    intersection_graph,
    reduce,
    standard_model,
)
from .characterize import (
    Decomposition,
    DecomposeOutcome,
    GroupWitness,
    decompose_caw,
    group_witness,
    is_elementary_caw,
    predicted_aut_order,
    predicted_scheme,
    verify_wreath_theorem,
)
from .closure import closure_of_graph, coherent_closure
from .graphs import (
    Graph,
    complete,
    cycle,
    elementary_caw,
    empty_graph,
    from_edges,
    lex_product,
    twin_relation,
)
from .schemes import (
    CoherentConfiguration,
    VerifyReport,
    dihedral_scheme,
    is_association,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ArcFunction",
    "CoherentConfiguration",
    "Decomposition",
    "DecomposeOutcome",
    "Graph",
    "GroupWitness",
    "ReducedArcFunction",
    "VerifyReport",
    "closure_of_graph",
    "coherent_closure",
    "complete",
    "cycle",
    "decompose_caw",
    "dihedral_scheme",
    "elementary_caw",
    "empty_graph",
    "from_edges",
    "group_witness",
    "intersection_graph",
    "is_association",
    "is_elementary_caw",
    "lex_product",
    "predicted_aut_order",
    "predicted_scheme",
    "reduce",
    "standard_model",
    "twin_relation",
    "verify",
    "verify_wreath_theorem",
]
