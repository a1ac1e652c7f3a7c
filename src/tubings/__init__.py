"""Tubing complexes of graphs with labelled parallel-edge bundles.

The package builds tubes and tubing complexes for loopless multigraphs,
studies the subcomplexes cut out by parity against collections of nodes
and bundle labels, sums their homology into Poincare polynomials along two
independent routes, and checks the lattice (Delzant) condition of the
associated polytope.
"""

from .complexes import (
    BettiVector,
    FaceBudget,
    IntPolynomial,
    ShellingReport,
    SimplicialComplex,
)
from .errors import (
    DisconnectedError,
    DuplicateLabelError,
    FaceBudgetExceededError,
    GraphError,
    GraphSyntaxError,
    HostMismatchError,
    LoopEdgeError,
    NotEvenError,
    NotInAnyBundleError,
    TubingsError,
    UnknownBundleError,
    UnknownMemberError,
    UnknownNodeError,
    UnknownNodeInEdgeError,
    UnlabelledBundleEdgeError,
    VertexClashError,
)
from .graphs import (
    Bundle,
    Collection,
    Designation,
    Pseudograph,
    enumerate_reductions,
    reduced_graph,
    restricted_ground,
    touched_nodes,
    touched_subgraph,
)
from .io import GraphDocument, parse_collection, parse_graph, serialize_graph
from .lattice import (
    DelzantReport,
    LabeledMatrix,
    characteristic_matrix,
    characteristic_rank,
    collection_parity_vector,
    delzant_check,
    facet_normal,
    normal_generator_matrix,
    polytope_dimension,
    tube_incidence_matrix,
)
from .parity import (
    admissible_collections,
    components_all_even,
    confined_odd_complex,
    even_collection_at,
    even_collection_count,
    even_collections,
    even_tube_complex,
    inflate_tube,
    inflation_matches,
    is_admissible,
    is_even,
    meet_parity,
    odd_tube_complex,
    saturated_odd_complex,
)
from .poincare import (
    CrossCheckReport,
    a_polynomial,
    cross_check,
    from_betti_suspended,
    from_betti_tilde,
    poincare_brute,
    poincare_reduced,
)
from .posets import (
    FinitePoset,
    TubeUnion,
    mobius_euler,
    order_complex,
    parity_subgraph_poset,
)
from .tubes import (
    Tube,
    TubeSystem,
    compatible,
    enumerate_tubes,
    is_tubing,
    tubing_complex,
)

__version__ = "0.1.0"

# the public names are the ones imported above, each written once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__ + ".")
)
