"""Random-walk laboratory: backtrack erasure coupling simple and
non-backtracking walks, reflected birth-death chains, degree-2 corridor
contraction to weighted multigraphs, and exact enumeration oracles."""

from .errors import (
    InsufficientData,
    InvalidInput,
    InvalidParameter,
    InvalidState,
    LimitExceeded,
    MalformedGraph,
    NbwalkError,
    NoLegalMove,
    UnsupportedGraph,
    UnsupportedStructure,
)
from .graph import (
    BiregularTree,
    ExplicitGraph,
    Graph,
    Lattice,
    MultiEdge,
    RegularTree,
    WeightedMultigraph,
    biregular_tree,
    counterexample_graph,
    decode_key,
    encode_key,
    from_adjacency,
    graph_from_spec,
    lattice,
    regular_tree,
    subdivide,
    subdivided_lattice,
)
from .walkers import (
    HalfEdgeState,
    PrefixDistribution,
    WalkKind,
    WrwMove,
    enumerate_prefix_distribution,
    is_backtrack_free,
    nbrw_step,
    nbrw_step_edge,
    sample_path,
    srw_step,
    step_distribution,
    wrw_step,
)
from .erasure import (
    CursorTrace,
    ErasureResult,
    enumerate_move_distribution,
    erase_backtracks,
    erase_backtracks_stack,
    erased_prefix_distribution,
)
from .birthdeath import (
    BirthDeathSpec,
    chain_for_biregular,
    chain_for_regular,
    chain_move_law,
    escape_probability,
    is_transient,
)
from .contraction import (
    ContractionMap,
    Corridor,
    InducedWalk,
    contract,
    find_corridors,
    induced_prefix_distribution,
    induced_walk,
)
from .stats import (
    ExperimentReport,
    WalkStatistics,
    monte_carlo,
    replica_seed,
    return_statistics,
    total_variation,
)

__version__ = "0.1.0"
