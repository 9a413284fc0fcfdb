"""Random-walk laboratory: backtrack erasure coupling simple and
non-backtracking walks, reflected birth-death chains, degree-2 corridor
contraction to weighted multigraphs, and exact enumeration oracles."""

from importlib import import_module

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
from .laws import (
    HalfEdgeState,
    PrefixDistribution,
    WalkKind,
    WrwMove,
    enumerate_prefix_distribution,
    nbrw_step,
    nbrw_step_edge,
    srw_step,
    step_distribution,
    total_variation,
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

# the Monte Carlo side, which loads numpy, is imported on first use (PEP 562)
_LAZY = {
    "walkers": ("is_backtrack_free", "sample_path"),
    "stats": ("ExperimentReport", "WalkStatistics", "monte_carlo", "replica_seed", "return_statistics"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


__version__ = "0.1.0"
