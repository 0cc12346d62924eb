"""Exact 3-coloring counting and coloring lower-bound verification for
triangle-free plane graphs.

The package keeps embeddings as rotation systems, counts colorings
exactly with a frontier dynamic program in pure Python (no build step),
extracts laminar families of 5-cycles, decomposes them into chains and
antichains, builds color transition matrices between nested 5-cycles
from one pinned counting sweep each, and checks every lower bound with
exact integer arithmetic.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    antichain_bound,
    chain_bound,
    decomposition_sizes_ok,
    main_bound_value,
    meets_main_bound,
    meets_power_bound,
    verify,
)
from .coloring import (
    DEFAULT_BUDGET,
    SpecialData,
    bichromatic_components,
    coloring_to_json,
    count_3_colorings,
    count_3_colorings_detailed,
    count_with_boundary,
    enumerate_3_colorings,
    extends,
    is_proper,
    load_coloring,
    pinned_counts,
    special_data,
    switching_count,
)
from .errors import BudgetExceededError, FalsificationError, GraphFormatError
from .generators import (
    FAMILIES,
    dodecahedron,
    garden_pentagons,
    pentagon_garden,
    pentagon_tower,
    perturbed_tower,
    shared_path_pentagons,
    tower_pentagons,
)
from .laminar import (
    ContainmentForest,
    CycleFamily,
    LaminarOutcome,
    containment_forest,
    dilworth_decompose,
    extract,
    is_laminar,
)
from .plane_graph import (
    AbstractGraph,
    PlaneGraph,
    RegionPartition,
    annulus_subgraph,
    canonical_cycle,
    crosses,
    enumerate_cycles,
    is_triangle_free,
    load_plane_graph,
    low_degree_set,
    plane_graph_to_json,
    region_graph,
    region_partition,
)
from .transition import (
    BLOCK_DIAGONAL,
    ProductBoundReport,
    TransitionMatrix,
    classify,
    compose,
    dominates,
    identity_matrix,
    is_dominant,
    is_doubling,
    majorizes,
    matrix_report,
    potential,
    s_k,
    transition_matrix,
    verify_product_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
