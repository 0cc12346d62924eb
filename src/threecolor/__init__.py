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

from types import ModuleType as _ModuleType

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
    count_3_colorings,
    count_3_colorings_detailed,
    count_with_boundary,
    enumerate_3_colorings,
    extends,
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
    is_dominant,
    is_doubling,
    matrix_report,
    potential,
    s_k,
    transition_matrix,
    verify_product_bound,
)

# the public names, less the submodules that the imports above bind
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
