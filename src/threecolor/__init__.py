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
    BichromaticComponent,
    SpecialData,
    bichromatic_components,
    brute_force_count,
    coloring_to_json,
    colorings_from_switching,
    count_3_colorings,
    count_3_colorings_detailed,
    count_with_boundary,
    enumerate_3_colorings,
    extends,
    is_proper,
    load_coloring,
    pinned_counts,
    special_data,
    switch_component,
)
from .errors import BudgetExceededError, FalsificationError, GraphFormatError
from .generators import (
    GeneratorSpec,
    dodecahedron,
    from_spec,
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
)
from .plane_graph import (
    AbstractGraph,
    PlaneGraph,
    RegionPartition,
    annulus_subgraph,
    canonical_cycle,
    crosses,
    delete_interior_regions,
    enumerate_cycles,
    exterior_subgraph,
    faces,
    identify_neighbors,
    interior_faces,
    interior_subgraph,
    is_laminar,
    is_triangle_free,
    load_plane_graph,
    low_degree_set,
    map_vertices,
    plane_graph_to_json,
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
