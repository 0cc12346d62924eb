"""Laminar families of 5-cycles: extraction and chain/antichain splitting.

``extract`` implements the reduction dichotomy for a triangle-free plane
graph: either some low-degree vertex v is reducible (identifying its
neighbourhood keeps the graph triangle-free), or there is a laminar
family of 5-cycles covering every low-degree vertex.

In a triangle-free graph, v is reducible iff it lies on no 5-cycle.
Identifying N(v) can only make a triangle through the merged vertex,
m-x-y with x, y outside N[v]; x and y then have distinct neighbours
u1, u2 in N(v), so v-u1-x-y-u2 is a 5-cycle, and every 5-cycle through
v gives such a triangle.  ``identify_neighbors`` plus a triangle test is
the definition this replaces; the tests keep it as the oracle.

The family is found recursively: with no separating 5-cycle the set of
*all* 5-cycles is laminar; otherwise the graph is split along a
separating 5-cycle (kept on both sides) and the two families are
merged.  The 5-cycles and their region partitions are computed once on
the host graph, and the recursion works on sets of host vertices,
bitmasks like the partitions themselves: a 5-cycle is chordless, so
each side is the induced subgraph on its vertex set, and since it
inherits the host embedding, its regions are the host regions cut down
to that set.

A laminar family orders into a forest under interior containment, built
in one pass that also decides laminarity; ``dilworth_decompose`` reads
off a maximum chain (deepest root-to-leaf path) and a maximum antichain
(the leaves), whose size product is at least the family size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import FalsificationError
from .plane_graph import (
    Cycle,
    PlaneGraph,
    enumerate_cycles,
    low_degree_set,
    mask_members,
    region_partition,
    validate_cycle,
)


@dataclass(frozen=True)
class CycleFamily:
    """A family of cycles in a common host graph."""

    cycles: tuple
    kind: str = "general"   # general | laminar | chain | antichain

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


@dataclass(frozen=True)
class LaminarOutcome:
    """Result of the reduction dichotomy: a reducible vertex or a
    covering laminar family of 5-cycles."""

    kind: str                     # "reducible" | "family"
    covered: frozenset            # the low-degree set the family must cover
    vertex: int | None = None
    family: CycleFamily | None = None


def extract(g: PlaneGraph, k: int) -> LaminarOutcome:
    """Run the dichotomy on a triangle-free plane graph.

    The least vertex of degree at most k that lies on no 5-cycle is
    returned as reducible (see the module docstring for why that is
    reducibility).  Otherwise returns a laminar family of 5-cycles
    covering every vertex of degree at most k (re-verified on every
    call), built by splitting on separating 5-cycles over sets of host
    vertices.
    """
    if not g.triangle_free:
        raise ValueError("extraction requires a triangle-free graph")
    dk = low_degree_set(g, k)
    fives = enumerate_cycles(g, 5)
    free = dk.difference(*fives)
    if free:
        return LaminarOutcome(kind="reducible", vertex=min(free), covered=dk)
    family = _covering_family(g, k, fives)
    if _forest(g, family) is None:
        raise FalsificationError("extracted family of 5-cycles is not laminar")
    missing = dk.difference(*family)
    if missing:
        raise FalsificationError(
            f"low-degree vertices not covered by any 5-cycle: "
            f"{sorted(g.label(v) for v in missing)}")
    return LaminarOutcome(kind="family", covered=dk,
                          family=CycleFamily(cycles=tuple(family), kind="laminar"))


def _covering_family(g: PlaneGraph, k: int, fives: list[Cycle]) -> list[Cycle]:
    """Family construction by splitting on separating 5-cycles.

    A vertex set S stands for its induced subgraph.  A 5-cycle inside S
    separates it iff its host interior and exterior both meet S; the cut
    is the separating cycle with the fewest interior vertices in S (ties
    to the least cycle), and its two sides are the cut plus its interior
    or exterior part of S.  With no separating cycle, all 5-cycles
    inside S join the family.  Vertex sets are bitmasks over the vertex
    numbering of ``g.dual_tree``, the numbering region partitions use.

    Only reached once no low-degree vertex of the host is reducible; it
    is then a theorem that no vertex is reducible on any side either, so
    a reducible vertex on a side is reported as a falsification.
    """
    regions = [region_partition(g, c) for c in fives]
    family: set = set()
    work = [(g.dual_tree.all_vertices, regions)]
    while work:
        s, inside = work.pop()
        separating = [((r.interior_mask & s).bit_count(), r.cycle, r)
                      for r in inside if r.interior_mask & s and r.exterior_mask & s]
        if not separating:
            family.update(r.cycle for r in inside)
            continue
        cut = min(separating)[2]
        for side in (cut.boundary_mask | (cut.interior_mask & s),
                     cut.boundary_mask | (cut.exterior_mask & s)):
            if side.bit_count() >= s.bit_count():
                raise FalsificationError("separating cycle failed to shrink the graph")
            within = [r for r in inside if r.boundary_mask & side == r.boundary_mask]
            _check_side(g, k, side, within)
            work.append((side, within))
    return sorted(family)


def _check_side(g: PlaneGraph, k: int, side: int, within: list) -> None:
    """Guard on one split side: no vertex of side degree at most k lies
    on none of its 5-cycles (the region partitions ``within``).  A side
    is an induced subgraph of the host, so a triangle in it is a
    triangle of the host, which ``extract`` rejects at entry.
    """
    on_five = 0
    for r in within:
        on_five |= r.boundary_mask
    t = g.dual_tree
    for v in sorted(t.vertices(side & ~on_five)):
        if sum(side >> t.vpos[w] & 1 for w in g.neighbors(v)) <= k:
            raise FalsificationError(
                f"vertex {g.label(v)} became reducible inside a split, "
                "which contradicts the reduction dichotomy")


# ---------------------------------------------------------------------------
# containment forest and Dilworth decomposition
# ---------------------------------------------------------------------------

@dataclass
class ContainmentForest:
    """The interior-containment order of a laminar family, as a forest.

    ``parent[c]`` is the minimal member strictly containing c (None for
    roots) and ``depth[c]`` counts the members containing c, itself
    included.  Supplies the two extremal structures: the deepest
    root-to-leaf path and a maximum antichain, the leaves.
    """

    parent: dict = field(default_factory=dict)
    children: dict = field(default_factory=dict)
    depth: dict = field(default_factory=dict)
    roots: tuple = ()

    def deepest_chain(self) -> tuple:
        if not self.depth:
            return ()
        deepest = max(self.depth.values())
        leaf = min(c for c, d in self.depth.items() if d == deepest)
        path = [leaf]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))

    def max_antichain(self) -> tuple:
        # every antichain member has a leaf below it, and distinct
        # members have disjoint subtrees: no antichain beats the leaves
        return tuple(sorted(c for c, kids in self.children.items() if not kids))


def _forest(g: PlaneGraph, family: Sequence) -> ContainmentForest | None:
    """The containment forest of a family, or None if two members cross.

    Members are visited by decreasing interior size (ties to the least
    cycle).  A member's parent is the last one visited before it that
    holds its least interior face; going through the members in reverse
    order, each one adopts the waiting members whose face it holds.  In
    a laminar family that is the minimal member containing it.  The
    result is laminar iff each member lies inside its parent and the
    children of each parent (and the roots) are pairwise disjoint: then
    two members are nested along a path, or lie inside disjoint
    siblings.  All of it works on interior face masks.
    """
    cycles = sorted({validate_cycle(g, c) for c in family})
    faces = {c: region_partition(g, c).face_mask for c in cycles}
    order = sorted(cycles, key=lambda c: (-faces[c].bit_count(), c))
    forest = ContainmentForest(children={c: [] for c in cycles})
    adopted: dict = {}
    waiting: dict = {}       # least face -> members still without a parent
    pending = 0              # the least faces of the waiting members
    for c in reversed(order):
        held = pending & faces[c]
        for f in mask_members(held):
            adopted.update(dict.fromkeys(waiting.pop(f), c))
        pending ^= held
        least = faces[c] & -faces[c]
        waiting.setdefault(least.bit_length() - 1, []).append(c)
        pending |= least
    union: dict = {}         # parent -> union of its children's faces
    for c in order:
        parent = forest.parent[c] = adopted.get(c)
        if parent is None:
            forest.depth[c] = 1
        else:
            if faces[c] & ~faces[parent]:
                return None
            forest.depth[c] = forest.depth[parent] + 1
            forest.children[parent].append(c)
        if union.get(parent, 0) & faces[c]:
            return None
        union[parent] = union.get(parent, 0) | faces[c]
    for kids in forest.children.values():
        kids.sort()
    forest.roots = tuple(c for c in cycles if forest.parent[c] is None)
    return forest


def is_laminar(g: PlaneGraph, family: Sequence) -> bool:
    """True iff no two cycles of the family cross."""
    return _forest(g, family) is not None


def containment_forest(g: PlaneGraph, family: Sequence) -> ContainmentForest:
    """Order a laminar family by interior containment."""
    forest = _forest(g, family)
    if forest is None:
        raise ValueError("family is not laminar")
    return forest


def dilworth_decompose(g: PlaneGraph, family) -> tuple[CycleFamily, CycleFamily]:
    """Maximum chain and maximum antichain of the containment order.

    Their size product is at least the family size, so one of the two is
    at least the square root of it; the caller picks whichever side its
    bound needs.
    """
    forest = containment_forest(g, family)
    chain = forest.deepest_chain()
    antichain = forest.max_antichain()
    m = len(forest.parent)
    if m and len(chain) * len(antichain) < m:
        raise FalsificationError(
            f"chain x antichain = {len(chain)} x {len(antichain)} < "
            f"family size {m}")
    union = 0
    for c in antichain:
        faces = region_partition(g, c).face_mask
        if union & faces:
            raise FalsificationError("antichain members share interior")
        union |= faces
    return (CycleFamily(cycles=chain, kind="chain"),
            CycleFamily(cycles=antichain, kind="antichain"))
