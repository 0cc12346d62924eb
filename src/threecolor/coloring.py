"""Exact 3-coloring counting and the coloring-side operations.

Counting is a frontier dynamic program over one fixed vertex order, a
path decomposition of the graph.  After each vertex is placed, the
placed vertices that still have an unplaced neighbour form the
frontier, and a dict maps each coloring of the frontier to the number
of proper colorings of the placed vertices that induce it.  Counts are
exact Python integers.  Pinned vertices stay in the frontier until the
end, so one sweep splits the count by their colors: this serves full
counts, boundary counts, the extension test and transition matrices.
Colors are the literals 1, 2, 3 and colorings are counted as labeled
objects (color permutations give distinct colorings).

A coloring is represented as a tuple indexed by vertex id.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import BudgetExceededError, GraphFormatError
from .plane_graph import PlaneGraph, canonical_cycle

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 10 ** 9


def _bfs_order(g) -> list:
    """Breadth-first vertex order from the least vertex, restarted at the
    least unplaced vertex for each further component."""
    seen = set()
    order = []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for u in queue:
            order.append(u)
            for w in sorted(g.neighbors(u)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


@dataclass(frozen=True)
class CountResult:
    count: int
    nodes: int      # frontier state updates spent


def pinned_counts(g, pinned: Sequence[int] = (),
                  fixed: Mapping[int, int] | None = None,
                  budget: int = DEFAULT_BUDGET) -> tuple[dict, int]:
    """Count proper 3-colorings split by the colors of ``pinned``.

    Returns ``(states, updates)``: ``states`` maps each tuple of colors
    of the pinned vertices (in the given order) to the number of proper
    colorings inducing it, omitting zero counts; ``updates`` is the
    number of frontier state updates spent.  ``fixed`` forces colors on
    some vertices.  More than ``budget`` updates raise
    :class:`BudgetExceededError`.
    """
    fixed = dict(fixed or {})
    verts = set(g.vertices)
    for v, c in fixed.items():
        if v not in verts:
            raise ValueError(f"vertex {v} not in graph")
        if c not in (1, 2, 3):
            raise ValueError(f"color must be 1, 2 or 3, got {c}")
    for v in pinned:
        if v not in verts:
            raise ValueError(f"vertex {v} not in graph")
    order = _bfs_order(g)
    pos = {v: p for p, v in enumerate(order)}
    last = {v: max((pos[w] for w in g.neighbors(v)), default=-1) for v in order}
    kept = set(pinned)
    frontier: list = []
    states = {(): 1}
    updates = 0
    for p, v in enumerate(order):
        nbrs = set(g.neighbors(v))
        checks = [i for i, u in enumerate(frontier) if u in nbrs]
        grown = frontier + [v]
        keep = [i for i, u in enumerate(grown) if u in kept or last[u] > p]
        choices = (fixed[v],) if v in fixed else (1, 2, 3)
        nxt: dict = {}
        for state, cnt in states.items():
            banned = {state[i] for i in checks}
            for c in choices:
                if c in banned:
                    continue
                full = state + (c,)
                key = tuple([full[i] for i in keep])
                nxt[key] = nxt.get(key, 0) + cnt
                updates += 1
        if updates > budget:
            raise BudgetExceededError(budget)
        states = nxt
        frontier = [grown[i] for i in keep]
    at = [frontier.index(v) for v in pinned]
    return {tuple([s[i] for i in at]): cnt for s, cnt in states.items()}, updates


def count_3_colorings(g, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of proper 3-colorings, as a labeled count."""
    return count_3_colorings_detailed(g, budget=budget).count


def count_3_colorings_detailed(g, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact count plus the number of frontier state updates spent."""
    states, updates = pinned_counts(g, budget=budget)
    return CountResult(count=sum(states.values()), nodes=updates)


def count_with_boundary(g, fixed: Mapping[int, int],
                        budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact count of colorings extending a partial assignment."""
    states, updates = pinned_counts(g, (), fixed, budget)
    return CountResult(count=sum(states.values()), nodes=updates)


def enumerate_3_colorings(g) -> Iterator[tuple]:
    """Yield every proper 3-coloring exactly once, as vertex-indexed tuples.

    A plain backtracking search in breadth-first order, kept separate
    from the counting sweep so that tests can check one against the
    other.
    """
    order = _bfs_order(g)
    n = len(order)
    if n == 0:
        yield ()
        return
    pos = {v: p for p, v in enumerate(order)}
    prior = [tuple(pos[w] for w in g.neighbors(v) if pos[w] < p)
             for p, v in enumerate(order)]
    colors = [0] * n
    dense = all(v == p for p, v in enumerate(order))

    def rec(p):
        if p == n:
            if dense:
                yield tuple(colors)
            else:
                out = [0] * (max(order) + 1)
                for q, v in enumerate(order):
                    out[v] = colors[q]
                yield tuple(out)
            return
        for c in (1, 2, 3):
            if any(colors[q] == c for q in prior[p]):
                continue
            colors[p] = c
            yield from rec(p + 1)
        colors[p] = 0

    yield from rec(0)


def is_proper(g, coloring) -> bool:
    """No edge is monochromatic and every vertex has a color in 1..3."""
    for v in g.vertices:
        if coloring[v] not in (1, 2, 3):
            return False
        for w in g.neighbors(v):
            if coloring[v] == coloring[w]:
                return False
    return True


# ---------------------------------------------------------------------------
# special vertex / edge of a colored 5-cycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialData:
    """The unique singleton-colored vertex of a 5-cycle plus the cycle
    edge disjoint from its two incident edges."""

    vertex: int
    edge: tuple


def special_data(cycle: Sequence[int], coloring) -> SpecialData:
    """Locate the special vertex and edge of a properly colored 5-cycle."""
    if len(cycle) != 5:
        raise ValueError(f"special vertex is defined for 5-cycles, got "
                         f"length {len(cycle)}")
    cols = [coloring[v] for v in cycle]
    for i in range(5):
        if cols[i] == cols[(i + 1) % 5]:
            raise ValueError("coloring is not proper on the cycle")
    singles = [i for i in range(5) if cols.count(cols[i]) == 1]
    if len(singles) != 1:
        raise ValueError("coloring has no unique singleton color on the cycle")
    s = singles[0]
    a, b = cycle[(s + 2) % 5], cycle[(s + 3) % 5]
    return SpecialData(vertex=cycle[s], edge=(min(a, b), max(a, b)))


# ---------------------------------------------------------------------------
# boundary extension
# ---------------------------------------------------------------------------

def extends(g: PlaneGraph, cycle: Sequence[int], boundary: Mapping[int, int],
            budget: int = DEFAULT_BUDGET) -> bool:
    """Whether a proper coloring of a facial cycle (length at most 5)
    extends to a proper 3-coloring of the whole graph."""
    c = canonical_cycle(cycle)
    if len(c) > 5:
        raise ValueError("extension test requires a cycle of length at most 5")
    if c not in g.facial_cycles:
        raise ValueError("cycle does not bound a face")
    m = len(c)
    for i in range(m):
        u, v = c[i], c[(i + 1) % m]
        if boundary[u] == boundary[v]:
            raise ValueError("boundary coloring is not proper on the cycle")
    fixed = {v: boundary[v] for v in c}
    return count_with_boundary(g, fixed, budget=budget).count > 0


# ---------------------------------------------------------------------------
# bichromatic components and switching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BichromaticComponent:
    """A connected component of the subgraph induced by two color classes."""

    vertices: frozenset
    colors: tuple

    def __len__(self):
        return len(self.vertices)


def bichromatic_components(g, coloring, i: int, j: int) -> list[BichromaticComponent]:
    """Components of the subgraph induced by the vertices colored i or j."""
    if i == j:
        raise ValueError("need two distinct colors")
    pair = (min(i, j), max(i, j))
    keep = {v for v in g.vertices if coloring[v] in pair}
    seen: set = set()
    comps = []
    for v in sorted(keep):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in keep and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(BichromaticComponent(vertices=frozenset(comp), colors=pair))
    return comps


def switch_component(coloring, component: BichromaticComponent) -> tuple:
    """Swap the component's two colors on its vertices.

    Properness is preserved: neighbours outside a maximal component
    carry the third color.
    """
    i, j = component.colors
    swap = {i: j, j: i}
    return tuple(swap.get(c, c) if v in component.vertices else c
                 for v, c in enumerate(coloring))


def colorings_from_switching(g, coloring, family_size: int | None = None) -> set:
    """All colorings reachable by switching subsets of the components of
    the best bichromatic pair.

    Picks the color pair with the most components (ties: lexicographically
    least pair) and returns the full switch lattice, ``2**t`` distinct
    proper colorings.  When ``family_size`` is given, a best pair with
    fewer than ``family_size / 6`` components is reported as a
    falsification of the expected component bound.
    """
    best_pair = None
    best_comps: list[BichromaticComponent] = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        comps = bichromatic_components(g, coloring, i, j)
        if best_pair is None or len(comps) > len(best_comps):
            best_pair, best_comps = (i, j), comps
    t = len(best_comps)
    if family_size is not None and 6 * t < family_size:
        log.error("switching pair %s has %d components, below the expected "
                  "family_size/6 = %s", best_pair, t, family_size / 6)
    if t > 20:
        raise ValueError(f"refusing to materialize 2**{t} colorings")
    out = set()
    for mask in range(1 << t):
        cur = coloring if isinstance(coloring, tuple) else tuple(coloring)
        for b in range(t):
            if mask >> b & 1:
                cur = switch_component(cur, best_comps[b])
        out.add(cur)
    return out


# ---------------------------------------------------------------------------
# coloring file format
# ---------------------------------------------------------------------------

def load_coloring(source, g: PlaneGraph) -> tuple:
    """Read ``{"colors": {"a": 1, ...}}`` and validate it against ``g``."""
    if isinstance(source, (str, Path)) and not (
            isinstance(source, str) and source.lstrip().startswith("{")):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    if not isinstance(data, dict) or "colors" not in data:
        raise GraphFormatError({"error": "bad_schema", "detail": "missing 'colors'"})
    colors = data["colors"]
    if not isinstance(colors, dict):
        raise GraphFormatError({"error": "bad_schema", "detail": "'colors' not a map"})
    out = [0] * g.n
    for lab in g.labels:
        if lab not in colors:
            raise GraphFormatError({"error": "uncolored_vertex", "vertex": lab})
        c = colors[lab]
        if type(c) is not int or c not in (1, 2, 3):
            raise GraphFormatError({"error": "bad_color", "vertex": lab,
                                    "color": c})
        out[g.index(lab)] = c
    extra = set(colors) - set(g.labels)
    if extra:
        raise GraphFormatError({"error": "unknown_vertex", "vertex": sorted(extra)[0]})
    coloring = tuple(out)
    for v in g.vertices:
        for w in g.neighbors(v):
            if v < w and coloring[v] == coloring[w]:
                raise GraphFormatError(
                    {"error": "monochromatic_edge",
                     "edge": [g.label(v), g.label(w)]})
    return coloring


def coloring_to_json(g: PlaneGraph, coloring) -> dict:
    return {"colors": {g.label(v): coloring[v] for v in g.vertices}}


def brute_force_count(g) -> int:
    """Exhaustive 3**n scan; exponential, for cross-checks on tiny graphs."""
    verts = list(g.vertices)
    n = len(verts)
    if n > 20:
        raise ValueError("brute force scan limited to 20 vertices")
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[v], pos[w]) for v in verts for w in g.neighbors(v) if v < w]
    total = 0
    for assign in product((1, 2, 3), repeat=n):
        if all(assign[a] != assign[b] for a, b in edges):
            total += 1
    return total
