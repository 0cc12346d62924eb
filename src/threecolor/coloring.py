"""Exact 3-coloring counting and the coloring-side operations.

Counting is a frontier dynamic program over one fixed vertex order, a
path decomposition of the graph.  After each vertex is placed, the
placed vertices that still have an unplaced neighbour form the
frontier, and a dict maps each coloring of the frontier to the number
of proper colorings of the placed vertices that induce it.  Counts are
exact Python integers.  Each pinned vertex, or each pinned group of
vertices reduced to a tag of its colors, holds one frontier slot from
the step its last member is placed until the end, so one sweep splits
the count by the pinned colors or tags: this serves full counts,
boundary counts, the extension test and transition matrices.  A sweep
reads its graph once, into a shape (:func:`sweep_shape`) that also
fixes the vertex order; what each vertex step does to the frontier is
planned from the shape alone, before any state is visited.
Colors are the literals 1, 2, 3 and colorings are counted as labeled
objects (color permutations give distinct colorings).  Permuting the
colors maps proper colorings to proper colorings, so a sweep that
forces no color and tags only by color-blind tags keeps one state per
color orbit: each state is relabeled by first occurrence and holds the
summed count of its orbit.

A coloring is represented as a tuple indexed by vertex id.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import permutations, product
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, GraphFormatError
from .plane_graph import PlaneGraph, _read_json, canonical_cycle

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


def _picker(idx: Sequence[int]) -> Callable[[tuple], tuple]:
    """The projection of a state tuple onto the slots ``idx``, as a tuple."""
    if len(idx) == 1:
        (i,) = idx
        return lambda s: (s[i],)
    if not idx:
        return lambda s: ()
    return itemgetter(*idx)


def sweep_shape(g, groups: Sequence[tuple],
                fixed: Mapping[int, int] | None = None) -> tuple:
    """The whole input of a sweep of ``g`` pinning ``groups`` and forcing
    the ``fixed`` colors, besides its tag, in sweep-order positions
    instead of vertex ids: for each vertex in the sweep order, the
    sorted positions of its neighbours; for each group, the positions
    of its members; and the fixed colors as sorted ``(position,
    color)`` pairs.

    The sweep order is chosen here and nowhere else, and :func:`sweep`
    reads nothing else of the graph, so sweeps of equal shapes with the
    same tag visit the same states and give the same counts and updates.
    """
    order = _bfs_order(g)
    pos = {v: p for p, v in enumerate(order)}
    return (tuple(tuple(sorted(pos[w] for w in g.neighbors(v))) for v in order),
            tuple(tuple(pos[v] for v in grp) for grp in groups),
            tuple(sorted((pos[v], c) for v, c in (fixed or {}).items())))


def _plan(shape: tuple, tag: Callable) -> list:
    """Plan every vertex step of the sweep of ``shape`` as ``(reads,
    extensions, key, ntags)``; vertices are their sweep positions.

    A state holds the tags of the completed groups in group order, then
    the colors of the placed vertices that are still needed, in placement
    order.  ``reads`` picks from a state the colors of the vertex's placed
    neighbours, then those of the other members of each group completing
    at this step.  ``extensions(seen)`` gives one tuple per allowed color
    ``c``: ``c``, then the tag of each completing group's colors.  ``key``
    maps ``state + extension`` onto the next state's layout, or is
    ``None`` when it already has that layout; ``ntags`` counts the tag
    slots of that layout.
    """
    nbrs, groups, fixed = shape
    fixed = dict(fixed)
    last = [max(nb, default=-1) for nb in nbrs]
    held: dict = {}          # position -> last step at which a group needs it
    completes: dict = {}     # step -> groups whose last member is placed there
    for i, grp in enumerate(groups):
        done = max(grp)
        completes.setdefault(done, []).append(i)
        for v in grp:
            held[v] = max(held.get(v, -1), done)
    steps = []
    tags: list = []          # ("t", i) for each completed group i
    placed: list = []        # placed positions still needed
    for v, adj in enumerate(map(set, nbrs)):
        slot = {u: len(tags) + i for i, u in enumerate(placed)}
        idx = [slot[u] for u in placed if u in adj]
        choices = (fixed[v],) if v in fixed else (1, 2, 3)
        done = completes.get(v, ())
        new = [("t", i) for i in done]
        grown = tags + placed + [v] + new
        tags = sorted(tags + new)
        placed = [u for u in placed + [v] if last[u] > v or held.get(u, -1) > v]
        kept = [grown.index(x) for x in tags + placed]
        key = None if kept == list(range(len(grown))) else _picker(kept)
        if not done:
            steps.append((_picker(idx), lambda seen, ch=choices: tuple(
                [(c,) for c in ch if c not in seen]), key, len(tags)))
            continue
        nb = len(idx)
        members = []     # per group: None for v, else a position in ``seen``
        for i in done:
            others = [u for u in groups[i] if u != v]
            at = iter(range(len(idx), len(idx) + len(others)))
            members.append([None if u == v else next(at) for u in groups[i]])
            idx += [slot[u] for u in others]
        steps.append((_picker(idx), _completing(nb, choices, members, tag), key,
                      len(tags)))
    return steps


def _completing(nb: int, choices: tuple, members: list,
                tag: Callable) -> Callable:
    """The extensions of a step at which groups complete, for ``seen``
    holding ``nb`` neighbour colors and then the other members' colors."""
    def extensions(seen):
        banned = seen[:nb]
        return tuple([(c, *[tag(tuple([c if i is None else seen[i] for i in m]))
                            for m in members])
                      for c in choices if c not in banned])
    return extensions


_RELABEL = {(a, b): tuple({a: 1, b: 2, 6 - a - b: 3}.get(c, 0) for c in range(4))
            for a, b in permutations((1, 2, 3), 2)}
"""Per first two distinct colors ``(a, b)``, the relabeling, indexed by
color, that maps them to 1 and 2."""

_IDENTITY = _RELABEL[1, 2]
_PERMUTED = [p for p in _RELABEL.values() if p is not _IDENTITY]
_BY_PREFIX = {pre: _RELABEL[tuple(dict.fromkeys(pre))[:2]]
              for k in (2, 3) for pre in product((1, 2, 3), repeat=k)
              if len(set(pre)) > 1}
"""The relabeling of every color tuple that starts with ``pre``, for the
prefixes of two or three colors that hold two distinct colors."""


def _color_blind(tag: Callable) -> Callable:
    """``tag``, checked to be invariant under color permutations: the first
    time a color tuple or one of its relabelings is tagged, all six are
    tagged and must agree, or ``ValueError`` is raised."""
    known: dict = {}

    def checked(cols):
        t = known.get(cols, known)
        if t is known:
            t = tag(cols)
            for p in _PERMUTED:
                moved = tuple([p[c] for c in cols])
                if tag(moved) != t:
                    raise ValueError("tag must be invariant under color "
                                     "permutations when no color is fixed")
                known[moved] = t
            known[cols] = t
        return t
    return checked


def _merge_orbits(states: dict, ntags: int) -> dict:
    """Relabel the color slots (those after the first ``ntags``) of every
    state by first occurrence and add the counts that meet."""
    out: dict = {}
    get = out.get
    for state, cnt in states.items():
        colors = state[ntags:] if ntags else state
        if colors:
            p = _BY_PREFIX.get(colors[:3])
            if p is None:
                a = colors[0]
                p = _RELABEL[a, next((c for c in colors if c != a), a % 3 + 1)]
            if p is not _IDENTITY:
                state = state[:ntags] + tuple([p[c] for c in colors])
        out[state] = get(state, 0) + cnt
    return out


def pinned_counts(g, pinned: Sequence = (),
                  fixed: Mapping[int, int] | None = None,
                  budget: int = DEFAULT_BUDGET,
                  tag: Callable[[tuple], Hashable] | None = None
                  ) -> tuple[dict, int]:
    """Count proper 3-colorings split by the colors of ``pinned``.

    Returns ``(states, updates)``: ``states`` maps each tuple of colors
    of the pinned vertices (in the given order) to the number of proper
    colorings inducing it, omitting zero counts; ``updates`` is the
    number of frontier state updates spent.  ``fixed`` forces colors on
    some vertices.  More than ``budget`` updates raise
    :class:`BudgetExceededError`.

    With ``tag``, ``pinned`` is a sequence of vertex groups (groups may
    share vertices) and the keys are tuples of ``tag(colors of the
    group)``, one per group.  A group's tag is taken as soon as its last
    member is placed, and its members then leave the frontier like any
    other vertex, so the sweep carries one slot per group instead of
    its colors.  ``tag`` runs per entry of a step's memoized extension
    table, not per state.

    The vertex ids and colors are checked here; the count is
    ``sweep(sweep_shape(g, groups, fixed), tag, budget)``, which reads
    the graph only through its shape (see :func:`sweep` for orbits).
    """
    fixed = dict(fixed or {})
    verts = set(g.vertices)
    for v, c in fixed.items():
        if v not in verts:
            raise ValueError(f"vertex {v} not in graph")
        if c not in (1, 2, 3):
            raise ValueError(f"color must be 1, 2 or 3, got {c}")
    groups = [(v,) for v in pinned] if tag is None else [tuple(p) for p in pinned]
    for grp in groups:
        if not grp:
            raise ValueError("pinned groups must not be empty")
        for v in grp:
            if v not in verts:
                raise ValueError(f"vertex {v} not in graph")
    return sweep(sweep_shape(g, groups, fixed), tag, budget)


def sweep(shape: tuple, tag: Callable[[tuple], Hashable] | None,
          budget: int) -> tuple[dict, int]:
    """The counting sweep of a :func:`sweep_shape`: ``(states, updates)``
    as :func:`pinned_counts` returns them.  Without ``tag`` every group
    is one vertex, keyed by its color.

    Without fixed colors, ``tag`` must be invariant under color
    permutations: the first time a sweep tags some colors, it also tags
    their five other permutations, and a differing tag raises
    ``ValueError``.  Such a sweep, like one without groups, keeps one
    state per color orbit (see the module docstring).  Fixed colors and
    untagged groups tell the colors apart, so their sweeps keep every
    state.
    """
    nbrs, groups, fixed = shape
    merge = not fixed and (tag is not None or not groups)
    if tag is None:
        tag = itemgetter(0)
    elif merge:
        tag = _color_blind(tag)
    states = {(): 1}
    updates = peak = 0
    for reads, extensions, key, ntags in _plan(shape, tag):
        nxt: dict = {}
        get = nxt.get
        memo: dict = {}
        for state, cnt in states.items():
            seen = reads(state)
            exts = memo.get(seen)
            if exts is None:
                exts = memo[seen] = extensions(seen)
            for ext in exts:
                full = state + ext
                if key is not None:
                    full = key(full)
                nxt[full] = get(full, 0) + cnt
            updates += len(exts)
        if updates > budget:
            raise BudgetExceededError(budget)
        states = _merge_orbits(nxt, ntags) if merge else nxt
        peak = max(peak, len(states))
    log.debug("sweep of %d vertices: %d updates, peak %d live states, "
              "color orbits %s", len(nbrs), updates, peak,
              "merged" if merge else "not merged")
    return states, updates


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


SPECIAL_POSITION = {p: next(i for i in range(5) if p.count(p[i]) == 1)
                    for p in product((1, 2, 3), repeat=5)
                    if all(p[i - 1] != p[i] for i in range(5))}
"""The position of the color used once, for each of the 30 proper
colorings of a 5-cycle."""


def special_data(cycle: Sequence[int], coloring) -> SpecialData:
    """Locate the special vertex and edge of a properly colored 5-cycle."""
    if len(cycle) != 5:
        raise ValueError(f"special vertex is defined for 5-cycles, got "
                         f"length {len(cycle)}")
    s = SPECIAL_POSITION.get(tuple(coloring[v] for v in cycle))
    if s is None:
        raise ValueError("coloring is not a proper 3-coloring of the cycle")
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
    for v in c:
        if boundary.get(v) not in (1, 2, 3):
            raise ValueError(f"boundary gives cycle vertex {g.label(v)} "
                             "no color in 1..3")
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
    """Read ``{"colors": {"a": 1, ...}}`` from a file path or the parsed
    data, and validate it against ``g``."""
    data = _read_json(source)
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

