"""Independent brute-force oracles.

These reimplement the checked quantities from their definitions, without
touching the library's search machinery, so that frozen expected values
are backed by a second computation path.  ``pattern_transition_entries``
is the exception: it is the per-pattern transition matrix computation
that the pinned counting sweep replaced, kept as its reference, and
``subgraph_extract`` is the extraction that rebuilt a plane graph for
every split, kept as the reference of ``laminar.extract``,
``pairwise_laminar`` is the all-pairs crossing test that the one-pass
containment forest replaced, and ``plane_region`` cuts regions along
cycles by rebuilding each side as a plane graph with fresh ids, the
reference of ``plane_graph.region_graph``.  ``dual_search_faces`` and
``rescan_partition`` are the interior search and the per-vertex face
rescan that the dual-tree parity of ``plane_graph.region_partition``
replaced.  ``compose_by_definition`` is the triple-sum matrix product
that ``transition.compose`` replaced, and ``per_entry_doubling`` and
``per_entry_dominant`` are the samplers that drew one entry per RNG
call, kept as the reference of ``transition._doubling_from`` and
``transition._dominant_from``.  ``reference_sweep`` is the counting
sweep on state tuples with a separate orbit-merging pass, kept as the
reference of the register kernel of ``coloring.sweep`` (``renumbered``
carries a shape into any vertex order for it), and
``filtered_doubling_supports`` the sort-and-filter construction of
``transition._doubling_supports``.  ``switch_lattice`` builds the 2**t
colorings of the best bichromatic pair that ``coloring.switching_count``
only counts, with ``switch_component`` as its component swap.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, product
from operator import itemgetter

from threecolor import (
    CycleFamily,
    LaminarOutcome,
    PlaneGraph,
    bichromatic_components,
    canonical_cycle,
    count_with_boundary,
    enumerate_cycles,
    is_triangle_free,
    low_degree_set,
    region_partition,
)
from threecolor.coloring import _color_blind
from threecolor.errors import BudgetExceededError, FalsificationError
from threecolor.plane_graph import identify_neighbors, validate_cycle
from threecolor.transition import BLOCK_DIAGONAL, TransitionMatrix, _doubling_supports


def cycle_edges(cycle) -> set[frozenset]:
    """Undirected edge set of a cyclic vertex sequence."""
    n = len(cycle)
    return {frozenset((cycle[i], cycle[(i + 1) % n])) for i in range(n)}


def scan_count_colorings(g) -> int:
    """Count proper 3-colorings by scanning all 3**n assignments."""
    verts = list(g.vertices)
    n = len(verts)
    assert n <= 16, "scan oracle is for tiny graphs"
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[v], pos[w]) for v in verts for w in g.neighbors(v) if v < w]
    total = 0
    for assign in product((1, 2, 3), repeat=n):
        if all(assign[a] != assign[b] for a, b in edges):
            total += 1
    return total


def scan_triangle(g) -> bool:
    """Triangle detection by scanning all vertex triples."""
    verts = list(g.vertices)
    adj = {v: set(g.neighbors(v)) for v in verts}
    for a, b, c in combinations(verts, 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            return True
    return False


def scan_cycles(g, length: int) -> set:
    """All cycles of a given length as frozensets of their edges: every
    sequence of distinct vertices, each adjacent to the next and the
    last to the first, grown one vertex at a time."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    walks = [(v,) for v in g.vertices]
    for _ in range(length - 1):
        walks = [w + (x,) for w in walks for x in adj[w[-1]] if x not in w]
    return {frozenset(frozenset((w[i], w[(i + 1) % length])) for i in range(length))
            for w in walks if w[0] in adj[w[-1]]}


def special_vertex_by_definition(cycle, coloring):
    """The unique vertex whose color appears exactly once on the cycle."""
    cols = [coloring[v] for v in cycle]
    singles = [v for v, c in zip(cycle, cols) if cols.count(c) == 1]
    assert len(singles) == 1
    return singles[0]


def _pentagon_patterns():
    """The 30 proper color patterns of a 5-cycle with the index of the
    position whose color occurs once."""
    out = []
    for pat in product((1, 2, 3), repeat=5):
        if any(pat[i] == pat[(i + 1) % 5] for i in range(5)):
            continue
        special = next(i for i in range(5) if pat.count(pat[i]) == 1)
        out.append((pat, special))
    return tuple(out)


def pattern_transition_entries(g, c1, c2):
    """Transition matrix entries from one boundary count per consistent
    pair of the 30 x 30 pentagon color patterns, grouped by the two
    special positions; ``c1``/``c2`` must be in canonical cycle order."""
    ann = plane_region(g, c1, [c2])
    rows = map_vertices(g, ann, c1)
    cols = map_vertices(g, ann, c2)
    shared = [(i, j) for i in range(5) for j in range(5) if rows[i] == cols[j]]
    raw = [[0] * 5 for _ in range(5)]
    for pat1, s1 in _pentagon_patterns():
        for pat2, s2 in _pentagon_patterns():
            if any(pat1[i] != pat2[j] for i, j in shared):
                continue
            fixed = {rows[i]: pat1[i] for i in range(5)}
            fixed.update({cols[j]: pat2[j] for j in range(5)})
            raw[s1][s2] += count_with_boundary(ann, fixed).count
    assert all(x % 6 == 0 for row in raw for x in row)
    return tuple(tuple(x // 6 for x in row) for row in raw)


def compose_by_definition(ms):
    """The product of a chain of transition matrices, one triple sum and
    one checked ``TransitionMatrix`` per step."""
    ms = list(ms)
    if not ms:
        raise ValueError("cannot compose an empty list")
    acc = ms[0]
    for nxt in ms[1:]:
        if acc.col_labels != nxt.row_labels:
            raise ValueError(
                f"label mismatch: {acc.col_labels} vs {nxt.row_labels}")
        a, b = acc.entries, nxt.entries
        prod = tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(5)) for j in range(5))
            for i in range(5))
        acc = TransitionMatrix(entries=prod, row_labels=acc.row_labels,
                               col_labels=nxt.col_labels)
    return acc


def per_entry_doubling(rng):
    """A support by ``rng.choice``, then one ``rng.randint(1, 3)`` per
    support cell, row by row and in pair order."""
    m = [[0] * 5 for _ in range(5)]
    for i, pair in enumerate(rng.choice(_doubling_supports())):
        for j in pair:
            m[i][j] = rng.randint(1, 3)
    return tuple(tuple(r) for r in m)


def per_entry_dominant(rng):
    """Row and column permutations by ``rng.sample``, then one
    ``rng.randint(0, 1)`` of noise per entry, row by row."""
    sigma = rng.sample(range(5), 5)
    tau = rng.sample(range(5), 5)
    return tuple(tuple(BLOCK_DIAGONAL[sigma[i]][tau[j]] + rng.randint(0, 1)
                       for j in range(5)) for i in range(5))


def pairwise_laminar(g, family) -> bool:
    """True iff no two cycles of the family have properly overlapping
    interiors, by comparing every pair of interior face sets."""
    regions = [region_partition(g, c).faces for c in family]
    for i, f1 in enumerate(regions):
        for f2 in regions[i + 1:]:
            if not (f1.isdisjoint(f2) or f1 <= f2 or f2 <= f1):
                return False
    return True


def subgraph_extract(g, k):
    """The reduction dichotomy by its definitions: reducibility is tested
    by identifying each candidate's neighbourhood, and every split
    rebuilds both sides as plane graphs and re-enumerates their
    5-cycles.  Same outcome and guards as ``laminar.extract``."""
    if not is_triangle_free(g):
        raise ValueError("extraction requires a triangle-free graph")
    if k < 0:
        raise ValueError("k must be non-negative")
    dk = low_degree_set(g, k)
    v = _reducible_vertex(g, dk)
    if v is not None:
        return LaminarOutcome(kind="reducible", vertex=v, covered=dk)
    family = _subgraph_family(g, k)
    if not pairwise_laminar(g, family):
        raise FalsificationError("extracted family of 5-cycles is not laminar")
    missing = dk - {v for c in family for v in c}
    if missing:
        raise FalsificationError(f"uncovered low-degree vertices {sorted(missing)}")
    return LaminarOutcome(kind="family", covered=dk,
                          family=CycleFamily(cycles=tuple(family), kind="laminar"))


def _reducible_vertex(g, candidates):
    for v in sorted(candidates):
        if is_triangle_free(identify_neighbors(g, v)):
            return v
    return None


def _subgraph_family(g, k):
    fives = enumerate_cycles(g, 5)
    separating = []
    for c in fives:
        parts = region_partition(g, c)
        if parts.interior and parts.exterior:
            separating.append((len(parts.interior), c))
    if not separating:
        return fives
    _, cut = min(separating)
    merged = set()
    for side in (interior_subgraph(g, cut), exterior_subgraph(g, cut)):
        if side.n >= g.n:
            raise FalsificationError("separating cycle failed to shrink the graph")
        if not is_triangle_free(side):
            raise FalsificationError("split along a 5-cycle produced a triangle")
        v = _reducible_vertex(side, low_degree_set(side, k))
        if v is not None:
            raise FalsificationError(f"vertex {side.label(v)} became reducible")
        for c in _subgraph_family(side, k):
            merged.add(canonical_cycle(map_vertices(side, g, c)))
    return sorted(merged)


# ---------------------------------------------------------------------------
# regions rebuilt as plane graphs
# ---------------------------------------------------------------------------

def map_vertices(src, dst, vertices):
    """Translate vertex ids between two graphs sharing labels."""
    return tuple(dst.index(src.label(v)) for v in vertices)


def _restrict(g, keep, drop_edge, outer_dart) -> PlaneGraph:
    """Induced plane subgraph on ``keep`` minus edges failing ``drop_edge``.

    Rotations are restrictions of the host rotations, so the embedding is
    inherited.  ``outer_dart`` must survive; the face it lies on becomes
    the outer face.
    """
    order = sorted(keep)
    new_id = {v: i for i, v in enumerate(order)}
    rotation = [[new_id[w] for w in g.rotation[v]
                 if w in keep and not drop_edge(v, w)] for v in order]
    start = (new_id[outer_dart[0]], new_id[outer_dart[1]])
    walk = []
    a, b = start
    while not walk or (a, b) != start:
        walk.append(a)
        rot = rotation[b]
        a, b = b, rot[(rot.index(a) + 1) % len(rot)]
    return PlaneGraph([g.labels[v] for v in order], rotation, outer_walk=walk)


def _outside_dart(g, cycle, inside):
    m = len(cycle)
    for i in range(m):
        for dart in ((cycle[i], cycle[(i + 1) % m]),
                     (cycle[(i + 1) % m], cycle[i])):
            if g.face_of_dart[dart] not in inside:
                return dart
    raise FalsificationError("cycle has no face outside it")


def interior_subgraph(g, cycle) -> PlaneGraph:
    """The cycle plus everything inside it; the cycle becomes the outer face."""
    c = validate_cycle(g, cycle)
    ins = region_partition(g, c).faces
    keep = set(c) | region_partition(g, c).interior

    def drop(u, v):
        fa = g.face_of_dart[(u, v)]
        fb = g.face_of_dart[(v, u)]
        return fa not in ins and fb not in ins and frozenset((u, v)) not in cycle_edges(c)

    return _restrict(g, keep, drop, _outside_dart(g, c, ins))


def exterior_subgraph(g, cycle) -> PlaneGraph:
    """The cycle plus everything outside it; keeps the original outer face."""
    c = validate_cycle(g, cycle)
    ins = region_partition(g, c).faces
    keep = set(c) | region_partition(g, c).exterior

    def drop(u, v):
        return g.face_of_dart[(u, v)] in ins and g.face_of_dart[(v, u)] in ins

    outer_walk = g.faces[g.outer_face]
    return _restrict(g, keep, drop, (outer_walk[0], outer_walk[1]))


def plane_region(g, outer=None, holes=()) -> PlaneGraph:
    """The closed interior of ``outer`` minus the open interiors of the
    holes, as a plane graph: the interior side of ``outer``, then the
    exterior side of each hole in turn, each rebuilt with fresh ids.
    The holes must lie strictly inside ``outer`` with disjoint interiors."""
    region = g if outer is None else interior_subgraph(g, outer)
    for hole in holes:
        region = exterior_subgraph(region, map_vertices(g, region, hole))
    return region


def by_label(g, label) -> tuple[set, set]:
    """The vertices and the edges of ``g`` named by ``label``."""
    return ({label(v) for v in g.vertices},
            {frozenset((label(u), label(v)))
             for u in g.vertices for v in g.neighbors(u)})


# ---------------------------------------------------------------------------
# cycle interiors by their definitions
# ---------------------------------------------------------------------------

def dual_search_faces(g, cycle) -> frozenset:
    """Faces unreachable from the outer face in the dual once the dual
    edges crossing the cycle are removed."""
    blocked = cycle_edges(validate_cycle(g, cycle))
    reached = {g.outer_face}
    stack = [g.outer_face]
    while stack:
        walk = g.faces[stack.pop()]
        for i in range(len(walk)):
            u, v = walk[i], walk[(i + 1) % len(walk)]
            if frozenset((u, v)) in blocked:
                continue
            other = g.face_of_dart[(v, u)]
            if other not in reached:
                reached.add(other)
                stack.append(other)
    return frozenset(range(len(g.faces))) - reached


def rescan_partition(g, cycle) -> tuple[frozenset, frozenset, frozenset]:
    """(interior, exterior, boundary): a non-cycle vertex is inside iff
    one of its faces is inside the cycle."""
    inside = dual_search_faces(g, cycle)
    incident = [set() for _ in g.vertices]
    for idx, walk in enumerate(g.faces):
        for v in walk:
            incident[v].add(idx)
    boundary = frozenset(cycle)
    interior = frozenset(v for v in g.vertices
                         if v not in boundary and incident[v] & inside)
    return interior, frozenset(g.vertices) - boundary - interior, boundary


# ---------------------------------------------------------------------------
# the counting sweep on state tuples
# ---------------------------------------------------------------------------

def _picker(idx):
    """The projection of a state tuple onto the slots ``idx``, as a tuple."""
    if len(idx) == 1:
        (i,) = idx
        return lambda s: (s[i],)
    if not idx:
        return lambda s: ()
    return itemgetter(*idx)


def _plan(shape, tag):
    """Every vertex step of the sweep of ``shape`` in its own order, as
    ``(reads, extensions, key, ntags)``.  A state holds the tags of the
    completed groups in group order, then the colors of the placed
    vertices that are still needed, in placement order."""
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


def _completing(nb, choices, members, tag):
    def extensions(seen):
        banned = seen[:nb]
        return tuple([(c, *[tag(tuple([c if i is None else seen[i] for i in m]))
                            for m in members])
                      for c in choices if c not in banned])
    return extensions


_RELABEL = {(a, b): tuple({a: 1, b: 2, 6 - a - b: 3}.get(c, 0) for c in range(4))
            for a, b in permutations((1, 2, 3), 2)}
_IDENTITY = _RELABEL[1, 2]
_BY_PREFIX = {pre: _RELABEL[tuple(dict.fromkeys(pre))[:2]]
              for k in (2, 3) for pre in product((1, 2, 3), repeat=k)
              if len(set(pre)) > 1}


def merge_orbits(states, ntags):
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


def renumbered(shape, order):
    """``shape`` with position ``order[t]`` renamed ``t``: sweeping it in
    its own order places the positions of ``shape`` in ``order``."""
    nbrs, groups, fixed = shape
    at = {v: t for t, v in enumerate(order)}
    return (tuple(tuple(sorted(at[w] for w in nbrs[v])) for v in order),
            tuple(tuple(at[v] for v in grp) for grp in groups),
            tuple(sorted((at[v], c) for v, c in fixed)))


def reference_sweep(shape, tag, budget=10 ** 9):
    """``(states, updates)`` of the sweep of ``shape`` in the shape's own
    order, with the guards and the orbit rule of ``coloring.sweep``."""
    nbrs, groups, fixed = shape
    merge = not fixed and (tag is not None or not groups)
    if tag is None:
        tag = itemgetter(0)
    elif merge:
        tag = _color_blind(tag)
    states = {(): 1}
    updates = 0
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
        states = merge_orbits(nxt, ntags) if merge else nxt
    return states, updates


def filtered_doubling_supports():
    """The 2040 doubling supports: every product of five column pairs,
    kept when each column is used exactly twice."""
    pairs = tuple(combinations(range(5), 2))
    each_twice = sorted(2 * list(range(5)))
    return tuple(rows for rows in product(pairs, repeat=5)
                 if sorted(chain.from_iterable(rows)) == each_twice)


def switch_component(coloring, component, i, j) -> tuple:
    """Swap colors i and j on the vertices of one of their bichromatic
    components; neighbours outside a maximal component carry the third
    color, so the result stays proper."""
    swap = {i: j, j: i}
    return tuple(swap.get(c, c) if v in component else c
                 for v, c in enumerate(coloring))


def switch_lattice(g, coloring) -> set:
    """Every coloring reached by switching a subset of the components of
    the best bichromatic pair: the pair with the most components, ties
    to the least pair.  Its size is 2**t for t components."""
    best = max(((1, 2), (1, 3), (2, 3)),
               key=lambda p: len(bichromatic_components(g, coloring, *p)))
    comps = bichromatic_components(g, coloring, *best)
    if len(comps) > 20:
        raise ValueError(f"refusing to materialize 2**{len(comps)} colorings")
    out = set()
    for mask in range(1 << len(comps)):
        cur = tuple(coloring)
        for b, comp in enumerate(comps):
            if mask >> b & 1:
                cur = switch_component(cur, comp, *best)
        out.add(cur)
    return out
