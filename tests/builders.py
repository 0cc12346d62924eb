"""Small hand-built plane graphs shared across the tests."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from threecolor import (
    PlaneGraph,
    canonical_cycle,
    pentagon_tower,
    perturbed_tower,
    tower_pentagons,
)
from threecolor.generators import _graph_from_layout


def cycle_graph(n: int) -> PlaneGraph:
    labels = [f"c{i}" for i in range(n)]
    rotation = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    return PlaneGraph(labels, rotation, outer_walk=list(range(n)))


def single_vertex() -> PlaneGraph:
    return PlaneGraph(["a"], [[]], outer_walk=[0])


def single_edge() -> PlaneGraph:
    return PlaneGraph(["a", "b"], [[1], [0]], outer_walk=[0, 1])


def path_graph(n: int) -> PlaneGraph:
    labels = [f"p{i}" for i in range(n)]
    rotation = []
    for i in range(n):
        row = []
        if i > 0:
            row.append(i - 1)
        if i < n - 1:
            row.append(i + 1)
        rotation.append(row)
    # the single face walks down and back up the path
    walk = list(range(n)) + list(range(n - 2, 0, -1))
    return PlaneGraph(labels, rotation, outer_walk=walk)


def chorded_pentagon() -> PlaneGraph:
    """A 5-cycle with an inside chord; has a triangle (negative control)."""
    return PlaneGraph(
        ["a", "b", "c", "d", "e"],
        [[1, 2, 4], [2, 0], [3, 0, 1], [4, 2], [0, 3]],
        outer_walk=[0, 1, 2, 3, 4])


def interleaved_pentagons() -> PlaneGraph:
    """Two 5-cycles sharing exactly two (non-adjacent) vertices, embedded
    so that their interiors properly overlap: the canonical crossing
    example.  Four internally disjoint c-d paths, interleaved around the
    bundle as a1, b1, a2-path, b2-path."""
    pos = {"c": (0, 0), "d": (0, 10), "a1": (-3, 5), "b1": (-1, 5),
           "a3": (1, 3), "a2": (1, 7), "b3": (3, 3), "b2": (3, 7)}
    edges = [("c", "a1"), ("a1", "d"), ("c", "a3"), ("a3", "a2"), ("a2", "d"),
             ("c", "b1"), ("b1", "d"), ("c", "b3"), ("b3", "b2"), ("b2", "d")]
    return _graph_from_layout(pos, edges, ["c", "a1", "d", "b2", "b3"])


def interleaved_cycles(g: PlaneGraph):
    a = tuple(g.index(x) for x in ("c", "a1", "d", "a2", "a3"))
    b = tuple(g.index(x) for x in ("c", "b1", "d", "b2", "b3"))
    return a, b


def nested_pairs_graph() -> PlaneGraph:
    """Two pentagon prisms hanging inside an outer square: a laminar
    family of four 5-cycles forming two nested pairs side by side."""
    pos = {}
    edges = []
    for j in range(4):
        th = 2 * math.pi * j / 4
        pos[f"o{j}"] = (14 * math.cos(th), 14 * math.sin(th))
        edges.append((f"o{j}", f"o{(j + 1) % 4}"))
    for i, base in enumerate((0.0, math.pi)):
        cx, cy = 7 * math.cos(base), 7 * math.sin(base)
        pos[f"t{i}"] = (10.5 * math.cos(base), 10.5 * math.sin(base))
        edges.append((f"o{0 if i == 0 else 2}", f"t{i}"))
        edges.append((f"t{i}", f"q{i}.0"))
        for j in range(5):
            phi = base + 2 * math.pi * j / 5
            pos[f"q{i}.{j}"] = (cx + 2.4 * math.cos(phi), cy + 2.4 * math.sin(phi))
            pos[f"r{i}.{j}"] = (cx + 1.1 * math.cos(phi), cy + 1.1 * math.sin(phi))
        for j in range(5):
            edges.append((f"q{i}.{j}", f"q{i}.{(j + 1) % 5}"))
            edges.append((f"r{i}.{j}", f"r{i}.{(j + 1) % 5}"))
            edges.append((f"q{i}.{j}", f"r{i}.{j}"))
    return _graph_from_layout(pos, edges, [f"o{j}" for j in range(4)])


def nested_pairs_family(g: PlaneGraph):
    fam = [tuple(g.index(f"q{i}.{j}") for j in range(5)) for i in range(2)]
    fam += [tuple(g.index(f"r{i}.{j}") for j in range(5)) for i in range(2)]
    return fam


def face_set_boundary(g: PlaneGraph, faces):
    """The cycle bounding a set of faces (the edges on exactly one of
    their walks), or None when that edge set is not a single cycle."""
    odd: set = set()
    for f in faces:
        walk = g.faces[f]
        odd ^= {frozenset((walk[i - 1], walk[i])) for i in range(len(walk))}
    adj: dict = {}
    for u, v in map(tuple, odd):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj or any(len(nbrs) != 2 for nbrs in adj.values()):
        return None
    path = [min(adj)]
    nxt = adj[path[0]][0]
    while nxt != path[0]:
        a, b = adj[nxt]
        path.append(nxt)
        nxt = b if a == path[-2] else a
    return canonical_cycle(path) if len(path) == len(adj) else None


def small_cycles(g: PlaneGraph):
    """Cycles bounding one inner face or two adjacent inner faces, each
    with its interior face set.  Two of them that share exactly one
    face cross."""
    inner = [f for f in range(len(g.faces)) if f != g.outer_face]
    out = {}
    for i, f in enumerate(inner):
        for h in inner[i:]:
            faces = frozenset((f, h))
            c = face_set_boundary(g, faces)
            if c is not None:
                out[c] = faces
    return sorted(out.items())


def annulus_instances():
    """(name, graph, outer, inner) for every nested layer pair of towers
    2-6 and the near pairs of four perturbed towers."""
    for h in range(2, 7):
        g = pentagon_tower(h)
        pents = tower_pentagons(g, h)
        for i in range(h):
            for j in range(i + 1, h):
                yield f"tower{h}[{i},{j}]", g, pents[j], pents[i]
    for k, seed, ops in ((3, 1, 2), (4, 2, 2), (4, 3, 3), (5, 5, 2)):
        g = perturbed_tower(k, seed, ops)
        pents = tower_pentagons(g, k)
        for i in range(k - 1):
            yield f"perturbed{k}s{seed}[{i},{i+1}]", g, pents[i + 1], pents[i]
        for i in range(k - 2):
            yield f"perturbed{k}s{seed}[{i},{i+2}]", g, pents[i + 2], pents[i]


# ---------------------------------------------------------------------------
# loader inputs
# ---------------------------------------------------------------------------

_LABELS = st.sampled_from("abcde")

NAMES = st.text(st.characters(blacklist_characters="/"), max_size=6)
"""Strings without "/": as paths they stay in the working directory."""

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

_PENTAGON = {"a": ["b", "e"], "b": ["c", "a"], "c": ["d", "b"],
             "d": ["e", "c"], "e": ["a", "d"]}

GRAPH_SHAPED = st.one_of(
    st.fixed_dictionaries({
        "vertices": st.lists(_LABELS | st.integers(0, 4), max_size=6),
        "rotation": st.dictionaries(_LABELS, st.lists(_LABELS, max_size=4),
                                    max_size=6) | JSON_VALUES,
        "outer_face": st.lists(_LABELS, max_size=6) | JSON_VALUES}),
    st.fixed_dictionaries({
        "vertices": st.just(list("abcde")),
        "rotation": st.fixed_dictionaries(
            {v: st.just(r) | st.lists(_LABELS, max_size=3)
             for v, r in _PENTAGON.items()}),
        "outer_face": st.permutations("abcde")}))
"""Dicts with the loader's three keys: arbitrary small ones, and a
pentagon with some rotations and the outer walk redrawn."""
