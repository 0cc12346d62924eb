"""Deterministic constructors for triangle-free plane test graphs.

Each family is built from an explicit straight-line layout: rotations
are recovered by sorting neighbours clockwise around each vertex, so the
embedding is correct by construction and the full loader validation
(symmetry, Euler, connectivity) re-checks every output.

Families
--------
* ``pentagon_tower(k)``: k nested pentagons joined by spokes; the
  canonical chain instance.
* ``pentagon_garden(k)``: k pentagons hanging inside a common outer
  cycle on paths of length two; the canonical antichain instance.
* ``shared_path_pentagons()``: two pentagons sharing a four-vertex path;
  the 6-vertex witness whose transition matrix is the block-diagonal
  reference matrix.
* ``dodecahedron()``: the 20-vertex cubic girth-5 classic.
* ``perturbed_tower(k, seed, ops)``: a tower after seeded random
  quad-face subdivisions, each provably preserving planarity and
  triangle-freeness.
"""

from __future__ import annotations

import math
import random

from .plane_graph import PlaneGraph

_TWO_PI = 2.0 * math.pi


def _graph_from_layout(positions: dict, edges, outer_face) -> PlaneGraph:
    """Build a plane graph from a straight-line drawing.

    ``positions`` maps labels to (x, y); rotations come from sorting each
    neighbour list clockwise by angle.
    """
    labels = list(positions)
    index = {lab: i for i, lab in enumerate(labels)}
    nbrs: dict[str, list] = {lab: [] for lab in labels}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    rotation = []
    for lab in labels:
        x0, y0 = positions[lab]

        def clockwise(other):
            x1, y1 = positions[other]
            return -math.atan2(y1 - y0, x1 - x0)

        rotation.append([index[w] for w in sorted(nbrs[lab], key=clockwise)])
    outer = [index[lab] for lab in outer_face]
    return PlaneGraph(labels, rotation, outer_walk=outer)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def _tower_label(layer: int, j: int) -> str:
    return f"v{layer}.{j}"


def pentagon_tower(k: int) -> PlaneGraph:
    """k nested pentagons, consecutive layers joined by five spokes.

    5k vertices; faces are the innermost and outermost pentagons plus
    5(k-1) quadrilaterals.  Layer 0 is innermost; the outermost pentagon
    is the outer face.
    """
    if k < 1:
        raise ValueError("tower height must be at least 1")
    positions = {}
    edges = []
    for i in range(k):
        r = 2.0 * (i + 1)
        for j in range(5):
            theta = _TWO_PI * j / 5
            positions[_tower_label(i, j)] = (r * math.cos(theta),
                                             r * math.sin(theta))
    for i in range(k):
        for j in range(5):
            edges.append((_tower_label(i, j), _tower_label(i, (j + 1) % 5)))
            if i + 1 < k:
                edges.append((_tower_label(i, j), _tower_label(i + 1, j)))
    outer = [_tower_label(k - 1, j) for j in range(5)]
    return _graph_from_layout(positions, edges, outer)


def tower_pentagons(g: PlaneGraph, k: int) -> list[tuple]:
    """The k layer pentagons of a (possibly perturbed) tower, innermost
    first, as vertex-id cycles."""
    return [tuple(g.index(_tower_label(i, j)) for j in range(5))
            for i in range(k)]


def perturbed_tower(k: int, seed: int, ops: int) -> PlaneGraph:
    """A pentagon tower after ``ops`` seeded random face subdivisions.

    Each op picks an interior quadrilateral face and either joins two
    opposite corners through a new degree-2 vertex (quad -> two quads,
    one new vertex) or joins two adjacent corners by a new path of
    length three (quad -> quad + hexagon, two new vertices).  Both moves
    keep the graph plane and triangle-free, so the output needs no
    re-validation beyond the standard loader checks.
    """
    if ops < 0:
        raise ValueError("ops must be non-negative")
    g = pentagon_tower(k)
    rng = random.Random(seed)
    labels = list(g.labels)
    rotation = {lab: [g.label(w) for w in g.neighbors(g.index(lab))]
                for lab in labels}
    outer = [g.label(v) for v in g.faces[g.outer_face]]

    for op_index in range(ops):
        current = _from_rotation(labels, rotation, outer)
        quads = []
        for fi, walk in enumerate(current.faces):
            if fi == current.outer_face:
                continue
            if len(walk) == 4 and len(set(walk)) == 4:
                quads.append([current.label(v) for v in walk])
        if not quads:
            break
        walk = quads[rng.randrange(len(quads))]
        kind = rng.choice(("diagonal", "path"))
        if kind == "diagonal":
            off = rng.randrange(2)
            p, q, r, s = (walk[off], walk[(off + 1) % 4],
                          walk[(off + 2) % 4], walk[(off + 3) % 4])
            x = f"x{op_index}"
            _insert_after(rotation, p, s, x)
            _insert_after(rotation, r, q, x)
            rotation[x] = [r, p]
            labels.append(x)
        else:
            off = rng.randrange(4)
            p, q, r, s = (walk[off], walk[(off + 1) % 4],
                          walk[(off + 2) % 4], walk[(off + 3) % 4])
            x, y = f"x{op_index}a", f"x{op_index}b"
            _insert_after(rotation, p, s, x)
            _insert_after(rotation, q, p, y)
            rotation[x] = [p, y]
            rotation[y] = [x, q]
            labels.extend([x, y])

    return _from_rotation(labels, rotation, outer)


def _insert_after(rotation: dict, at: str, after: str, new: str):
    rot = rotation[at]
    rot.insert(rot.index(after) + 1, new)


def _from_rotation(labels, rotation, outer_labels) -> PlaneGraph:
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [[index[w] for w in rotation[lab]] for lab in labels]
    return PlaneGraph(labels, rows, outer_walk=[index[x] for x in outer_labels])


# ---------------------------------------------------------------------------
# the shared-path pair
# ---------------------------------------------------------------------------

def shared_path_pentagons() -> PlaneGraph:
    """Two 5-cycles on six vertices sharing a four-vertex path.

    The outer pentagon is u1..u5; the inner one is u1 u2 u3 u4 v with v
    drawn inside.  This is the reference configuration whose transition
    matrix is the block-diagonal matrix up to row/column permutation.
    """
    positions = {}
    for i in range(5):
        theta = math.radians(90 + 72 * i)
        positions[f"u{i + 1}"] = (5 * math.cos(theta), 5 * math.sin(theta))
    theta_v = math.radians(90 + 72 * 4)
    positions["v"] = (2 * math.cos(theta_v), 2 * math.sin(theta_v))
    edges = [(f"u{i + 1}", f"u{(i + 1) % 5 + 1}") for i in range(5)]
    edges += [("v", "u1"), ("v", "u4")]
    return _graph_from_layout(positions, edges, [f"u{i + 1}" for i in range(5)])


# ---------------------------------------------------------------------------
# dodecahedron
# ---------------------------------------------------------------------------

def dodecahedron() -> PlaneGraph:
    """The dodecahedral graph: 20 vertices, 30 edges, 12 pentagonal faces."""
    positions = {}
    for j in range(5):
        outer_t = _TWO_PI * j / 5
        inner_t = outer_t + _TWO_PI / 10
        positions[f"a{j}"] = (10 * math.cos(outer_t), 10 * math.sin(outer_t))
        positions[f"b{j}"] = (6 * math.cos(outer_t), 6 * math.sin(outer_t))
        positions[f"c{j}"] = (3.5 * math.cos(inner_t), 3.5 * math.sin(inner_t))
        positions[f"d{j}"] = (1.5 * math.cos(inner_t), 1.5 * math.sin(inner_t))
    edges = []
    for j in range(5):
        nj = (j + 1) % 5
        edges.append((f"a{j}", f"a{nj}"))   # outer ring
        edges.append((f"a{j}", f"b{j}"))    # outer spokes
        edges.append((f"b{j}", f"c{j}"))    # zigzag decagon
        edges.append((f"c{j}", f"b{nj}"))
        edges.append((f"c{j}", f"d{j}"))    # inner spokes
        edges.append((f"d{j}", f"d{nj}"))   # inner ring
    return _graph_from_layout(positions, edges, [f"a{j}" for j in range(5)])


# ---------------------------------------------------------------------------
# gardens
# ---------------------------------------------------------------------------

def pentagon_garden(k: int) -> PlaneGraph:
    """k vertex-disjoint pentagons inside a common outer cycle.

    Pentagon i hangs from outer vertex o(2i) on a path of length two, so
    no new short cycles appear and the pentagons' interiors are pairwise
    disjoint: the canonical antichain instance.  8k vertices for k >= 2
    (outer cycle length 2k), 10 for k = 1 (outer cycle length 4).
    """
    if k < 1:
        raise ValueError("garden needs at least one pentagon")
    outer_len = max(4, 2 * k)
    positions = {}
    edges = []
    for j in range(outer_len):
        theta = _TWO_PI * j / outer_len
        positions[f"o{j}"] = (12 * math.cos(theta), 12 * math.sin(theta))
        edges.append((f"o{j}", f"o{(j + 1) % outer_len}"))
    for i in range(k):
        theta = _TWO_PI * (2 * i) / outer_len
        ux, uy = math.cos(theta), math.sin(theta)
        positions[f"t{i}"] = (8.5 * ux, 8.5 * uy)
        cx, cy = 5 * ux, 5 * uy
        for j in range(5):
            phi = theta + _TWO_PI * j / 5
            positions[f"p{i}.{j}"] = (cx + 1.6 * math.cos(phi),
                                      cy + 1.6 * math.sin(phi))
        edges.append((f"o{2 * i}", f"t{i}"))
        edges.append((f"t{i}", f"p{i}.0"))
        for j in range(5):
            edges.append((f"p{i}.{j}", f"p{i}.{(j + 1) % 5}"))
    outer = [f"o{j}" for j in range(outer_len)]
    return _graph_from_layout(positions, edges, outer)


def garden_pentagons(g: PlaneGraph, k: int) -> list[tuple]:
    """The k pentagon cycles of a garden, as vertex-id cycles."""
    return [tuple(g.index(f"p{i}.{j}") for j in range(5)) for i in range(k)]


FAMILIES = {
    "tower": lambda k, seed, ops: pentagon_tower(k),
    "shared": lambda k, seed, ops: shared_path_pentagons(),
    "dodeca": lambda k, seed, ops: dodecahedron(),
    "garden": lambda k, seed, ops: pentagon_garden(k),
    "perturbed": perturbed_tower,
}
"""Each ``threecolor generate`` family name, in the order the CLI lists
them, mapped to a builder of ``(k, seed, ops)`` that ignores the
arguments its family does not use."""
