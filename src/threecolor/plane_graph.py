"""Plane graphs as rotation systems, and the region calculus on them.

A plane graph is a vertex list plus, for every vertex, the cyclic
(clockwise) order of its neighbours, with one face designated as the
unbounded one.  Faces are recovered by the standard dart traversal: the
dart (u, v) is followed by (v, w) where w is the successor of u in the
rotation at v.  No coordinates are stored; everything downstream is
derived from the face structure.

The interior of a cycle is represented as a set of face indices: the
faces that are *not* reachable from the outer face in the dual graph
once the dual edges crossing the cycle are removed.  This matches the
open bounded region of the cycle exactly: two open interiors intersect
iff they share a face, and one contains the other iff the face sets are
nested.  Crossing, laminarity, chains and antichains all reduce to set
algebra on interior face sets.

After loading, vertices are dense integers 0..n-1; the original string
identifiers are kept as labels for I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import FalsificationError, GraphFormatError

Vertex = int
Dart = tuple[int, int]
Cycle = tuple[int, ...]


# ---------------------------------------------------------------------------
# cycle helpers
# ---------------------------------------------------------------------------

def canonical_cycle(seq: Sequence[int]) -> Cycle:
    """Canonical form of a cyclic vertex sequence.

    Least vertex first, then the orientation whose second vertex is the
    smaller of the two neighbours.  Used to deduplicate cycles found in
    different rotations or directions.
    """
    vs = list(seq)
    if len(vs) < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle has repeated vertices")
    i = vs.index(min(vs))
    fwd = vs[i:] + vs[:i]
    rev = [fwd[0]] + fwd[:0:-1]
    return tuple(fwd) if fwd[1] <= rev[1] else tuple(rev)


def cycle_edges(cycle: Sequence[int]) -> set[frozenset]:
    """Undirected edge set of a cyclic vertex sequence."""
    n = len(cycle)
    return {frozenset((cycle[i], cycle[(i + 1) % n])) for i in range(n)}


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractGraph:
    """A simple graph without embedding data.

    The result type of vertex identification; vertex ids are a subset of
    the host graph's ids, not necessarily dense.
    """

    adj: dict

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self.adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    def neighbors(self, v):
        return self.adj[v]

    def degree(self, v) -> int:
        return len(self.adj[v])

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.adj.values()) // 2


class PlaneGraph:
    """An embedded planar graph.

    Construct via :func:`load_plane_graph` or a generator; the raw
    constructor validates the full invariant set (simplicity, rotation
    symmetry, connectivity, Euler's formula) and raises
    :class:`GraphFormatError` with a machine-readable report otherwise.

    Instances are immutable after construction; all derived structure
    (faces, interiors) is cached and safe to share across threads.
    """

    def __init__(self, labels: Sequence[str], rotation: Sequence[Sequence[int]],
                 *, outer_walk: Sequence[int] | None = None,
                 outer_dart: Dart | None = None):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        self.rotation = tuple(tuple(r) for r in rotation)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._validate_basic()
        self._trace_faces()
        self._check_euler()
        self.outer_face = self._resolve_outer(outer_walk, outer_dart)
        self._interior_cache: dict[Cycle, frozenset] = {}

    # -- construction-time checks -----------------------------------------

    def _validate_basic(self):
        if self.n == 0:
            raise GraphFormatError({"error": "empty_graph"})
        if len(self._index) != self.n:
            seen = set()
            for lab in self.labels:
                if lab in seen:
                    raise GraphFormatError({"error": "duplicate_vertex", "vertex": lab})
                seen.add(lab)
        nbr_sets = []
        for v, rot in enumerate(self.rotation):
            for w in rot:
                if not (0 <= w < self.n):
                    raise GraphFormatError(
                        {"error": "unknown_vertex", "vertex": self.labels[v]})
                if w == v:
                    raise GraphFormatError(
                        {"error": "self_loop", "vertex": self.labels[v]})
            s = set(rot)
            if len(s) != len(rot):
                dup = next(w for w in rot if rot.count(w) > 1)
                raise GraphFormatError(
                    {"error": "repeated_neighbor", "vertex": self.labels[v],
                     "neighbor": self.labels[dup]})
            nbr_sets.append(s)
        for v in range(self.n):
            for w in self.rotation[v]:
                if v not in nbr_sets[w]:
                    raise GraphFormatError(
                        {"error": "rotation_asymmetry",
                         "edge": [self.labels[v], self.labels[w]]})
        self._nbr_sets = tuple(frozenset(s) for s in nbr_sets)
        # connectivity
        if self.n > 1:
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in self.rotation[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != self.n:
                raise GraphFormatError({"error": "disconnected"})
        elif self.n == 1 and self.rotation[0]:
            raise GraphFormatError({"error": "self_loop", "vertex": self.labels[0]})

    def _trace_faces(self):
        """Orbit decomposition of darts under the face-successor map."""
        succ_index = []
        for rot in self.rotation:
            succ_index.append({w: rot[(i + 1) % len(rot)] for i, w in enumerate(rot)})
        face_of: dict[Dart, int] = {}
        faces: list[tuple[int, ...]] = []
        for u in range(self.n):
            for v in self.rotation[u]:
                if (u, v) in face_of:
                    continue
                walk = []
                a, b = u, v
                while (a, b) not in face_of:
                    face_of[(a, b)] = len(faces)
                    walk.append(a)
                    a, b = b, succ_index[b][a]
                faces.append(tuple(walk))
        if not faces:  # single vertex, no edges: one face around it
            faces.append(())
        self.faces = tuple(faces)
        self.face_of_dart = face_of

    def _check_euler(self):
        e = self.edge_count
        f = len(self.faces)
        if self.n - e + f != 2:
            raise GraphFormatError(
                {"error": "euler_violation", "vertices": self.n,
                 "edges": e, "faces": f})

    def _resolve_outer(self, outer_walk, outer_dart) -> int:
        if (outer_walk is None) == (outer_dart is None):
            raise ValueError("exactly one of outer_walk/outer_dart required")
        if outer_dart is not None:
            return self.face_of_dart[outer_dart]
        want = list(outer_walk)
        if self.edge_count == 0:
            if want and [self.labels[0]] != [self.labels[i] for i in want]:
                raise GraphFormatError({"error": "outer_face_mismatch"})
            return 0
        target = _cyclic_norm(want)
        for idx, walk in enumerate(self.faces):
            if len(walk) == len(want) and _cyclic_norm(list(walk)) == target:
                return idx
        raise GraphFormatError({"error": "outer_face_mismatch"})

    # -- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotation[v]

    def neighbor_set(self, v: int) -> frozenset:
        return self._nbr_sets[v]

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(frozenset((u, v)) for u in range(self.n)
                         for v in self.rotation[u])

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    def label(self, v: int) -> str:
        return self.labels[v]

    def index(self, label: str) -> int:
        return self._index[str(label)]

    @cached_property
    def vertex_faces(self) -> tuple[frozenset, ...]:
        """For each vertex, the set of incident face indices."""
        inc = [set() for _ in range(self.n)]
        for idx, walk in enumerate(self.faces):
            for v in walk:
                inc[v].add(idx)
        if self.n == 1:
            inc[0].add(0)
        return tuple(frozenset(s) for s in inc)

    @cached_property
    def facial_cycles(self) -> tuple[Cycle, ...]:
        """Canonical forms of the face walks that are simple cycles."""
        out = []
        for walk in self.faces:
            if len(walk) >= 3 and len(set(walk)) == len(walk):
                out.append(canonical_cycle(walk))
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "rotation": {self.labels[v]: [self.labels[w] for w in rot]
                         for v, rot in enumerate(self.rotation)},
            "outer_face": [self.labels[v] for v in self.faces[self.outer_face]],
        }

    def __repr__(self):
        return (f"PlaneGraph(n={self.n}, edges={self.edge_count}, "
                f"faces={len(self.faces)})")


def _cyclic_norm(seq: list) -> tuple:
    """Least rotation over both directions; identifies cyclic sequences."""
    if not seq:
        return ()
    best = None
    for cand in (seq, seq[::-1]):
        for i in range(len(cand)):
            rot = tuple(cand[i:] + cand[:i])
            if best is None or rot < best:
                best = rot
    return best


# ---------------------------------------------------------------------------
# loading / saving
# ---------------------------------------------------------------------------

def load_plane_graph(source) -> PlaneGraph:
    """Load a plane graph from a dict, a JSON string, or a file path.

    Expected shape::

        {"vertices": ["a", ...],
         "rotation": {"a": ["b", "e", ...], ...},
         "outer_face": ["a", "b", ...]}
    """
    if isinstance(source, (str, Path)) and not (
            isinstance(source, str) and source.lstrip().startswith("{")):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    if not isinstance(data, dict):
        raise GraphFormatError({"error": "bad_schema", "detail": "not an object"})
    for key in ("vertices", "rotation", "outer_face"):
        if key not in data:
            raise GraphFormatError({"error": "bad_schema", "detail": f"missing {key!r}"})
    for key in ("vertices", "outer_face"):
        if not isinstance(data[key], (list, tuple)):
            raise GraphFormatError({"error": "bad_schema",
                                    "detail": f"{key!r} not a list"})
    labels = [str(x) for x in data["vertices"]]
    index = {}
    for lab in labels:
        if lab in index:
            raise GraphFormatError({"error": "duplicate_vertex", "vertex": lab})
        index[lab] = len(index)
    rot_map = data["rotation"]
    if not isinstance(rot_map, Mapping):
        raise GraphFormatError({"error": "bad_schema", "detail": "rotation not a map"})
    rotation = []
    for lab in labels:
        if lab not in rot_map:
            raise GraphFormatError({"error": "bad_schema",
                                    "detail": f"no rotation for {lab!r}"})
        if not isinstance(rot_map[lab], (list, tuple)):
            raise GraphFormatError({"error": "bad_schema",
                                    "detail": f"rotation of {lab!r} not a list"})
        row = []
        for w in rot_map[lab]:
            w = str(w)
            if w not in index:
                raise GraphFormatError({"error": "unknown_vertex", "vertex": w})
            row.append(index[w])
        rotation.append(row)
    extra = set(str(k) for k in rot_map) - set(labels)
    if extra:
        raise GraphFormatError({"error": "unknown_vertex", "vertex": sorted(extra)[0]})
    try:
        outer = [index[str(x)] for x in data["outer_face"]]
    except KeyError as exc:
        raise GraphFormatError({"error": "unknown_vertex", "vertex": str(exc.args[0])})
    return PlaneGraph(labels, rotation, outer_walk=outer)


def plane_graph_to_json(g: PlaneGraph) -> str:
    """Serialize in the on-disk format, deterministically."""
    return json.dumps(g.to_json_dict(), indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# faces and regions
# ---------------------------------------------------------------------------

def faces(g: PlaneGraph) -> list[tuple[int, ...]]:
    """All face boundary walks, as vertex tuples."""
    return list(g.faces)


def validate_cycle(g: PlaneGraph, seq: Sequence[int]) -> Cycle:
    """Check that ``seq`` is a cycle of ``g`` and return its canonical form."""
    c = canonical_cycle(seq)
    for i, u in enumerate(c):
        v = c[(i + 1) % len(c)]
        if v not in g.neighbor_set(u):
            raise ValueError(
                f"not a cycle of the graph: {g.label(u)}-{g.label(v)} is not an edge")
    return c


def interior_faces(g: PlaneGraph, cycle: Sequence[int]) -> frozenset:
    """Faces inside the cycle: unreachable from the outer face in the
    dual once the dual edges crossing the cycle are removed."""
    c = validate_cycle(g, cycle)
    cached = g._interior_cache.get(c)
    if cached is not None:
        return cached
    blocked = cycle_edges(c)
    reached = {g.outer_face}
    stack = [g.outer_face]
    while stack:
        f = stack.pop()
        walk = g.faces[f]
        m = len(walk)
        for i in range(m):
            u, v = walk[i], walk[(i + 1) % m]
            if frozenset((u, v)) in blocked:
                continue
            other = g.face_of_dart[(v, u)]
            if other not in reached:
                reached.add(other)
                stack.append(other)
    interior = frozenset(range(len(g.faces))) - reached
    if not interior:
        raise FalsificationError(
            "cycle has no interior face; face structure is inconsistent")
    g._interior_cache[c] = interior
    return interior


@dataclass(frozen=True)
class RegionPartition:
    """The three-way vertex split induced by a cycle."""

    interior: frozenset
    exterior: frozenset
    boundary: frozenset


def region_partition(g: PlaneGraph, cycle: Sequence[int]) -> RegionPartition:
    """Split the vertex set into interior / exterior / boundary of a cycle."""
    c = validate_cycle(g, cycle)
    inside = interior_faces(g, c)
    boundary = frozenset(c)
    interior = frozenset(
        v for v in g.vertices
        if v not in boundary and g.vertex_faces[v] & inside)
    exterior = frozenset(g.vertices) - boundary - interior
    for v in interior:
        bad = g.neighbor_set(v) & exterior
        if bad:
            raise FalsificationError(
                f"edge joins interior to exterior across cycle: "
                f"{g.label(v)}-{g.label(next(iter(bad)))}")
    return RegionPartition(interior=interior, exterior=exterior, boundary=boundary)


def crosses(g: PlaneGraph, c1: Sequence[int], c2: Sequence[int]) -> bool:
    """Whether the open interiors of two cycles properly overlap.

    Cycles whose interiors are nested or disjoint (including pairs that
    share only boundary vertices or edges) do not cross.
    """
    f1 = interior_faces(g, c1)
    f2 = interior_faces(g, c2)
    return bool(f1 & f2) and bool(f1 - f2) and bool(f2 - f1)


def is_laminar(g: PlaneGraph, family: Iterable[Sequence[int]]) -> bool:
    """True iff no two cycles of the family cross."""
    fam = [validate_cycle(g, c) for c in family]
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            if crosses(g, fam[i], fam[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# vertex identification, degrees, cycle enumeration
# ---------------------------------------------------------------------------

def is_triangle_free(g) -> bool:
    """No three mutually adjacent vertices (works on both graph kinds)."""
    verts = list(g.vertices)
    nbr = {v: frozenset(g.neighbors(v)) for v in verts}
    for u in verts:
        for v in nbr[u]:
            if v <= u:
                continue
            if any(w > v for w in nbr[u] & nbr[v]):
                return False
    return True


def identify_neighbors(g, v: int) -> AbstractGraph:
    """Delete v, merge all its neighbours into one vertex, simplify.

    The merged vertex reuses the smallest neighbour id.  The embedding is
    discarded; the result is an :class:`AbstractGraph`.
    """
    verts = set(g.vertices)
    if v not in verts:
        raise ValueError(f"vertex {v} not in graph")
    nbrs = set(g.neighbors(v))
    if not nbrs:
        return AbstractGraph(adj={u: frozenset(g.neighbors(u))
                                  for u in verts if u != v})
    merged = min(nbrs)
    gone = nbrs | {v}
    adj: dict[int, set] = {u: set() for u in (verts - gone) | {merged}}
    for u in verts - gone:
        for w in g.neighbors(u):
            if w == v:
                continue
            adj[u].add(merged if w in nbrs else w)
    for u in nbrs:
        for w in g.neighbors(u):
            if w in gone or w == u:
                continue  # edges inside the merged set collapse or loop
            adj[merged].add(w)
            adj[w].add(merged)
    adj[merged].discard(merged)
    return AbstractGraph(adj={u: frozenset(s) for u, s in adj.items()})


def low_degree_set(g, k: int) -> frozenset:
    """Vertices of degree at most k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return frozenset(v for v in g.vertices if g.degree(v) <= k)


def enumerate_cycles(g: PlaneGraph, length: int) -> list[Cycle]:
    """All cycles of the given length (4 or 5), once up to rotation and
    reflection, in canonical order.

    In a triangle-free host every 5-cycle must be chordless; this is
    re-verified on every run.
    """
    if length not in (4, 5):
        raise ValueError("cycle enumeration supports lengths 4 and 5 only")
    out = []
    for s in g.vertices:
        # paths s, v1, ..., v_{L-1} with all subsequent vertices > s
        stack = [(s,)]
        while stack:
            path = stack.pop()
            if len(path) == length:
                if s in g.neighbor_set(path[-1]) and path[1] < path[-1]:
                    out.append(tuple(path))
                continue
            for w in g.neighbors(path[-1]):
                if w > s and w not in path:
                    stack.append(path + (w,))
    out.sort()
    if length == 5 and triangle_free(g):
        for c in out:
            cset = set(c)
            chords = sum(1 for u in c for w in g.neighbor_set(u) & cset) // 2
            if chords != 5:
                raise FalsificationError(
                    f"5-cycle {[g.label(v) for v in c]} has a chord in a "
                    "triangle-free graph")
    return out


def triangle_free(g: PlaneGraph) -> bool:
    """Cached triangle-freeness for plane graphs."""
    flag = g.__dict__.get("_triangle_free")
    if flag is None:
        flag = is_triangle_free(g)
        g.__dict__["_triangle_free"] = flag
    return flag


# ---------------------------------------------------------------------------
# subgraphs cut along cycles
# ---------------------------------------------------------------------------

def _restrict(g: PlaneGraph, keep: set, drop_edge, outer_dart: Dart) -> PlaneGraph:
    """Induced plane subgraph on ``keep`` minus edges failing ``drop_edge``.

    Rotations are restrictions of the host rotations, so the embedding is
    inherited.  ``outer_dart`` must survive and names the new outer face.
    """
    order = sorted(keep)
    new_id = {v: i for i, v in enumerate(order)}
    labels = [g.labels[v] for v in order]
    rotation = []
    for v in order:
        rotation.append([new_id[w] for w in g.rotation[v]
                         if w in keep and not drop_edge(v, w)])
    dart = (new_id[outer_dart[0]], new_id[outer_dart[1]])
    return PlaneGraph(labels, rotation, outer_dart=dart)


def map_vertices(src: PlaneGraph, dst: PlaneGraph, vertices: Iterable[int]):
    """Translate vertex ids between two graphs sharing labels."""
    return tuple(dst.index(src.label(v)) for v in vertices)


def annulus_subgraph(g: PlaneGraph, c1: Sequence[int], c2: Sequence[int]) -> PlaneGraph:
    """The part of the graph drawn between nested cycles c1 (outer) and
    c2 (inner), both boundaries included; c1 becomes the outer face.

    An edge between boundary vertices survives iff at least one of its
    two incident faces lies in the annulus region, so chords of c2 drawn
    inside c2 and chords of c1 drawn outside c1 are excluded.
    """
    k1 = validate_cycle(g, c1)
    k2 = validate_cycle(g, c2)
    if k1 == k2:
        raise ValueError("annulus needs two distinct cycles")
    f1 = interior_faces(g, k1)
    f2 = interior_faces(g, k2)
    if not f2 < f1:
        raise ValueError("cycles are not nested: interior of the second "
                         "must lie strictly inside the first")
    inner_verts = region_partition(g, k2).interior
    keep = (set(k1) | region_partition(g, k1).interior) - inner_verts

    def drop(u, v):
        fa = g.face_of_dart[(u, v)]
        fb = g.face_of_dart[(v, u)]
        if fa in f2 and fb in f2:
            return True      # drawn strictly inside the inner cycle
        if fa not in f1 and fb not in f1:
            return True      # drawn strictly outside the outer cycle
        return False

    outer_dart = _boundary_dart(g, k1, f1, inside=False)
    return _restrict(g, keep, drop, outer_dart)


def _boundary_dart(g: PlaneGraph, cycle: Cycle, inside_faces: frozenset,
                   *, inside: bool) -> Dart:
    """A dart of the cycle whose face lies on the requested side."""
    m = len(cycle)
    for i in range(m):
        for dart in ((cycle[i], cycle[(i + 1) % m]),
                     (cycle[(i + 1) % m], cycle[i])):
            if (g.face_of_dart[dart] in inside_faces) == inside:
                return dart
    raise FalsificationError("cycle has no face on the requested side")


def interior_subgraph(g: PlaneGraph, cycle: Sequence[int]) -> PlaneGraph:
    """The cycle plus everything inside it; the cycle becomes the outer face."""
    c = validate_cycle(g, cycle)
    ins = interior_faces(g, c)
    keep = set(c) | region_partition(g, c).interior

    def drop(u, v):
        fa = g.face_of_dart[(u, v)]
        fb = g.face_of_dart[(v, u)]
        return fa not in ins and fb not in ins and frozenset((u, v)) not in cycle_edges(c)

    return _restrict(g, keep, drop, _boundary_dart(g, c, ins, inside=False))


def exterior_subgraph(g: PlaneGraph, cycle: Sequence[int]) -> PlaneGraph:
    """The cycle plus everything outside it; keeps the original outer face."""
    c = validate_cycle(g, cycle)
    ins = interior_faces(g, c)
    keep = set(c) | region_partition(g, c).exterior

    def drop(u, v):
        fa = g.face_of_dart[(u, v)]
        fb = g.face_of_dart[(v, u)]
        return fa in ins and fb in ins

    outer_walk = g.faces[g.outer_face]
    if len(outer_walk) >= 2:
        outer_dart = (outer_walk[0], outer_walk[1])
    else:
        raise ValueError("exterior of a cycle in an edgeless graph")
    return _restrict(g, keep, drop, outer_dart)


def delete_interior_regions(g: PlaneGraph, cycles: Iterable[Sequence[int]]) -> PlaneGraph:
    """Delete everything strictly inside each given cycle.

    The cycles must have pairwise disjoint interiors (an antichain); each
    of them bounds a face of the result.
    """
    canon = [validate_cycle(g, c) for c in cycles]
    inner_faces: set = set()
    inner_verts: set = set()
    for c in canon:
        ins = interior_faces(g, c)
        for d in canon:
            if d != c and ins & interior_faces(g, d):
                raise ValueError("cycle interiors overlap; not an antichain")
        inner_faces |= ins
        inner_verts |= region_partition(g, c).interior
    keep = set(g.vertices) - inner_verts

    def drop(u, v):
        return (g.face_of_dart[(u, v)] in inner_faces
                and g.face_of_dart[(v, u)] in inner_faces)

    outer_walk = g.faces[g.outer_face]
    if len(outer_walk) < 2:
        return g
    return _restrict(g, keep, drop, (outer_walk[0], outer_walk[1]))
