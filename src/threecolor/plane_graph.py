"""Plane graphs as rotation systems, and the region calculus on them.

A plane graph is a vertex list plus, for every vertex, the cyclic
(clockwise) order of its neighbours, with one face designated as the
unbounded one.  Faces are recovered by the standard dart traversal: the
dart (u, v) is followed by (v, w) where w is the successor of u in the
rotation at v.  No coordinates are stored; everything downstream is
derived from the face structure.

The interior of a cycle is the set of faces that are *not* reachable
from the outer face in the dual graph once the dual edges crossing the
cycle are removed.  This matches the open bounded region of the cycle
exactly: two open interiors intersect iff they share a face, and one
contains the other iff the face sets are nested.  Crossing, laminarity,
chains and antichains all reduce to set algebra on interior face sets.
Each graph fixes one depth-first spanning tree of its dual, rooted at
the outer face (:class:`DualTree`), and numbers the faces in preorder,
so every subtree is an interval.  A face is inside a cycle iff its tree
path crosses the cycle an odd number of times, so the interior is the
XOR of the subtree intervals of the tree edges dual to the cycle's
edges: a bitmask from O(|C|) big-int operations, with no search.
Vertices are numbered by the preorder of one incident face, which makes
the interior vertices the same XOR over vertex intervals, less the
cycle.  :func:`region_partition` returns these masks and nothing else;
the tree's numberings (``pre`` and ``face_at``, ``vpos`` and
``vert_at``) decode them into face and vertex ids.  A region cut along
cycles (the annulus between two nested cycles, or a graph with some
cycle interiors deleted) is an :class:`AbstractGraph` on the host's
vertex ids: counting needs only its vertices and edges, so nothing is
re-embedded.

After loading, vertices are dense integers 0..n-1; the original string
identifiers are kept as labels for I/O.
"""

from __future__ import annotations

import json
import random
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


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractGraph:
    """A simple graph without embedding data.

    The result type of region cuts; vertex ids are a subset of the host
    graph's ids, not necessarily dense.
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

    Instances are immutable after construction.  Derived structure (the
    dual tree, facial cycles, triangle-freeness, region partitions and
    transition sweeps) is filled in lazily on first use, without
    locking, so an instance is not safe to share across threads; the
    package is single-threaded.
    """

    def __init__(self, labels: Sequence[str], rotation: Sequence[Sequence[int]],
                 *, outer_walk: Sequence[int]):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        self.rotation = tuple(tuple(r) for r in rotation)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._validate_basic()
        self._trace_faces()
        self._check_euler()
        self.outer_face = self._resolve_outer(outer_walk)
        self._regions: dict[Cycle, RegionPartition] = {}
        # sweep shape -> (entries, updates) of transition matrices
        self._matrices: dict[tuple, tuple] = {}

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

    def _trace_faces(self):
        """Orbit decomposition of darts under the face-successor map."""
        succ_index = [{w: rot[(i + 1) % len(rot)] for i, w in enumerate(rot)}
                      for rot in self.rotation]
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

    def _resolve_outer(self, outer_walk) -> int:
        want = list(outer_walk)
        if self.edge_count == 0:
            if want and [self.labels[0]] != [self.labels[i] for i in want]:
                raise GraphFormatError({"error": "outer_face_mismatch"})
            return 0
        # A face holding the walk forwards holds the dart (w0, w1), one
        # holding it backwards the dart (w0, w_last), and a dart lies on
        # exactly one face, once: so only those two faces, each read from
        # that dart, can match.  Both match on a cycle; the lower wins.
        matches = []
        for walk in (tuple(want), tuple(want[:1] + want[:0:-1])):
            f = self.face_of_dart.get(walk[:2])
            if f is not None and _read_from(self.faces[f], walk[:2]) == walk:
                matches.append(f)
        if not matches:
            raise GraphFormatError({"error": "outer_face_mismatch"})
        return min(matches)

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

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    def label(self, v: int) -> str:
        return self.labels[v]

    def index(self, label: str) -> int:
        return self._index[str(label)]

    @cached_property
    def dual_tree(self) -> DualTree:
        """The dual spanning tree that cycle regions are read from."""
        return DualTree(self)

    @cached_property
    def triangle_free(self) -> bool:
        """Whether no three vertices are mutually adjacent."""
        return is_triangle_free(self)

    @cached_property
    def facial_cycles(self) -> tuple[Cycle, ...]:
        """Canonical forms of the face walks that are simple cycles."""
        return tuple(canonical_cycle(walk) for walk in self.faces
                     if len(walk) >= 3 and len(set(walk)) == len(walk))

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


def _read_from(face: tuple, dart: tuple) -> tuple:
    """The walk of ``face`` rotated to start at ``dart``, which it holds."""
    m = len(face)
    i = next(i for i in range(m)
             if face[i] == dart[0] and face[(i + 1) % m] == dart[1])
    return face[i:] + face[:i]


# ---------------------------------------------------------------------------
# loading / saving
# ---------------------------------------------------------------------------

def _read_json(source):
    """The data behind a loader's ``source``: a ``str`` or
    :class:`~pathlib.Path` is a file path, anything else is the parsed
    data itself.  A missing, unreadable, non-UTF-8 or malformed file
    raises :class:`GraphFormatError`."""
    if not isinstance(source, (str, Path)):
        return source
    path = str(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise GraphFormatError({"error": "no_such_file", "path": path}) from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError({"error": "bad_encoding", "path": path,
                                "detail": str(exc)}) from None
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise GraphFormatError({"error": "unreadable_file", "path": path,
                                "detail": str(exc)}) from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # too long a number, too deep
        raise GraphFormatError({"error": "bad_json", "path": path,
                                "detail": str(exc)}) from None


def load_plane_graph(source) -> PlaneGraph:
    """Load a plane graph from a file path (``str`` or ``Path``) or from
    the parsed JSON data.

    Expected shape::

        {"vertices": ["a", ...],
         "rotation": {"a": ["b", "e", ...], ...},
         "outer_face": ["a", "b", ...]}
    """
    data = _read_json(source)
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

def validate_cycle(g: PlaneGraph, seq: Sequence[int]) -> Cycle:
    """Check that ``seq`` is a cycle of ``g`` and return its canonical form."""
    c = canonical_cycle(seq)
    for i, u in enumerate(c):
        v = c[(i + 1) % len(c)]
        if v not in g.neighbor_set(u):
            raise ValueError(
                f"not a cycle of the graph: {g.label(u)}-{g.label(v)} is not an edge")
    return c


def mask_members(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    bits = bin(mask)[:1:-1]          # least significant first, no "0b"
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class DualTree:
    """A depth-first spanning tree of the dual graph, rooted at the outer
    face, with the numberings that make every cycle region a few
    intervals.  Built once per graph (``PlaneGraph.dual_tree``); it holds
    no reference to the graph.

    The dual edge of host edge {u, v} joins the faces of its two darts.
    Faces are numbered in preorder (``pre``, and ``face_at`` back), so
    the subtree of face f is the interval ``[pre[f], pre[f] + size[f])``.
    ``child[e]`` is the lower end of the tree edge dual to host edge e
    (a sorted vertex pair).  Every other edge carries a fixed
    pseudo-random 64-bit ``label[e]``, and ``cut[f]`` is the XOR of the
    labels of those whose dual edge has exactly one end in the subtree
    of f.  Vertices are numbered by the preorder index of one incident
    face (the face of their first rotation dart), ties by id (``vpos``,
    and ``vert_at`` back); the vertices so attached to the subtree of f
    are the positions ``[vstart[pre[f]], vstart[pre[f] + size[f]])``.
    Faces the outer face does not reach (possible only in a corrupted
    face table) start trees of their own.
    """

    def __init__(self, g: PlaneGraph):
        face_of = g.face_of_dart
        nf = len(g.faces)
        darts = [list(zip(w, w[1:] + w[:1])) for w in g.faces]
        pre = [-1] * nf
        size = [0] * nf
        up = [None] * nf                 # face -> its parent face
        face_at: list[int] = []
        child: dict = {}
        label: dict = {}
        rng = random.Random(0)
        for root in (g.outer_face, *range(nf)):
            if pre[root] >= 0:
                continue
            pre[root] = len(face_at)
            face_at.append(root)
            stack = [(root, iter(darts[root]))]
            while stack:
                f, todo = stack[-1]
                for a, b in todo:
                    e = _edge(a, b)
                    if e in child or e in label:
                        continue
                    h = face_of[(b, a)]
                    if pre[h] < 0:
                        child[e] = h
                        up[h] = f
                        pre[h] = len(face_at)
                        face_at.append(h)
                        stack.append((h, iter(darts[h])))
                        break
                    label[e] = rng.getrandbits(64)
                else:
                    stack.pop()
                    size[f] = len(face_at) - pre[f]
        cut = [0] * nf
        for (u, v), x in label.items():
            cut[face_of[(u, v)]] ^= x
            cut[face_of[(v, u)]] ^= x
        for f in reversed(face_at):
            if up[f] is not None:
                cut[up[f]] ^= cut[f]
        rep = [pre[face_of[(v, rot[0])]] if rot else pre[g.outer_face]
               for v, rot in enumerate(g.rotation)]
        vert_at = sorted(range(g.n), key=lambda v: (rep[v], v))
        vpos = [0] * g.n
        for i, v in enumerate(vert_at):
            vpos[v] = i
        vstart = [0] * (nf + 1)
        for r in rep:
            vstart[r + 1] += 1
        for i in range(nf):
            vstart[i + 1] += vstart[i]
        self.pre, self.size, self.face_at = pre, size, face_at
        self.child, self.label, self.cut = child, label, cut
        self.vpos, self.vert_at, self.vstart = vpos, vert_at, vstart
        self.all_vertices = (1 << g.n) - 1

    def vertices(self, mask: int) -> frozenset:
        """The vertex ids of a vertex mask."""
        return frozenset(self.vert_at[i] for i in mask_members(mask))


@dataclass(frozen=True)
class RegionPartition:
    """The split of the graph by a cycle, as bitmasks over the
    numberings of ``g.dual_tree``: the faces inside it (bit ``pre[f]``
    for face f) and the interior, exterior and boundary vertices (bit
    ``vpos[v]`` for vertex v)."""

    cycle: Cycle
    face_mask: int
    interior_mask: int
    exterior_mask: int
    boundary_mask: int


def region_partition(g: PlaneGraph, cycle: Sequence[int]) -> RegionPartition:
    """Split the graph by a cycle: its interior faces and the interior,
    exterior and boundary vertices, as bitmasks over the numberings of
    ``g.dual_tree``.

    A face lies inside C iff its tree path from the outer face crosses
    C an odd number of times.  A tree edge is crossed on exactly the
    paths into its subtree, so the interior faces are the XOR of the
    subtree intervals of the tree edges dual to C's edges: O(|C|)
    big-int operations, no search.  A vertex off C has all its faces on
    one side (shown below), so it is inside iff the face it is numbered
    by is: the interior is the same XOR over vertex intervals, less C.

    Guards, once per cycle: some face is inside; each cycle edge has
    exactly one of its two faces inside; and no edge joins the interior
    to the exterior.  The last is checked as a cut condition on the
    dual: the dual edges leaving the interior faces F are exactly C's.
    Tree edges leave F iff they are C's, by construction; a non-tree
    edge leaves F iff its tree cycle holds an odd number of C's tree
    edges, that is iff it is in the cut of an odd number of their
    subtrees.  So the XOR of ``cut`` over C's tree edges is the XOR of
    the labels of the non-tree edges leaving F, and it must equal the
    XOR of the labels of C's own non-tree edges.  Equal edge sets give
    equal XORs; for different ones, the labels of their difference would
    have to XOR to zero, which random 64-bit labels do with probability
    2^-64.  A failed check scans the edges for one that leaves F.

    The cut condition implies the guard on a valid face structure,
    where the faces around a vertex x are consecutive across the edges
    at x: if x is off C, none of those edges is C's, so no step around
    x leaves F, and all faces of x lie on one side.  An edge x-y with x,
    y off C lies on a face of both, which puts x and y on the same side.

    Memoized per graph and cycle once the guards passed; a memoized
    cycle is returned before its edges are checked again.
    """
    c = canonical_cycle(cycle)
    parts = g._regions.get(c)
    if parts is not None:
        return parts
    validate_cycle(g, c)
    t = g.dual_tree
    edges = list(zip(c, c[1:] + c[:1]))
    faces = verts = cut = off_tree = 0
    for u, v in edges:
        e = _edge(u, v)
        q = t.child.get(e)
        if q is None:
            off_tree ^= t.label[e]
            continue
        lo = t.pre[q]
        hi = lo + t.size[q]
        faces ^= (1 << hi) - (1 << lo)
        verts ^= (1 << t.vstart[hi]) - (1 << t.vstart[lo])
        cut ^= t.cut[q]
    if not faces:
        raise FalsificationError(
            "cycle has no interior face; face structure is inconsistent")
    face_of = g.face_of_dart

    def inside(u, v) -> int:
        return faces >> t.pre[face_of[(u, v)]] & 1

    for u, v in edges:
        if inside(u, v) == inside(v, u):
            raise FalsificationError(
                f"cycle edge {g.label(u)}-{g.label(v)} does not separate "
                "the cycle's interior from its exterior")
    if cut != off_tree:
        on_c = {_edge(u, v) for u, v in edges}
        u, v = next((u, v) for u in g.vertices for v in g.rotation[u]
                    if _edge(u, v) not in on_c and inside(u, v) != inside(v, u))
        raise FalsificationError(
            f"edge joins interior to exterior across cycle: "
            f"{g.label(u)}-{g.label(v)}")
    boundary = 0
    for v in c:
        boundary |= 1 << t.vpos[v]
    interior = verts & ~boundary
    parts = g._regions[c] = RegionPartition(
        cycle=c, face_mask=faces, interior_mask=interior,
        exterior_mask=t.all_vertices & ~(interior | boundary),
        boundary_mask=boundary)
    return parts


# ---------------------------------------------------------------------------
# triangles, degrees, cycle enumeration
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


def low_degree_set(g, k: int) -> frozenset:
    """Vertices of degree at most k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return frozenset(v for v in g.vertices if g.degree(v) <= k)


def identify_neighbors(g, v: int) -> AbstractGraph:
    """Delete v, merge all its neighbours into the smallest of them, and
    simplify; the embedding is discarded.  ``laminar`` decides
    reducibility without it; the tests keep it as the definition."""
    if v not in set(g.vertices):
        raise ValueError(f"vertex {v} not in graph")
    nbrs = frozenset(g.neighbors(v))
    merged = min(nbrs, default=None)
    rep = {u: merged if u in nbrs else u for u in g.vertices if u != v}
    adj: dict = {r: set() for r in rep.values()}
    for u, r in rep.items():
        adj[r].update(rep[w] for w in g.neighbors(u) if w != v and rep[w] != r)
    return AbstractGraph(adj={u: frozenset(s) for u, s in adj.items()})


def enumerate_cycles(g: PlaneGraph, length: int) -> list[Cycle]:
    """All cycles of the given length (4 or 5), once up to rotation and
    reflection, in canonical order.

    A cycle with least vertex s is read as s-a-b, a path b..c of length
    0 (4-cycles) or 1 (5-cycles), and c-d-s, with a < d: a join of two
    2-paths from s.

    In a triangle-free host every 5-cycle must be chordless; this is
    re-verified on every run.
    """
    if length not in (4, 5):
        raise ValueError("cycle enumeration supports lengths 4 and 5 only")
    out = []
    nbrs = g.rotation
    for s in g.vertices:
        # the 2-paths s-d-c with d, c > s, grouped by their far end c
        ends: dict = {}
        for d in nbrs[s]:
            if d > s:
                for c in nbrs[d]:
                    if c > s:
                        ends.setdefault(c, []).append(d)
        # join s-a-b to s-d-c (a < d) at b == c, or across an edge b-c
        for b, starts in ends.items():
            for c in ((b,) if length == 4 else nbrs[b]):
                for d in ends.get(c, ()):
                    if d == b:
                        continue
                    for a in starts:
                        if a < d and a != c:
                            out.append((s, a, b, d) if length == 4
                                       else (s, a, b, c, d))
    out.sort()
    if length == 5 and g.triangle_free:
        for c in out:
            cset = set(c)
            chords = sum(1 for u in c for w in g.neighbor_set(u) & cset) // 2
            if chords != 5:
                raise FalsificationError(
                    f"5-cycle {[g.label(v) for v in c]} has a chord in a "
                    "triangle-free graph")
    return out


# ---------------------------------------------------------------------------
# regions cut along cycles
# ---------------------------------------------------------------------------

def region_graph(g: PlaneGraph, outer: Sequence[int] | None = None,
                 holes: Iterable[Sequence[int]] = ()) -> AbstractGraph:
    """The closed interior of ``outer`` (the whole graph when ``None``)
    minus the open interiors of ``holes``, on the host's vertex ids.

    The holes must lie strictly inside ``outer`` and have pairwise
    disjoint interiors.  The vertices and edges are read off the cut
    cycles and the boundary walks of the kept faces: those inside
    ``outer`` and in no hole.  So chords drawn inside a hole or outside
    ``outer`` go, while an edge shared by two cut cycles stays.  Proof:
    a vertex or edge off a cycle has all its faces on one side of it
    (see :func:`region_partition`), so a kept face's walk lies in the
    closed region, and a vertex there on no cut cycle lies on the walks
    of its faces, all kept.  An edge there with no kept face has each
    face on the far side of a cut cycle, and so both ends on that cycle.
    It is a chord on the far side of one cycle, or an edge of a cycle
    whose two sides hold its two faces (the holes are disjoint and
    inside ``outer``).  Only a one-vertex host has no vertex on a walk.
    """
    t = g.dual_tree
    inside = (1 << len(g.faces)) - 1
    walks = []
    if outer is not None:
        parts = region_partition(g, outer)
        inside = parts.face_mask
        walks.append(parts.cycle)
    covered = 0
    for h in holes:
        parts = region_partition(g, h)
        faces = parts.face_mask
        if outer is not None and (faces & ~inside or faces == inside):
            raise ValueError("hole does not lie strictly inside the outer cycle")
        if covered & faces:
            raise ValueError("hole interiors overlap; not an antichain")
        covered |= faces
        walks.append(parts.cycle)
    walks += [g.faces[t.face_at[i]] for i in mask_members(inside & ~covered)]
    adj: dict = {0: set()} if g.n == 1 else {}
    for walk in walks:
        for u, v in zip(walk, walk[1:] + walk[:1]):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return AbstractGraph(adj={v: frozenset(adj[v]) for v in sorted(adj)})


def annulus_subgraph(g: PlaneGraph, c1: Sequence[int], c2: Sequence[int]) -> AbstractGraph:
    """The annulus ``transition_matrix`` counts: ``region_graph(g, c1, [c2])``."""
    return region_graph(g, c1, [c2])
