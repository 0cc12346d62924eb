import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    AbstractGraph,
    FalsificationError,
    GraphFormatError,
    annulus_subgraph,
    canonical_cycle,
    containment_forest,
    count_3_colorings,
    dilworth_decompose,
    dodecahedron,
    enumerate_cycles,
    extract,
    is_laminar,
    is_triangle_free,
    load_plane_graph,
    low_degree_set,
    pentagon_garden,
    pentagon_tower,
    perturbed_tower,
    plane_graph_to_json,
    region_graph,
    region_partition,
    shared_path_pentagons,
    tower_pentagons,
)
from threecolor.generators import _graph_from_layout, garden_pentagons
from threecolor.plane_graph import PlaneGraph, identify_neighbors

from builders import (
    GRAPH_SHAPED,
    JSON_VALUES,
    NAMES,
    chorded_pentagon,
    cycle_graph,
    interleaved_cycles,
    interleaved_pentagons,
    nested_pairs_family,
    nested_pairs_graph,
    path_graph,
    single_edge,
    single_vertex,
    small_cycles,
)
from oracles import (
    by_label,
    crosses,
    dual_search_faces,
    exterior_subgraph,
    interior_subgraph,
    map_vertices,
    outer_face_by_norm,
    plane_region,
    rescan_partition,
    scan_cycles,
    scan_triangle,
)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_pentagon_has_two_faces_of_length_five():
    g = cycle_graph(5)
    assert len(g.faces) == 2
    assert all(len(f) == 5 for f in g.faces)


def test_single_edge_has_one_face_of_length_two():
    g = single_edge()
    assert len(g.faces) == 1
    assert len(g.faces[0]) == 2


def test_dodecahedron_has_twelve_pentagonal_faces():
    g = dodecahedron()
    assert len(g.faces) == 12
    assert sorted(len(f) for f in g.faces) == [5] * 12
    assert g.n - g.edge_count + len(g.faces) == 2


@pytest.mark.parametrize("g", [cycle_graph(5), pentagon_tower(3),
                               dodecahedron(), shared_path_pentagons()])
def test_face_lengths_double_count_edges(g):
    assert sum(len(f) for f in g.faces) == 2 * g.edge_count


# ---------------------------------------------------------------------------
# loader validation
# ---------------------------------------------------------------------------

def test_loader_round_trip():
    g = pentagon_tower(2)
    g2 = load_plane_graph(json.loads(plane_graph_to_json(g)))
    assert g2.labels == g.labels
    assert g2.rotation == g.rotation
    assert g2.faces == g.faces


def test_loader_reports_rotation_asymmetry():
    data = {"vertices": ["a", "b", "c"],
            "rotation": {"a": ["b"], "b": ["a", "c"], "c": []},
            "outer_face": ["a", "b", "c"]}
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph(data)
    assert exc.value.report["error"] == "rotation_asymmetry"
    assert set(exc.value.report["edge"]) == {"b", "c"}


def test_loader_rejects_disconnected():
    data = {"vertices": ["a", "b", "c", "d"],
            "rotation": {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]},
            "outer_face": ["a", "b"]}
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph(data)
    assert exc.value.report["error"] == "disconnected"


def test_loader_rejects_self_loop_and_repeats():
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph({"vertices": ["a"], "rotation": {"a": ["a"]},
                          "outer_face": ["a"]})
    assert exc.value.report["error"] == "self_loop"
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph({"vertices": ["a", "b"],
                          "rotation": {"a": ["b", "b"], "b": ["a", "a"]},
                          "outer_face": ["a", "b"]})
    assert exc.value.report["error"] == "repeated_neighbor"


def test_nonplanar_rotation_fails_euler_check():
    # K4 with all rotations in sorted order embeds on the torus, not the plane
    with pytest.raises(GraphFormatError) as exc:
        PlaneGraph(["a", "b", "c", "d"],
                   [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
                   outer_walk=[0, 1])
    assert exc.value.report["error"] == "euler_violation"


def test_loader_rejects_bad_outer_face():
    data = cycle_graph(5).to_json_dict()
    data["outer_face"] = data["outer_face"][:4]
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph(data)
    assert exc.value.report["error"] == "outer_face_mismatch"


_OUTER_FACE_GRAPHS = (
    lambda: cycle_graph(4), lambda: cycle_graph(5), lambda: path_graph(4),
    single_edge, chorded_pentagon, shared_path_pentagons, dodecahedron,
    lambda: pentagon_tower(2), lambda: pentagon_garden(2),
    lambda: perturbed_tower(2, 3, 2),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_OUTER_FACE_GRAPHS), st.data())
def test_outer_face_lookup_matches_the_cyclic_norm_scan(build, data):
    # a face walk rotated, reversed, shortened or with two vertices
    # swapped or one replaced, or any vertex list: the two-dart lookup
    # finds the same least face, or the same mismatch, as the full scan
    g = build()
    face = g.faces[data.draw(st.integers(0, len(g.faces) - 1))]
    r = data.draw(st.integers(0, len(face) - 1))
    walk = list(face[r:] + face[:r])
    if data.draw(st.booleans()):
        walk.reverse()
    edit = data.draw(st.sampled_from(("none", "shorten", "swap", "replace",
                                      "any")))
    vertex = st.integers(0, g.n - 1)
    if edit == "shorten":
        walk.pop()
    elif edit == "swap":
        i, j = (data.draw(st.integers(0, len(walk) - 1)) for _ in range(2))
        walk[i], walk[j] = walk[j], walk[i]
    elif edit == "replace":
        walk[data.draw(st.integers(0, len(walk) - 1))] = data.draw(vertex)
    elif edit == "any":
        walk = data.draw(st.lists(vertex, max_size=8))
    want = outer_face_by_norm(g, walk)
    if want is None:
        with pytest.raises(GraphFormatError, match="outer_face_mismatch"):
            g._resolve_outer(walk)
    else:
        assert g._resolve_outer(walk) == want


def test_both_faces_of_a_cycle_hold_its_walk_and_the_lower_wins():
    g = cycle_graph(5)
    assert outer_face_by_norm(g, g.faces[1]) == 0
    assert g._resolve_outer(list(g.faces[1])) == 0


def test_long_outer_cycle_builds_in_linear_time():
    # matching the outer walk against every rotation of each face took
    # 14.4 s for this cycle; the two-dart lookup takes about 0.1 s
    start = time.perf_counter()
    g = cycle_graph(20000)
    assert time.perf_counter() - start < 2
    assert g.outer_face == 0 and len(g.faces[0]) == 20000


@pytest.mark.parametrize("patch", [
    {"rotation": {"c0": 5}},
    {"outer_face": 3},
    {"vertices": None},
    {"vertices": "c0c1"},
])
def test_loader_rejects_wrongly_typed_fields(patch):
    data = cycle_graph(5).to_json_dict()
    if "rotation" in patch:
        data["rotation"].update(patch["rotation"])
    else:
        data.update(patch)
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph(data)
    assert exc.value.report["error"] == "bad_schema"


def test_loaders_map_malformed_json_to_bad_json(tmp_path):
    # deep nesting overruns the decoder's recursion limit, a long number
    # its int-string length limit
    for name, text in (("deep.json", "[" * 200000), ("long.json", "1" * 5000)):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(GraphFormatError) as exc:
            load_plane_graph(str(path))
        assert exc.value.report["error"] == "bad_json", name
        assert exc.value.report["path"] == str(path)


@settings(max_examples=400, deadline=None)
@given(st.one_of(NAMES, JSON_VALUES, GRAPH_SHAPED,
                 st.builds(json.dumps, GRAPH_SHAPED)))
def test_loader_raises_only_graph_format_errors(data):
    try:
        load_plane_graph(data)
    except GraphFormatError:
        pass


def test_serialization_is_deterministic():
    a = plane_graph_to_json(pentagon_garden(2))
    b = plane_graph_to_json(pentagon_garden(2))
    assert a == b


# ---------------------------------------------------------------------------
# triangle freeness
# ---------------------------------------------------------------------------

def test_is_triangle_free_basics():
    assert is_triangle_free(cycle_graph(5))
    assert not is_triangle_free(chorded_pentagon())
    assert is_triangle_free(dodecahedron())


@pytest.mark.parametrize("g", [cycle_graph(4), chorded_pentagon(),
                               pentagon_tower(3), dodecahedron()])
def test_is_triangle_free_matches_triple_scan(g):
    assert is_triangle_free(g) == (not scan_triangle(g))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def _face_mask(g, faces):
    return sum(1 << g.dual_tree.pre[f] for f in faces)


def _vertex_mask(g, vertices):
    return sum(1 << g.dual_tree.vpos[v] for v in vertices)


def _exterior_mask(g, parts):
    """The exterior vertices of a partition: neither inside nor on it."""
    return ((1 << g.n) - 1) & ~(parts.interior_mask | parts.boundary_mask)


def test_region_partition_bare_pentagon():
    g = cycle_graph(5)
    parts = region_partition(g, list(range(5)))
    assert parts.interior_mask == _exterior_mask(g, parts) == 0
    assert parts.boundary_mask == _vertex_mask(g, range(5)) == 0b11111


def test_region_partition_dodecahedron_outer_face():
    g = dodecahedron()
    outer = [g.index(f"a{j}") for j in range(5)]
    parts = region_partition(g, outer)
    assert parts.interior_mask.bit_count() == 15
    assert _exterior_mask(g, parts) == 0


def test_region_partition_prism():
    g = pentagon_tower(2)
    outer = [g.index(f"v1.{j}") for j in range(5)]
    parts = region_partition(g, outer)
    assert parts.interior_mask == _vertex_mask(g, (g.index(f"v0.{j}") for j in range(5)))


def test_region_partition_rejects_non_cycles():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        region_partition(g, [0, 2, 4])


_TOWERS = st.one_of(
    st.integers(2, 8).map(lambda h: (pentagon_tower(h), h)),
    st.tuples(st.integers(3, 8), st.integers(0, 10**6), st.integers(0, 4))
    .map(lambda a: (perturbed_tower(*a), a[0])))


def _check_partition(g):
    """Every 5-cycle, facial cycle and one- or two-face cycle of ``g``
    against the dual search and the vertex rescan, their id sets
    encoded as masks over the dual tree's numberings."""
    small = small_cycles(g)
    for c in {*enumerate_cycles(g, 5), *g.facial_cycles, *(c for c, _ in small)}:
        parts = region_partition(g, c)
        assert region_partition(g, c) == parts
        assert parts.face_mask == _face_mask(g, dual_search_faces(g, c))
        assert (parts.interior_mask, _exterior_mask(g, parts), parts.boundary_mask) == \
            tuple(_vertex_mask(g, vs) for vs in rescan_partition(g, c))
    for c, faces in small:
        assert region_partition(g, c).face_mask == _face_mask(g, faces)
    return len(small)


@settings(max_examples=100, deadline=None)
@given(_TOWERS)
def test_region_partition_matches_dual_search_and_rescan(tower):
    g, _ = tower
    assert _check_partition(g) > 0


def test_region_partition_matches_dual_search_and_rescan_on_corpus(corpus):
    for _, g in corpus:
        _check_partition(g)


def _pendant_pentagon(rotation_of_0):
    """A pentagon with a path 0-5-6 hanging into its inner face: the
    path's edges are bridges, so their dual edges are self-loops."""
    return PlaneGraph([f"x{i}" for i in range(7)],
                      [rotation_of_0, [2, 0], [3, 1], [4, 2], [0, 3], [0, 6], [5]],
                      outer_walk=[0, 1, 2, 3, 4])


def _bowtie():
    """Two pentagons joined at the cut vertex 0."""
    return PlaneGraph([f"y{i}" for i in range(9)],
                      [[1, 4, 5, 8], [2, 0], [3, 1], [4, 2], [0, 3],
                       [6, 0], [7, 5], [8, 6], [0, 7]],
                      outer_walk=[0, 1, 2, 3, 4, 0, 5, 6, 7, 8])


def _quad_outer_tower():
    """Tower 3 redrawn with a quadrilateral as its outer face."""
    data = pentagon_tower(3).to_json_dict()
    data["outer_face"] = ["v1.0", "v2.0", "v2.1", "v1.1"]
    return load_plane_graph(data)


def test_region_partition_matches_dual_search_on_other_embeddings():
    for rotation_of_0 in ([1, 5, 4], [1, 4, 5]):
        g = _pendant_pentagon(rotation_of_0)
        _check_partition(g)
        assert region_partition(g, range(5)).interior_mask == _vertex_mask(g, {5, 6})
    assert _pendant_pentagon([1, 4, 5]).outer_face != 0
    g = _bowtie()
    _check_partition(g)
    assert _exterior_mask(g, region_partition(g, range(5))) == _vertex_mask(g, range(5, 9))
    g = _quad_outer_tower()
    assert g.outer_face != 0
    _check_partition(g)
    # the top pentagon now bounds a single face, as the bottom one does
    for layer, inside in ((0, 0), (1, 5), (2, 0)):
        parts = region_partition(g, [g.index(f"v{layer}.{j}") for j in range(5)])
        assert parts.interior_mask.bit_count() == inside
        assert parts.face_mask.bit_count() == (6 if inside else 1)


# ---------------------------------------------------------------------------
# crossing and laminarity
# ---------------------------------------------------------------------------

def test_disjoint_pentagons_do_not_cross():
    g = pentagon_garden(2)
    p0 = [g.index(f"p0.{j}") for j in range(5)]
    p1 = [g.index(f"p1.{j}") for j in range(5)]
    assert not crosses(g, p0, p1)
    assert is_laminar(g, [p0, p1])


def test_nested_pentagons_do_not_cross():
    g = pentagon_tower(2)
    inner = [g.index(f"v0.{j}") for j in range(5)]
    outer = [g.index(f"v1.{j}") for j in range(5)]
    assert not crosses(g, inner, outer)
    assert is_laminar(g, [inner, outer])
    fi, fo = (region_partition(g, c).face_mask for c in (inner, outer))
    assert fi & fo == fi != fo


def test_interleaved_pentagons_cross():
    g = interleaved_pentagons()
    a, b = interleaved_cycles(g)
    assert crosses(g, a, b)
    assert not is_laminar(g, [a, b])


def test_laminarity_is_order_invariant():
    g = pentagon_tower(4)
    fam = [tuple(g.index(f"v{i}.{j}") for j in range(5)) for i in range(4)]
    assert is_laminar(g, fam)
    assert is_laminar(g, fam[::-1])
    assert is_laminar(g, [fam[2], fam[0], fam[3], fam[1]])


# ---------------------------------------------------------------------------
# vertex identification
# ---------------------------------------------------------------------------

def test_identify_on_path_collapses_to_one_vertex():
    g = load_plane_graph({"vertices": ["a", "v", "b"],
                          "rotation": {"a": ["v"], "v": ["a", "b"], "b": ["v"]},
                          "outer_face": ["a", "v", "b", "v"]})
    got = identify_neighbors(g, g.index("v"))
    assert got.n == 1
    assert got.edge_count == 0


def test_identify_on_pentagon_gives_triangle():
    g = cycle_graph(5)
    got = identify_neighbors(g, 0)
    assert got.n == 3
    assert not is_triangle_free(got)


def test_identify_vertex_count_formula():
    g = dodecahedron()
    for v in g.vertices:
        gv = identify_neighbors(g, v)
        assert gv.n == g.n - g.degree(v)
        assert not is_triangle_free(gv)  # every vertex is on a pentagon


def test_identify_five_cycle_characterization(corpus):
    # in a triangle-free graph, identification stays triangle-free exactly
    # when the vertex avoids all 5-cycles
    for name, g in corpus:
        on_five = set()
        for c in enumerate_cycles(g, 5):
            on_five.update(c)
        for v in g.vertices:
            reduced = is_triangle_free(identify_neighbors(g, v))
            assert reduced == (v not in on_five), (name, g.label(v))


# ---------------------------------------------------------------------------
# degrees and cycle enumeration
# ---------------------------------------------------------------------------

def test_low_degree_set():
    g = cycle_graph(5)
    assert low_degree_set(g, 2) == frozenset(range(5))
    assert low_degree_set(g, 1) == frozenset()
    assert low_degree_set(dodecahedron(), 3) == frozenset(range(20))


def test_enumerate_cycles_pentagon():
    g = cycle_graph(5)
    assert enumerate_cycles(g, 5) == [(0, 1, 2, 3, 4)]
    assert enumerate_cycles(g, 4) == []


def test_enumerate_cycles_prism_quads():
    g = pentagon_tower(2)
    quads = enumerate_cycles(g, 4)
    assert len(quads) == 5
    assert quads == sorted(quads)


def test_enumerate_cycles_dodecahedron_faces():
    g = dodecahedron()
    fives = enumerate_cycles(g, 5)
    assert len(fives) == 12
    assert set(fives) == set(g.facial_cycles)


def _walk_order(edges):
    """The canonical cycle through a set of undirected edges."""
    adj: dict = {}
    for u, v in map(tuple, edges):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    walk = [min(adj), adj[min(adj)][0]]
    while len(walk) < len(adj):
        a, b = adj[walk[-1]]
        walk.append(b if a == walk[-2] else a)
    return canonical_cycle(walk)


def _check_cycles(g, length):
    """The enumeration is the sorted list of the scan's cycles."""
    want = sorted(_walk_order(c) for c in scan_cycles(g, length))
    assert enumerate_cycles(g, length) == want


@pytest.mark.parametrize("length", [4, 5])
@settings(max_examples=50, deadline=None)
@given(_TOWERS)
def test_enumerate_cycles_matches_scan(length, tower):
    _check_cycles(tower[0], length)


def _wheel(k):
    """A k-cycle with a hub joined to all of it: triangles everywhere."""
    rotation = [[(i + 1) % k, k, (i - 1) % k] for i in range(k)] + [list(range(k))]
    return PlaneGraph([f"w{i}" for i in range(k + 1)], rotation,
                      outer_walk=list(range(k)))


def test_enumerate_cycles_matches_scan_on_corpus(corpus):
    graphs = [g for _, g in corpus] + [
        _pendant_pentagon([1, 5, 4]), _bowtie(), _quad_outer_tower(),
        interleaved_pentagons(), nested_pairs_graph(), chorded_pentagon(),
        _wheel(3), _wheel(5), _wheel(6)]
    for g in graphs:
        for length in (4, 5):
            _check_cycles(g, length)


def test_shared_path_has_exactly_two_five_cycles():
    g = shared_path_pentagons()
    assert len(enumerate_cycles(g, 5)) == 2


def test_canonical_cycle_rotation_reflection_invariance():
    base = (2, 7, 3, 9, 5)
    for i in range(5):
        rot = base[i:] + base[:i]
        assert canonical_cycle(rot) == canonical_cycle(base)
        assert canonical_cycle(rot[::-1]) == canonical_cycle(base)


# ---------------------------------------------------------------------------
# regions cut along cycles
# ---------------------------------------------------------------------------

def _labels(g, vertices):
    return sorted(g.label(v) for v in vertices)


def _check_region(g, outer, holes):
    """region_graph against the cut rebuilt as a plane graph, by label."""
    want = plane_region(g, outer, holes)
    got = by_label(region_graph(g, outer, holes), g.label)
    assert got == by_label(want, want.label)


def test_region_graph_of_one_vertex_is_that_vertex():
    # no face walk holds the vertex; it comes from the host's vertex list
    assert region_graph(single_vertex()).adj == {0: frozenset()}


def test_region_graph_without_cycles_is_the_whole_graph(corpus):
    for name, g in [*corpus, ("edge", single_edge()), ("path", path_graph(4))]:
        want = {v: frozenset(g.rotation[v]) for v in g.vertices}
        assert region_graph(g).adj == want, name


def test_annulus_whole_prism():
    g = pentagon_tower(2)
    outer = [g.index(f"v1.{j}") for j in range(5)]
    inner = [g.index(f"v0.{j}") for j in range(5)]
    ann = annulus_subgraph(g, outer, inner)
    assert ann == region_graph(g, outer, [inner])
    assert ann.n == 10
    assert ann.edge_count == 15


def test_annulus_outer_two_layers_of_tower():
    g = pentagon_tower(3)
    outer = [g.index(f"v2.{j}") for j in range(5)]
    middle = [g.index(f"v1.{j}") for j in range(5)]
    ann = region_graph(g, outer, [middle])
    assert ann.n == 10
    assert _labels(g, ann.vertices) == sorted(
        [f"v1.{j}" for j in range(5)] + [f"v2.{j}" for j in range(5)])
    # the rebuilt cut makes the outer pentagon its outer face
    rebuilt = plane_region(g, outer, [middle])
    walk = rebuilt.faces[rebuilt.outer_face]
    assert {rebuilt.label(v) for v in walk} == {f"v2.{j}" for j in range(5)}


def test_annulus_shared_path_is_whole_graph():
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    ann = annulus_subgraph(g, outer, inner)
    assert ann == region_graph(g, outer, [inner])
    assert ann.n == 6
    assert ann.edge_count == 7


def test_annulus_rejects_non_nested():
    g = pentagon_garden(2)
    p0 = [g.index(f"p0.{j}") for j in range(5)]
    p1 = [g.index(f"p1.{j}") for j in range(5)]
    for outer, hole in ((p0, p1), (p0, p0)):
        with pytest.raises(ValueError, match="strictly inside"):
            region_graph(g, outer, [hole])
        with pytest.raises(ValueError, match="strictly inside"):
            annulus_subgraph(g, outer, hole)


def _tower_with_unseparating_edge(monkeypatch, layer):
    """Tower 2 and its pentagons, with both darts of one edge of the
    given layer's pentagon naming the same face."""
    g = pentagon_tower(2)
    pents = [tuple(g.index(f"v{i}.{j}") for j in range(5)) for i in range(2)]
    u, v = pents[layer][:2]
    monkeypatch.setitem(g.face_of_dart, (v, u), g.face_of_dart[(u, v)])
    return g, pents


def test_region_graph_guards_cycle_sides(monkeypatch):
    # a face structure putting both faces of a cycle edge on one side of
    # the cycle must trip the guard, for the outer cycle and for a hole
    g, pents = _tower_with_unseparating_edge(monkeypatch, 1)
    with pytest.raises(FalsificationError, match="does not separate"):
        region_graph(g, pents[1])
    g, pents = _tower_with_unseparating_edge(monkeypatch, 0)
    with pytest.raises(FalsificationError, match="does not separate"):
        region_graph(g, None, [pents[0]])


def test_interiors_and_forest_guard_cycle_sides(monkeypatch):
    for layer in (0, 1):
        g, pents = _tower_with_unseparating_edge(monkeypatch, layer)
        with pytest.raises(FalsificationError, match="does not separate"):
            region_partition(g, pents[layer])
        with pytest.raises(FalsificationError, match="does not separate"):
            containment_forest(g, pents)


def _face_of_cycle(g, cycle):
    return next(f for f, walk in enumerate(g.faces) if set(walk) == set(cycle))


def test_region_partition_guards_empty_interior(monkeypatch):
    # the inner face loses all its dual edges: the dual tree never
    # reaches it from the outer face, no tree edge is dual to the inner
    # pentagon, and the interior comes out empty
    g = pentagon_tower(2)
    inner = tuple(g.index(f"v0.{j}") for j in range(5))
    face = _face_of_cycle(g, inner)
    for u, v in zip(inner, inner[1:] + inner[:1]):
        for a, b in ((u, v), (v, u)):
            if g.face_of_dart[(a, b)] == face:
                monkeypatch.setitem(g.face_of_dart, (a, b), g.face_of_dart[(b, a)])
    with pytest.raises(FalsificationError, match="no interior face"):
        region_partition(g, inner)
    with pytest.raises(FalsificationError, match="no interior face"):
        extract(g, 213)


def _tower_with_spoke_moved_inside(monkeypatch, j):
    """Tower 2 and its pentagons, with one dart of the spoke v0.j-v1.j
    moved onto the face inside the inner pentagon."""
    g = pentagon_tower(2)
    pents = [tuple(g.index(f"v{i}.{k}") for k in range(5)) for i in range(2)]
    monkeypatch.setitem(g.face_of_dart, (pents[0][j], pents[1][j]),
                        _face_of_cycle(g, pents[0]))
    return g, pents


def test_region_partition_guards_edges_across_the_cycle(monkeypatch):
    # the moved spoke joins the inside of the inner pentagon to its
    # outside although it is no edge of the pentagon
    for j in range(5):
        g, pents = _tower_with_spoke_moved_inside(monkeypatch, j)
        with pytest.raises(FalsificationError,
                           match=f"joins interior to exterior.*v0.{j}-v1.{j}"):
            region_partition(g, pents[0])
    g, pents = _tower_with_spoke_moved_inside(monkeypatch, 0)
    with pytest.raises(FalsificationError, match="joins interior to exterior"):
        region_graph(g, None, [pents[0]])
    g, pents = _tower_with_spoke_moved_inside(monkeypatch, 0)
    with pytest.raises(FalsificationError, match="joins interior to exterior"):
        containment_forest(g, pents)


def test_enumerate_cycles_guards_chords(monkeypatch):
    # a 5-cycle with a chord can only be met when the triangle check is
    # wrong; forcing it reaches the chord guard
    g = chorded_pentagon()
    assert enumerate_cycles(g, 5) == [(0, 1, 2, 3, 4)]
    monkeypatch.setattr(g, "triangle_free", True)
    with pytest.raises(FalsificationError, match="has a chord"):
        enumerate_cycles(g, 5)


def test_annulus_excludes_chord_drawn_inside_inner_cycle():
    # shared-path configuration plus a chord of the inner pentagon drawn
    # in its interior; the annulus must drop exactly that chord
    g = load_plane_graph({
        "vertices": ["u1", "u2", "u3", "u4", "u5", "v"],
        "rotation": {"u1": ["u2", "u3", "v", "u5"],
                     "u2": ["u3", "u1"],
                     "u3": ["u4", "u1", "u2"],
                     "u4": ["u5", "v", "u3"],
                     "u5": ["u1", "u4"],
                     "v": ["u1", "u4"]},
        "outer_face": ["u1", "u2", "u3", "u4", "u5"]})
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    ann = region_graph(g, outer, [inner])
    assert ann.n == 6
    assert ann.edge_count == 7    # the u1-u3 chord is gone
    assert g.index("u3") not in ann.neighbors(g.index("u1"))
    _check_region(g, outer, [inner])


def test_interior_subgraph_excludes_chord_drawn_outside():
    # pentagon with a chord drawn in the exterior region; cutting out the
    # pentagon interior must not drag the exterior chord along
    g = load_plane_graph({
        "vertices": ["u1", "u2", "u3", "u4", "u5"],
        "rotation": {"u1": ["u2", "u5"],
                     "u2": ["u3", "u5", "u1"],
                     "u3": ["u4", "u2"],
                     "u4": ["u5", "u3"],
                     "u5": ["u1", "u2", "u4"]},
        "outer_face": ["u2", "u3", "u4", "u5"]})
    pent = [g.index(f"u{i+1}") for i in range(5)]
    assert region_graph(g, pent).edge_count == 5    # bare pentagon, chord dropped
    sub = interior_subgraph(g, pent)
    assert sub.n == 5
    assert sub.edge_count == 5
    walk = sub.faces[sub.outer_face]
    assert len(walk) == 5


def test_region_graph_drops_chords_of_long_cycles_on_their_far_side():
    # a concave hexagon 0..5 with the chord 0-3 drawn above it, outside
    # the hexagon, and inside it a square 6..9 with the chord 6-8 drawn
    # inside the square, joined to the hexagon by the edge 1-6
    pos = {0: (0, 2), 1: (0, 0), 2: (3, 0), 3: (3, 2), 4: (2, 1), 5: (1, 1),
           6: (1, .3), 7: (2, .3), 8: (2, .7), 9: (1, .7)}
    hexagon, square = (0, 1, 2, 3, 4, 5), (6, 7, 8, 9)
    edges = [(0, 3), (6, 8), (1, 6)]
    for c in (hexagon, square):
        edges += [(c[i - 1], c[i]) for i in range(len(c))]
    g = _graph_from_layout(pos, edges, [0, 1, 2, 3])
    assert g.edge_count == 13
    region = region_graph(g, hexagon, [square])
    assert region.n == 10
    assert region.edge_count == 11
    assert 3 not in region.neighbors(0) and 8 not in region.neighbors(6)
    _check_region(g, hexagon, [square])


def test_exterior_subgraph_of_tower_middle_layer():
    g = pentagon_tower(3)
    middle = [g.index(f"v1.{j}") for j in range(5)]
    want = sorted([f"v1.{j}" for j in range(5)] + [f"v2.{j}" for j in range(5)])
    assert _labels(g, region_graph(g, None, [middle]).vertices) == want
    sub = exterior_subgraph(g, middle)
    assert sub.n == 10
    assert sorted(sub.labels) == want
    # original outer face survives
    walk = sub.faces[sub.outer_face]
    assert {sub.label(v) for v in walk} == {f"v2.{j}" for j in range(5)}


def test_map_vertices_round_trip():
    g = pentagon_tower(3)
    outer = tuple(g.index(f"v2.{j}") for j in range(5))
    inner = tuple(g.index(f"v0.{j}") for j in range(5))
    ann = plane_region(g, outer, [inner])
    there = map_vertices(g, ann, outer)
    back = map_vertices(ann, g, there)
    assert back == outer


def test_region_graph_keeps_edge_shared_by_two_holes():
    # two adjacent faces of the dodecahedron have disjoint interiors;
    # deleting them must keep the edge 0-1 they share
    g = dodecahedron()
    holes = [(0, 1, 18, 17, 16), (0, 1, 2, 5, 4)]
    assert all(canonical_cycle(h) in g.facial_cycles for h in holes)
    region = region_graph(g, None, holes)
    assert region.n == 20
    assert region.edge_count == 30
    assert count_3_colorings(region) == count_3_colorings(g) == 7200
    _check_region(g, None, holes)


@settings(max_examples=100, deadline=None)
@given(_TOWERS, st.data())
def test_region_graph_matches_rebuilt_cut(tower, data):
    """Holes drawn among one- and two-face cycles and layer pentagons
    (each kept if its interior misses the earlier ones), and an outer
    cycle drawn among those strictly containing every hole, or none."""
    g, height = tower
    pool = sorted({c for c, _ in small_cycles(g)}
                  | {canonical_cycle(c) for c in tower_pentagons(g, height)})
    inside = {c: dual_search_faces(g, c) for c in pool}
    holes, covered = [], set()
    for c in data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)):
        if covered.isdisjoint(inside[c]):
            holes.append(c)
            covered |= inside[c]
    outers = [c for c in pool if all(inside[h] < inside[c] for h in holes)]
    outer = data.draw(st.sampled_from([None] + outers))
    _check_region(g, outer, holes)


def test_region_graph_matches_rebuilt_cut_on_corpus_families(corpus):
    """The antichain of each extracted family, and each member's closed
    interior minus its children's interiors."""
    checked = 0
    for name, g in corpus:
        out = extract(g, 213)
        if out.kind != "family":
            continue
        _, anti = dilworth_decompose(g, out.family)
        _check_region(g, None, anti.cycles)
        forest = containment_forest(g, out.family)
        _check_region(g, None, forest.roots)
        for c, kids in forest.children.items():
            _check_region(g, c, kids)
        checked += 1
    for k in (1, 2, 3):
        g = pentagon_garden(k)
        _check_region(g, None, garden_pentagons(g, k))
    g = nested_pairs_graph()
    _check_region(g, None, nested_pairs_family(g)[:2])
    assert checked >= 8


# ---------------------------------------------------------------------------
# generic structure
# ---------------------------------------------------------------------------

def test_abstract_graph_accessors():
    g = AbstractGraph(adj={1: frozenset({2}), 2: frozenset({1, 5}),
                           5: frozenset({2})})
    assert g.vertices == (1, 2, 5)
    assert g.degree(2) == 2
    assert g.edge_count == 2


def test_single_vertex_graph():
    g = single_vertex()
    assert g.n == 1
    assert len(g.faces) == 1
