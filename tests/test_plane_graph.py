import json

import pytest

from threecolor import (
    AbstractGraph,
    GraphFormatError,
    annulus_subgraph,
    canonical_cycle,
    crosses,
    dodecahedron,
    enumerate_cycles,
    faces,
    identify_neighbors,
    interior_faces,
    is_laminar,
    is_triangle_free,
    load_plane_graph,
    low_degree_set,
    map_vertices,
    pentagon_garden,
    pentagon_tower,
    plane_graph_to_json,
    region_partition,
    shared_path_pentagons,
)
from threecolor.plane_graph import PlaneGraph

from builders import (
    chorded_pentagon,
    cycle_graph,
    interleaved_cycles,
    interleaved_pentagons,
    single_edge,
    single_vertex,
)
from oracles import scan_cycles, scan_triangle


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
    assert sum(len(f) for f in faces(g)) == 2 * g.edge_count


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
                   outer_dart=(0, 1))
    assert exc.value.report["error"] == "euler_violation"


def test_loader_rejects_bad_outer_face():
    data = cycle_graph(5).to_json_dict()
    data["outer_face"] = data["outer_face"][:4]
    with pytest.raises(GraphFormatError) as exc:
        load_plane_graph(data)
    assert exc.value.report["error"] == "outer_face_mismatch"


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

def test_region_partition_bare_pentagon():
    g = cycle_graph(5)
    parts = region_partition(g, list(range(5)))
    assert parts.interior == frozenset()
    assert parts.exterior == frozenset()
    assert parts.boundary == frozenset(range(5))


def test_region_partition_dodecahedron_outer_face():
    g = dodecahedron()
    outer = [g.index(f"a{j}") for j in range(5)]
    parts = region_partition(g, outer)
    assert len(parts.interior) == 15
    assert parts.exterior == frozenset()


def test_region_partition_prism():
    g = pentagon_tower(2)
    outer = [g.index(f"v1.{j}") for j in range(5)]
    parts = region_partition(g, outer)
    assert parts.interior == frozenset(g.index(f"v0.{j}") for j in range(5))


def test_region_partition_rejects_non_cycles():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        region_partition(g, [0, 2, 4])


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
    assert interior_faces(g, inner) < interior_faces(g, outer)


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
        if g.n > 25:
            continue
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


@pytest.mark.parametrize("length", [4, 5])
def test_enumerate_cycles_matches_scan(length):
    g = pentagon_tower(2)
    got = {frozenset(frozenset((c[i], c[(i + 1) % length]))
                     for i in range(length))
           for c in enumerate_cycles(g, length)}
    assert got == scan_cycles(g, length)


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
# annulus
# ---------------------------------------------------------------------------

def test_annulus_whole_prism():
    g = pentagon_tower(2)
    outer = [g.index(f"v1.{j}") for j in range(5)]
    inner = [g.index(f"v0.{j}") for j in range(5)]
    ann = annulus_subgraph(g, outer, inner)
    assert ann.n == 10
    assert ann.edge_count == 15


def test_annulus_outer_two_layers_of_tower():
    g = pentagon_tower(3)
    outer = [g.index(f"v2.{j}") for j in range(5)]
    middle = [g.index(f"v1.{j}") for j in range(5)]
    ann = annulus_subgraph(g, outer, middle)
    assert ann.n == 10
    assert sorted(ann.labels) == sorted(
        [f"v1.{j}" for j in range(5)] + [f"v2.{j}" for j in range(5)])
    # the outer face of the annulus is the outer pentagon
    walk = ann.faces[ann.outer_face]
    assert {ann.label(v) for v in walk} == {f"v2.{j}" for j in range(5)}


def test_annulus_shared_path_is_whole_graph():
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    ann = annulus_subgraph(g, outer, inner)
    assert ann.n == 6
    assert ann.edge_count == 7


def test_annulus_rejects_non_nested():
    g = pentagon_garden(2)
    p0 = [g.index(f"p0.{j}") for j in range(5)]
    p1 = [g.index(f"p1.{j}") for j in range(5)]
    with pytest.raises(ValueError):
        annulus_subgraph(g, p0, p1)


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
    ann = annulus_subgraph(g, outer, inner)
    assert ann.n == 6
    assert ann.edge_count == 7    # the u1-u3 chord is gone
    assert ann.index("u3") not in ann.neighbor_set(ann.index("u1"))


def test_interior_subgraph_excludes_chord_drawn_outside():
    # pentagon with a chord drawn in the exterior region; cutting out the
    # pentagon interior must not drag the exterior chord along
    from threecolor import interior_subgraph
    g = load_plane_graph({
        "vertices": ["u1", "u2", "u3", "u4", "u5"],
        "rotation": {"u1": ["u2", "u5"],
                     "u2": ["u3", "u5", "u1"],
                     "u3": ["u4", "u2"],
                     "u4": ["u5", "u3"],
                     "u5": ["u1", "u2", "u4"]},
        "outer_face": ["u2", "u3", "u4", "u5"]})
    pent = [g.index(f"u{i+1}") for i in range(5)]
    sub = interior_subgraph(g, pent)
    assert sub.n == 5
    assert sub.edge_count == 5    # bare pentagon, chord dropped
    walk = sub.faces[sub.outer_face]
    assert len(walk) == 5


def test_exterior_subgraph_of_tower_middle_layer():
    from threecolor import exterior_subgraph
    g = pentagon_tower(3)
    middle = [g.index(f"v1.{j}") for j in range(5)]
    sub = exterior_subgraph(g, middle)
    assert sub.n == 10
    assert sorted(sub.labels) == sorted(
        [f"v1.{j}" for j in range(5)] + [f"v2.{j}" for j in range(5)])
    # original outer face survives
    walk = sub.faces[sub.outer_face]
    assert {sub.label(v) for v in walk} == {f"v2.{j}" for j in range(5)}


def test_map_vertices_round_trip():
    g = pentagon_tower(3)
    outer = tuple(g.index(f"v2.{j}") for j in range(5))
    inner = tuple(g.index(f"v0.{j}") for j in range(5))
    ann = annulus_subgraph(g, outer, inner)
    there = map_vertices(g, ann, outer)
    back = map_vertices(ann, g, there)
    assert back == outer


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
