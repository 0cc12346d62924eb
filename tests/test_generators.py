import json

import pytest

from threecolor import (
    FAMILIES,
    count_3_colorings,
    dodecahedron,
    enumerate_cycles,
    is_triangle_free,
    load_plane_graph,
    pentagon_garden,
    pentagon_tower,
    perturbed_tower,
    plane_graph_to_json,
    shared_path_pentagons,
    tower_pentagons,
)
from threecolor.generators import garden_pentagons


def test_every_generator_output_revalidates(corpus):
    # the PlaneGraph constructor re-runs the full loader validation; a
    # JSON round trip re-runs it once more
    for name, g in corpus:
        again = load_plane_graph(json.loads(plane_graph_to_json(g)))
        assert again.n == g.n
        assert again.edge_count == g.edge_count
        assert is_triangle_free(again), name


def test_tower_shape():
    g = pentagon_tower(3)
    assert g.n == 15
    assert g.edge_count == 25
    lengths = sorted(len(f) for f in g.faces)
    assert lengths == [4] * 10 + [5, 5]


def test_tower_k1_is_bare_pentagon():
    g = pentagon_tower(1)
    assert g.n == 5 and g.edge_count == 5 and len(g.faces) == 2


def test_tower_k2_is_prism():
    g = pentagon_tower(2)
    assert (g.n, g.edge_count, len(g.faces)) == (10, 15, 7)


def test_tower_counts_monotone_and_divisible():
    prev = 0
    for k in range(1, 6):
        c = count_3_colorings(pentagon_tower(k))
        assert c % 6 == 0
        assert c >= prev
        prev = c


def test_shared_path_pentagons_shape():
    g = shared_path_pentagons()
    assert g.n == 6 and g.edge_count == 7
    assert is_triangle_free(g)
    assert len(enumerate_cycles(g, 5)) == 2


def test_dodecahedron_shape():
    g = dodecahedron()
    assert (g.n, g.edge_count, len(g.faces)) == (20, 30, 12)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert is_triangle_free(g)
    assert len(enumerate_cycles(g, 5)) == 12
    assert len(enumerate_cycles(g, 4)) == 0


def test_garden_shapes():
    assert pentagon_garden(1).n == 10
    assert pentagon_garden(2).n == 16
    assert pentagon_garden(3).n == 24
    g = pentagon_garden(3)
    pents = garden_pentagons(g, 3)
    assert all(len(set(c)) == 5 for c in pents)


def test_perturbed_zero_ops_is_identical():
    a = plane_graph_to_json(pentagon_tower(3))
    b = plane_graph_to_json(perturbed_tower(3, seed=9, ops=0))
    assert a == b


def test_perturbed_determinism():
    a = plane_graph_to_json(perturbed_tower(4, seed=2, ops=3))
    b = plane_graph_to_json(perturbed_tower(4, seed=2, ops=3))
    assert a == b


def test_perturbed_vertex_accounting():
    # diagonal ops add one vertex, path ops add two
    base = pentagon_tower(4)
    g = perturbed_tower(4, seed=2, ops=3)
    added = g.n - base.n
    singles = sum(1 for lab in g.labels if lab.startswith("x") and
                  not lab.endswith(("a", "b")))
    doubles = sum(1 for lab in g.labels if lab.endswith("a"))
    assert added == singles + 2 * doubles
    assert all(len(f) in (4, 5, 6) for f in g.faces)


def test_perturbed_layers_survive():
    g = perturbed_tower(5, seed=5, ops=2)
    pents = tower_pentagons(g, 5)
    for c in pents:
        for i in range(5):
            assert c[(i + 1) % 5] in g.neighbor_set(c[i])


def test_perturbed_triangle_free_for_many_seeds():
    for seed in range(10):
        g = perturbed_tower(3, seed=seed, ops=4)
        assert is_triangle_free(g)


def test_families_dispatch():
    # the CLI lists the families in this order in --help and its errors
    assert list(FAMILIES) == ["tower", "shared", "dodeca", "garden", "perturbed"]
    assert FAMILIES["tower"](2, 0, 0).n == 10
    assert FAMILIES["shared"](1, 0, 0).n == 6
    assert FAMILIES["dodeca"](1, 0, 0).n == 20
    assert FAMILIES["garden"](2, 0, 0).n == 16
    assert FAMILIES["perturbed"](3, 1, 1).n >= 15


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pentagon_tower(0)
    with pytest.raises(ValueError):
        pentagon_garden(0)
    with pytest.raises(ValueError):
        perturbed_tower(3, seed=0, ops=-1)
