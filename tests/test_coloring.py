from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    AbstractGraph,
    BudgetExceededError,
    GraphFormatError,
    bichromatic_components,
    brute_force_count,
    coloring_to_json,
    colorings_from_switching,
    count_3_colorings,
    count_with_boundary,
    delete_interior_regions,
    enumerate_3_colorings,
    extends,
    identify_neighbors,
    is_proper,
    load_coloring,
    pentagon_garden,
    pentagon_tower,
    perturbed_tower,
    pinned_counts,
    shared_path_pentagons,
    special_data,
    switch_component,
)
from threecolor.generators import garden_pentagons

from builders import chorded_pentagon, cycle_graph, path_graph, single_edge, single_vertex
from oracles import scan_count_colorings, special_vertex_by_definition

PENTAGON_PATTERNS = [p for p in product((1, 2, 3), repeat=5)
                     if all(p[i] != p[(i + 1) % 5] for i in range(5))]


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,expected", [
    (single_vertex(), 3),
    (single_edge(), 6),
    (cycle_graph(4), 18),
    (cycle_graph(5), 30),
])
def test_exact_counts_match_scan_oracle(g, expected):
    assert count_3_colorings(g) == expected
    assert scan_count_colorings(g) == expected


def test_count_prism_and_shared_path():
    assert count_3_colorings(pentagon_tower(2)) == 180
    assert scan_count_colorings(pentagon_tower(2)) == 180
    assert count_3_colorings(shared_path_pentagons()) == 42
    assert scan_count_colorings(shared_path_pentagons()) == 42


def test_tower_counts_follow_layer_closed_form():
    # each boundary coloring of a layer admits exactly 6 extensions to the
    # next layer, so the tower count is 30 * 6**(k-1); the k <= 2 cases are
    # verified against the scan oracle above
    for k in range(1, 6):
        assert count_3_colorings(pentagon_tower(k)) == 30 * 6 ** (k - 1)


def test_garden_counts_follow_closed_form():
    # outer cycle count times 40 per attached pentagon
    for k, outer_len in ((1, 4), (2, 4), (3, 6)):
        expected = (2 ** outer_len + 2) * 40 ** k
        assert count_3_colorings(pentagon_garden(k)) == expected
    assert scan_count_colorings(pentagon_garden(1)) == 720


def test_count_divisible_by_six_on_corpus(corpus):
    for name, g in corpus:
        if g.n > 30:
            continue
        c = count_3_colorings(g)
        assert c > 0 and c % 6 == 0, name


def test_counts_on_abstract_graphs():
    gv = identify_neighbors(cycle_graph(5), 0)  # a triangle
    assert count_3_colorings(gv) == 6
    # non-dense ids and two components: an edge and an isolated vertex
    split = AbstractGraph(adj={3: frozenset({7}), 7: frozenset({3}),
                               9: frozenset()})
    assert count_3_colorings(split) == 6 * 3


# Generated graphs small enough to enumerate, and induced subgraphs of
# them (non-dense ids, often several components).
plane_graphs = st.one_of(
    st.integers(1, 3).map(pentagon_tower),
    st.integers(1, 2).map(pentagon_garden),
    st.builds(perturbed_tower, st.integers(2, 3), st.integers(0, 99),
              st.integers(0, 4)),
)


@st.composite
def count_inputs(draw):
    g = draw(plane_graphs)
    if draw(st.booleans()):
        return g
    drop = draw(st.sets(st.sampled_from(list(g.vertices)), max_size=g.n - 1))
    keep = set(g.vertices) - drop
    return AbstractGraph(adj={u: frozenset(w for w in g.neighbors(u) if w in keep)
                              for u in keep})


@settings(max_examples=60, deadline=None)
@given(count_inputs())
def test_sweep_count_matches_enumeration_and_scan(g):
    cols = list(enumerate_3_colorings(g))
    assert count_3_colorings(g) == len(cols) == len(set(cols))
    if g.n <= 10:        # the 3**n scan is too slow beyond this
        assert count_3_colorings(g) == scan_count_colorings(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pinned_and_boundary_counts_match_filtered_enumeration(data):
    g = data.draw(count_inputs())
    verts = sorted(g.vertices)
    fixed_at = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=6))
    fixed = {v: data.draw(st.integers(1, 3)) for v in fixed_at}
    pins = data.draw(st.lists(st.sampled_from(verts), max_size=4))
    extending = [c for c in enumerate_3_colorings(g)
                 if all(c[v] == col for v, col in fixed.items())]
    states, _ = pinned_counts(g, pins, fixed)
    assert states == Counter(tuple(c[v] for v in pins) for c in extending)
    assert count_with_boundary(g, fixed).count == len(extending)


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        count_3_colorings(pentagon_tower(3), budget=50)


def test_enumerate_matches_count():
    for g in (single_edge(), cycle_graph(4), cycle_graph(5),
              pentagon_tower(2), shared_path_pentagons(), chorded_pentagon()):
        cols = list(enumerate_3_colorings(g))
        assert len(cols) == count_3_colorings(g)
        assert len(set(cols)) == len(cols)
        assert all(is_proper(g, c) for c in cols)


def test_enumerate_triangle():
    gv = identify_neighbors(cycle_graph(5), 0)
    cols = list(enumerate_3_colorings(gv))
    assert len(cols) == 6  # the 3! bijections


def test_count_with_boundary_splits_total():
    g = pentagon_tower(2)
    outer = tuple(g.index(f"v1.{j}") for j in range(5))
    total = 0
    for pat in PENTAGON_PATTERNS:
        total += count_with_boundary(g, dict(zip(outer, pat))).count
    assert total == 180


# ---------------------------------------------------------------------------
# special vertex / edge
# ---------------------------------------------------------------------------

def test_special_data_examples():
    cycle = (10, 11, 12, 13, 14)
    coloring = {10: 1, 11: 2, 12: 1, 13: 2, 14: 3}
    got = special_data(cycle, coloring)
    assert got.vertex == 14
    assert got.edge == (11, 12)

    coloring = {10: 3, 11: 1, 12: 2, 13: 1, 14: 2}
    got = special_data(cycle, coloring)
    assert got.vertex == 10
    assert got.edge == (12, 13)


def test_each_vertex_special_in_six_of_thirty_colorings():
    g = cycle_graph(5)
    tally = {v: 0 for v in g.vertices}
    count = 0
    for coloring in enumerate_3_colorings(g):
        sd = special_data((0, 1, 2, 3, 4), coloring)
        assert sd.vertex == special_vertex_by_definition((0, 1, 2, 3, 4), coloring)
        tally[sd.vertex] += 1
        count += 1
    assert count == 30
    assert all(t == 6 for t in tally.values())


@given(st.permutations([1, 2, 3]))
@settings(max_examples=6)
def test_special_data_color_equivariance(perm):
    relabel = dict(zip((1, 2, 3), perm))
    cycle = (0, 1, 2, 3, 4)
    for pat in PENTAGON_PATTERNS:
        base = special_data(cycle, dict(zip(cycle, pat)))
        mapped = special_data(cycle, {v: relabel[c] for v, c in zip(cycle, pat)})
        assert base == mapped


def test_special_data_rejects_bad_input():
    with pytest.raises(ValueError):
        special_data((0, 1, 2, 3), {0: 1, 1: 2, 2: 1, 3: 2})
    with pytest.raises(ValueError):
        special_data((0, 1, 2, 3, 4), {0: 1, 1: 1, 2: 2, 3: 1, 4: 2})


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_bare_cycle_extends_itself():
    g = cycle_graph(5)
    for pat in PENTAGON_PATTERNS:
        assert extends(g, (0, 1, 2, 3, 4), dict(zip(range(5), pat)))


def test_prism_outer_boundary_always_extends():
    g = pentagon_tower(2)
    outer = tuple(g.index(f"v1.{j}") for j in range(5))
    for pat in PENTAGON_PATTERNS:
        assert extends(g, outer, dict(zip(outer, pat)))


def test_extension_negative_control():
    # a chord turns the pentagon non-triangle-free; colorings clashing on
    # the chord must not extend
    g = chorded_pentagon()
    cyc = tuple(range(5))
    blocked = dict(zip(cyc, (1, 2, 1, 2, 3)))   # chord a-c is monochromatic
    assert extends(g, cyc, blocked) is False
    fine = dict(zip(cyc, (1, 2, 3, 1, 2)))
    assert extends(g, cyc, fine) is True


def test_extends_rejects_non_facial_cycle():
    g = pentagon_tower(3)
    middle = tuple(g.index(f"v1.{j}") for j in range(5))
    with pytest.raises(ValueError):
        extends(g, middle, dict(zip(middle, PENTAGON_PATTERNS[0])))


# ---------------------------------------------------------------------------
# bichromatic components and switching
# ---------------------------------------------------------------------------

def test_bichromatic_edge_swap():
    g = single_edge()
    comps = bichromatic_components(g, (1, 2), 1, 2)
    assert len(comps) == 1 and comps[0].vertices == frozenset({0, 1})
    assert switch_component((1, 2), comps[0]) == (2, 1)


def test_bichromatic_pairs_on_square():
    g = cycle_graph(4)
    coloring = (1, 2, 1, 2)
    assert bichromatic_components(g, coloring, 3, 2) == \
        bichromatic_components(g, coloring, 2, 3)
    # color-1 vertices are non-adjacent: two singleton components
    assert len(bichromatic_components(g, coloring, 1, 3)) == 2


def test_bichromatic_unused_pair_is_empty():
    g = single_vertex()
    assert bichromatic_components(g, (1,), 2, 3) == []


def test_pentagon_component_switch():
    g = cycle_graph(5)
    coloring = (1, 2, 1, 2, 3)
    comps = bichromatic_components(g, coloring, 1, 2)
    assert len(comps) == 1
    assert comps[0].vertices == frozenset({0, 1, 2, 3})
    assert switch_component(coloring, comps[0]) == (2, 1, 2, 1, 3)


def test_switch_component_is_involution():
    g = pentagon_tower(2)
    coloring = next(enumerate_3_colorings(g))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        for comp in bichromatic_components(g, coloring, i, j):
            flipped = switch_component(coloring, comp)
            assert is_proper(g, flipped)
            assert switch_component(flipped, comp) == coloring


def test_switching_lattice_size_and_properness():
    g = pentagon_garden(2)
    coloring = next(enumerate_3_colorings(g))
    best = max(len(bichromatic_components(g, coloring, i, j))
               for i, j in ((1, 2), (1, 3), (2, 3)))
    got = colorings_from_switching(g, coloring)
    assert len(got) == 2 ** best
    assert all(is_proper(g, c) for c in got)


def test_switching_single_vertex():
    # pairs (1,2) and (1,3) both have one component (the vertex); the tie
    # goes to (1,2), whose switch lattice has two colorings
    g = single_vertex()
    got = colorings_from_switching(g, (1,))
    assert got == {(1,), (2,)}


def test_delete_interiors_empties_nested_pairs():
    from builders import nested_pairs_graph
    g = nested_pairs_graph()
    outer_pents = [tuple(g.index(f"q{i}.{j}") for j in range(5))
                   for i in range(2)]
    reduced = delete_interior_regions(g, outer_pents)
    assert reduced.n == g.n - 10          # both inner pentagons removed
    assert all(not lab.startswith("r") for lab in reduced.labels)
    # the emptied pentagons now bound faces
    from threecolor import canonical_cycle, map_vertices
    facial = set(reduced.facial_cycles)
    for pent in outer_pents:
        assert canonical_cycle(map_vertices(g, reduced, pent)) in facial


def test_delete_interiors_rejects_overlapping():
    g = pentagon_tower(3)
    pents = [tuple(g.index(f"v{i}.{j}") for j in range(5)) for i in range(3)]
    with pytest.raises(ValueError):
        delete_interior_regions(g, [pents[1], pents[2]])  # nested, not disjoint


def test_switching_pipeline_on_emptied_antichain():
    from builders import nested_pairs_graph
    g = nested_pairs_graph()
    outer_pents = [tuple(g.index(f"q{i}.{j}") for j in range(5))
                   for i in range(2)]
    reduced = delete_interior_regions(g, outer_pents)
    coloring = next(enumerate_3_colorings(reduced))
    got = colorings_from_switching(reduced, coloring, family_size=2)
    assert len(got) >= 2 ** (2 / 6)
    assert all(is_proper(reduced, c) for c in got)


def test_enumerate_matches_count_on_perturbed():
    from threecolor import perturbed_tower
    g = perturbed_tower(2, seed=4, ops=2)
    cols = list(enumerate_3_colorings(g))
    assert len(cols) == count_3_colorings(g)


def test_switching_on_garden_reaches_component_bound(corpus):
    # delete the pentagon interiors (a no-op here: gardens have facial
    # pentagons) and check the best pair has >= family/6 components
    for k in (1, 2, 3):
        g = pentagon_garden(k)
        pents = garden_pentagons(g, k)
        reduced = delete_interior_regions(g, pents)
        coloring = next(enumerate_3_colorings(reduced))
        got = colorings_from_switching(reduced, coloring, family_size=k)
        assert len(got) >= 2 ** (k / 6)


# ---------------------------------------------------------------------------
# coloring files
# ---------------------------------------------------------------------------

def test_coloring_round_trip():
    g = cycle_graph(4)
    coloring = (1, 2, 1, 3)
    data = coloring_to_json(g, coloring)
    assert load_coloring(data, g) == coloring


def test_coloring_file_rejects_improper():
    g = single_edge()
    with pytest.raises(GraphFormatError) as exc:
        load_coloring({"colors": {"a": 1, "b": 1}}, g)
    assert exc.value.report["error"] == "monochromatic_edge"


def test_coloring_file_rejects_partial_and_bad_colors():
    g = single_edge()
    with pytest.raises(GraphFormatError):
        load_coloring({"colors": {"a": 1}}, g)
    with pytest.raises(GraphFormatError):
        load_coloring({"colors": {"a": 1, "b": 4}}, g)
    for colors in ({"a": True, "b": 2}, {"a": 1.0, "b": 2}, None, ["a", "b"]):
        with pytest.raises(GraphFormatError):
            load_coloring({"colors": colors}, g)


def test_brute_force_helper_agrees():
    g = path_graph(4)
    assert brute_force_count(g) == count_3_colorings(g) == 3 * 2 ** 3
