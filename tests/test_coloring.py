import logging
from collections import Counter
from itertools import chain, islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    AbstractGraph,
    BudgetExceededError,
    GraphFormatError,
    bichromatic_components,
    coloring_to_json,
    count_3_colorings,
    count_3_colorings_detailed,
    count_with_boundary,
    dodecahedron,
    enumerate_3_colorings,
    extends,
    is_proper,
    load_coloring,
    pentagon_garden,
    pentagon_tower,
    perturbed_tower,
    pinned_counts,
    region_graph,
    shared_path_pentagons,
    special_data,
    switching_count,
)
from threecolor.coloring import (
    _bfs_from,
    _first_occurrence,
    _narrowest_bfs,
    _orbit_masks,
    _sweep_in_order,
    sweep_shape,
)
from threecolor.generators import garden_pentagons
from threecolor.plane_graph import identify_neighbors

from builders import (
    JSON_VALUES,
    NAMES,
    chorded_pentagon,
    cycle_graph,
    path_graph,
    single_edge,
    single_vertex,
)
from oracles import (
    reference_sweep,
    renumbered,
    scan_count_colorings,
    special_vertex_by_definition,
    switch_component,
    switch_lattice,
)

PENTAGON_PATTERNS = [p for p in product((1, 2, 3), repeat=5)
                     if all(p[i] != p[(i + 1) % 5] for i in range(5))]

# color-blind tags: the first-occurrence pattern and the number of colors
COLOR_BLIND_TAGS = (lambda cols: tuple(cols.index(c) for c in cols),
                    lambda cols: len(set(cols)))


def bfs_sweep(g, groups, fixed=None, tag=None):
    """``(states, updates)`` of the sweep of ``g`` in its shape's own
    breadth-first order, bypassing the choice of order."""
    shape = sweep_shape(g, groups, fixed)
    return _sweep_in_order(shape, range(len(shape[0])), tag, 10 ** 9)


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
    # the chosen order and every candidate order give the same count
    shape = sweep_shape(g, ())
    n = len(shape[0])
    orders = [_narrowest_bfs(shape), range(n)]
    orders += [_bfs_from(shape[0], r)[0] for r in (n // 3, 2 * n // 3, n - 1)]
    for order in orders:
        states, _ = _sweep_in_order(shape, order, None, 10 ** 9)
        assert states == {(): len(cols)}


@settings(max_examples=60, deadline=None)
@given(st.one_of(count_inputs(),
                 st.builds(perturbed_tower, st.integers(2, 6), st.integers(0, 99),
                           st.integers(0, 4))),
       st.data())
def test_orbit_merged_count_matches_unmerged_sweep(g, data):
    # a count keeps one state per color orbit; an untagged pin tells the
    # colors apart, so its sweep keeps every state
    merged = count_3_colorings_detailed(g)
    v = data.draw(st.sampled_from(sorted(g.vertices)))
    by_color, _ = pinned_counts(g, [v])
    assert by_color == {(c,): merged.count // 3 for c in (1, 2, 3)}
    # the two shapes may choose different orders; in one order the
    # merged sweep spends no more updates
    assert bfs_sweep(g, [])[1] <= bfs_sweep(g, [(v,)])[1]
    if g.n <= 15:
        assert merged.count == sum(1 for _ in enumerate_3_colorings(g))
    if g.n <= 10:
        assert merged.count == scan_count_colorings(g)


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tagged_groups_match_hand_bucketed_pins(data):
    g = data.draw(count_inputs())
    verts = sorted(g.vertices)
    fixed_at = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=3))
    fixed = {v: data.draw(st.integers(1, 3)) for v in fixed_at}
    # groups may overlap and may repeat a vertex
    groups = data.draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=5).map(tuple),
        max_size=3))
    flat = [v for grp in groups for v in grp]
    plain, _ = pinned_counts(g, flat, fixed)
    plain_updates = bfs_sweep(g, [(v,) for v in flat], fixed)[1]
    for tag in COLOR_BLIND_TAGS:
        expected = Counter()
        for colors, cnt in plain.items():
            it = iter(colors)
            expected[tuple(tag(tuple(next(it) for _ in grp))
                           for grp in groups)] += cnt
        got, _ = pinned_counts(g, groups, fixed, tag=tag)
        assert got == expected
        # a tagged state is a function of the untagged one, and without
        # fixed colors the tagged sweep also keeps one state per color
        # orbit; the two shapes may choose different orders, so the
        # updates are compared in one order
        assert bfs_sweep(g, groups, fixed, tag)[1] <= plain_updates


def draw_sweep_input(data):
    """A graph, its groups (untagged pins or groups for a color-blind
    tag), fixed colors and the tag (``None`` for untagged pins)."""
    g = data.draw(count_inputs())
    verts = sorted(g.vertices)
    fixed_at = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=3))
    fixed = {v: data.draw(st.integers(1, 3)) for v in fixed_at}
    groups = data.draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=5).map(tuple),
        max_size=3))
    tag = data.draw(st.sampled_from((None,) + COLOR_BLIND_TAGS))
    if tag is None:
        groups = [(v,) for grp in groups for v in grp]
    return g, groups, fixed, tag


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_register_kernel_matches_tuple_kernel(data):
    # in the shape's own order both kernels visit the same orbits, so
    # they agree on the states and on the updates
    g, groups, fixed, tag = draw_sweep_input(data)
    shape = sweep_shape(g, groups, fixed)
    want = reference_sweep(shape, tag)
    assert _sweep_in_order(shape, range(len(shape[0])), tag, 10 ** 9) == want
    pins = [v for (v,) in groups] if tag is None else groups
    assert pinned_counts(g, pins, fixed, tag=tag)[0] == want[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_order_matches_tuple_kernel_on_renumbered_shape(data):
    # the plan reads any permutation of the positions directly; the tuple
    # kernel sweeps the shape renumbered by it in its own order, so the
    # two place the same vertices in the same order
    g, groups, fixed, tag = draw_sweep_input(data)
    shape = sweep_shape(g, groups, fixed)
    perm = data.draw(st.permutations(range(len(shape[0]))))
    assert _sweep_in_order(shape, perm, tag, 10 ** 9) == \
        reference_sweep(renumbered(shape, perm), tag)


def test_orbit_representative_is_first_occurrence_on_every_word():
    # every word of at most 8 registers, with a tag bit above them that
    # the relabeling must keep
    low = 0x5555
    for live in range(1 << 8):
        regs = [r for r in range(8) if live >> r & 1]
        ones, bad = _orbit_masks(sum(3 << 2 * r for r in regs), low)
        for cols in product((1, 2, 3), repeat=len(regs)):
            relabel = {}
            for c in cols:
                relabel.setdefault(c, len(relabel) + 1)
            word = sum(c << 2 * r for r, c in zip(regs, cols)) | 1 << 16
            want = sum(relabel[c] << 2 * r for r, c in zip(regs, cols)) | 1 << 16
            assert _first_occurrence(word, low) == want
            x = word ^ ones
            assert (not x & -x & bad) == (word == want)


@pytest.mark.parametrize("tag", [lambda cols: cols, lambda cols: sum(cols) % 3])
def test_color_dependent_tag_is_rejected_without_fixed_colors(tag):
    g = pentagon_tower(2)
    with pytest.raises(ValueError, match="invariant under color permutations"):
        pinned_counts(g, [(0, 1, 2)], tag=tag)
    # fixed colors keep exact colors, so any tag is allowed there
    states, _ = pinned_counts(g, [(0, 1, 2)], {4: 1}, tag=tag)
    assert sum(states.values()) == count_with_boundary(g, {4: 1}).count


def test_tagged_groups_reject_empty_and_unknown_members():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        pinned_counts(g, [(0, 1), ()], tag=sum)
    with pytest.raises(ValueError):
        pinned_counts(g, [(0, 9)], tag=sum)


def test_state_update_counts_are_pinned():
    # ``budget`` and ``budget_used`` count these frontier state updates,
    # so a rewrite of the sweep must not change them
    for k, nodes in zip(range(3, 7), (191, 310, 429, 548)):
        assert count_3_colorings_detailed(pentagon_tower(k)).nodes == nodes
    assert count_3_colorings_detailed(dodecahedron()).nodes == 735


def test_sweep_logs_its_root_and_register_count(caplog):
    # after the fields it always had, the debug line names the position
    # the sweep order starts from and the number of registers, the peak
    # frontier width
    with caplog.at_level(logging.DEBUG, logger="threecolor.coloring"):
        count_3_colorings(pentagon_tower(2))
        count_3_colorings(dodecahedron())
    assert [r.getMessage() for r in caplog.records] == [
        "sweep of 10 vertices: 62 updates, peak 9 live states, "
        "color orbits merged, BFS root 3, 4 registers",
        "sweep of 20 vertices: 735 updates, peak 54 live states, "
        "color orbits merged, BFS root 0, 6 registers"]


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


def test_extends_rejects_missing_or_non_color_boundary():
    g = cycle_graph(5)
    cyc = (0, 1, 2, 3, 4)
    with pytest.raises(ValueError, match="vertex c0 no color"):
        extends(g, cyc, {})
    for bad in ("x", 0, 4, None):
        boundary = dict(zip(cyc, (1, 2, 1, 2, 3)))
        boundary[3] = bad
        with pytest.raises(ValueError, match="vertex c3 no color"):
            extends(g, cyc, boundary)


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
    assert comps == [frozenset({0, 1})]
    assert switch_component((1, 2), comps[0], 1, 2) == (2, 1)


def test_bichromatic_pairs_on_square():
    g = cycle_graph(4)
    coloring = (1, 2, 1, 2)
    assert bichromatic_components(g, coloring, 3, 2) == \
        bichromatic_components(g, coloring, 2, 3)
    # color-1 vertices are non-adjacent: two singleton components
    assert bichromatic_components(g, coloring, 1, 3) == \
        [frozenset({0}), frozenset({2})]
    with pytest.raises(ValueError, match="two distinct colors"):
        bichromatic_components(g, coloring, 2, 2)


def test_bichromatic_unused_pair_is_empty():
    g = single_vertex()
    assert bichromatic_components(g, (1,), 2, 3) == []


def test_pentagon_component_switch():
    g = cycle_graph(5)
    coloring = (1, 2, 1, 2, 3)
    comps = bichromatic_components(g, coloring, 1, 2)
    assert comps == [frozenset({0, 1, 2, 3})]
    assert switch_component(coloring, comps[0], 1, 2) == (2, 1, 2, 1, 3)


def test_switch_component_is_involution():
    g = pentagon_tower(2)
    coloring = next(enumerate_3_colorings(g))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        for comp in bichromatic_components(g, coloring, i, j):
            flipped = switch_component(coloring, comp, i, j)
            assert is_proper(g, flipped)
            assert switch_component(flipped, comp, i, j) == coloring


def test_switching_lattice_size_and_properness():
    g = pentagon_garden(2)
    coloring = next(enumerate_3_colorings(g))
    t = switching_count(g, coloring)
    assert t == max(len(bichromatic_components(g, coloring, i, j))
                    for i, j in ((1, 2), (1, 3), (2, 3)))
    got = switch_lattice(g, coloring)
    assert len(got) == 2 ** t
    assert all(is_proper(g, c) for c in got)


def test_switching_single_vertex():
    # pairs (1,2) and (1,3) both have one component (the vertex); the tie
    # goes to (1,2), whose switch lattice has two colorings
    g = single_vertex()
    assert switching_count(g, (1,)) == 1
    assert switch_lattice(g, (1,)) == {(1,), (2,)}


@settings(max_examples=60, deadline=None)
@given(count_inputs(), st.integers(1, 5))
def test_switching_count_matches_lattice(g, k):
    verts = set(g.vertices)
    for coloring in islice(enumerate_3_colorings(g), k):
        t = switching_count(g, coloring)
        if t <= 12:
            assert 2 ** t == len(switch_lattice(g, coloring))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            comps = bichromatic_components(g, coloring, i, j)
            # the components partition the vertices of the two colors
            assert sorted(chain.from_iterable(comps)) == \
                sorted(v for v in verts if coloring[v] in (i, j))
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)
            where = {v: n for n, comp in enumerate(comps) for v in comp}
            for comp in comps:
                # connected: a search inside the component reaches all of it
                reached = {min(comp)}
                stack = [min(comp)]
                while stack:
                    for w in g.neighbors(stack.pop()):
                        if w in comp and w not in reached:
                            reached.add(w)
                            stack.append(w)
                assert reached == comp
            # no edge joins two components of the pair
            assert all(where[u] == where[w] for u in where
                       for w in g.neighbors(u) if w in where)


def test_delete_interiors_empties_nested_pairs():
    from builders import nested_pairs_graph
    g = nested_pairs_graph()
    outer_pents = [tuple(g.index(f"q{i}.{j}") for j in range(5))
                   for i in range(2)]
    reduced = region_graph(g, None, outer_pents)
    assert reduced.n == g.n - 10          # both inner pentagons removed
    assert all(not g.label(v).startswith("r") for v in reduced.vertices)
    # the emptied pentagons keep their edges and lose every chord
    for pent in outer_pents:
        assert all(set(reduced.neighbors(v)) & set(pent)
                   == {pent[(i - 1) % 5], pent[(i + 1) % 5]}
                   for i, v in enumerate(pent))


def test_delete_interiors_rejects_overlapping():
    g = pentagon_tower(3)
    pents = [tuple(g.index(f"v{i}.{j}") for j in range(5)) for i in range(3)]
    for holes in ([pents[1], pents[2]], [pents[0], pents[0]]):  # nested; equal
        with pytest.raises(ValueError, match="not an antichain"):
            region_graph(g, None, holes)


def test_switching_pipeline_on_emptied_antichain():
    from builders import nested_pairs_graph
    g = nested_pairs_graph()
    outer_pents = [tuple(g.index(f"q{i}.{j}") for j in range(5))
                   for i in range(2)]
    reduced = region_graph(g, None, outer_pents)
    coloring = next(enumerate_3_colorings(reduced))
    assert 6 * switching_count(reduced, coloring) >= 2
    assert all(is_proper(reduced, c) for c in switch_lattice(reduced, coloring))


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
        reduced = region_graph(g, None, pents)
        coloring = next(enumerate_3_colorings(reduced))
        assert 6 * switching_count(reduced, coloring) >= k


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


_PENTAGON_LABELS = st.sampled_from([f"c{i}" for i in range(5)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(JSON_VALUES, st.fixed_dictionaries({"colors": st.one_of(
    JSON_VALUES, st.dictionaries(_PENTAGON_LABELS | NAMES,
                                 st.integers(-1, 4) | JSON_VALUES, max_size=6),
    st.fixed_dictionaries({lab: st.integers(0, 4) for lab in
                           (f"c{i}" for i in range(5))}))})))
def test_coloring_loader_raises_only_graph_format_errors(data):
    try:
        load_coloring(data, cycle_graph(5))
    except GraphFormatError:
        pass


def test_brute_force_helper_agrees():
    g = path_graph(4)
    assert scan_count_colorings(g) == count_3_colorings(g) == 3 * 2 ** 3
