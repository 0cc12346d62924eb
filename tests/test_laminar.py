import sys
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    ContainmentForest,
    FalsificationError,
    canonical_cycle,
    containment_forest,
    dilworth_decompose,
    dodecahedron,
    enumerate_cycles,
    extract,
    is_laminar,
    low_degree_set,
    pentagon_garden,
    pentagon_tower,
    perturbed_tower,
    region_partition,
    tower_pentagons,
)

from builders import (
    chorded_pentagon,
    cycle_graph,
    interleaved_cycles,
    interleaved_pentagons,
    nested_pairs_family,
    nested_pairs_graph,
    path_graph,
    small_cycles,
)
import oracles
from oracles import dual_search_faces, pairwise_laminar, separating_fives, subgraph_extract


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_bare_pentagon():
    out = extract(cycle_graph(5), 2)
    assert out.kind == "family"
    assert out.family.cycles == ((0, 1, 2, 3, 4),)
    assert out.covered == frozenset(range(5))


def test_extract_dodecahedron_family_covers_everything():
    g = dodecahedron()
    out = extract(g, 3)
    assert out.kind == "family"
    assert len(out.family) == 12
    assert out.covered == frozenset(range(20))
    covered = set()
    for c in out.family:
        covered.update(c)
    assert covered == frozenset(range(20))
    assert is_laminar(g, out.family.cycles)


def test_extract_tree_returns_reducible_leaf():
    g = path_graph(7)
    out = extract(g, 1)
    assert out.kind == "reducible"
    assert g.degree(out.vertex) <= 1


def test_extract_tower_returns_the_layer_chain():
    g = pentagon_tower(4)
    out = extract(g, 213)
    assert out.kind == "family"
    expected = {canonical_cycle(tuple(g.index(f"v{i}.{j}") for j in range(5)))
                for i in range(4)}
    assert set(out.family.cycles) == expected


def test_extract_perturbed_tower_finds_reducible_subdivision_vertex():
    # subdivision vertices have degree 2 and lie on no 5-cycle
    g = perturbed_tower(4, seed=2, ops=2)
    out = extract(g, 213)
    assert out.kind == "reducible"
    assert g.label(out.vertex).startswith("x")


def test_extract_garden_returns_reducible_connector():
    out = extract(pentagon_garden(2), 213)
    assert out.kind == "reducible"


def test_extract_rejects_triangles():
    with pytest.raises(ValueError):
        extract(chorded_pentagon(), 3)


def test_extract_k_zero_vacuous():
    g = pentagon_tower(2)
    assert low_degree_set(g, 0) == frozenset()
    out = extract(g, 0)
    assert out.kind == "family"
    assert out.covered == frozenset()


def _outcome(fn, g, k):
    """The outcome, or the type of the exception raised instead."""
    try:
        return fn(g, k)
    except (ValueError, FalsificationError) as exc:
        return type(exc)


def test_extract_matches_subgraph_oracle(corpus):
    graphs = corpus + [("cycle5", cycle_graph(5)), ("path7", path_graph(7)),
                       ("nested_pairs", nested_pairs_graph()),
                       ("interleaved", interleaved_pentagons()),
                       ("chorded", chorded_pentagon())]
    for name, g in graphs:
        for k in (3, 4, 213):
            assert _outcome(extract, g, k) == _outcome(subgraph_extract, g, k), \
                (name, k)


@settings(max_examples=100, deadline=None)
@given(st.builds(perturbed_tower, st.integers(3, 8), st.integers(0, 10**6),
                 st.integers(0, 4)),
       st.sampled_from((3, 4, 213)))
def test_extract_matches_subgraph_oracle_on_perturbed_towers(g, k):
    assert extract(g, k) == subgraph_extract(g, k)


def _inner_sides_stay_whole(g):
    """Check that no interior side ``oracles._subgraph_family`` cuts off
    has a separating 5-cycle, the premise of ``extract``'s peel, and
    return how many sides were checked.  Run at k = 0, so that no
    reducibility guard stops the splitting early."""
    sides = []
    rebuild = oracles.interior_subgraph

    def record(host, cycle):
        sides.append(rebuild(host, cycle))
        return sides[-1]

    with patch.object(oracles, "interior_subgraph", record):
        oracles._subgraph_family(g, 0)
    for side in sides:
        assert separating_fives(side) == [], side.labels
    return len(sides)


def test_inner_sides_never_split(corpus):
    graphs = [g for _, g in corpus] + [nested_pairs_graph(), interleaved_pentagons(),
                                       chorded_pentagon()]
    assert sum(_inner_sides_stay_whole(g) for g in graphs) > 0


@settings(max_examples=100, deadline=None)
@given(st.builds(perturbed_tower, st.integers(3, 8), st.integers(0, 10**6),
                 st.integers(0, 4)))
def test_inner_sides_never_split_on_perturbed_towers(g):
    _inner_sides_stay_whole(g)


def test_extract_large_tower_is_the_layer_chain():
    g = pentagon_tower(100)
    out = extract(g, 213)
    assert out.kind == "family"
    assert set(out.family.cycles) == {canonical_cycle(c)
                                      for c in tower_pentagons(g, 100)}
    assert len(out.family) == 100
    chain, anti = dilworth_decompose(g, out.family)
    assert (len(chain), len(anti)) == (100, 1)


# ---------------------------------------------------------------------------
# containment forest
# ---------------------------------------------------------------------------

def test_forest_of_nested_tower():
    g = pentagon_tower(5)
    fam = [tuple(g.index(f"v{i}.{j}") for j in range(5)) for i in range(5)]
    forest = containment_forest(g, fam)
    assert len(forest.roots) == 1
    assert max(forest.depth.values()) == 5
    assert forest.deepest_chain() == tuple(
        canonical_cycle(c) for c in reversed(fam))


def test_forest_of_disjoint_pentagons():
    g = pentagon_garden(3)
    fam = [tuple(g.index(f"p{i}.{j}") for j in range(5)) for i in range(3)]
    forest = containment_forest(g, fam)
    assert len(forest.roots) == 3
    assert max(forest.depth.values()) == 1


def test_forest_of_nested_pairs():
    g = nested_pairs_graph()
    forest = containment_forest(g, nested_pairs_family(g))
    assert len(forest.roots) == 2
    assert max(forest.depth.values()) == 2


def test_forest_rejects_crossing_family():
    g = interleaved_pentagons()
    a, b = interleaved_cycles(g)
    with pytest.raises(ValueError):
        containment_forest(g, [a, b])


def test_is_laminar_rejects_non_cycles():
    # each member is validated by its region partition, before or after
    # a valid member whose partition is already memoized
    g = pentagon_tower(2)
    p0 = tuple(g.index(f"v0.{j}") for j in range(5))
    is_laminar(g, [p0])
    for family, edge in (([(0, 1, 2)], "v0.2-v0.0"),
                         ([p0, (0, 1, 2)], "v0.2-v0.0"),
                         ([p0, (1, 0, 2, 3)], "v0.1-v0.3")):
        for check in (is_laminar, containment_forest):
            with pytest.raises(ValueError, match=f"^not a cycle of the graph: "
                               f"{edge} is not an edge$"):
                check(g, family)


def test_extract_rejects_crossing_family(monkeypatch):
    from threecolor import laminar
    g = interleaved_pentagons()
    monkeypatch.setattr(laminar, "_covering_family",
                        lambda g, k, fives: sorted(interleaved_cycles(g)))
    with pytest.raises(FalsificationError, match="not laminar"):
        extract(g, 213)


def test_extract_guards_coverage(monkeypatch):
    from threecolor import laminar
    g = pentagon_tower(3)
    outer = canonical_cycle(tower_pentagons(g, 3)[2])
    monkeypatch.setattr(laminar, "_covering_family", lambda g, k, fives: [outer])
    with pytest.raises(FalsificationError, match="not covered by any 5-cycle"):
        extract(g, 213)


def test_split_guards_shrinking(monkeypatch):
    # a cut whose boundary holds every vertex leaves a side as large as
    # the graph it splits
    from threecolor import laminar
    g = pentagon_tower(3)
    monkeypatch.setattr(laminar, "region_partition", lambda g, c: replace(
        region_partition(g, c), boundary_mask=(1 << g.n) - 1))
    with pytest.raises(FalsificationError, match="failed to shrink"):
        extract(g, 213)


def test_split_side_guards_reducible_vertices():
    # with no 5-cycle on the side, every vertex of degree at most k is
    # reducible there; the least vertex id is reported, not the first
    # in the dual tree's vertex numbering (v2.1)
    from threecolor import laminar
    g = pentagon_tower(3)
    with pytest.raises(FalsificationError,
                       match="^vertex v0.0 became reducible inside a split"):
        laminar._check_side(g, 213, (1 << g.n) - 1, [])


def test_split_checks_both_sides_inner_first(monkeypatch):
    # tower 4 is cut at layer 1, then at layer 2: each cut checks its
    # inner side (the cut and the layers inside it), then its outer side
    from threecolor import laminar
    g = pentagon_tower(4)
    sizes = []
    check = laminar._check_side
    monkeypatch.setattr(laminar, "_check_side", lambda g, k, side, within: (
        sizes.append(side.bit_count()), check(g, k, side, within)))
    extract(g, 213)
    assert sizes == [10, 15, 10, 10]


def _brute_forest(g, family):
    """Parent, depth and children of each cycle, and the size of a
    maximum antichain, straight from the interior face sets."""
    cycles = sorted({canonical_cycle(c) for c in family})
    inside = {c: dual_search_faces(g, c) for c in cycles}
    above = {c: [d for d in cycles if inside[c] < inside[d]] for c in cycles}
    parent = {c: min(above[c], key=lambda d: len(inside[d]), default=None)
              for c in cycles}
    depth = {c: len(above[c]) + 1 for c in cycles}
    children = {c: sorted(d for d in cycles if parent[d] == c) for c in cycles}
    comparable = [sum(1 << j for j, d in enumerate(cycles)
                      if c in above[d] or d in above[c]) for c in cycles]
    widest = max(s.bit_count() for s in range(1 << len(cycles))
                 if all(not (s >> i & 1) or not comparable[i] & s
                        for i in range(len(cycles))))
    return parent, depth, children, widest


def _check_against_oracles(g, family):
    laminar = pairwise_laminar(g, family)
    assert is_laminar(g, family) == laminar
    if not laminar:
        with pytest.raises(ValueError):
            containment_forest(g, family)
        with pytest.raises(ValueError):
            dilworth_decompose(g, family)
        return
    forest = containment_forest(g, family)
    parent, depth, children, widest = _brute_forest(g, family)
    assert forest.parent == parent
    assert forest.depth == depth
    assert forest.children == children
    assert forest.roots == tuple(c for c in sorted(parent) if parent[c] is None)
    anti = forest.max_antichain()
    assert len(anti) == widest
    inside = {c: dual_search_faces(g, c) for c in anti}
    assert all(not (inside[c] & inside[d]) for c in anti for d in anti if c != d)
    chain, anti_family = dilworth_decompose(g, family)
    assert len(chain) == max(depth.values())
    assert anti_family.cycles == anti


def test_pairs_sharing_one_face_cross():
    for g in (pentagon_tower(3), perturbed_tower(4, seed=2, ops=2)):
        cycles = small_cycles(g)
        crossing = 0
        for i, (a, fa) in enumerate(cycles):
            assert region_partition(g, a).face_mask == \
                sum(1 << g.dual_tree.pre[f] for f in fa)
            for b, fb in cycles[i + 1:]:
                crosses = len(fa & fb) == 1 and len(fa | fb) == 3
                crossing += crosses
                assert is_laminar(g, [a, b]) == (not crosses)
                _check_against_oracles(g, [a, b])
        assert crossing > 10


_TOWERS = st.one_of(
    st.integers(2, 8).map(lambda h: (pentagon_tower(h), h)),
    st.tuples(st.integers(3, 8), st.integers(0, 10**6), st.integers(0, 4))
    .map(lambda a: (perturbed_tower(*a), a[0])))


@settings(max_examples=150, deadline=None)
@given(_TOWERS, st.data())
def test_forest_matches_oracles_on_drawn_families(tower, data):
    """A drawn family of one- and two-face cycles and layer pentagons,
    and its greedy laminar part (members crossing no earlier kept one)."""
    g, height = tower
    pool = sorted({c for c, _ in small_cycles(g)}
                  | {canonical_cycle(c) for c in tower_pentagons(g, height)})
    family = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=12, unique=True))
    _check_against_oracles(g, family)
    kept = []
    for c in family:
        if pairwise_laminar(g, kept + [c]):
            kept.append(c)
    _check_against_oracles(g, kept)


def test_forest_matches_oracles_on_corpus_families(corpus):
    for name, g in corpus:
        out = extract(g, 213)
        if out.kind == "family" and len(out.family) <= 12:
            _check_against_oracles(g, out.family.cycles)


# ---------------------------------------------------------------------------
# Dilworth decomposition
# ---------------------------------------------------------------------------

def test_dilworth_disjoint_pentagons():
    g = pentagon_garden(3)
    fam = [tuple(g.index(f"p{i}.{j}") for j in range(5)) for i in range(3)]
    chain, anti = dilworth_decompose(g, fam)
    assert chain.kind == "chain" and anti.kind == "antichain"
    assert len(chain) == 1
    assert len(anti) == 3


def test_dilworth_five_disjoint_pentagons():
    g = pentagon_garden(5)
    fam = [tuple(g.index(f"p{i}.{j}") for j in range(5)) for i in range(5)]
    chain, anti = dilworth_decompose(g, fam)
    assert len(chain) == 1
    assert len(anti) == 5


def test_dilworth_nested_tower():
    g = pentagon_tower(5)
    fam = [tuple(g.index(f"v{i}.{j}") for j in range(5)) for i in range(5)]
    chain, anti = dilworth_decompose(g, fam)
    assert len(chain) == 5
    assert len(anti) == 1


def test_dilworth_nested_pairs():
    g = nested_pairs_graph()
    chain, anti = dilworth_decompose(g, nested_pairs_family(g))
    assert len(chain) == 2
    assert len(anti) == 2


def test_dilworth_rejects_non_laminar():
    g = interleaved_pentagons()
    with pytest.raises(ValueError):
        dilworth_decompose(g, list(interleaved_cycles(g)))


def test_dilworth_antichain_guard_trips_on_nested_members(monkeypatch):
    g = pentagon_tower(5)
    fam = tower_pentagons(g, 5)
    monkeypatch.setattr(ContainmentForest, "max_antichain",
                        lambda self: tuple(sorted(self.parent)))
    with pytest.raises(FalsificationError, match="share interior"):
        dilworth_decompose(g, fam)


def test_dilworth_guards_the_size_product(monkeypatch):
    g = pentagon_tower(5)
    monkeypatch.setattr(ContainmentForest, "deepest_chain", lambda self: ())
    with pytest.raises(FalsificationError, match="chain x antichain = 0 x 1 < family size 5"):
        dilworth_decompose(g, tower_pentagons(g, 5))


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_family_needs_no_recursion():
    g = pentagon_tower(300)
    fam = tower_pentagons(g, 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        chain, anti = dilworth_decompose(g, fam)
    finally:
        sys.setrecursionlimit(limit)
    assert chain.cycles == tuple(canonical_cycle(c) for c in reversed(fam))
    assert anti.cycles == (canonical_cycle(fam[0]),)


def test_dilworth_product_guarantee_on_extracted_families(corpus):
    for name, g in corpus:
        out = extract(g, 213)
        if out.kind != "family":
            continue
        m = len(out.family)
        chain, anti = dilworth_decompose(g, out.family)
        assert len(chain) * len(anti) >= m, name
        # one of the two square-root sized structures must exist
        assert (7 * len(anti) ** 2 >= 6 * m) or (6 * len(chain) ** 2 >= 7 * m), name


def test_chain_is_totally_ordered_antichain_disjoint():
    g = dodecahedron()
    out = extract(g, 3)
    chain, anti = dilworth_decompose(g, out.family)
    regions = [dual_search_faces(g, c) for c in chain]
    for a, b in zip(regions, regions[1:]):
        assert b < a
    anti_regions = [dual_search_faces(g, c) for c in anti]
    for i, ra in enumerate(anti_regions):
        for rb in anti_regions[i + 1:]:
            assert not (ra & rb)


def _chain_face_masks(g, family):
    chain, _ = dilworth_decompose(g, family)
    return [region_partition(g, c).face_mask for c in chain]


def _assert_outermost_first(masks, name):
    # verify composes the layer matrices in this order; leaf first, it
    # would ask for annuli whose hole lies outside the outer cycle
    assert len(masks) >= 2, name
    for a, b in zip(masks, masks[1:]):
        assert a.bit_count() > b.bit_count(), name
        assert a & b == b, name


def test_chain_arrives_outermost_first(corpus):
    checked = []
    for name, g in corpus:
        out = extract(g, 213)
        masks = _chain_face_masks(g, out.family) if out.kind == "family" else []
        if len(masks) >= 2:
            _assert_outermost_first(masks, name)
            checked.append(name)
    assert len(checked) == 9    # towers 2-8, the dodecahedron, the shared path


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.builds(perturbed_tower, st.just(k), st.integers(0, 99), st.integers(0, 4)),
    st.permutations(range(k)))))
def test_perturbed_tower_chain_arrives_outermost_first(case):
    # extraction reduces perturbed towers, so decompose their layer
    # pentagons, handed over in a drawn order
    g, order = case
    pents = tower_pentagons(g, len(order))
    _assert_outermost_first(_chain_face_masks(g, [pents[i] for i in order]),
                            "perturbed tower")


# ---------------------------------------------------------------------------
# degree counting inequality used by the decomposition sizing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [4, 5, 7, 213])
def test_low_degree_fraction_inequality(corpus, k):
    # triangle-free planar with min degree >= 2: |D_k| >= (k-3)/(k-1) * n
    for name, g in corpus:
        if min(g.degree(v) for v in g.vertices) < 2:
            continue
        dk = len(low_degree_set(g, k))
        assert (k - 1) * dk >= (k - 3) * g.n, (name, k)
