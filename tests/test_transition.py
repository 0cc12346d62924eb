import json
import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    BLOCK_DIAGONAL,
    BudgetExceededError,
    FalsificationError,
    TransitionMatrix,
    canonical_cycle,
    classify,
    compose,
    count_3_colorings,
    dilworth_decompose,
    dodecahedron,
    enumerate_3_colorings,
    extract,
    is_dominant,
    is_doubling,
    load_plane_graph,
    matrix_report,
    pentagon_tower,
    perturbed_tower,
    pinned_counts,
    plane_graph_to_json,
    potential,
    s_k,
    shared_path_pentagons,
    special_data,
    tower_pentagons,
    transition_matrix,
    verify_product_bound,
)
from threecolor.coloring import SPECIAL_POSITION, sweep_shape
from threecolor.plane_graph import AbstractGraph, annulus_subgraph, validate_cycle
from threecolor.transition import (
    _dominant_from,
    _doubling_from,
    _doubling_supports,
    _entries,
    _random_doubling,
    _row_pool,
    _special_position,
    apply_row,
    random_matrix_chain,
)

from builders import annulus_instances
from oracles import (
    compose_by_definition,
    dominates,
    filtered_doubling_supports,
    majorizes,
    pattern_transition_entries,
    per_entry_doubling,
    per_entry_dominant,
)

ALL_ONES = tuple((1,) * 5 for _ in range(5))
IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))

vectors = st.tuples(*(st.integers(min_value=0, max_value=50),) * 5)
small_matrices = st.tuples(*(st.tuples(*(st.integers(0, 4),) * 5),) * 5)
# half the entries zero, so that dominant and non-dominant both occur
sparse_matrices = st.tuples(*(st.tuples(*(st.sampled_from((0, 0, 1, 3)),) * 5),) * 5)


def permuted_equal(a, b):
    ea = a.entries if hasattr(a, "entries") else a
    for sigma in permutations(range(5)):
        rows = tuple(ea[s] for s in sigma)
        for tau in permutations(range(5)):
            if all(rows[i][tau[j]] == b[i][j] for i in range(5) for j in range(5)):
                return True
    return False


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_block_matrix_is_dominant():
    assert is_dominant(BLOCK_DIAGONAL)
    assert classify(BLOCK_DIAGONAL) == "dominant"


def test_block_matrix_dominates_identity():
    assert dominates(BLOCK_DIAGONAL, IDENTITY)


def test_doubling_basics():
    assert not is_doubling(IDENTITY)
    assert is_doubling(ALL_ONES)
    assert classify(ALL_ONES) == "both"


def test_classify_neither_logs_error(caplog):
    zero = tuple((0,) * 5 for _ in range(5))
    with caplog.at_level("ERROR"):
        assert classify(zero) == "neither"
    assert any("neither" in rec.message for rec in caplog.records)


def test_majorizes_entrywise():
    assert majorizes(ALL_ONES, IDENTITY)
    assert not majorizes(IDENTITY, ALL_ONES)
    assert majorizes(IDENTITY, IDENTITY)


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", True, False])
def test_matrix_helpers_reject_non_int_entries(bad):
    m = tuple(tuple(bad if (i, j) == (2, 3) else 1 for j in range(5))
              for i in range(5))
    calls = [lambda: majorizes(m, ALL_ONES), lambda: majorizes(ALL_ONES, m),
             lambda: dominates(m, IDENTITY), lambda: dominates(IDENTITY, m),
             lambda: is_dominant(m), lambda: is_doubling(m),
             lambda: classify(m), lambda: apply_row((1,) * 5, m),
             lambda: verify_product_bound([m]),
             lambda: verify_product_bound([ALL_ONES, m], ["both", "dominant"])]
    for call in calls:
        with pytest.raises(ValueError, match="entries must be integers"):
            call()


def test_dominates_is_reflexive_on_samples():
    rng = random.Random(0)
    for _ in range(10):
        m = tuple(tuple(rng.randint(0, 3) for _ in range(5)) for _ in range(5))
        assert dominates(m, m)


def test_dominates_transitive_on_constructed_samples():
    rng = random.Random(1)
    for _ in range(10):
        c = tuple(tuple(rng.randint(0, 2) for _ in range(5)) for _ in range(5))
        sig = rng.sample(range(5), 5)
        tau = rng.sample(range(5), 5)
        b = tuple(tuple(c[sig[i]][tau[j]] + rng.randint(0, 1) for j in range(5))
                  for i in range(5))
        sig2 = rng.sample(range(5), 5)
        tau2 = rng.sample(range(5), 5)
        a = tuple(tuple(b[sig2[i]][tau2[j]] + rng.randint(0, 1) for j in range(5))
                  for i in range(5))
        assert dominates(a, b) and dominates(b, c)
        assert dominates(a, c)


def test_every_permuted_block_matrix_is_dominant():
    # the 14,400 permutation pairs give the 600 matrices of 100 blocks
    # times 6 transversals
    seen = set()
    for sigma in permutations(range(5)):
        for tau in permutations(range(5)):
            m = tuple(tuple(BLOCK_DIAGONAL[s][t] for t in tau) for s in sigma)
            assert is_dominant(m), m
            seen.add(m)
    assert len(seen) == 600


def test_block_matrix_less_any_one_is_not_dominant():
    for i, j in product(range(5), repeat=2):
        if BLOCK_DIAGONAL[i][j]:
            m = tuple(tuple(x - ((r, c) == (i, j)) for c, x in enumerate(row))
                      for r, row in enumerate(BLOCK_DIAGONAL))
            assert not is_dominant(m) and not dominates(m, BLOCK_DIAGONAL)


@given(sparse_matrices | small_matrices)
@settings(max_examples=100, deadline=None)
def test_is_dominant_matches_the_definition(m):
    assert is_dominant(m) == dominates(m, BLOCK_DIAGONAL)


def test_is_dominant_matches_the_definition_on_annulus_matrices():
    for name, g, outer, inner in annulus_instances():
        m = transition_matrix(g, outer, inner)
        assert is_dominant(m) == dominates(m, BLOCK_DIAGONAL), name


# ---------------------------------------------------------------------------
# the potential
# ---------------------------------------------------------------------------

def test_potential_of_ones_is_forty():
    assert s_k((1, 1, 1, 1, 1), 1) == 1
    assert s_k((1, 1, 1, 1, 1), 2) == 2
    assert s_k((1, 1, 1, 1, 1), 4) == 4
    assert s_k((1, 1, 1, 1, 1), 5) == 5
    assert potential((1, 1, 1, 1, 1)) == 40


def test_potential_of_block_row_sums():
    x = (2, 2, 1, 1, 1)   # the block matrix applied to all-ones
    assert (s_k(x, 1), s_k(x, 2), s_k(x, 4), s_k(x, 5)) == (1, 2, 5, 7)
    assert potential(x) == 70
    assert 2 * 70 >= 3 * 40


def test_potential_of_zero():
    assert potential((0, 0, 0, 0, 0)) == 0


@given(vectors, st.permutations(list(range(5))))
@settings(max_examples=200)
def test_potential_permutation_invariant(x, perm):
    shuffled = tuple(x[p] for p in perm)
    assert potential(shuffled) == potential(x)
    for k in range(1, 6):
        assert s_k(shuffled, k) == s_k(x, k)


@given(small_matrices, small_matrices, vectors)
@settings(max_examples=150)
def test_majorization_is_monotone_for_s_k(a, b, x):
    from threecolor.transition import apply_row
    big = tuple(tuple(a[i][j] + b[i][j] for j in range(5)) for i in range(5))
    assert majorizes(big, a)
    bx, ax = apply_row(x, big), apply_row(x, a)
    # row-vector convention: x M, so majorization acts on the right
    for k in range(1, 6):
        assert s_k(bx, k) >= s_k(ax, k)


def test_dominant_step_grows_potential_exhaustively():
    # (3/2) growth for the block matrix over all vectors with entries 0..6
    from threecolor.transition import apply_row
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    for e in range(7):
                        x = (a, b, c, d, e)
                        y = apply_row(x, BLOCK_DIAGONAL)
                        assert 2 * potential(y) >= 3 * potential(x)


@pytest.mark.parametrize("x", [(1,) * 4, (1,) * 6])
def test_apply_row_rejects_a_vector_of_wrong_length(x):
    with pytest.raises(ValueError):
        apply_row(x, ALL_ONES)


def test_doubling_step_properties():
    from threecolor.transition import apply_row
    rng = random.Random(42)
    for _ in range(500):
        m = _random_doubling(rng)
        x = tuple(rng.randint(0, 9) for _ in range(5))
        y = apply_row(x, m)
        assert potential(y) >= 10 * potential(x)
        assert s_k(y, 1) >= 2 * s_k(x, 1)
        assert s_k(y, 2) >= 2 * s_k(x, 2)
        assert s_k(y, 5) >= 2 * s_k(x, 5)
        assert 4 * s_k(y, 4) >= 5 * s_k(x, 4)
        assert s_k(y, 4) >= sum(x)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

def test_shared_path_matrix_is_the_block_matrix():
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    m = transition_matrix(g, outer, inner)
    assert permuted_equal(m, BLOCK_DIAGONAL)
    assert m.raw_count == 42 == count_3_colorings(g)
    assert classify(m) == "dominant"


def test_prism_matrix_checksum_and_entries():
    g = pentagon_tower(2)
    pents = tower_pentagons(g, 2)
    m = transition_matrix(g, pents[1], pents[0])
    assert m.raw_count == count_3_colorings(g) == 180
    # one extension per off-diagonal special pair, two on the diagonal
    assert m.entries == tuple(
        tuple(2 if i == j else 1 for j in range(5)) for i in range(5))
    assert classify(m) == "both"


def test_matrix_against_full_enumeration():
    # independent path: enumerate all colorings of the graph and group by
    # the two special vertices directly
    g = pentagon_tower(2)
    outer, inner = tower_pentagons(g, 2)[1], tower_pentagons(g, 2)[0]
    m = transition_matrix(g, outer, inner)
    raw = [[0] * 5 for _ in range(5)]
    for coloring in enumerate_3_colorings(g):
        i = m.row_labels.index(special_data(m.row_labels, coloring).vertex)
        j = m.col_labels.index(special_data(m.col_labels, coloring).vertex)
        raw[i][j] += 1
    assert all(raw[i][j] == 6 * m.entries[i][j]
               for i in range(5) for j in range(5))


def test_transition_rejects_non_nested_and_short_cycles():
    g = pentagon_tower(3)
    pents = tower_pentagons(g, 3)
    with pytest.raises(ValueError):
        transition_matrix(g, pents[0], pents[2])  # wrong nesting order
    with pytest.raises(ValueError):
        transition_matrix(g, pents[0], pents[0][:4])


def test_sweep_matches_pattern_oracle():
    # every annulus that acceptance criteria 03 and 04 build, plus the
    # shared-path pair whose cycles overlap in four vertices
    g = shared_path_pentagons()
    pairs = [("shared", g, [g.index(f"u{i+1}") for i in range(5)],
              [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")])]
    for name, g, outer, inner in [*pairs, *annulus_instances()]:
        m = transition_matrix(g, outer, inner)
        assert m.entries == pattern_transition_entries(
            g, m.row_labels, m.col_labels), name


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 6), st.integers(0, 99), st.integers(0, 4))
def test_outer_to_inner_matrix_matches_pattern_oracle(height, seed, ops):
    # the widest annulus of a (perturbed, for ops > 0) tower
    g = perturbed_tower(height, seed, ops)
    pents = tower_pentagons(g, height)
    m = transition_matrix(g, pents[-1], pents[0])
    assert m.entries == pattern_transition_entries(g, m.row_labels, m.col_labels)
    assert m.raw_count == count_3_colorings(g)


def test_orbit_merged_matrix_matches_unmerged_sweep():
    # untagged pins on both pentagons keep every state; bucketing their
    # colors by special position gives the raw cells of the matrix
    for name, g, outer, inner in annulus_instances():
        m = transition_matrix(g, outer, inner)
        ann = annulus_subgraph(g, m.row_labels, m.col_labels)
        states, updates = pinned_counts(ann, m.row_labels + m.col_labels)
        raw = [[0] * 5 for _ in range(5)]
        for colors, cnt in states.items():
            raw[SPECIAL_POSITION[colors[:5]]][SPECIAL_POSITION[colors[5:]]] += cnt
        assert raw == [[6 * x for x in row] for row in m.entries], name
        assert m.updates < updates, name


def test_sweep_shape_determines_the_sweep():
    # relabel the layer annulus of tower 2 at random, and again with the
    # ids stretched in the same order, and pin its outer pentagon in each
    # of its ten cyclic orders, then fix one vertex to each color in
    # turn: sweeps of equal shape give equal counts and updates, the
    # stretch repeats every shape, the ten orders of one labeling have
    # ten shapes and the three fixed colors three more
    g = pentagon_tower(2)
    pents = tower_pentagons(g, 2)
    outer, inner = validate_cycle(g, pents[1]), validate_cycle(g, pents[0])
    ann = annulus_subgraph(g, outer, inner)
    orders = [outer[t:] + outer[:t] for t in range(5)]
    orders += [tuple(reversed(c)) for c in orders]
    ids = list(ann.adj)
    rng = random.Random(7)
    results: dict = {}
    for trial in range(30):
        ranks = rng.sample(range(len(ids)), len(ids))
        for stretch in (1, 7):
            new = {v: stretch * r for v, r in zip(ids, ranks)}
            h = AbstractGraph({new[v]: frozenset(new[w] for w in nb)
                               for v, nb in ann.adj.items()})
            for c in orders:
                groups = (tuple(new[v] for v in c), tuple(new[v] for v in inner))
                states, updates = pinned_counts(h, groups, tag=_special_position)
                results.setdefault(sweep_shape(h, groups), set()).add(
                    (tuple(sorted(states.items())), updates))
            fixed_shapes = set()
            for color in (1, 2, 3):
                fixed = {new[ids[trial % len(ids)]]: color}
                states, updates = pinned_counts(h, groups, fixed,
                                                tag=_special_position)
                shape = sweep_shape(h, groups, fixed)
                fixed_shapes.add(shape)
                results.setdefault(shape, set()).add(
                    (tuple(sorted(states.items())), updates))
            assert len(fixed_shapes) == 3
    assert all(len(r) == 1 for r in results.values())
    assert len(results) == 30 * (len(orders) + 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 99), st.integers(0, 3), st.data())
def test_reused_sweep_matches_a_fresh_sweep(height, seed, ops, data):
    # warm the graph on every other pair of the chosen span, then compare
    # the queried pair with a sweep on a freshly loaded copy of the graph
    g = perturbed_tower(height, seed, ops)
    pents = tower_pentagons(g, height)        # innermost first
    span = data.draw(st.integers(1, height - 1), label="span")
    inner = data.draw(st.integers(0, height - 1 - span), label="inner")
    for i in range(height - span):
        if i != inner:
            transition_matrix(g, pents[i + span], pents[i])
    warmed = len(g._matrices)
    m = transition_matrix(g, pents[inner + span], pents[inner])
    if ops == 0 and height - span > 1:
        assert len(g._matrices) == warmed    # every tower span has one shape

    fresh = load_plane_graph(json.loads(plane_graph_to_json(g)))
    f = transition_matrix(fresh, [fresh.index(g.label(v)) for v in m.row_labels],
                          [fresh.index(g.label(v)) for v in m.col_labels])
    assert (f.entries, f.updates) == (m.entries, m.updates)
    assert [g.label(v) for v in m.row_labels] == [fresh.label(v) for v in f.row_labels]
    if span <= 2:
        assert m.entries == pattern_transition_entries(g, m.row_labels,
                                                       m.col_labels)


def test_equal_sweep_shapes_sweep_once(monkeypatch):
    import threecolor.transition as tr

    sweeps = []
    real = tr.sweep
    monkeypatch.setattr(tr, "sweep",
                        lambda *a, **kw: sweeps.append(a[0]) or real(*a, **kw))
    g = pentagon_tower(8)
    pents = tower_pentagons(g, 8)
    layers = [transition_matrix(g, pents[i + 1], pents[i]) for i in range(7)]
    assert len(sweeps) == 1
    assert {(m.entries, m.updates) for m in layers} == {(layers[0].entries, 130)}
    # the sweep's entries are stored checked, so no reuse checks or copies them
    assert all(m.entries is layers[0].entries for m in layers)
    assert [m.row_labels for m in layers] == [canonical_cycle(p) for p in pents[1:]]
    # an outer-to-inner pair has another shape and sweeps once, then hits
    outer = transition_matrix(g, pents[-1], pents[0])
    assert transition_matrix(g, pents[-1], pents[0]) == outer
    assert len(sweeps) == 2
    assert outer.entries == compose(layers[::-1]).entries
    # so does a pair on another graph
    d = dodecahedron()
    chain, _ = dilworth_decompose(d, extract(d, 213).family)
    transition_matrix(d, chain.cycles[0], chain.cycles[1])
    assert len(sweeps) == 3


def test_reused_sweep_charges_its_updates_to_the_budget():
    g = pentagon_tower(3)
    pents = tower_pentagons(g, 3)
    first = transition_matrix(g, pents[1], pents[0])
    with pytest.raises(BudgetExceededError) as exc:
        transition_matrix(g, pents[2], pents[1], budget=first.updates - 1)
    assert exc.value.budget == first.updates - 1
    m = transition_matrix(g, pents[2], pents[1], budget=first.updates)
    assert (m.entries, m.updates) == (first.entries, first.updates)
    assert len(g._matrices) == 1
    # the sweep itself raises at the same budget, and stores nothing then
    fresh = pentagon_tower(3)
    pents = tower_pentagons(fresh, 3)
    with pytest.raises(BudgetExceededError):
        transition_matrix(fresh, pents[2], pents[1], budget=first.updates - 1)
    assert fresh._matrices == {}


def test_reused_sweep_logs_one_debug_line(caplog):
    g = pentagon_tower(3)
    pents = tower_pentagons(g, 3)
    with caplog.at_level("DEBUG", logger="threecolor"):
        transition_matrix(g, pents[1], pents[0])
        transition_matrix(g, pents[2], pents[1])
    reused = [r.getMessage() for r in caplog.records if "reused" in r.getMessage()]
    assert reused == ["transition sweep reused: 130 updates charged"]


def test_divisible_by_six_guard_fires_on_an_off_by_one_cell(monkeypatch):
    import threecolor.transition as tr

    real = tr.sweep

    def off_by_one(*args, **kwargs):
        states, updates = real(*args, **kwargs)
        first = next(iter(states))
        return {**states, first: states[first] + 1}, updates
    monkeypatch.setattr(tr, "sweep", off_by_one)
    g = pentagon_tower(3)
    pents = tower_pentagons(g, 3)
    with pytest.raises(FalsificationError, match="not divisible by 6"):
        transition_matrix(g, pents[1], pents[0])


def test_special_position_tag_calls_are_pinned(monkeypatch):
    # the sweep tags pentagon colors on misses of a step's memoized
    # extension table, not per state, and the color-blindness check
    # tags each relabeling of them once per sweep, so the count stays
    # flat in the tower height
    import threecolor.transition as tr

    calls = []
    real = tr._special_position
    monkeypatch.setattr(tr, "_special_position",
                        lambda cols: calls.append(cols) or real(cols))
    for k, updates in ((3, 526), (5, 1716), (8, 3501)):
        g = pentagon_tower(k)
        pents = tower_pentagons(g, k)
        calls.clear()
        assert transition_matrix(g, pents[-1], pents[0]).updates == updates
        assert len(calls) == 30, k


@pytest.mark.parametrize("bad", [1.5, "1"])
def test_transition_matrix_rejects_non_int_entries(bad):
    labels = tuple(range(5))
    with pytest.raises(ValueError, match="integers"):
        TransitionMatrix(entries=((bad,) * 5,) * 5, row_labels=labels,
                         col_labels=labels)
    with pytest.raises(ValueError, match="non-negative"):
        TransitionMatrix(entries=((-1,) * 5,) * 5, row_labels=labels,
                         col_labels=labels)
    for shape in (5, (1,) * 5, ((1,) * 5,) * 4):
        with pytest.raises(ValueError, match="5x5"):
            TransitionMatrix(entries=shape, row_labels=labels, col_labels=labels)
    m = TransitionMatrix(entries=[[1] * 5] * 5, row_labels=labels,
                         col_labels=labels)
    assert m.entries == ALL_ONES and compose([m, m]).total == 125


def test_special_position_tag_rejects_improper_pentagon():
    from threecolor.transition import _special_position
    assert _special_position((1, 2, 1, 2, 3)) == 4
    with pytest.raises(FalsificationError):
        _special_position((1, 1, 2, 1, 2))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_singleton_and_identity():
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    m = transition_matrix(g, outer, inner)
    assert compose([m]) == m
    ident = TransitionMatrix(entries=IDENTITY, row_labels=m.col_labels,
                             col_labels=m.col_labels)
    assert compose([m, ident]).entries == m.entries


def test_compose_rejects_label_mismatch():
    # and an empty chain, with the messages of the triple-sum product
    g = pentagon_tower(3)
    pents = tower_pentagons(g, 3)
    m1 = transition_matrix(g, pents[2], pents[1])
    for ms in ([m1, m1], []):
        with pytest.raises(ValueError) as want:
            compose_by_definition(ms)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            compose(ms)


def test_compose_matches_the_triple_sum_product_on_tower_chains():
    for h in range(2, 49):
        g = pentagon_tower(h)
        pents = tower_pentagons(g, h)
        layers = [transition_matrix(g, pents[i + 1], pents[i])
                  for i in reversed(range(h - 1))]
        assert compose(layers) == compose_by_definition(layers), h


@given(st.lists(small_matrices, min_size=1, max_size=6))
@settings(max_examples=100)
def test_compose_matches_the_triple_sum_product(mats):
    labels = [tuple(range(5 * k, 5 * k + 5)) for k in range(len(mats) + 1)]
    ms = [TransitionMatrix(entries=m, row_labels=labels[k],
                           col_labels=labels[k + 1]) for k, m in enumerate(mats)]
    assert compose(ms) == compose_by_definition(ms)


@pytest.mark.parametrize("height", [3, 4, 5])
def test_composition_equals_direct_matrix(height):
    g = pentagon_tower(height)
    pents = tower_pentagons(g, height)
    layers = [transition_matrix(g, pents[i + 1], pents[i])
              for i in reversed(range(height - 1))]
    composed = compose(layers)
    direct = transition_matrix(g, pents[-1], pents[0])
    assert composed.entries == direct.entries
    assert composed.row_labels == direct.row_labels
    assert composed.col_labels == direct.col_labels


# ---------------------------------------------------------------------------
# the product bound
# ---------------------------------------------------------------------------

def test_block_matrix_total_meets_single_step_bound():
    total = sum(sum(r) for r in BLOCK_DIAGONAL)
    assert total == 7
    report = verify_product_bound([BLOCK_DIAGONAL])
    assert report.final_value == 7
    assert report.ok


def test_permuted_block_chains_hold():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 40)
        chain = []
        for _ in range(n):
            sig = rng.sample(range(5), 5)
            tau = rng.sample(range(5), 5)
            chain.append(tuple(tuple(BLOCK_DIAGONAL[sig[i]][tau[j]]
                                     for j in range(5)) for i in range(5)))
        assert verify_product_bound(chain).ok


def test_random_mixed_chains_hold():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 40)
        mats, kinds = random_matrix_chain(n, rng)
        assert verify_product_bound(mats, kinds).ok


def test_precomputed_kinds_match_classify():
    rng = random.Random(12)
    mats, kinds = random_matrix_chain(30, rng)
    for m, kind in zip(mats, kinds):
        got = classify(m)
        assert got == kind or got == "both"
    assert verify_product_bound(mats).ok  # classify-on-the-fly path


class ScriptedRandom:
    """Hands fixed draws to the per-entry samplers: ``sample`` and
    ``choice`` return the next scripted pick, ``randint`` the next
    scripted int, checked to lie in its range."""

    def __init__(self, picks, ints):
        self.picks, self.ints = iter(picks), iter(ints)

    def sample(self, population, k):
        return list(next(self.picks))

    def choice(self, seq):
        return next(self.picks)

    def randint(self, a, b):
        x = next(self.ints)
        assert a <= x <= b
        return x


def test_dominant_builder_matches_the_per_entry_sampler():
    for mask in (0, 2 ** 25 - 1, 0x1555555, 0x1F0000F, 0xBC614E):
        noise = [mask >> k & 1 for k in range(25)]
        for i, sigma in enumerate(permutations(range(5))):
            for j, tau in enumerate(permutations(range(5))):
                old = per_entry_dominant(ScriptedRandom((sigma, tau), noise))
                assert _dominant_from(i, j, mask) == old


def test_doubling_supports_match_the_filtered_products():
    # backtracking yields the same supports in the same order
    assert _doubling_supports() == filtered_doubling_supports()


def test_doubling_builder_matches_the_per_entry_sampler():
    supports = _doubling_supports()
    tables = _row_pool().doubling
    assert len(supports) == len(set(supports)) == len(tables) == 2040
    for digits in ([0] * 10, [2] * 10, [0, 1, 2] * 3 + [1],
                   [2, 2, 0, 1, 0, 0, 1, 2, 1, 0]):
        value = sum(d * 3 ** k for k, d in enumerate(digits))
        for support, rows in zip(supports, tables):
            old = per_entry_doubling(
                ScriptedRandom((support,), [d + 1 for d in digits]), supports)
            assert _doubling_from(rows, value) == old


def test_matrix_lemma_random_stream_is_pinned():
    # the trials of `matrix-lemma --n 40 --trials 300 --seed 515`
    rng = random.Random(515)
    count = total = 0
    for trial in range(300):
        n = rng.randint(1, 40)
        mats, kinds = random_matrix_chain(n, rng)
        report = verify_product_bound(mats, kinds)
        if trial == 0:
            assert (n, report.final_value) == (11, 25116852)
            assert mats[0] == ((3, 0, 0, 3, 0), (0, 0, 3, 0, 3), (0, 3, 3, 0, 0),
                               (0, 0, 0, 3, 1), (2, 1, 0, 0, 0))
        count += n
        total += report.final_value
    assert count == 5841
    assert total == 23760336283637726956207860


class LookalikeInt(int):
    pass


def test_only_checked_matrices_skip_the_entry_check():
    labels = tuple(range(5))
    m = _dominant_from(0, 0, 0)         # the reference matrix, from pool rows
    assert m == BLOCK_DIAGONAL and _entries(m) is m
    doubling = _doubling_from(_row_pool().doubling[0], 0)
    assert _entries(doubling) is doubling
    built = TransitionMatrix(entries=m, row_labels=labels, col_labels=labels)
    assert built.entries is m and _entries(built) is m
    row = m[0]                          # (1, 1, 0, 0, 0)
    bad_rows = [
        ((True,) + row[1:], "integers"),
        ((1.0,) + row[1:], "integers"),
        ((LookalikeInt(1),) + row[1:], "integers"),
        (row[:4] + (-1,), "non-negative"),
        ([True, 1, 0, 0, 0], "integers"),
        ([1, 1, 0, 0, -1], "non-negative"),
        (row[:4], "5x5"),
        (5, "5x5"),
    ]
    for bad, message in bad_rows:
        for i in range(5):              # four checked rows plus one bad row
            mixed = m[:i] + (bad,) + m[i + 1:]
            for call in (lambda: _entries(mixed), lambda: classify(mixed),
                         lambda: verify_product_bound([mixed], ["dominant"]),
                         lambda: TransitionMatrix(entries=mixed, row_labels=labels,
                                                  col_labels=labels)):
                with pytest.raises(ValueError, match=message):
                    call()
    # a list, a slice or a list row of a checked matrix is a plain
    # sequence: checked in full, into an equal but new checked matrix
    for plain in (list(m), m[:4] + m[4:], (list(row),) + m[1:]):
        checked = _entries(plain)
        assert checked == m and checked is not m and checked is not plain
        assert _entries(checked) is checked
    # checked rows pass only as five rows of a checked matrix
    for shape, message in ((m[:4], "5x5"), (m + m[:1], "5x5"),
                           ((m,) * 5, "integers")):
        with pytest.raises(ValueError, match=message):
            _entries(shape)


def test_the_pool_holds_each_row_once():
    dominant, _, _, doubling = _row_pool()
    rows = {id(r): r for r in dominant}
    rows.update((id(r), r) for tables in doubling for table in tables for r in table)
    assert len(rows) == 243 + 90
    for r in rows.values():
        assert type(r) is tuple and {type(x) for x in r} == {int}


def test_product_bound_rejects_neither():
    zero = tuple((0,) * 5 for _ in range(5))
    with pytest.raises(ValueError):
        verify_product_bound([zero])


def test_product_bound_guards_its_arguments():
    mats, kinds = random_matrix_chain(6, random.Random(3))
    for chain in (mats, [[list(r) for r in m] for m in mats]):
        with pytest.raises(ValueError, match="empty matrix chain"):
            verify_product_bound(chain[:0])
        for wrong in (kinds[:-1], kinds + ["dominant"]):
            with pytest.raises(ValueError, match="one classification required"):
                verify_product_bound(chain, wrong)
        for kind in ("neither", "bogus"):
            with pytest.raises(ValueError, match="neither dominant nor doubling"):
                verify_product_bound(chain, [kind] + kinds[1:])
        assert verify_product_bound(chain, kinds).ok


def _layer(i):
    return tuple(f"v{i}.{j}" for j in range(5))


@pytest.mark.parametrize("outer, inner, message", [
    (("v1.0", "v1.1", "v1.3", "v1.4"), _layer(0),
     "not a cycle of the graph: v1.1-v1.3 is not an edge"),
    (("v1.0", "v1.1", "v2.1", "v2.0"), _layer(0),
     "transition matrices are defined between 5-cycles"),
    (("v1.0", "v1.1", "v1.0", "v1.2", "v1.3"), _layer(0), "cycle has repeated vertices"),
    (("v1.0", "v1.1"), _layer(0), "cycle needs at least 3 vertices, got 2"),
    (_layer(0), _layer(2), "hole does not lie strictly inside the outer cycle"),
    (_layer(0), _layer(0), "hole does not lie strictly inside the outer cycle"),
    (_layer(2), ("v0.0", "v0.2", "v0.1", "v0.3", "v0.4"),
     "not a cycle of the graph: v0.0-v0.2 is not an edge"),
])
def test_transition_matrix_argument_errors(outer, inner, message):
    # on tower 3, each bad pair raises the first error its checks meet
    g = pentagon_tower(3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        transition_matrix(g, [g.index(x) for x in outer], [g.index(x) for x in inner])


def test_matrix_report_shape():
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    rep = matrix_report(transition_matrix(g, outer, inner), g)
    assert set(rep) == {"rows", "cols", "entries", "classification", "raw_count"}
    assert rep["raw_count"] == 42
    assert rep["rows"] == ["u1", "u2", "u3", "u4", "u5"]


# ---------------------------------------------------------------------------
# sixth-integrality guard
# ---------------------------------------------------------------------------

def test_sixth_integrality_guard_trips_on_corrupt_counts(monkeypatch):
    import threecolor.transition as tr

    real = tr.sweep

    def corrupt(*args, **kwargs):
        states, updates = real(*args, **kwargs)
        states[min(states)] += 1    # one boundary coloring miscounted by one
        return states, updates

    monkeypatch.setattr(tr, "sweep", corrupt)
    g = pentagon_tower(2)
    pents = tower_pentagons(g, 2)
    with pytest.raises(FalsificationError):
        tr.transition_matrix(g, pents[1], pents[0])
