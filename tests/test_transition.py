import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    BLOCK_DIAGONAL,
    FalsificationError,
    classify,
    compose,
    count_3_colorings,
    dominates,
    enumerate_3_colorings,
    identity_matrix,
    is_dominant,
    is_doubling,
    majorizes,
    matrix_report,
    pentagon_tower,
    potential,
    s_k,
    shared_path_pentagons,
    special_data,
    tower_pentagons,
    transition_matrix,
    verify_product_bound,
)
from threecolor.transition import _random_doubling, random_matrix_chain

from builders import annulus_instances
from oracles import pattern_transition_entries

ALL_ONES = tuple((1,) * 5 for _ in range(5))
IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))

vectors = st.tuples(*(st.integers(min_value=0, max_value=50),) * 5)
small_matrices = st.tuples(*(st.tuples(*(st.integers(0, 4),) * 5),) * 5)


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


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_singleton_and_identity():
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    m = transition_matrix(g, outer, inner)
    assert compose([m]) == m
    ident = identity_matrix(m.col_labels)
    assert compose([m, ident]).entries == m.entries


def test_compose_rejects_label_mismatch():
    g = pentagon_tower(3)
    pents = tower_pentagons(g, 3)
    m1 = transition_matrix(g, pents[2], pents[1])
    with pytest.raises(ValueError):
        compose([m1, m1])


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


def test_product_bound_rejects_neither():
    zero = tuple((0,) * 5 for _ in range(5))
    with pytest.raises(ValueError):
        verify_product_bound([zero])


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

    real = tr.pinned_counts

    def corrupt(*args, **kwargs):
        states, updates = real(*args, **kwargs)
        states[min(states)] += 1    # one boundary coloring miscounted by one
        return states, updates

    monkeypatch.setattr(tr, "pinned_counts", corrupt)
    g = pentagon_tower(2)
    pents = tower_pentagons(g, 2)
    with pytest.raises(FalsificationError):
        tr.transition_matrix(g, pents[1], pents[0])
