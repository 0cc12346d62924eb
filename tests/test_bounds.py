import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecolor import (
    BudgetExceededError,
    antichain_bound,
    chain_bound,
    count_3_colorings,
    decomposition_sizes_ok,
    dodecahedron,
    main_bound_value,
    meets_main_bound,
    meets_power_bound,
    pentagon_garden,
    pentagon_tower,
    verify,
)
from threecolor.generators import garden_pentagons

from builders import cycle_graph
from oracles import interval_main_bound


# ---------------------------------------------------------------------------
# exact comparisons
# ---------------------------------------------------------------------------

def test_power_bound_examples():
    # threshold 2 at m = 6: count 2 passes, count 1 does not
    assert antichain_bound(2, 6)
    assert not antichain_bound(1, 6)
    assert antichain_bound(1, 0)
    # no count below 1 meets a bound, though (-1)**6 >= 2**0
    assert not antichain_bound(-1, 0)
    assert not antichain_bound(0, 0)
    assert chain_bound(2, 7)
    assert not chain_bound(1, 7)
    # fractional exponent decided exactly: 2**(7/6) = 2.24... > 2
    assert not antichain_bound(2, 7)
    assert antichain_bound(3, 7)


def test_main_bound_thresholds():
    assert math.isclose(main_bound_value(212), 2.0)
    assert math.isclose(main_bound_value(848), 4.0)
    assert meets_main_bound(2, 212)
    assert not meets_main_bound(1, 212)
    assert meets_main_bound(4, 848)
    assert not meets_main_bound(3, 848)
    assert meets_main_bound(30, 5)       # bare pentagon
    assert not meets_main_bound(0, 5)
    assert meets_main_bound(1, 1) is False   # 2**sqrt(1/212) > 1


def test_main_bound_interval_fallback_is_exact():
    # counts of 2 and 3 around the n = 1000 threshold 2**2.172 = 4.5...
    assert not meets_main_bound(3, 1000)
    assert meets_main_bound(5, 1000)
    # big perfect-square case: n = 212 * 100 needs 2**10
    assert meets_main_bound(1024, 21200)
    assert not meets_main_bound(1023, 21200)


def test_main_bound_leaves_interval_precision_alone():
    from mpmath import iv
    before = iv.dps
    assert not meets_main_bound(3, 1000)     # decided by interval arithmetic
    assert iv.dps == before


MAIN_BOUND_CASES = st.one_of(
    # counts within 1% of the threshold
    st.builds(lambda n, f: (max(1, round(2 ** math.sqrt(n / 212) * f)), n),
              st.integers(1, 10 ** 6), st.floats(0.99, 1.01)),
    # exact powers of two, where log2(count) is an integer, near n = 212 r**2
    st.builds(lambda r, d: (2 ** r, max(1, 212 * r * r + d)),
              st.integers(0, 80), st.integers(-500, 500)),
    # n = 212 r**2, where the threshold 2**r is an integer
    st.builds(lambda r, d: (2 ** r + d, 212 * r * r),
              st.integers(1, 80), st.integers(-1, 1)),
)


@settings(max_examples=300, deadline=None)
@given(MAIN_BOUND_CASES)
def test_main_bound_agrees_with_interval_oracle(case):
    assert meets_main_bound(*case) == interval_main_bound(*case)


def test_main_bound_decides_counts_next_to_large_thresholds():
    # log2 of the integers on either side of 2**sqrt(n/212) lies within
    # 2**-68 of sqrt(n/212) here: a bracket on log2(count) whose width
    # stops shrinking at some fixed precision never decides them
    from mpmath import mp
    with mp.workprec(1000):
        for n in (10 ** 6, 10 ** 7):
            below = int(mp.floor(mp.mpf(2) ** mp.sqrt(mp.mpf(n) / 212)))
            assert not meets_main_bound(below, n)
            assert meets_main_bound(below + 1, n)
            assert interval_main_bound(below, n) is False
            assert interval_main_bound(below + 1, n) is True


def test_power_bound_big_integers():
    count = 30 * 6 ** 7
    assert meets_power_bound(count, 8, 7)
    assert meets_power_bound(count, 6 * count.bit_length() - 12, 6) == \
        (count ** 6 >= 2 ** (6 * count.bit_length() - 12))


def test_decomposition_sizes():
    assert decomposition_sizes_ok(5, 1, 5)
    assert decomposition_sizes_ok(1, 5, 5)
    assert decomposition_sizes_ok(2, 2, 4)
    assert decomposition_sizes_ok(0, 0, 0)
    assert not decomposition_sizes_ok(1, 1, 7)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def test_verify_bare_pentagon():
    rep = verify(cycle_graph(5), graph_name="pentagon")
    assert rep.exact_count == 30
    assert rep.main_pass
    assert rep.outcome == "family"
    assert rep.family_size == 1
    assert rep.chain_pass and rep.antichain_pass and rep.sizes_pass
    assert rep.matrix_check is None      # chain of one cycle
    assert rep.all_pass


def test_verify_tower_has_matrix_check():
    rep = verify(pentagon_tower(5), graph_name="tower5")
    assert rep.exact_count == 38880
    assert rep.outcome == "family"
    assert len(rep.chain) == 5
    assert rep.matrix_check is True
    assert rep.all_pass


def test_verify_reducible_case_skips_family_bounds():
    rep = verify(pentagon_garden(2), graph_name="garden2")
    assert rep.outcome == "reducible"
    assert rep.reducible_vertex is not None
    assert rep.chain_pass is None and rep.antichain_pass is None
    assert rep.all_pass


def test_verify_rejects_triangles():
    from builders import chorded_pentagon
    with pytest.raises(ValueError):
        verify(chorded_pentagon())


def test_verify_budget_covers_count_and_layer_sweeps():
    from threecolor import (compose, count_3_colorings_detailed, tower_pentagons,
                            transition_matrix)
    g = pentagon_tower(8)
    pents = tower_pentagons(g, 8)
    count_updates = count_3_colorings_detailed(g).nodes
    c = pents[::-1]     # outermost first
    mats = [transition_matrix(g, a, b) for a, b in zip(c, c[1:])]
    sweep_updates = sum(m.updates for m in mats)
    assert (count_updates, sweep_updates) == (786, 910)
    assert verify(g).budget_used == 1696
    assert verify(g, budget=1696).budget_used == 1696
    for budget in (786, 1695):
        with pytest.raises(BudgetExceededError) as exc:
            verify(g, budget=budget)
        assert exc.value.budget == budget
    assert 6 * compose(mats).total == count_3_colorings(g)


def test_dodecahedron_chain_matrix_sweeps_from_its_narrowest_root():
    # the count keeps breadth-first order from position 0 (735 updates);
    # the chain matrix sweep starts from position n - 1 and spends 812
    # updates where position 0 spends 4582
    assert verify(dodecahedron()).budget_used == 735 + 812


CORPUS_BUDGET_USED = {
    "tower1": 14, "tower2": 192, "tower3": 451, "tower4": 700,
    "tower5": 949, "tower6": 1198, "tower7": 1447, "tower8": 1696,
    "garden1": 25, "garden2": 40, "garden3": 141,
    "dodecahedron": 1547, "shared_path": 43,
    "perturbed3_s1": 257, "perturbed4_s2": 592, "perturbed4_s3": 351,
    "perturbed5_s5": 529,
}


def test_budget_used_is_pinned_on_the_whole_corpus(corpus):
    # ``budget_used`` is the sum of the state updates of the count and of
    # the chain matrix sweeps, so it moves with any change to the order a
    # sweep is planned in, its orbit rule or the transition memo
    assert {name: verify(g).budget_used for name, g in corpus} == CORPUS_BUDGET_USED


def test_chain_matrix_total_is_a_lower_bound_mechanism():
    g = pentagon_tower(4)
    from threecolor import compose, extract, dilworth_decompose, transition_matrix
    c = dilworth_decompose(g, extract(g, 213).family)[0].cycles
    total = compose([transition_matrix(g, a, b) for a, b in zip(c, c[1:])]).total
    assert 6 * total == count_3_colorings(g)   # towers: annulus is the graph


def test_tower_of_seven_chain_bound_via_transfer():
    # count the height-7 tower through the composed layer matrices and
    # compare exactly as count**7 >= 2**7
    from threecolor import compose, extract, dilworth_decompose, transition_matrix
    g = pentagon_tower(7)
    c = dilworth_decompose(g, extract(g, 213).family)[0].cycles
    count = 6 * compose([transition_matrix(g, a, b) for a, b in zip(c, c[1:])]).total
    assert count == count_3_colorings(g) == 30 * 6 ** 6
    assert chain_bound(count, 7)
    assert count ** 7 >= 2 ** 7


def test_garden_antichain_bound_from_designed_family():
    # extraction reduces gardens, so check the antichain bound against
    # the family known from construction
    for k in (1, 2, 3):
        g = pentagon_garden(k)
        pents = garden_pentagons(g, k)
        count = count_3_colorings(g)
        assert antichain_bound(count, len(pents))


def test_corpus_all_bounds_pass(corpus):
    for name, g in corpus:
        if g.n > 30:
            continue   # the full sweep runs in the acceptance suite
        rep = verify(g, graph_name=name)
        assert rep.all_pass, name
