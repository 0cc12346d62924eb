import math

import pytest

from threecolor import (
    BudgetExceededError,
    antichain_bound,
    chain_bound,
    count_3_colorings,
    decomposition_sizes_ok,
    main_bound_value,
    meets_main_bound,
    meets_power_bound,
    pentagon_garden,
    pentagon_tower,
    verify,
)
from threecolor.bounds import chain_matrix_total, verify_with_budget_guard
from threecolor.generators import garden_pentagons

from builders import cycle_graph


# ---------------------------------------------------------------------------
# exact comparisons
# ---------------------------------------------------------------------------

def test_power_bound_examples():
    # threshold 2 at m = 6: count 2 passes, count 1 does not
    assert antichain_bound(2, 6)
    assert not antichain_bound(1, 6)
    assert antichain_bound(1, 0)
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


def test_verify_budget_guard_attaches_partial_report():
    with pytest.raises(BudgetExceededError) as exc:
        verify_with_budget_guard(pentagon_tower(4), budget=100,
                                 graph_name="tower4")
    assert exc.value.partial_report["error"] == "budget"
    assert exc.value.partial_report["graph"] == "tower4"


def test_chain_matrix_total_is_a_lower_bound_mechanism():
    g = pentagon_tower(4)
    from threecolor import extract, dilworth_decompose
    chain, _ = dilworth_decompose(g, extract(g, 213).family)
    total = chain_matrix_total(g, chain.cycles)
    assert 6 * total == count_3_colorings(g)   # towers: annulus is the graph


def test_tower_of_seven_chain_bound_via_transfer():
    # count the height-7 tower through the composed layer matrices and
    # compare exactly as count**7 >= 2**7
    from threecolor import extract, dilworth_decompose
    g = pentagon_tower(7)
    chain, _ = dilworth_decompose(g, extract(g, 213).family)
    count = 6 * chain_matrix_total(g, chain.cycles)
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
