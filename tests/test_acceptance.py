"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Stated runtime limits are asserted where the criterion carries one.
"""

import json
import random
import time
from itertools import product

import pytest

from threecolor import (
    annulus_subgraph,
    antichain_bound,
    classify,
    count_3_colorings,
    dilworth_decompose,
    dodecahedron,
    enumerate_3_colorings,
    extends,
    extract,
    is_laminar,
    pentagon_tower,
    potential,
    shared_path_pentagons,
    special_data,
    tower_pentagons,
    transition_matrix,
    verify,
    verify_product_bound,
)
from threecolor.cli import main as cli_main
from threecolor.generators import garden_pentagons, pentagon_garden
from threecolor.transition import (BLOCK_DIAGONAL, _random_doubling, apply_row,
                                   compose, random_matrix_chain, s_k)
from threecolor.plane_graph import plane_graph_to_json

from builders import (annulus_instances, cycle_graph, path_graph, single_edge,
                      single_vertex)
from conftest import build_corpus
from oracles import scan_count_colorings

PENTAGON_PATTERNS = [p for p in product((1, 2, 3), repeat=5)
                     if all(p[i] != p[(i + 1) % 5] for i in range(5))]
QUAD_PATTERNS = [p for p in product((1, 2, 3), repeat=4)
                 if all(p[i] != p[(i + 1) % 4] for i in range(4))]


def report(num, text):
    print(f"\n[acceptance] criterion {num:2d}: PASS - {text}")


def test_criterion_01_exact_count_oracles():
    t0 = time.perf_counter()
    cases = [(single_vertex(), 3), (single_edge(), 6),
             (cycle_graph(4), 18), (cycle_graph(5), 30)]
    for g, expected in cases:
        assert count_3_colorings(g) == expected
        assert scan_count_colorings(g) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"counts 3/6/18/30 match the exhaustive scan oracle "
              f"({elapsed:.3f}s)")


def test_criterion_02_block_matrix_realization():
    t0 = time.perf_counter()
    g = shared_path_pentagons()
    outer = [g.index(f"u{i+1}") for i in range(5)]
    inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
    m = transition_matrix(g, outer, inner)
    from itertools import permutations
    found = any(
        all(m.entries[i][j] == BLOCK_DIAGONAL[sig[i]][tau[j]]
            for i in range(5) for j in range(5))
        for sig in permutations(range(5)) for tau in permutations(range(5)))
    assert found
    exact = count_3_colorings(g)
    assert m.raw_count == exact == scan_count_colorings(g) == 42
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"shared-path matrix is the reference block matrix up to "
              f"permutation; 6*sum = {exact} ({elapsed:.3f}s)")


def test_criterion_03_composition_oracle():
    t0 = time.perf_counter()
    for height in (3, 4, 5):
        g = pentagon_tower(height)
        pents = tower_pentagons(g, height)
        layers = [transition_matrix(g, pents[i + 1], pents[i])
                  for i in reversed(range(height - 1))]
        direct = transition_matrix(g, pents[-1], pents[0])
        assert compose(layers).entries == direct.entries
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"layer-matrix products equal end-to-end matrices for "
              f"towers 3, 4, 5 ({elapsed:.1f}s)")


def test_criterion_04_dichotomy_on_annulus_corpus():
    instances = 0
    for name, g, outer, inner in annulus_instances():
        ann = annulus_subgraph(g, outer, inner)
        assert ann.n <= 30, name
        kind = classify(transition_matrix(g, outer, inner))
        assert kind != "neither", name
        instances += 1
    assert instances >= 50
    report(4, f"{instances} annulus matrices, every one dominant or "
              f"doubling, never neither")


def test_criterion_05_matrix_property_suite():
    t0 = time.perf_counter()
    ones = (1, 1, 1, 1, 1)
    assert potential(ones) == 40                       # (a)
    assert [s_k(ones, k) for k in (1, 2, 4, 5)] == [1, 2, 4, 5]

    for x in product(range(7), repeat=5):              # (b) all 16807
        assert 2 * potential(apply_row(x, BLOCK_DIAGONAL)) >= 3 * potential(x)

    rng = random.Random(2024)                          # (c) 10^4 doubling
    for _ in range(10 ** 4):
        m = _random_doubling(rng)
        x = tuple(rng.randint(0, 9) for _ in range(5))
        assert potential(apply_row(x, m)) >= 10 * potential(x)

    rng = random.Random(515)                           # (d) 10^3 chains
    for _ in range(10 ** 3):
        n = rng.randint(1, 40)
        mats, kinds = random_matrix_chain(n, rng)
        rep = verify_product_bound(mats, kinds)
        assert rep.ok, (n, rep.first_violation)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"potential 40 at ones; 16807 exhaustive dominant steps; "
              f"10^4 doubling steps; 10^3 chains up to length 40 "
              f"({elapsed:.1f}s)")


def test_criterion_06_bound_harness_on_corpus():
    checked = []
    for name, g in build_corpus():
        assert g.n <= 40, name
        rep = verify(g, graph_name=name)
        assert rep.main_pass, name
        assert rep.all_pass, name
        checked.append(name)
    # gardens reduce, so also check the antichain bound on the family
    # known from their construction
    for k in (1, 2, 3):
        g = pentagon_garden(k)
        count = count_3_colorings(g)
        assert antichain_bound(count, len(garden_pentagons(g, k)))
    report(6, f"main, chain and antichain bounds hold on all "
              f"{len(checked)} corpus instances (n <= 40)")


def test_criterion_07_extraction_structure():
    g = dodecahedron()
    out = extract(g, 3)
    assert out.kind == "family"
    covered = set()
    for c in out.family:
        covered.update(c)
    assert covered == set(range(20))
    assert is_laminar(g, out.family.cycles)

    tree = path_graph(9)
    out_tree = extract(tree, 213)
    assert out_tree.kind == "reducible"
    report(7, "dodecahedron gives a laminar family covering all 20 "
              "vertices; trees reduce")


def test_criterion_08_decomposition_arithmetic():
    families = 0
    for name, g in build_corpus():
        out = extract(g, 213)
        if out.kind != "family":
            continue
        m = len(out.family)
        chain, anti = dilworth_decompose(g, out.family)
        assert len(chain) * len(anti) >= m, name
        assert (7 * len(anti) ** 2 >= 6 * m) or (6 * len(chain) ** 2 >= 7 * m), name
        families += 1
    assert families >= 9
    report(8, f"chain x antichain >= family size and a square-root-sized "
              f"structure exists on all {families} extracted families")


def test_criterion_09_extension_predicate():
    t0 = time.perf_counter()
    checks = 0
    for name, g in build_corpus():
        if g.n > 25:
            continue
        seen = set()
        for cyc in g.facial_cycles:
            if len(cyc) > 5 or cyc in seen:
                continue
            seen.add(cyc)
            patterns = PENTAGON_PATTERNS if len(cyc) == 5 else QUAD_PATTERNS
            for pat in patterns:
                assert extends(g, cyc, dict(zip(cyc, pat))), (name, cyc, pat)
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert checks >= 1500
    report(9, f"{checks} boundary colorings of facial cycles all extend "
              f"({elapsed:.1f}s)")


def test_criterion_10_sixth_integrality():
    # the guard inside transition_matrix rejects any non-divisible cell;
    # recompute two instances from a full enumeration as an independent check
    for g, outer, inner in (
            (pentagon_tower(2), *reversed(tower_pentagons(pentagon_tower(2), 2))),
            (shared_path_pentagons(), None, None)):
        if outer is None:
            outer = [g.index(f"u{i+1}") for i in range(5)]
            inner = [g.index(x) for x in ("u1", "u2", "u3", "u4", "v")]
        m = transition_matrix(g, outer, inner)
        raw = [[0] * 5 for _ in range(5)]
        for coloring in enumerate_3_colorings(g):
            i = m.row_labels.index(special_data(m.row_labels, coloring).vertex)
            j = m.col_labels.index(special_data(m.col_labels, coloring).vertex)
            raw[i][j] += 1
        for i in range(5):
            for j in range(5):
                assert raw[i][j] % 6 == 0
                assert raw[i][j] == 6 * m.entries[i][j]
    report(10, "raw special-pair counts divisible by 6, re-derived by "
               "full enumeration")


def test_criterion_11_thread_determinism(tmp_path, capsys):
    files = []
    for name, g in build_corpus():
        path = tmp_path / f"{name}.json"
        path.write_text(plane_graph_to_json(g))
        files.append(str(path))
    outputs = {}
    for threads in ("1", "4"):
        chunks = []
        for path in files:
            assert cli_main(["count", path, "--threads", threads,
                             "--json"]) == 0
            chunks.append(capsys.readouterr().out)
        assert cli_main(["verify-bounds", *files, "--threads", threads,
                         "--json"]) == 0
        chunks.append(capsys.readouterr().out)
        outputs[threads] = "".join(chunks)
    assert outputs["1"] == outputs["4"]
    for line in outputs["1"].splitlines():
        json.loads(line)
    report(11, f"counts and full reports identical for --threads 1 and 4 "
               f"across {len(files)} corpus files")
