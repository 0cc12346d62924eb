"""Independent brute-force oracles.

These reimplement the checked quantities from their definitions, without
touching the library's search machinery, so that frozen expected values
are backed by a second computation path.  ``pattern_transition_entries``
is the exception: it is the per-pattern transition matrix computation
that the pinned counting sweep replaced, kept as its reference.
"""

from __future__ import annotations

from itertools import combinations, product

from threecolor import annulus_subgraph, count_with_boundary, map_vertices


def scan_count_colorings(g) -> int:
    """Count proper 3-colorings by scanning all 3**n assignments."""
    verts = list(g.vertices)
    n = len(verts)
    assert n <= 16, "scan oracle is for tiny graphs"
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[v], pos[w]) for v in verts for w in g.neighbors(v) if v < w]
    total = 0
    for assign in product((1, 2, 3), repeat=n):
        if all(assign[a] != assign[b] for a, b in edges):
            total += 1
    return total


def scan_triangle(g) -> bool:
    """Triangle detection by scanning all vertex triples."""
    verts = list(g.vertices)
    adj = {v: set(g.neighbors(v)) for v in verts}
    for a, b, c in combinations(verts, 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            return True
    return False


def scan_cycles(g, length: int) -> set:
    """All cycles of a given length as frozensets of their edges."""
    verts = list(g.vertices)
    adj = {v: set(g.neighbors(v)) for v in verts}
    found = set()
    for combo in combinations(verts, length):
        for perm in _cyclic_orders(combo):
            if all(perm[i + 1] in adj[perm[i]] for i in range(length - 1)) \
                    and perm[0] in adj[perm[-1]]:
                found.add(frozenset(
                    frozenset((perm[i], perm[(i + 1) % length]))
                    for i in range(length)))
    return found


def _cyclic_orders(combo):
    first = combo[0]
    rest = combo[1:]
    from itertools import permutations
    for perm in permutations(rest):
        yield (first,) + perm


def special_vertex_by_definition(cycle, coloring):
    """The unique vertex whose color appears exactly once on the cycle."""
    cols = [coloring[v] for v in cycle]
    singles = [v for v, c in zip(cycle, cols) if cols.count(c) == 1]
    assert len(singles) == 1
    return singles[0]


def _pentagon_patterns():
    """The 30 proper color patterns of a 5-cycle with the index of the
    position whose color occurs once."""
    out = []
    for pat in product((1, 2, 3), repeat=5):
        if any(pat[i] == pat[(i + 1) % 5] for i in range(5)):
            continue
        special = next(i for i in range(5) if pat.count(pat[i]) == 1)
        out.append((pat, special))
    return tuple(out)


def pattern_transition_entries(g, c1, c2):
    """Transition matrix entries from one boundary count per consistent
    pair of the 30 x 30 pentagon color patterns, grouped by the two
    special positions; ``c1``/``c2`` must be in canonical cycle order."""
    ann = annulus_subgraph(g, c1, c2)
    rows = map_vertices(g, ann, c1)
    cols = map_vertices(g, ann, c2)
    shared = [(i, j) for i in range(5) for j in range(5) if rows[i] == cols[j]]
    raw = [[0] * 5 for _ in range(5)]
    for pat1, s1 in _pentagon_patterns():
        for pat2, s2 in _pentagon_patterns():
            if any(pat1[i] != pat2[j] for i, j in shared):
                continue
            fixed = {rows[i]: pat1[i] for i in range(5)}
            fixed.update({cols[j]: pat2[j] for j in range(5)})
            raw[s1][s2] += count_with_boundary(ann, fixed).count
    assert all(x % 6 == 0 for row in raw for x in row)
    return tuple(tuple(x // 6 for x in row) for row in raw)
