"""Lower-bound formulas and the end-to-end verification harness.

All bound comparisons are exact, in integers alone: count >= 2**(m/d)
becomes count**d >= 2**m, and ``meets_main_bound`` decides count >=
2**sqrt(n/212) from the bit lengths of powers of count, so no bound is
declared failed from a rounding artifact.

``verify`` mirrors the intended proof structure: count exactly, run the
reduction dichotomy (k defaults to 213), decompose any extracted family
into a chain and an antichain, check every applicable bound, and when a
chain of two or more cycles exists also check that six times the
composed transition-matrix total never exceeds the exact count (the
chain arrives outermost first, so consecutive members bound the layers
in product order).  One budget of state updates covers the count and
every layer sweep of the chain, and ``budget_used`` is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import DEFAULT_BUDGET, count_3_colorings_detailed
from .errors import BudgetExceededError
from .laminar import CycleFamily, dilworth_decompose, extract
from .plane_graph import PlaneGraph
from .transition import compose, transition_matrix

DEFAULT_K = 213


# ---------------------------------------------------------------------------
# exact bound comparisons
# ---------------------------------------------------------------------------

def meets_power_bound(count: int, m: int, denominator: int) -> bool:
    """Exact test of count >= 2**(m/denominator)."""
    if m < 0 or denominator <= 0:
        raise ValueError("bad bound exponent")
    if count <= 0:
        return False
    return count ** denominator >= 2 ** m


def antichain_bound(count: int, m: int) -> bool:
    """count >= 2**(m/6), exactly."""
    return meets_power_bound(count, m, 6)


def chain_bound(count: int, m: int) -> bool:
    """count >= 2**(m/7), exactly."""
    return meets_power_bound(count, m, 7)


def main_bound_value(n: int) -> float:
    """Float rendering of 2**sqrt(n/212), for reports only."""
    return 2.0 ** math.sqrt(n / 212.0)


def meets_main_bound(count: int, n: int) -> bool:
    """Exact test of count >= 2**sqrt(n/212), i.e. 212*log2(count)**2 >= n.

    Pass j squares floor and ceiling mantissas of count j times, each cut
    to j + 64 bits first; their bit lengths give a_lo <= 2**j*log2(count)
    < a_hi <= a_lo + 2.  Pass 0 is the bit-length test; j doubles until
    212*a_lo**2 >= n*4**j or 212*a_hi**2 <= n*4**j decides.  The loop ends.
    If count = 2**r, the mantissas stay exact and a_hi/2**j = r + 2**-j
    falls to sqrt(n/212) or below unless pass 0 accepts.  Otherwise
    log2(count) is transcendental (Gelfond-Schneider), not sqrt(n/212),
    and the bracket, 2**(1-j) wide on log2(count), separates the two.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if count < 1:
        return False
    j = 0
    while True:
        lo, hi, e = count, count, 0      # lo*2**e <= count**(2**j) <= hi*2**e
        for _ in range(j):
            drop = max(lo.bit_length() - j - 64, 0)
            lo, hi, e = (lo >> drop) ** 2, (-(-hi >> drop)) ** 2, 2 * (e + drop)
        a_lo, a_hi = lo.bit_length() - 1 + e, hi.bit_length() + e
        if 212 * a_lo * a_lo >= n << 2 * j:
            return True
        if 212 * a_hi * a_hi <= n << 2 * j:
            return False
        j = 2 * j or 1


def decomposition_sizes_ok(chain_size: int, antichain_size: int, m: int) -> bool:
    """At least one of antichain >= sqrt(6m/7), chain >= sqrt(7m/6)."""
    if m == 0:
        return True
    return (7 * antichain_size ** 2 >= 6 * m) or (6 * chain_size ** 2 >= 7 * m)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """All bound checks for one graph."""

    graph: str
    n: int
    k: int
    exact_count: int
    budget_used: int
    main_threshold: float
    main_pass: bool
    outcome: str                        # "reducible" | "family"
    reducible_vertex: str | None
    family_size: int | None
    chain: tuple | None                 # cycles, outermost first
    antichain: tuple | None
    chain_pass: bool | None
    antichain_pass: bool | None
    sizes_pass: bool | None             # Dilworth size guarantee
    matrix_check: bool | None           # 6 * composed total <= exact count

    @property
    def all_pass(self) -> bool:
        checks = (self.main_pass, self.chain_pass, self.antichain_pass,
                  self.sizes_pass, self.matrix_check)
        return all(c is not False for c in checks)

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph,
            "n": self.n,
            "k": self.k,
            "count": self.exact_count,
            "budget_used": self.budget_used,
            "main_bound": self.main_threshold,
            "main_pass": self.main_pass,
            "outcome": self.outcome,
            "reducible_vertex": self.reducible_vertex,
            "family_size": self.family_size,
            "chain_size": None if self.chain is None else len(self.chain),
            "antichain_size": None if self.antichain is None else len(self.antichain),
            "chain_pass": self.chain_pass,
            "antichain_pass": self.antichain_pass,
            "sizes_pass": self.sizes_pass,
            "matrix_check": self.matrix_check,
            "all_pass": self.all_pass,
        }


def verify(g: PlaneGraph, k: int = DEFAULT_K, budget: int = DEFAULT_BUDGET,
           graph_name: str = "graph") -> BoundReport:
    """Count exactly and evaluate every applicable lower bound."""
    if not g.triangle_free:
        raise ValueError("bound verification requires a triangle-free graph")
    res = count_3_colorings_detailed(g, budget=budget)
    count = res.count
    used = res.nodes
    n = g.n
    outcome = extract(g, k)
    chain = antichain = None
    chain_pass = antichain_pass = sizes_pass = matrix_check = None
    family_size = None
    if outcome.kind == "family":
        family: CycleFamily = outcome.family
        family_size = len(family)
        ch, anti = dilworth_decompose(g, family)
        chain, antichain = ch.cycles, anti.cycles
        chain_pass = chain_bound(count, len(chain))
        antichain_pass = antichain_bound(count, len(antichain))
        sizes_pass = decomposition_sizes_ok(len(chain), len(antichain), family_size)
        if len(chain) >= 2:
            mats = []
            for outer, inner in zip(chain, chain[1:]):
                try:
                    mats.append(transition_matrix(g, outer, inner, budget=budget - used))
                except BudgetExceededError:
                    raise BudgetExceededError(budget) from None
                used += mats[-1].updates
            matrix_check = 6 * compose(mats).total <= count
    return BoundReport(
        graph=graph_name,
        n=n,
        k=k,
        exact_count=count,
        budget_used=used,
        main_threshold=main_bound_value(n),
        main_pass=meets_main_bound(count, n),
        outcome=outcome.kind,
        reducible_vertex=(None if outcome.vertex is None
                          else g.label(outcome.vertex)),
        family_size=family_size,
        chain=chain,
        antichain=antichain,
        chain_pass=chain_pass,
        antichain_pass=antichain_pass,
        sizes_pass=sizes_pass,
        matrix_check=matrix_check,
    )

