"""Lower-bound formulas and the end-to-end verification harness.

All bound comparisons are exact.  The power bounds count >= 2**(m/d)
become integer comparisons count**d >= 2**m.  The square-root bound
count >= 2**sqrt(n/212) is decided by a cheap sufficient test on the bit
length, an exact special case when n/212 is a perfect square, and
otherwise interval arithmetic with growing precision; a bound is never
declared failed from a rounding artifact.

``verify`` mirrors the intended proof structure: count exactly, run the
reduction dichotomy (k defaults to 213), decompose any extracted family
into a chain and an antichain, check every applicable bound, and when a
chain of two or more cycles exists also check that six times the
composed transition-matrix total never exceeds the exact count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .coloring import DEFAULT_BUDGET, count_3_colorings_detailed
from .errors import BudgetExceededError
from .laminar import CycleFamily, dilworth_decompose, extract
from .plane_graph import PlaneGraph, interior_faces, triangle_free
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
        return m == 0 and count >= 1
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
    """Exact test of count >= 2**sqrt(n/212)."""
    if n < 1:
        raise ValueError("n must be positive")
    if count < 1:
        return False
    bits = count.bit_length() - 1      # 2**bits <= count
    if 212 * bits * bits >= n:
        return True
    if n % 212 == 0:
        root = math.isqrt(n // 212)
        if root * root == n // 212:
            return count >= 2 ** root  # threshold is exactly integral
    from mpmath import iv
    saved = iv.prec         # the interval context is process-global
    try:
        for dps in (30, 60, 120, 240, 480, 960):
            iv.dps = dps
            threshold = iv.mpf(2) ** iv.sqrt(iv.mpf(n) / iv.mpf(212))
            if count >= threshold.b:
                return True
            if count < threshold.a:
                return False
    finally:
        iv.prec = saved
    raise ArithmeticError(
        f"bound comparison inconclusive at count={count}, n={n}")


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


def chain_matrix_total(g: PlaneGraph, chain: Sequence,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Total of the transition matrix composed along a chain of 5-cycles.

    The chain is sorted outermost first; consecutive members give the
    layer matrices whose product is the end-to-end matrix.
    """
    ordered = sorted(chain, key=lambda c: len(interior_faces(g, c)), reverse=True)
    mats = [transition_matrix(g, ordered[i], ordered[i + 1], budget=budget)
            for i in range(len(ordered) - 1)]
    return compose(mats).total


def verify(g: PlaneGraph, k: int = DEFAULT_K, budget: int = DEFAULT_BUDGET,
           graph_name: str = "graph") -> BoundReport:
    """Count exactly and evaluate every applicable lower bound."""
    if not triangle_free(g):
        raise ValueError("bound verification requires a triangle-free graph")
    res = count_3_colorings_detailed(g, budget=budget)
    count = res.count
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
            matrix_check = 6 * chain_matrix_total(g, chain, budget=budget) <= count
    return BoundReport(
        graph=graph_name,
        n=n,
        k=k,
        exact_count=count,
        budget_used=res.nodes,
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


def verify_with_budget_guard(g: PlaneGraph, **kwargs) -> BoundReport:
    """Like :func:`verify` but attaches a partial report to budget errors."""
    try:
        return verify(g, **kwargs)
    except BudgetExceededError as exc:
        name = kwargs.get("graph_name", "graph")
        exc.partial_report = {"graph": name, "n": g.n,
                              "error": "budget", "budget": exc.budget}
        raise
