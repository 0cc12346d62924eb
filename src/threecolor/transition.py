"""Color transition matrices between nested 5-cycles, and the matrix
potential argument that drives the chain lower bound.

For nested 5-cycles C1 (outer) and C2 (inner), entry (i, j) of the
transition matrix is one sixth of the number of 3-colorings of the
annulus between them whose special vertices are the i-th vertex of C1
and the j-th vertex of C2.  Color permutations act freely and preserve
special vertices, so every raw cell count is divisible by 6; this is
asserted before dividing.

All matrix arithmetic is exact integer arithmetic: the product bound
grows exponentially and the comparisons are done in the integers
(x**4 * 2**n >= 3**n instead of x >= (3/2)**(n/4)).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, permutations, product
from typing import Sequence

from .coloring import DEFAULT_BUDGET, pinned_counts
from .errors import FalsificationError
from .plane_graph import PlaneGraph, annulus_subgraph, map_vertices, validate_cycle

log = logging.getLogger(__name__)

Matrix = tuple  # 5x5 tuple of tuples of ints

BLOCK_DIAGONAL = (
    (1, 1, 0, 0, 0),
    (1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
)
"""The reference matrix: a 2x2 all-ones block plus a 3x3 identity.

It is realized as the transition matrix of two pentagons sharing a
four-vertex path, and "dominant" below means dominating this matrix.
"""

_PERMS = tuple(permutations(range(5)))


@dataclass(frozen=True)
class TransitionMatrix:
    """A 5x5 non-negative integer matrix with its boundary labelings.

    ``row_labels``/``col_labels`` are the outer/inner cycle vertices in
    canonical cycle order; entry (i, j) corresponds to special vertices
    row_labels[i] and col_labels[j].
    """

    entries: Matrix
    row_labels: tuple
    col_labels: tuple

    @property
    def raw_count(self) -> int:
        """Number of 3-colorings of the underlying annulus: 6 * sum."""
        return 6 * self.total

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]


def _entries(m) -> Matrix:
    e = m.entries if isinstance(m, TransitionMatrix) else m
    rows = tuple(tuple(int(x) for x in row) for row in e)
    if len(rows) != 5 or any(len(r) != 5 for r in rows):
        raise ValueError("expected a 5x5 matrix")
    if any(x < 0 for r in rows for x in r):
        raise ValueError("matrix entries must be non-negative")
    return rows


# ---------------------------------------------------------------------------
# majorization / domination / doubling
# ---------------------------------------------------------------------------

def majorizes(a, b) -> bool:
    """Entrywise a >= b."""
    ea, eb = _entries(a), _entries(b)
    return all(ea[i][j] >= eb[i][j] for i in range(5) for j in range(5))


def dominates(a, b) -> bool:
    """True iff a majorizes some row/column permutation of b.

    Brute force over all 120 x 120 permutation pairs with early exit;
    exactly the definition, at a size where cleverness buys nothing.
    """
    ea, eb = _entries(a), _entries(b)
    for sigma in _PERMS:
        rows = tuple(eb[s] for s in sigma)
        for tau in _PERMS:
            if all(ea[i][j] >= rows[i][tau[j]]
                   for i in range(5) for j in range(5)):
                return True
    return False


def is_dominant(a) -> bool:
    return dominates(a, BLOCK_DIAGONAL)


def is_doubling(a) -> bool:
    """Every row and every column has at least two nonzero entries."""
    e = _entries(a)
    for i in range(5):
        if sum(1 for x in e[i] if x >= 1) < 2:
            return False
        if sum(1 for r in e if r[i] >= 1) < 2:
            return False
    return True


def classify(m) -> str:
    """One of "dominant", "doubling", "both", "neither".

    "neither" contradicts the expected dichotomy for transition matrices
    of triangle-free plane graphs and is logged as an error.
    """
    dom = is_dominant(m)
    dbl = is_doubling(m)
    if dom and dbl:
        return "both"
    if dom:
        return "dominant"
    if dbl:
        return "doubling"
    log.error("matrix is neither dominant nor doubling: %s", _entries(m))
    return "neither"


# ---------------------------------------------------------------------------
# the potential
# ---------------------------------------------------------------------------

def s_k(x: Sequence[int], k: int) -> int:
    """Sum of the k smallest entries."""
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    return sum(sorted(x)[:k])


def potential(x: Sequence[int]) -> int:
    """The product s1 * s2 * s4 * s5 of sorted-prefix sums."""
    s = sorted(x)
    s1 = s[0]
    s2 = s1 + s[1]
    s4 = s2 + s[2] + s[3]
    s5 = s4 + s[4]
    return s1 * s2 * s4 * s5


def apply_row(x: Sequence[int], m) -> tuple:
    """Row vector times matrix, exactly."""
    e = _entries(m)
    return tuple(sum(x[i] * e[i][j] for i in range(5)) for j in range(5))


# ---------------------------------------------------------------------------
# transition matrices from graphs
# ---------------------------------------------------------------------------

def _special_index(colors: Sequence[int]) -> int:
    """Position of the color used once on a properly colored 5-cycle."""
    return next(i for i in range(5) if colors.count(colors[i]) == 1)


def transition_matrix(g: PlaneGraph, c1: Sequence[int], c2: Sequence[int],
                      budget: int = DEFAULT_BUDGET) -> TransitionMatrix:
    """Compute the color transition matrix between nested 5-cycles.

    One counting sweep over the annulus pins both cycles (``budget``
    caps its state updates) and returns the colorings split by the
    colors of the ten boundary positions; these are grouped by the two
    special vertices.  Every raw cell is checked to be divisible by 6
    before division.
    """
    k1 = validate_cycle(g, c1)
    k2 = validate_cycle(g, c2)
    if len(k1) != 5 or len(k2) != 5:
        raise ValueError("transition matrices are defined between 5-cycles")
    ann = annulus_subgraph(g, k1, k2)
    rows = map_vertices(g, ann, k1)
    cols = map_vertices(g, ann, k2)
    states, _ = pinned_counts(ann, rows + cols, budget=budget)

    raw = [[0] * 5 for _ in range(5)]
    for colors, cnt in states.items():
        raw[_special_index(colors[:5])][_special_index(colors[5:])] += cnt
    for i in range(5):
        for j in range(5):
            if raw[i][j] % 6:
                raise FalsificationError(
                    f"raw special-pair count {raw[i][j]} at ({i}, {j}) is "
                    "not divisible by 6")
    entries = tuple(tuple(raw[i][j] // 6 for j in range(5)) for i in range(5))
    return TransitionMatrix(entries=entries, row_labels=k1, col_labels=k2)


def compose(ms: Sequence[TransitionMatrix]) -> TransitionMatrix:
    """Integer product of a compatible chain of transition matrices."""
    ms = list(ms)
    if not ms:
        raise ValueError("cannot compose an empty list")
    acc = ms[0]
    for nxt in ms[1:]:
        if acc.col_labels != nxt.row_labels:
            raise ValueError(
                f"label mismatch: {acc.col_labels} vs {nxt.row_labels}")
        a, b = acc.entries, nxt.entries
        prod = tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(5)) for j in range(5))
            for i in range(5))
        acc = TransitionMatrix(entries=prod, row_labels=acc.row_labels,
                               col_labels=nxt.col_labels)
    return acc


def identity_matrix(labels) -> TransitionMatrix:
    """Identity with equal row and column labels; composes neutrally."""
    ent = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    return TransitionMatrix(entries=ent, row_labels=tuple(labels),
                            col_labels=tuple(labels))


# ---------------------------------------------------------------------------
# the product bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductBoundReport:
    """Outcome of the growth check along a dominant/doubling chain."""

    n: int
    classifications: tuple
    final_value: int            # 1^T M1...Mn 1
    bound_pass: bool            # final_value >= (3/2)**(n/4), exactly
    potential_pass: bool        # stepwise potential growth held
    first_violation: int | None

    @property
    def ok(self) -> bool:
        return self.bound_pass and self.potential_pass


def verify_product_bound(ms: Sequence, kinds: Sequence[str] | None = None) -> ProductBoundReport:
    """Check the exponential growth of 1^T M1...Mn 1.

    Every matrix must be dominant or doubling.  Each step must multiply
    the potential by at least 3/2 (dominant) or at least 10 (doubling);
    the final row sum must reach (3/2)**(n/4).  All comparisons exact.

    ``kinds`` may carry the matrices' known classifications (for chains
    whose members are classified at construction time); otherwise each
    matrix is classified here.
    """
    mats = [_entries(m) for m in ms]
    if not mats:
        raise ValueError("empty matrix chain")
    if kinds is None:
        kinds = tuple(classify(m) for m in mats)
    else:
        kinds = tuple(kinds)
        if len(kinds) != len(mats):
            raise ValueError("one classification required per matrix")
    if any(k not in ("dominant", "doubling", "both") for k in kinds):
        raise ValueError("chain contains a matrix that is neither dominant "
                         "nor doubling")
    x = (1, 1, 1, 1, 1)
    pot = potential(x)
    first_violation = None
    for step, (m, kind) in enumerate(zip(mats, kinds)):
        x = apply_row(x, m)
        new_pot = potential(x)
        if "doubling" in kind or kind == "both":
            ok = new_pot >= 10 * pot
        else:
            ok = 2 * new_pot >= 3 * pot
        if not ok and first_violation is None:
            first_violation = step
        pot = new_pot
    n = len(mats)
    final = sum(x)
    bound_pass = final ** 4 * 2 ** n >= 3 ** n
    return ProductBoundReport(
        n=n, classifications=kinds, final_value=final,
        bound_pass=bound_pass, potential_pass=first_violation is None,
        first_violation=first_violation)


# ---------------------------------------------------------------------------
# random chains for the matrix lemma
# ---------------------------------------------------------------------------

@cache
def _doubling_supports() -> tuple:
    """The 2040 zero/one 5x5 patterns with every row and column sum 2,
    as five column pairs (one per row); built on first use."""
    pairs = tuple(combinations(range(5), 2))
    each_twice = sorted(2 * list(range(5)))
    return tuple(rows for rows in product(pairs, repeat=5)
                 if sorted(chain.from_iterable(rows)) == each_twice)


def _random_doubling(rng: random.Random) -> Matrix:
    """A uniform row/column-sum-2 support with iid entries 1..3 on it.

    This is the distribution of drawing two entries per row and
    rejecting until every column has two, without the rejections.
    """
    m = [[0] * 5 for _ in range(5)]
    for i, pair in enumerate(rng.choice(_doubling_supports())):
        for j in pair:
            m[i][j] = rng.randint(1, 3)
    return tuple(tuple(r) for r in m)


def _random_dominant(rng: random.Random) -> Matrix:
    sigma = rng.sample(range(5), 5)
    tau = rng.sample(range(5), 5)
    return tuple(tuple(BLOCK_DIAGONAL[sigma[i]][tau[j]] + rng.randint(0, 1)
                       for j in range(5)) for i in range(5))


def random_matrix_chain(n: int, rng: random.Random):
    """A seeded chain of matrices with their known classifications.

    Doubling members are doubling by construction; dominant members are
    row/column permutations of the reference matrix plus noise, hence
    dominant by construction.
    """
    mats, kinds = [], []
    for _ in range(n):
        if rng.random() < 0.5:
            mats.append(_random_doubling(rng))
            kinds.append("doubling")
        else:
            mats.append(_random_dominant(rng))
            kinds.append("dominant")
    return mats, kinds


def matrix_report(m: TransitionMatrix, g: PlaneGraph | None = None) -> dict:
    """JSON-ready report for a transition matrix."""
    lab = (lambda v: g.label(v)) if g is not None else (lambda v: v)
    return {
        "rows": [lab(v) for v in m.row_labels],
        "cols": [lab(v) for v in m.col_labels],
        "entries": [list(r) for r in m.entries],
        "classification": classify(m),
        "raw_count": m.raw_count,
    }
