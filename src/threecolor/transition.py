"""Color transition matrices between nested 5-cycles, and the matrix
potential argument that drives the chain lower bound.

For nested 5-cycles C1 (outer) and C2 (inner), entry (i, j) of the
transition matrix is one sixth of the number of 3-colorings of the
annulus between them whose special vertices are the i-th vertex of C1
and the j-th vertex of C2.  Color permutations act freely and preserve
special vertices, so every raw cell count is divisible by 6; this is
asserted before dividing.

Each host graph keeps the entries and updates of its matrix sweeps,
keyed by the annulus's sweep shape (:func:`coloring.sweep_shape`), which
is the sweep's whole input besides its tag.  A reuse skips only the
sweep: both cycles are still validated, the annulus still cut by
``region_graph``, which reads both region partitions with every guard,
and the stored updates charged to the budget, which raises exactly
where the sweep would have.

All matrix arithmetic is exact integer arithmetic: the product bound
grows exponentially and the comparisons are done in the integers
(x**4 * 2**n >= 3**n instead of x >= (3/2)**(n/4)).

The matrix helpers check a matrix once.  :func:`_entries` checks a
matrix in full and returns its entries as a ``_Checked`` tuple, which
every helper then accepts at once; a :class:`TransitionMatrix` holds
its entries that way.  The only other source of ``_Checked`` matrices
is the sampler of the matrix lemma's random chains, which assembles
them from a pool of rows, every row a sampled matrix can have, each
checked once when the pool is built on first use.  Anything else, a
list or a slice of a checked matrix included, is checked in full.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, permutations
from typing import NamedTuple, Sequence

from .coloring import DEFAULT_BUDGET, SPECIAL_POSITION, sweep, sweep_shape
from .errors import BudgetExceededError, FalsificationError
from .plane_graph import PlaneGraph, annulus_subgraph, validate_cycle

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

    The entries are checked on construction (see :func:`_entries`) and
    stored as a tuple of row tuples.  ``row_labels``/``col_labels`` are
    the outer/inner cycle vertices in canonical cycle order; entry (i, j)
    corresponds to special vertices row_labels[i] and col_labels[j].
    ``updates`` is the number of state updates of the sweep that computed
    the matrix (0 for products and hand-made matrices); it takes no part
    in equality.
    """

    entries: Matrix
    row_labels: tuple
    col_labels: tuple
    updates: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _entries(self.entries))

    @property
    def raw_count(self) -> int:
        """Number of 3-colorings of the underlying annulus: 6 * sum."""
        return 6 * self.total

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]


class _Checked(tuple):
    """The entries of a checked matrix: five row tuples of five
    non-negative ``int`` values.  Built only by :func:`_entries`, after
    its check, and by the sampler builders from checked pool rows."""

    __slots__ = ()


def _entries(m) -> Matrix:
    """The entries of a matrix as a ``_Checked`` tuple of row tuples,
    checked to be a 5x5 array of non-negative ``int`` (not ``bool``)
    values.

    A ``_Checked`` tuple has been checked and is returned at once, as
    are a :class:`TransitionMatrix`'s entries, which are one.  Anything
    else is checked in full, even a sequence equal to a checked matrix,
    since ``(True, 1, 0, 0, 0) == (1, 1, 0, 0, 0)``; a list or a slice
    of a ``_Checked`` tuple is a plain sequence.
    """
    if type(m) is _Checked:
        return m
    if isinstance(m, TransitionMatrix):
        return m.entries
    try:
        rows = tuple(map(tuple, m))
    except TypeError:       # not a sequence of sequences
        raise ValueError("expected a 5x5 matrix") from None
    if len(rows) != 5 or set(map(len, rows)) != {5}:
        raise ValueError("expected a 5x5 matrix")
    if set(map(type, chain.from_iterable(rows))) != {int}:
        raise ValueError("matrix entries must be integers")
    if min(map(min, rows)) < 0:
        raise ValueError("matrix entries must be non-negative")
    return _Checked(rows)


# ---------------------------------------------------------------------------
# domination / doubling
# ---------------------------------------------------------------------------

def _dominant_patterns() -> tuple:
    """For each 2x2 block of cells, its bit mask and the masks of the six
    transversals of the complementary 3x3; cell (i, j) is bit 5i + j."""
    out = []
    for rows in combinations(range(5), 2):
        rest_rows = [i for i in range(5) if i not in rows]
        for cols in combinations(range(5), 2):
            rest_cols = [j for j in range(5) if j not in cols]
            block = sum(1 << 5 * i + j for i in rows for j in cols)
            transversals = tuple(
                sum(1 << 5 * i + j for i, j in zip(rest_rows, p))
                for p in permutations(rest_cols))
            out.append((block, transversals))
    return tuple(out)


_DOMINANT_PATTERNS = _dominant_patterns()


def is_dominant(a) -> bool:
    """True iff ``a`` dominates :data:`BLOCK_DIAGONAL`, that is, ``a`` is
    entrywise >= some row/column permutation of it.

    The row/column permutations of the reference matrix are exactly the
    0/1 matrices whose ones are a 2x2 block plus a transversal of the
    complementary 3x3, so ``a`` dominates it iff its entries are >= 1 on
    some such block and transversal: at most 100 blocks times 6
    transversals instead of 14,400 permutation pairs.
    """
    e = _entries(a)
    positive = sum(1 << k for k, x in enumerate(chain.from_iterable(e)) if x)
    return any(positive & block == block
               and any(positive & t == t for t in transversals)
               for block, transversals in _DOMINANT_PATTERNS)


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
    e = _entries(m)
    dom = is_dominant(e)
    dbl = is_doubling(e)
    if dom and dbl:
        return "both"
    if dom:
        return "dominant"
    if dbl:
        return "doubling"
    log.error("matrix is neither dominant nor doubling: %s", e)
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
    return _times(x, _entries(m))


def _times(x: Sequence[int], e: Matrix) -> tuple:
    x0, x1, x2, x3, x4 = x
    ((a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4),
     (d0, d1, d2, d3, d4), (f0, f1, f2, f3, f4)) = e
    return (x0 * a0 + x1 * b0 + x2 * c0 + x3 * d0 + x4 * f0,
            x0 * a1 + x1 * b1 + x2 * c1 + x3 * d1 + x4 * f1,
            x0 * a2 + x1 * b2 + x2 * c2 + x3 * d2 + x4 * f2,
            x0 * a3 + x1 * b3 + x2 * c3 + x3 * d3 + x4 * f3,
            x0 * a4 + x1 * b4 + x2 * c4 + x3 * d4 + x4 * f4)


# ---------------------------------------------------------------------------
# transition matrices from graphs
# ---------------------------------------------------------------------------

def _special_position(colors: tuple) -> int:
    """The tag that folds a pinned pentagon's colors into its special
    position during the sweep."""
    try:
        return SPECIAL_POSITION[colors]
    except KeyError:
        raise FalsificationError(
            f"pentagon colored {colors} in a proper coloring of the "
            "annulus is not a proper 5-cycle coloring") from None


def transition_matrix(g: PlaneGraph, c1: Sequence[int], c2: Sequence[int],
                      budget: int = DEFAULT_BUDGET) -> TransitionMatrix:
    """Compute the color transition matrix between nested 5-cycles.

    One counting sweep over the annulus pins both cycles as groups
    tagged by their special position (``budget`` caps its state
    updates), so it returns the colorings split by the pair of special
    vertices.  Every raw cell is checked to be divisible by 6 before
    division.

    An annulus whose sweep shape ``g`` has swept before reuses that
    sweep's entries and updates and charges the updates to ``budget``
    (see the module docstring).
    """
    k1 = validate_cycle(g, c1)
    k2 = validate_cycle(g, c2)
    if len(k1) != 5 or len(k2) != 5:
        raise ValueError("transition matrices are defined between 5-cycles")
    ann = annulus_subgraph(g, k1, k2)
    shape = sweep_shape(ann, (k1, k2))
    known = g._matrices.get(shape)
    if known is None:
        known = g._matrices[shape] = _sweep(shape, budget)
    elif known[1] > budget:
        raise BudgetExceededError(budget)
    else:
        log.debug("transition sweep reused: %d updates charged", known[1])
    entries, updates = known
    return TransitionMatrix(entries=entries, row_labels=k1, col_labels=k2,
                            updates=updates)


def _sweep(shape: tuple, budget: int) -> tuple:
    """The entries and updates of the tagged sweep of an annulus shape."""
    states, updates = sweep(shape, _special_position, budget)
    raw = [[0] * 5 for _ in range(5)]
    for (i, j), cnt in states.items():
        raw[i][j] += cnt
    for i in range(5):
        for j in range(5):
            if raw[i][j] % 6:
                raise FalsificationError(
                    f"raw special-pair count {raw[i][j]} at ({i}, {j}) is "
                    "not divisible by 6")
    return _entries(tuple(tuple(raw[i][j] // 6 for j in range(5))
                          for i in range(5))), updates


def compose(ms: Sequence[TransitionMatrix]) -> TransitionMatrix:
    """Integer product of a compatible chain of transition matrices.

    Labels are checked at every step; the product is one
    :class:`TransitionMatrix` (``updates`` 0), checked once at the end.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("cannot compose an empty list")
    first, *rest = ms
    rows, cols = first.entries, first.col_labels
    for nxt in rest:
        if cols != nxt.row_labels:
            raise ValueError(f"label mismatch: {cols} vs {nxt.row_labels}")
        rows = tuple(_times(row, nxt.entries) for row in rows)
        cols = nxt.col_labels
    return TransitionMatrix(entries=rows, row_labels=first.row_labels,
                            col_labels=cols)


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
        x = _times(x, m)
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

def _doubling_supports() -> tuple:
    """The 2040 zero/one 5x5 patterns with every row and column sum 2,
    as five column pairs (one per row), in ``product`` order, built row
    by row, never using a column a third time; :func:`_row_pool` reads it."""
    pairs = tuple(combinations(range(5), 2))
    supports: list = []
    rows: list = []
    used = [0] * 5           # the rows so far using each column

    def extend():
        if len(rows) == 5:   # ten entries, no column more than twice
            supports.append(tuple(rows))
            return
        for pair in pairs:
            a, b = pair
            if used[a] < 2 and used[b] < 2:
                used[a] += 1
                used[b] += 1
                rows.append(pair)
                extend()
                rows.pop()
                used[a] -= 1
                used[b] -= 1

    extend()
    return tuple(supports)


class _RowPool(NamedTuple):
    """Every row a sampled matrix can have, each checked once."""

    dominant: tuple     # the 243 rows with entries 0..2, by base-3 code
    reference: tuple    # per column permutation, the codes of the 5 reference rows
    noise: tuple        # per 5-bit mask, its code (bit j -> digit j)
    doubling: tuple     # per support, its five rows' tables by base-9 digit


def _checked_row(row: tuple) -> tuple:
    """``row``, checked as a matrix row."""
    return _entries((row,) * 5)[0]


@cache
def _row_pool() -> _RowPool:
    """The rows of sampled matrices, built and checked on first use.

    A dominant row is a reference row (entries 0/1) plus a noise bit
    per entry, so its entries are 0..2 and its base-3 code, entry j as
    digit j, is the code of the reference row plus the code of the
    noise bits, without carries.  A doubling row holds two entries 1..3
    on a column pair and zeros elsewhere; its table lists the nine rows
    of a pair by base-9 digit, the pair's first entry as the low base-3
    digit, as :func:`_doubling_from` reads them.
    """
    def code(row):
        return sum(x * 3 ** j for j, x in enumerate(row))

    dominant = tuple(_checked_row(tuple(k // 3 ** j % 3 for j in range(5)))
                     for k in range(3 ** 5))
    reference = tuple(tuple(code(r[t] for t in tau) for r in BLOCK_DIAGONAL)
                      for tau in _PERMS)
    noise = tuple(code(bits >> j & 1 for j in range(5))
                  for bits in range(32))
    tables = {}
    for a, b in combinations(range(5), 2):
        rows = []
        for d in range(9):
            row = [0] * 5
            row[a], row[b] = d % 3 + 1, d // 3 + 1
            rows.append(_checked_row(tuple(row)))
        tables[a, b] = tuple(rows)
    doubling = tuple(tuple(map(tables.__getitem__, support))
                     for support in _doubling_supports())
    return _RowPool(dominant, reference, noise, doubling)


def _doubling_from(tables: tuple, digits: int) -> Matrix:
    """The doubling matrix on the support whose five row ``tables`` are
    given (see :func:`_row_pool`): row i is table i at base-9 digit i of
    ``digits``, least significant first.  So the base-3 digits of
    ``digits`` are the ten entries less one, row by row and in pair
    order."""
    t0, t1, t2, t3, t4 = tables
    return _Checked((t0[digits % 9], t1[digits // 9 % 9], t2[digits // 81 % 9],
                     t3[digits // 729 % 9], t4[digits // 6561]))


def _random_doubling(rng: random.Random) -> Matrix:
    """A uniform row/column-sum-2 support with iid entries 1..3 on it,
    in two draws: the support, then all ten entries as one number.

    This is the distribution of drawing two entries per row and
    rejecting until every column has two, without the rejections.
    """
    return _doubling_from(rng.choice(_row_pool().doubling),
                          rng.randrange(3 ** 10))


def _dominant_from(sigma: int, tau: int, bits: int) -> Matrix:
    """The reference matrix with rows permuted by ``_PERMS[sigma]`` and
    columns by ``_PERMS[tau]``, plus bit 5i + j of ``bits`` at entry
    (i, j), as a checked matrix of pool rows."""
    rows, reference, noise, _ = _row_pool()
    ref = reference[tau]
    s0, s1, s2, s3, s4 = _PERMS[sigma]
    return _Checked((rows[ref[s0] + noise[bits & 31]],
                     rows[ref[s1] + noise[bits >> 5 & 31]],
                     rows[ref[s2] + noise[bits >> 10 & 31]],
                     rows[ref[s3] + noise[bits >> 15 & 31]],
                     rows[ref[s4] + noise[bits >> 20]]))


def _random_dominant(rng: random.Random) -> Matrix:
    """A uniform row/column permutation of the reference matrix plus 25
    iid fair noise bits, in three draws."""
    return _dominant_from(rng.randrange(120), rng.randrange(120),
                          rng.getrandbits(25))


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


def matrix_report(m: TransitionMatrix, g: PlaneGraph) -> dict:
    """JSON-ready report for a transition matrix."""
    return {
        "rows": [g.label(v) for v in m.row_labels],
        "cols": [g.label(v) for v in m.col_labels],
        "entries": [list(r) for r in m.entries],
        "classification": classify(m),
        "raw_count": m.raw_count,
    }
