"""Exact 3-coloring counting and the coloring-side operations.

Counting is a frontier dynamic program over one vertex order, a path
decomposition of the graph.  After each vertex is placed, the placed
vertices that a later step still reads form the frontier, and a dict
maps each coloring of the frontier to the number of proper colorings of
the placed vertices that induce it.  Counts are exact Python integers.
Each pinned vertex, or each pinned group of vertices reduced to a tag
of its colors, is held from the step its last member is placed until
the end, so one sweep splits the count by the pinned colors or tags.
Full counts, boundary counts and the extension test (by fixed colors)
and transition matrices (by tagged groups) are each one sweep.

A sweep reads its graph once, into a shape (:func:`sweep_shape`): the
graph in breadth-first positions from the least vertex.  :func:`sweep`
chooses the vertex order from the shape alone, as the one with the
least estimated state count among breadth-first search from position
0, n//3, 2n//3 and n-1; equal shapes therefore sweep identically, and
a caller that memoizes by shape pays nothing for the choice on a hit.
What each step does to the frontier is then planned from positions,
before any state is visited, in the chosen order itself (any
permutation of the positions will do): no shape is renumbered.  One
rule, :func:`_frontier`, says when each position leaves the frontier;
the order estimate scores the frontier that the plan lays out.

A state is one int.  Each frontier vertex holds a fixed 2-bit register
for its whole time on the frontier (the lowest one free when it is
placed), holding its color 1, 2 or 3; each completed group holds a
field above the registers with its tag, interned per sweep.  A step
reads ``state & read``, looks the extensions up in a table memoized by
that value, and writes ``(state & keep) | extension``.

Colors are the literals 1, 2, 3 and colorings are counted as labeled
objects (color permutations give distinct colorings).  Permuting the
colors maps proper colorings to proper colorings, so a sweep that
forces no color and tags only by color-blind tags keeps one state per
color orbit: the one whose lowest used register holds 1 and whose first
register of another color holds 2, with the summed count of its orbit.
Every new state is tested for this by bit masks and relabeled by XOR
swaps of two colors in all registers at once when it fails.

A coloring is represented as a tuple indexed by vertex id.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate, chain, permutations, product, repeat
from operator import itemgetter, mul
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError
from .plane_graph import PlaneGraph, canonical_cycle

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 10 ** 9


def _bfs_order(g) -> list:
    """Breadth-first vertex order from the least vertex, restarted at the
    least unplaced vertex for each further component."""
    seen = set()
    order = []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for u in queue:
            order.append(u)
            for w in sorted(g.neighbors(u)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


@dataclass(frozen=True)
class CountResult:
    count: int
    nodes: int      # frontier state updates spent


def sweep_shape(g, groups: Sequence[tuple],
                fixed: Mapping[int, int] | None = None) -> tuple:
    """The whole input of a sweep of ``g`` pinning ``groups`` and forcing
    the ``fixed`` colors, besides its tag, in breadth-first positions
    instead of vertex ids: for each vertex in breadth-first order from
    the least vertex, the sorted positions of its neighbours; for each
    group, the positions of its members; and the fixed colors as sorted
    ``(position, color)`` pairs.

    :func:`sweep` reads nothing else of the graph, and it chooses its
    vertex order from the shape alone, so sweeps of equal shapes with
    the same tag visit the same states and give the same counts and
    updates.
    """
    order = _bfs_order(g)
    pos = {v: p for p, v in enumerate(order)}
    return (tuple(tuple(sorted(pos[w] for w in g.neighbors(v))) for v in order),
            tuple(tuple(pos[v] for v in grp) for grp in groups),
            tuple(sorted((pos[v], c) for v, c in (fixed or {}).items())))


def _bfs_from(nbrs: Sequence[tuple], root: int) -> tuple[list, list, list]:
    """Breadth-first search over the positions of a shape from ``root``,
    neighbours in position order, restarted at the least unplaced
    position for each further component.  Returns ``(order, at,
    last)``: the positions in search order, the step of each position
    and the last step that places a neighbour of it (-1 if none)."""
    n = len(nbrs)
    at = [-1] * n
    last = [-1] * n
    order: list = []
    for r in chain((root,), range(n)):
        if at[r] >= 0:
            continue
        i = at[r] = len(order)
        order.append(r)
        while i < len(order):
            for w in nbrs[order[i]]:
                last[w] = i
                if at[w] < 0:
                    at[w] = len(order)
                    order.append(w)
            i += 1
    return order, at, last


def _frontier(groups: Sequence[tuple], at: Sequence[int],
              last: Sequence[int]) -> tuple[list, dict, list]:
    """The frontier of a sweep placing each position ``v`` at step
    ``at[v]``, whose neighbours are placed by step ``last[v]``; the one
    rule for when a position leaves the frontier.  Returns ``(leave,
    completes, live)``: ``leave[v]`` is the last step that reads ``v``,
    ``last[v]`` or the step completing a group that holds ``v``, if
    later; ``completes`` maps each step to the groups whose last member
    it places; ``live[t]`` counts the positions ``v`` with ``at[v] <= t
    < leave[v]``, the registers in use after step ``t``."""
    leave = list(last)
    completes: dict = {}
    for i, grp in enumerate(groups):
        done = max(map(at.__getitem__, grp))
        completes.setdefault(done, []).append(i)
        for v in grp:
            leave[v] = max(leave[v], done)
    delta = [0] * len(at)
    for t, end in zip(at, leave):
        if end > t:
            delta[t] += 1
            delta[end] -= 1
    return leave, completes, list(accumulate(delta))


def _estimate(groups: Sequence[tuple], at: Sequence[int],
              last: Sequence[int]) -> int:
    """The estimated state count of the sweep whose :func:`_frontier` is
    that of ``groups``, ``at`` and ``last``: the sum over steps of
    3**(live registers) * 5**(completed groups)."""
    _, completes, live = _frontier(groups, at, last)
    live = map(pow, repeat(3), live)
    if not completes:
        return sum(live)
    done = [0] * len(at)
    for t, grps in completes.items():
        done[t] = len(grps)
    return sum(map(mul, live, map(pow, repeat(5), accumulate(done))))


def _narrowest_bfs(shape: tuple) -> list:
    """The vertex order of the sweep of ``shape``: the shape's own
    breadth-first order, or breadth-first search restarted from
    position n//3, 2n//3 or n-1, whichever has the least
    :func:`_estimate`; earlier candidates win ties."""
    nbrs, groups, _ = shape
    n = len(nbrs)
    best = list(range(n))
    least = _estimate(groups, best, [adj[-1] if adj else -1 for adj in nbrs])
    for root in dict.fromkeys((n // 3, 2 * n // 3, n - 1)):
        if root > 0:
            order, at, last = _bfs_from(nbrs, root)
            cost = _estimate(groups, at, last)
            if cost < least:
                best, least = order, cost
    return best


def _plan(shape: tuple, order: Sequence[int], tag: Callable) -> tuple:
    """Plan every vertex step of the sweep of ``shape`` placing its
    positions in ``order``, and the layout of its states.  Step
    ``at[v]`` places ``v`` after each neighbour ``u`` with ``at[u] <
    at[v]``; :func:`_frontier` gives the last step reading each
    position and the groups each step completes.

    Returns ``(steps, registers, fields)``.  A state is one int.  Each
    placed vertex whose color a later step reads holds a 2-bit register
    (bits 2r and 2r + 1 hold its color) from its step until that last
    read; it takes the lowest register free once the step's retiring
    vertices have left, so ``registers`` is the most live at once, the
    peak frontier width.  Above the registers, each group has a tag
    field: ``fields`` holds its ``(offset, mask, ids)``, where ``ids``
    interns the group's tag values in order of first use.  Each step
    is ``(read, extensions, keep, live)``: ``state & read`` holds
    the colors of the vertex's placed neighbours and of the other
    members of the groups completing there; ``extensions(seen)`` gives
    the bits that each allowed color, and the tags it completes, add;
    ``keep`` clears the registers that retire at the step, and ``live``
    has both bits of every register in use after it.
    """
    nbrs, groups, fixed = shape
    fixed = dict(fixed)
    at = [0] * len(nbrs)
    for t, v in enumerate(order):
        at[v] = t
    leave, completes, in_use = _frontier(
        groups, at, [max(map(at.__getitem__, nb), default=-1) for nb in nbrs])
    registers = max(in_use, default=0)
    fields = []
    top = 2 * registers
    for grp in groups:
        width = (3 ** len(set(grp)) - 1).bit_length()
        fields.append((top, (1 << width) - 1, {}))
        top += width
    tags = (1 << top) - (1 << 2 * registers)
    put: list = [None] * len(nbrs)    # the low bit of each position's register
    retiring: dict = {}      # step -> registers read there for the last time
    live = 0                 # the registers in use
    steps = []
    for t, v in enumerate(order):
        shifts = [put[u] for u in nbrs[v] if at[u] < t]
        read = sum([3 << s for s in shifts])
        live ^= retiring.pop(t, 0)
        keep = live | tags
        if leave[v] > t:
            s = put[v] = (~live & (live + 1)).bit_length() - 1
            live |= 3 << s
            retiring[leave[v]] = retiring.get(leave[v], 0) | 3 << s
        choices = (fixed[v],) if v in fixed else (1, 2, 3)
        tagged = []
        for i in completes.get(t, ()):
            members = [None if u == v else put[u] for u in groups[i]]
            for s in members:
                if s is not None:
                    read |= 3 << s
            offset, _, ids = fields[i]
            tagged.append((members, offset, ids))
        steps.append((read, _extensions(shifts, choices, put[v], tagged, tag),
                      keep, live))
    return steps, registers, fields


def _extensions(shifts: list, choices: tuple, put: int | None, tagged: list,
                tag: Callable) -> Callable:
    """The extensions of a step: the vertex's color in its register
    (``put`` is its bit offset, ``None`` when no later step reads it)
    for each color its placed neighbours, at ``shifts``, leave free,
    plus each completing group's interned tag in its field.  ``tagged``
    holds per group completing at the step the bit offsets of its
    members (``None`` for the vertex itself), its field offset and its
    ids; it is empty where no group completes."""
    def extensions(seen):
        banned = 0
        for s in shifts:
            banned |= 1 << (seen >> s & 3)
        out = []
        for c in choices:
            if banned >> c & 1:
                continue
            bits = 0 if put is None else c << put
            for members, offset, ids in tagged:
                t = tag(tuple([c if s is None else seen >> s & 3
                               for s in members]))
                bits |= ids.setdefault(t, len(ids)) << offset
            out.append(bits)
        return tuple(out)
    return extensions


_PERMUTED = [(0, *p) for p in permutations((1, 2, 3)) if p != (1, 2, 3)]
"""The five color permutations other than the identity, indexed by
color."""


def _color_blind(tag: Callable) -> Callable:
    """``tag``, checked to be invariant under color permutations: the first
    time a color tuple or one of its relabelings is tagged, all six are
    tagged and must agree, or ``ValueError`` is raised."""
    known: dict = {}

    def checked(cols):
        t = known.get(cols, known)
        if t is known:
            t = tag(cols)
            for p in _PERMUTED:
                moved = tuple([p[c] for c in cols])
                if tag(moved) != t:
                    raise ValueError("tag must be invariant under color "
                                     "permutations when no color is fixed")
                known[moved] = t
            known[cols] = t
        return t
    return checked


def _orbit_masks(live: int, low: int) -> tuple[int, int]:
    """``(ones, bad)`` for states whose registers in use have both bits
    set in ``live``: a state is the first-occurrence representative of
    its color orbit, its lowest used register holding color 1 and the
    first register of another color holding 2, iff ``x & -x & bad`` is
    0 for ``x = state ^ ones``.  ``ones`` puts color 1 in every used
    register, so the lowest set bit of ``x`` is the first register not
    holding 1, or lies above the registers; it is good when it is the
    low bit of a register after the lowest, which then holds 2."""
    ones = live & low
    return ones, low * 3 ^ ones ^ (ones & -ones)


def _first_occurrence(state: int, low: int) -> int:
    """``state`` with its colors relabeled so that its lowest used
    register holds color 1 and the first register of another color
    holds 2; ``low`` has the low bit of every register set.  Each
    relabeling is a swap of two colors, done by XOR on every register
    at once, and leaves the bits above the registers as they are."""
    lo = state & low         # registers holding 1 or 3
    hi = state >> 1 & low    # registers holding 2 or 3
    first = lo | hi
    first &= -first
    if hi & first:
        # 3 at the lowest register: swap 1 and 3; 2 there: swap 1 and 2
        state ^= lo << 1 if lo & first else (lo ^ hi) * 3
        lo = state & low
        hi = state >> 1 & low
    if hi & -hi & lo:        # 3 before any 2: swap 2 and 3
        state ^= hi
    return state


def pinned_counts(g, pinned: Sequence = (),
                  fixed: Mapping[int, int] | None = None,
                  budget: int = DEFAULT_BUDGET,
                  tag: Callable[[tuple], Hashable] | None = None
                  ) -> tuple[dict, int]:
    """Count proper 3-colorings split by the colors of ``pinned``.

    Returns ``(states, updates)``: ``states`` maps each tuple of colors
    of the pinned vertices (in the given order) to the number of proper
    colorings inducing it, omitting zero counts; ``updates`` is the
    number of frontier state updates spent.  ``fixed`` forces colors on
    some vertices.  More than ``budget`` updates raise
    :class:`BudgetExceededError`.

    With ``tag``, ``pinned`` is a sequence of vertex groups (groups may
    share vertices) and the keys are tuples of ``tag(colors of the
    group)``, one per group.  A group's tag is taken as soon as its last
    member is placed, and its members then leave the frontier like any
    other vertex, so the sweep carries one tag field per group instead
    of its colors.  ``tag`` runs per entry of a step's memoized extension
    table, not per state.

    The vertex ids and colors are checked here; the count is
    ``sweep(sweep_shape(g, groups, fixed), tag, budget)``, which reads
    the graph only through its shape (see :func:`sweep` for orbits).
    """
    fixed = dict(fixed or {})
    verts = set(g.vertices)
    for v, c in fixed.items():
        if v not in verts:
            raise ValueError(f"vertex {v} not in graph")
        if c not in (1, 2, 3):
            raise ValueError(f"color must be 1, 2 or 3, got {c}")
    groups = [(v,) for v in pinned] if tag is None else [tuple(p) for p in pinned]
    for grp in groups:
        if not grp:
            raise ValueError("pinned groups must not be empty")
        for v in grp:
            if v not in verts:
                raise ValueError(f"vertex {v} not in graph")
    return sweep(sweep_shape(g, groups, fixed), tag, budget)


def sweep(shape: tuple, tag: Callable[[tuple], Hashable] | None,
          budget: int) -> tuple[dict, int]:
    """The counting sweep of a :func:`sweep_shape`: ``(states, updates)``
    as :func:`pinned_counts` returns them.  Without ``tag`` every group
    is one vertex, keyed by its color.

    The vertex order is chosen here, from the shape alone
    (:func:`_narrowest_bfs`), and not in :func:`sweep_shape`, so that a
    caller that memoizes results by shape pays nothing for the choice
    on a hit.

    Without fixed colors, ``tag`` must be invariant under color
    permutations: the first time a sweep tags some colors, it also tags
    their five other permutations, and a differing tag raises
    ``ValueError``.  Such a sweep, like one without groups, keeps one
    state per color orbit (see the module docstring).  Fixed colors and
    untagged groups tell the colors apart, so their sweeps keep every
    state.
    """
    return _sweep_in_order(shape, _narrowest_bfs(shape), tag, budget)


def _sweep_in_order(shape: tuple, order: Sequence[int],
                    tag: Callable[[tuple], Hashable] | None,
                    budget: int) -> tuple[dict, int]:
    """:func:`sweep` placing the shape's positions in ``order``."""
    nbrs, groups, fixed = shape
    merge = not fixed and (tag is not None or not groups)
    if tag is None:
        tag = itemgetter(0)
    elif merge:
        tag = _color_blind(tag)
    steps, registers, fields = _plan(shape, order, tag)
    low = ((1 << 2 * registers) - 1) // 3      # the low bit of every register
    states = {0: 1}
    updates = peak = 0
    for read, extensions, keep, live in steps:
        ones, bad = _orbit_masks(live, low) if merge else (0, 0)
        nxt: dict = {}
        get = nxt.get
        memo: dict = {}
        for state, cnt in states.items():
            seen = state & read
            exts = memo.get(seen)
            if exts is None:
                exts = memo[seen] = extensions(seen)
            state &= keep
            for ext in exts:
                ext |= state
                x = ext ^ ones
                if x & -x & bad:
                    ext = _first_occurrence(ext, low)
                nxt[ext] = get(ext, 0) + cnt
            updates += len(exts)
        if updates > budget:
            raise BudgetExceededError(budget)
        states = nxt
        peak = max(peak, len(states))
    log.debug("sweep of %d vertices: %d updates, peak %d live states, "
              "color orbits %s, BFS root %d, %d registers", len(nbrs), updates,
              peak, "merged" if merge else "not merged",
              order[0] if order else 0, registers)
    names = [(offset, mask, list(ids)) for offset, mask, ids in fields]
    return ({tuple([tags[state >> offset & mask] for offset, mask, tags in names]):
             cnt for state, cnt in states.items()}, updates)


def count_3_colorings(g, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of proper 3-colorings, as a labeled count."""
    return count_3_colorings_detailed(g, budget=budget).count


def count_3_colorings_detailed(g, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact count plus the number of frontier state updates spent."""
    states, updates = pinned_counts(g, budget=budget)
    return CountResult(count=sum(states.values()), nodes=updates)


def count_with_boundary(g, fixed: Mapping[int, int],
                        budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact count of colorings extending a partial assignment."""
    states, updates = pinned_counts(g, (), fixed, budget)
    return CountResult(count=sum(states.values()), nodes=updates)


def enumerate_3_colorings(g) -> Iterator[tuple]:
    """Yield every proper 3-coloring exactly once, as vertex-indexed tuples.

    A plain backtracking search in breadth-first order, kept separate
    from the counting sweep so that tests can check one against the
    other.  It yields in lexicographic order of the colors by BFS
    position, and loops rather than recursing, so depth is no limit.
    """
    order = _bfs_order(g)
    n = len(order)
    pos = {v: p for p, v in enumerate(order)}
    prior = [tuple(pos[w] for w in g.neighbors(v) if pos[w] < p)
             for p, v in enumerate(order)]
    out = [0] * (max(order, default=-1) + 1)
    colors = [0] * n        # 0: no color tried yet at that position
    p = 0
    while p >= 0:
        if p == n:
            for v, c in zip(order, colors):
                out[v] = c
            yield tuple(out)
            p -= 1
            continue
        c = colors[p] + 1
        while c <= 3 and any(colors[q] == c for q in prior[p]):
            c += 1
        colors[p] = c % 4   # 4: every color tried, back up
        p += 1 if c <= 3 else -1


# ---------------------------------------------------------------------------
# special vertex / edge of a colored 5-cycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialData:
    """The unique singleton-colored vertex of a 5-cycle plus the cycle
    edge disjoint from its two incident edges."""

    vertex: int
    edge: tuple


SPECIAL_POSITION = {p: next(i for i in range(5) if p.count(p[i]) == 1)
                    for p in product((1, 2, 3), repeat=5)
                    if all(p[i - 1] != p[i] for i in range(5))}
"""The position of the color used once, for each of the 30 proper
colorings of a 5-cycle."""


def special_data(cycle: Sequence[int], coloring) -> SpecialData:
    """Locate the special vertex and edge of a properly colored 5-cycle."""
    if len(cycle) != 5:
        raise ValueError(f"special vertex is defined for 5-cycles, got "
                         f"length {len(cycle)}")
    s = SPECIAL_POSITION.get(tuple(coloring[v] for v in cycle))
    if s is None:
        raise ValueError("coloring is not a proper 3-coloring of the cycle")
    a, b = cycle[(s + 2) % 5], cycle[(s + 3) % 5]
    return SpecialData(vertex=cycle[s], edge=(min(a, b), max(a, b)))


# ---------------------------------------------------------------------------
# boundary extension
# ---------------------------------------------------------------------------

def extends(g: PlaneGraph, cycle: Sequence[int], boundary: Mapping[int, int],
            budget: int = DEFAULT_BUDGET) -> bool:
    """Whether a proper coloring of a facial cycle (length at most 5)
    extends to a proper 3-coloring of the whole graph."""
    c = canonical_cycle(cycle)
    if len(c) > 5:
        raise ValueError("extension test requires a cycle of length at most 5")
    if c not in g.facial_cycles:
        raise ValueError("cycle does not bound a face")
    for v in c:
        if boundary.get(v) not in (1, 2, 3):
            raise ValueError(f"boundary gives cycle vertex {g.label(v)} "
                             "no color in 1..3")
    m = len(c)
    for i in range(m):
        u, v = c[i], c[(i + 1) % m]
        if boundary[u] == boundary[v]:
            raise ValueError("boundary coloring is not proper on the cycle")
    fixed = {v: boundary[v] for v in c}
    return count_with_boundary(g, fixed, budget=budget).count > 0


# ---------------------------------------------------------------------------
# bichromatic components and switching
# ---------------------------------------------------------------------------

def bichromatic_components(g, coloring, i: int, j: int) -> list[frozenset]:
    """The vertex sets of the components of the subgraph induced by the
    vertices colored i or j, in order of least vertex."""
    if i == j:
        raise ValueError("need two distinct colors")
    keep = {v for v in g.vertices if coloring[v] in (i, j)}
    seen: set = set()
    comps = []
    for v in sorted(keep):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in keep and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def switching_count(g, coloring) -> int:
    """The number t of components of the best bichromatic pair: the
    most over the pairs (1, 2), (1, 3) and (2, 3).

    Swapping the two colors on any subset of these components keeps the
    coloring proper (neighbours outside a maximal component carry the
    third color) and gives 2**t distinct colorings; the antichain bound
    reads t alone.
    """
    return max(len(bichromatic_components(g, coloring, i, j))
               for i, j in ((1, 2), (1, 3), (2, 3)))
