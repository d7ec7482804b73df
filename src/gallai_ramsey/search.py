"""Exhaustive small-case Ramsey search, construction verification, and a
seeded generator of rainbow-triangle-free colorings.

The search decides whether some red/blue coloring of K_n avoids a
monochromatic target pattern S_t^r in both colors.  Vertices are added one
at a time, and a node is one color vector of the new vertex v, taken in
lexicographic order (color 1 before color 2, edge {0, v} most significant).
The vector is built one edge at a time, {0, v} up to {v-1, v}, in two lists of
bitset rows indexed by vertex id.  A center holds S_t^r when its color class
gives it at least t-1 neighbors spanning r disjoint edges.

The old vertices u < v do not change while v's vector is built, so their part
of each test is read from tables kept per parent.  With N = N_c(u) among the
old vertices and d = |N|:

- F_c holds u when d + 1 >= t - 1 and nu(N) >= r: edge {u, v} cannot take c;
- A_c(u) is the set of y in N with d + 1 >= t - 1 and nu(N - y) >= r - 1:
  {u, v} and {y, v} cannot both take c, as the edge {y, v} would complete the
  pattern at u;
- Q_c = A_c plus its transpose: the pairs {u, y} of old vertices whose edges
  to v cannot share color c, whichever end the pattern forms at.

The colored graph was pattern-free before each edge, so adding {i, v} in
color c creates a center at i or at a common c-neighbor of i and v exactly
when i is in F_c or Q_c[i] meets R_c, v's c-neighbors so far; v itself is
tested on its row when it reaches t - 1 c-neighbors or when i brings an edge
into that row.  Both conditions are read off one mask per color,
Forb_c = F_c | Q_c[y] for y in R_c, grown by one OR per edge, and Forb_c
also looks ahead: a later edge {j, v} with j in Forb_1 and Forb_2 has no
color left, so the prefix is pruned before it holds the pattern.

The tables grow down the tree, from empty ones at vertex 0.  Once v's vector
is whole only the neighborhoods v joins change, and v's own, and F and each
A(u) only gain members, so the child re-reads F and A at those vertices and
adds to Q the pairs {u, y} with y new in A(u).  At r = 2 no matching is
needed: each neighborhood keeps whether an edge lies inside it, the vertices
that touch every such edge (its cover) and whether two disjoint edges do, so
A_c(u) is N minus the cover and F_c needs two disjoint edges.  Other r call
``patterns.disjoint_edges``: F on N, then, unless F_c holds u (A_c(u) = N),
one (r-1)-matching of N, whose 2(r-1) ends are the only y that can leave
N - y without one.  At r = 2 the test at v is the linear ``_two_edges``.

Containing the pattern is monotone in the edge set, so every completion of a
pruned prefix of i + 1 edges holds it: its 2^(v-1-i) completions are counted
as nodes without being visited, ``prunes_by_depth`` counting the block once.
A pruned block holds no survivor and takes its place in lexicographic order;
the look-ahead only makes such blocks start sooner.  So the survivors, the
node counts per depth, the order and the node at which a node budget stops
are those of stepping through every whole vector, for any mix of stages.  The
matching test's step cap keeps the branching's exponential worst case from
stalling the search between two deadline checks.

Symmetry breaking is deliberately lightweight and loses no outcomes: swapping
the two colors and permuting vertices preserve pattern-freeness, so edge
{0, 1} may be fixed to color 1 and vertex 0's edge colors forced monotone
(its color-1 block first).  Every coloring is isomorphic to one satisfying
both constraints, hence a completed search proves nonexistence for all
colorings, not just the enumerated ones.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    blowup,
    check_order,
    iter_bits,
    new_monochromatic,
)
from gallai_ramsey.gallai import find_rainbow_triangle
from gallai_ramsey.patterns import (
    RainbowTriangle,
    SPattern,
    SWitness,
    _two_edges,
    disjoint_edges,
    find_mono_S,
)

WITNESS_FOUND = "witness_found"
EXHAUSTED_NONE = "exhausted_none"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits for the exhaustive search."""

    max_nodes: int = 10**9
    max_time: float = 3600.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_nodes, int) or isinstance(self.max_nodes, bool):
            raise ParameterError(f"max_nodes must be an int, got {self.max_nodes!r}")
        if not isinstance(self.max_time, Real) or isinstance(self.max_time, bool):
            raise ParameterError(f"max_time must be a real number, got {self.max_time!r}")
        if not (self.max_nodes > 0 and self.max_time > 0):  # also refuses NaN
            raise ParameterError("budget limits must be positive")


@dataclass
class SearchOutcome:
    """Result of the search; ``nodes_by_depth[v]`` counts the color vectors
    of vertex v, so the list sums to ``nodes_explored``, and
    ``prunes_by_depth[v]`` counts the prefixes of v's vector that were
    pruned, each one block of completions counted unvisited (a whole vector
    that holds the pattern is a block of one)."""

    status: str
    witness: Optional[ColoredCompleteGraph]
    nodes_explored: int
    elapsed: float
    nodes_by_depth: list[int]
    prunes_by_depth: list[int] = field(default_factory=list)


# the search's order cap; the flags below sit above every vertex bit
_MAX_N = 60

# state of a neighborhood N at r = 2: the bits of the vertices that touch
# every edge inside N (its cover), plus these two flags; 0 means no edge
_HAS = 1 << _MAX_N  # an edge lies inside N
_NU2 = 1 << (_MAX_N + 1)  # two disjoint edges lie inside N
_FLAGS = _HAS | _NU2


def _join(state: int, x: int, bit: int) -> int:
    """The state of N after the vertex `bit` joins it, x being its neighbors
    in N; callers skip x = 0, which leaves the state as it was."""
    single = not x & (x - 1)
    if state & _HAS:
        if x & ~state:  # an edge {bit, y} misses the old edge that avoids y
            state |= _NU2
        return state & (x | _FLAGS) if single else state & _FLAGS
    return _HAS | bit | x if single else _HAS | bit


def exhaustive_witness_search(
    n: int,
    p: SPattern,
    budget: SearchBudget = SearchBudget(),
    *,
    collect: Optional[list[ColoredCompleteGraph]] = None,
) -> SearchOutcome:
    """Search all 2-colorings of K_n for one avoiding the pattern in both colors.

    Returns the first witness in the deterministic enumeration order, or
    exhausted_none when the (symmetry-reduced) tree is fully explored, or
    budget_exceeded.  The tree is pruned and symmetry-reduced as the module
    docstring describes; `collect` gathers every surviving leaf instead of
    stopping at the first.
    """
    if n < 2:
        raise ParameterError(f"search needs n >= 2, got n={n}")
    if n > _MAX_N:
        raise ParameterError(f"search supports n <= {_MAX_N}, got n={n}")
    min_deg, r = p.t - 1, p.r
    lo = min_deg - 1  # an old vertex with lo c-neighbors reaches min_deg through v
    # every center tested has min_deg >= 2r neighbors, so need=2 needs no size check
    holds = _two_edges if r == 2 else lambda rc, mu: disjoint_edges(rc, mu, r)
    max_nodes = budget.max_nodes
    start = time.perf_counter()
    deadline = start + budget.max_time
    red, blue = [0] * n, [0] * n
    nodes = 0
    by_depth = [0] * n
    prunes = [0] * n
    # the next node count at which the budget is looked at: max_nodes, or the
    # next multiple of 1024, where the clock is read
    limit = min(max_nodes, 1024)
    status = EXHAUSTED_NONE
    witness: Optional[ColoredCompleteGraph] = None

    def grow(v: int, tabs: tuple) -> tuple:
        """The tables for vertex v + 1 from those for v, once v's vector is
        whole; per color (F, Q, A, the covers at r = 2)."""
        bit_v = 1 << v
        out = []
        for rows, (f, q, a, state) in zip((red, blue), tabs):
            q, a = q[:], a[:]
            mine = rows[v]
            if r == 2:
                state = state[:]
                own = 0  # the state of mine, built as its members join
            left = mine | bit_v  # the members of mine, then v itself
            while left:
                bit_u = left & -left
                left ^= bit_u
                u = bit_u.bit_length() - 1
                nb = rows[u]
                if r == 2:
                    if u < v:
                        x = nb & mine
                        if x & (bit_u - 1):
                            own = _join(own, x & (bit_u - 1), bit_u)
                        if x:
                            state[u] = _join(state[u], x, bit_v)
                    else:
                        state[v] = own
                    s = state[u]
                    if nb.bit_count() < lo or not s & _HAS:
                        continue
                    if s & _NU2:
                        f |= bit_u
                    new = nb & ~s  # N off its cover
                elif nb.bit_count() < lo:
                    continue
                elif disjoint_edges(rows, nb, r) is not None:
                    f |= bit_u
                    new = nb  # N - y keeps r - 1 of the r edges
                else:
                    # N - y keeps an (r-1)-matching m whenever y misses its ends
                    m = disjoint_edges(rows, nb, r - 1)
                    if m is None:
                        continue
                    ends = sum(m)
                    new = nb ^ ends
                    for y in iter_bits(ends):
                        if disjoint_edges(rows, nb ^ (1 << y), r - 1) is not None:
                            new |= 1 << y
                gain = new & ~a[u]
                a[u] = new
                q[u] |= gain
                while gain:
                    low = gain & -gain
                    gain ^= low
                    q[low.bit_length() - 1] |= bit_u
            out.append((f, q, a, state))
        return tuple(out)

    def out_of_budget(v: int) -> bool:
        """Called once nodes reaches limit; True stops the search."""
        nonlocal nodes, limit, status
        if nodes >= max_nodes:
            # the per-vector count stops at max_nodes, inside the last block
            by_depth[v] -= nodes - max_nodes
            nodes = max_nodes
        elif time.perf_counter() <= deadline:
            limit = min(max_nodes, (nodes | 1023) + 1)
            return False
        status = BUDGET_EXCEEDED
        return True

    def snapshot() -> ColoredCompleteGraph:
        buf = bytearray()
        for u in range(n):
            for v in range(u + 1, n):
                buf.append(2 if (blue[u] >> v) & 1 else 1)
        return ColoredCompleteGraph(n, 2, buf)

    def dfs(v: int, tabs: tuple) -> bool:
        """Extend vertex v; True aborts the whole search (witness or budget)."""
        nonlocal nodes, status, witness
        if v == n:
            g = snapshot()
            if collect is not None:
                collect.append(g)
                return False
            status = WITNESS_FOUND
            witness = g
            return True
        (f1, q1, _, _), (f2, q2, _, _) = tabs
        # edges {0, v}, ..., {v-1, v} are colored one at a time, color 1
        # first; edge {i, v} in color c is held in rc[i] and rc[v], rc being
        # red for c = 1 and blue for c = 2.  forb1[i] and forb2[i] are the
        # look-ahead masks before edge {i, v}: F plus Q[y] for each earlier
        # y joined to v in that color
        bit_v = 1 << v
        last = v - 1
        forb1, forb2 = [f1] * v, [f2] * v
        c, top = 1, 2  # edge {0, v} takes the colors c..top
        if v == 1:
            top = 1  # color swap: edge {0,1} is color 1
        elif (blue[0] >> last) & 1:
            # vertex 0's colors are monotone: once color 2 appears, it stays
            c = 2
        rc = red if c == 1 else blue
        i, bit_i = 0, 1
        while True:
            g1, g2 = forb1[i], forb2[i]
            # i or a common neighbor becomes a center iff i is forbidden in c
            if c == 1:
                dead = g1 >> i & 1
                g1 |= q1[i]
            else:
                dead = g2 >> i & 1
                g2 |= q2[i]
            mu = rc[v]
            rc[i] |= bit_v
            rc[v] = mu | bit_i
            if not dead:
                # v becomes a center only as it reaches min_deg neighbors, or
                # when the edge {i, v} brings an edge into its neighborhood
                k = mu.bit_count() + 1
                if k >= min_deg and (k == min_deg or rc[i] & mu):
                    dead = holds(rc, mu | bit_i) is not None
                if not dead and i < last:
                    if not (g1 & g2) >> (i + 1):
                        i += 1
                        bit_i <<= 1
                        forb1[i], forb2[i] = g1, g2
                        c, rc = 1, red
                        continue
                    dead = True  # a later edge is forbidden in both colors
            # a whole vector, or a pruned prefix whose 2^(last-i)
            # completions all hold the pattern: they are counted unvisited
            size = 1 << (last - i)
            nodes += size
            by_depth[v] += size
            if dead:
                prunes[v] += 1
            if nodes >= limit and out_of_budget(v):
                return True
            if not dead and dfs(v + 1, grow(v, tabs) if v < n - 1 else tabs):
                return True
            # next prefix: color 2 on this edge, or back up to the last
            # edge still in color 1
            while True:
                rc[i] ^= bit_v
                rc[v] ^= bit_i
                if c == 1 and (i or top == 2):
                    c, rc = 2, blue
                    break
                if not i:
                    return False
                i -= 1
                bit_i >>= 1
                c, rc = (2, blue) if blue[v] & bit_i else (1, red)

    empty = (0, [0] * n, [0] * n, [0] * n)
    dfs(1, grow(0, (empty, empty)))
    return SearchOutcome(
        status=status,
        witness=witness,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
        nodes_by_depth=by_depth,
        prunes_by_depth=prunes,
    )


# -- construction verification --------------------------------------------------


@dataclass
class VerificationReport:
    """Per-color verdicts for rainbow-freeness and pattern-freeness.

    ``rainbow_s`` is the seconds spent on the rainbow check and ``mono_s[c]``
    those spent on the pattern detector in color c.
    """

    ok: bool
    rainbow: Optional[RainbowTriangle]
    mono_witnesses: dict[int, SWitness]
    elapsed: float
    rainbow_s: float
    mono_s: dict[int, float]


def verify_construction(g: ColoredCompleteGraph, p: SPattern) -> VerificationReport:
    """Run the rainbow check, then the detector of p in every color of g."""
    start = time.perf_counter()
    rainbow = find_rainbow_triangle(g)
    rainbow_s = time.perf_counter() - start
    mono: dict[int, SWitness] = {}
    mono_s: dict[int, float] = {}
    for c in range(1, g.k + 1):
        t0 = time.perf_counter()
        w = find_mono_S(g, c, p)
        if w is not None:
            mono[c] = w
        mono_s[c] = time.perf_counter() - t0
    return VerificationReport(
        ok=rainbow is None and not mono,
        rainbow=rainbow,
        mono_witnesses=mono,
        elapsed=time.perf_counter() - start,
        rainbow_s=rainbow_s,
        mono_s=mono_s,
    )


# -- random Gallai colorings -----------------------------------------------------


def random_gallai_sampler(k: int, n_target: int, seed: int) -> ColoredCompleteGraph:
    """Random rainbow-triangle-free coloring of K_{n_target} with colors in 1..k.

    Built by recursive blow-ups: a random template on 2..5 vertices using at
    most two colors has its vertices replaced by smaller recursively built
    colorings.  Any triangle is therefore either inside one part (free by
    recursion), or touches at least two parts and repeats a color (two of its
    edges leave the same part, or all three edges use the template's two
    colors).  Deterministic for a fixed seed.
    """
    check_order(n_target, k)
    rng = random.Random(seed)
    vertex = new_monochromatic(1, k, 1)  # every one-vertex part; blowup only reads its parts

    def build(size: int) -> ColoredCompleteGraph:
        if size == 1:
            return vertex
        m = rng.randint(2, min(5, size))
        if k >= 2:
            c1, c2 = rng.sample(range(1, k + 1), 2)
        else:
            c1 = c2 = 1
        cuts = sorted(rng.sample(range(1, size), m - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        pairs = m * (m - 1) // 2
        template = ColoredCompleteGraph(m, k, bytes(rng.choice((c1, c2)) for _ in range(pairs)))
        return blowup(template, [build(s) for s in sizes])

    return build(n_target)
