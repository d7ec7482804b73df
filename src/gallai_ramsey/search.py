"""Exhaustive small-case Ramsey search, construction verification, and a
seeded generator of rainbow-triangle-free colorings.

The search decides whether some red/blue coloring of K_n avoids a
monochromatic target pattern in both colors.  Vertices are added one at a
time, and a node is one color vector of the new vertex v, taken in
lexicographic order (color 1 before color 2, edge {0, v} most significant).
The vector is built one edge at a time, {0, v} up to {v-1, v}, in two lists of
bitset rows indexed by vertex id.  The colored graph was pattern-free before
each edge, so adding {i, v} in color c can only create a center of that color
at v, at i, or at a common c-neighbor of both, which gained {i, v} inside its
neighborhood; only those are tested.  Containing the pattern is
monotone in the edge set, so when a prefix of i + 1 edges holds it, all
2^(v-1-i) completions do too: they are counted as nodes without being
visited.  The survivors, the node count, the order and the node at which a
node budget stops are those of stepping through every whole vector.

A center holds S_t^r when its color class gives it at least t-1 neighbors
spanning r disjoint edges, which ``patterns.disjoint_edges`` decides on the
rows as they are, with no relabeling (at r = 2 its linear test is bound
directly).  Its answer is exact whichever stage gives it, so the pruning, the
node counts and the witnesses do not depend on the stage, and its step cap
keeps the branching's exponential worst case from stalling the search
between two deadline checks.

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
from dataclasses import dataclass
from typing import Optional

from gallai_ramsey.colored_graph import ColoredCompleteGraph, ParameterError, blowup, check_order
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
        if not (self.max_nodes > 0 and self.max_time > 0):  # also refuses NaN
            raise ParameterError("budget limits must be positive")


@dataclass
class SearchOutcome:
    """Result of the search; ``nodes_by_depth[v]`` counts the color vectors
    of vertex v, so the list sums to ``nodes_explored``."""

    status: str
    witness: Optional[ColoredCompleteGraph]
    nodes_explored: int
    elapsed: float
    nodes_by_depth: list[int]


def exhaustive_witness_search(
    n: int,
    p: SPattern,
    budget: SearchBudget | None = None,
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
    if n > 60:
        raise ParameterError(f"search supports n <= 60, got n={n}")
    if budget is None:
        budget = SearchBudget()
    min_deg, r = p.t - 1, p.r
    # every center tested has min_deg >= 2r neighbors, so need=2 needs no size check
    holds = _two_edges if r == 2 else lambda rc, mu: disjoint_edges(rc, mu, r)
    max_nodes = budget.max_nodes
    start = time.perf_counter()
    deadline = start + budget.max_time
    red, blue = [0] * n, [0] * n
    nodes = 0
    by_depth = [0] * n
    # the next node count at which the budget is looked at: max_nodes, or the
    # next multiple of 1024, where the clock is read
    limit = min(max_nodes, 1024)
    status = EXHAUSTED_NONE
    witness: Optional[ColoredCompleteGraph] = None

    def center_in(rc: list[int], centers: int) -> bool:
        """Is some vertex of the `centers` bitset a center of the pattern in rc?"""
        while centers:
            low = centers & -centers
            centers ^= low
            mu = rc[low.bit_length() - 1]
            if mu.bit_count() >= min_deg and holds(rc, mu) is not None:
                return True
        return False

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

    def dfs(v: int) -> bool:
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
        # edges {0, v}, ..., {v-1, v} are colored one at a time, color 1
        # first; edge {i, v} in color c is held in rc[i] and rc[v], rc being
        # red for c = 1 and blue for c = 2
        bit_v = 1 << v
        last = v - 1
        c, top = 1, 2  # edge {0, v} takes the colors c..top
        if v == 1:
            top = 1  # color swap: edge {0,1} is color 1
        elif (blue[0] >> last) & 1:
            # vertex 0's colors are monotone: once color 2 appears, it stays
            c = 2
        rc = red if c == 1 else blue
        i, bit_i = 0, 1
        while True:
            rc[i] |= bit_v
            rc[v] |= bit_i
            # the graph was pattern-free before this edge, so a new center
            # is v, i, or a common neighbor, which gained the edge {i, v}
            held = center_in(rc, bit_v | bit_i | (rc[i] & rc[v]))
            if not held and i < last:
                i += 1
                bit_i <<= 1
                c, rc = 1, red
                continue
            # a whole vector, or a prefix that holds the pattern: containment
            # is monotone, so its 2^(last-i) completions are counted unvisited
            size = 1 << (last - i)
            nodes += size
            by_depth[v] += size
            if nodes >= limit and out_of_budget(v):
                return True
            if not held and dfs(v + 1):
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

    dfs(1)
    return SearchOutcome(
        status=status,
        witness=witness,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
        nodes_by_depth=by_depth,
    )


# -- construction verification --------------------------------------------------


@dataclass
class VerificationReport:
    """Per-color verdicts for rainbow-freeness and pattern-freeness.

    ``rainbow_s`` is the seconds spent on the rainbow check and ``mono_s[c]``
    those spent on the pattern detector in color c.
    """

    ok: bool
    pattern: SPattern
    rainbow: Optional[RainbowTriangle]
    mono_witnesses: dict[int, SWitness]
    elapsed: float
    rainbow_s: float
    mono_s: dict[int, float]

    def lines(self) -> list[str]:
        out = [f"rainbow: {'none' if self.rainbow is None else self.rainbow.vertices}"]
        for c, w in sorted(self.mono_witnesses.items()):
            out.append(f"color {c}: pattern at center {w.center}")
        if not self.mono_witnesses:
            out.append("pattern: none in any color")
        out.append(f"elapsed: {self.elapsed:.2f}s")
        return out


def verify_construction(g: ColoredCompleteGraph, p: SPattern) -> VerificationReport:
    """Run the rainbow check plus the pattern detector in every color of g."""
    start = time.perf_counter()
    rainbow = find_rainbow_triangle(g)
    rainbow_s = time.perf_counter() - start
    mono: dict[int, SWitness] = {}
    mono_s: dict[int, float] = {}
    for c in range(1, g.k + 1):
        t0 = time.perf_counter()
        w = find_mono_S(g, c, p)
        mono_s[c] = time.perf_counter() - t0
        if w is not None:
            mono[c] = w
    return VerificationReport(
        ok=rainbow is None and not mono,
        pattern=p,
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

    def build(size: int) -> ColoredCompleteGraph:
        if size == 1:
            return ColoredCompleteGraph(1, k)
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
