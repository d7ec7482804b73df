"""Exhaustive small-case Ramsey search, construction verification, and a
seeded generator of rainbow-triangle-free colorings.

The search decides whether some red/blue coloring of K_n avoids a
monochromatic target pattern in both colors.  Vertices are added one at a
time; each new vertex's edge-color vector is enumerated in lexicographic
order (color 1 before color 2), and a branch dies as soon as either color
class contains the pattern on the already-colored prefix.  Containment checks
are incremental: adding a vertex only changes the neighborhoods of that
vertex and of its new neighbors, so only those centers are re-tested, the new
vertex first.  The colors live in two lists of bitset rows indexed by vertex
id; stepping to the next color vector flips one contiguous block of the new
vertex's edges.

A center holds S_t^r when its color class gives it at least t-1 neighbors
spanning r disjoint edges.  ``_nu_at_least`` tests the matching on the rows
as they are, with no relabeling: need=2 has a linear test, other thresholds
an exact branching test capped at |M|^2 steps (a bound set by the input
alone) with the blossom algorithm past the cap.  Either way the answer is
exact, so the pruning, the node counts and the witnesses do not depend on
which route answered, and the cap keeps the branching's exponential worst
case from stalling the search between two deadline checks.

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
from functools import partial
from typing import Optional

from gallai_ramsey.colored_graph import ColoredCompleteGraph, ParameterError, blowup, check_order
from gallai_ramsey.gallai import find_rainbow_triangle
from gallai_ramsey.patterns import (
    RainbowTriangle,
    SPattern,
    SWitness,
    _blossom_mates,
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
        if self.max_nodes <= 0 or self.max_time <= 0:
            raise ParameterError("budget limits must be positive")


@dataclass
class SearchOutcome:
    status: str
    witness: Optional[ColoredCompleteGraph]
    nodes_explored: int
    elapsed: float


class _StepCap(Exception):
    """The matching recursion used up its step allowance."""


def _two_disjoint_edges(rows: list[int], members: int) -> bool:
    """Does the subgraph induced on the `members` bitset have 2 disjoint edges?

    A greedy maximal matching either finds two edges, or stalls at one edge
    ab; then every edge meets a or b, and two disjoint ones exist iff a and b
    have distinct further neighbors.
    """
    a = b = 0
    avail = members
    while avail:
        low = avail & -avail
        avail ^= low
        cand = rows[low.bit_length() - 1] & avail
        if cand:
            if a:
                return True
            a = low
            b = cand & -cand
            avail ^= b
    if not a:
        return False
    na = rows[a.bit_length() - 1] & members ^ b
    nb = rows[b.bit_length() - 1] & members ^ a
    union = na | nb
    return bool(na) and bool(nb) and union & (union - 1) != 0


def _nu_at_least(rows: list[int], members: int, need: int) -> bool:
    """Does the subgraph induced on the `members` bitset have `need` disjoint edges?

    ``rows[u]`` is u's adjacency bitset, indexed by vertex id.  need=2 has its
    own linear test.  Otherwise, with v the lowest member, nu(M) >= k iff
    nu(M - v) >= k or nu(M - v - w) >= k - 1 for some neighbor w of v in M,
    and a branch dies once |M| < 2k.  That recursion is exponential in the
    worst case (K_{k-1, m}), so after |M|^2 steps the blossom algorithm
    answers instead.
    """
    if need <= 0:
        return True
    size = members.bit_count()
    if size < 2 * need:
        return False
    if need == 2:
        return _two_disjoint_edges(rows, members)
    steps = size * size

    def has(m: int, k: int) -> bool:
        nonlocal steps
        while True:
            steps -= 1
            if steps < 0:
                raise _StepCap
            low = m & -m
            m ^= low
            nb = rows[low.bit_length() - 1] & m
            if nb:
                if k == 1:
                    return True
                while nb:
                    w = nb & -nb
                    nb ^= w
                    if has(m ^ w, k - 1):
                        return True
            if m.bit_count() < 2 * k:
                return False

    try:
        return has(members, need)
    except _StepCap:
        mates = _blossom_mates(
            [rows[u] & members if members >> u & 1 else 0 for u in range(members.bit_length())]
        )
        return sum(1 for u, w in enumerate(mates) if w > u) >= need


def exhaustive_witness_search(
    n: int,
    p: SPattern,
    budget: SearchBudget | None = None,
    *,
    prune: bool = True,
    break_symmetry: bool = True,
    collect: Optional[list[ColoredCompleteGraph]] = None,
) -> SearchOutcome:
    """Search all 2-colorings of K_n for one avoiding the pattern in both colors.

    Returns the first witness in the deterministic enumeration order, or
    exhausted_none when the (symmetry-reduced) tree is fully explored, or
    budget_exceeded.  ``prune`` and ``break_symmetry`` exist so tests can
    compare against the unpruned/unreduced search on tiny inputs; `collect`
    gathers every surviving leaf instead of stopping at the first.
    """
    if n < 2:
        raise ParameterError(f"search needs n >= 2, got n={n}")
    if n > 60:
        raise ParameterError(f"search supports n <= 60, got n={n}")
    if budget is None:
        budget = SearchBudget()
    min_deg, r = p.t - 1, p.r
    # every center tested has min_deg >= 2r neighbors, so need=2 needs no size check
    holds = _two_disjoint_edges if r == 2 else partial(_nu_at_least, need=r)
    max_nodes = budget.max_nodes
    start = time.perf_counter()
    deadline = start + budget.max_time
    red, blue = [0] * n, [0] * n
    nodes = 0
    status = EXHAUSTED_NONE
    witness: Optional[ColoredCompleteGraph] = None

    def center_in(rc: list[int], centers: int) -> bool:
        """Is some vertex of the `centers` bitset a center of the pattern in rc?"""
        while centers:
            low = centers & -centers
            centers ^= low
            mu = rc[low.bit_length() - 1]
            if mu.bit_count() >= min_deg and holds(rc, mu):
                return True
        return False

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
            everyone = (1 << n) - 1
            if not prune and (center_in(red, everyone) or center_in(blue, everyone)):
                return False
            g = snapshot()
            if collect is not None:
                collect.append(g)
                return False
            status = WITNESS_FOUND
            witness = g
            return True
        hi = 1 << v
        e = 0
        if break_symmetry:
            if v == 1:
                hi = 1  # color swap: edge {0,1} is color 1
            elif v >= 2 and (blue[0] >> (v - 1)) & 1:
                # vertex 0's colors are monotone: once color 2 appears, it stays
                e = 1 << (v - 1)
        # assign vector e: bit j of e gives edge {v-1-j, v}, set = color 2
        bit_v = 1 << v
        for i in range(v):
            rc = blue if (e >> (v - 1 - i)) & 1 else red
            rc[i] |= bit_v
            rc[v] |= 1 << i
        try:
            while True:
                nodes += 1
                if nodes >= max_nodes or (
                    nodes & 1023 == 0 and time.perf_counter() > deadline
                ):
                    status = BUDGET_EXCEEDED
                    return True
                # after adding vertex v only v and its neighbors gained
                # neighbors; v itself is tested first, in both colors, as
                # that is where a new pattern shows most often
                if not prune or not (
                    center_in(red, bit_v)
                    or center_in(blue, bit_v)
                    or center_in(red, red[v])
                    or center_in(blue, blue[v])
                ):
                    if dfs(v + 1):
                        return True
                nxt = e + 1
                if nxt >= hi:
                    return False
                # e -> e + 1 flips bits 0..L-1, the edges {i, v} for i in
                # v-L..v-1: one contiguous block of v's rows
                diff = e ^ nxt
                low = v - diff.bit_length()
                flip = diff << low
                red[v] ^= flip
                blue[v] ^= flip
                for i in range(low, v):
                    red[i] ^= bit_v
                    blue[i] ^= bit_v
                e = nxt
        finally:
            mask_v = ~bit_v
            for i in range(v):
                red[i] &= mask_v
                blue[i] &= mask_v
            red[v] = 0
            blue[v] = 0

    dfs(1)
    return SearchOutcome(
        status=status,
        witness=witness,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
    )


def all_pattern_free_colorings(
    n: int, p: SPattern, *, break_symmetry: bool = True
) -> list[ColoredCompleteGraph]:
    """Every pattern-free 2-coloring the search enumerates (test instrumentation)."""
    leaves: list[ColoredCompleteGraph] = []
    exhaustive_witness_search(
        n,
        p,
        SearchBudget(max_nodes=10**12, max_time=3600.0),
        break_symmetry=break_symmetry,
        collect=leaves,
    )
    return leaves


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
