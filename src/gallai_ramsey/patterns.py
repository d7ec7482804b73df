"""Detectors for the target subgraphs: rainbow triangles and monochromatic
stars with extra independent leaf edges.

The pattern family here, written ``SPattern(t, r)``, is the graph on t
vertices built from the star K_{1,t-1} by adding r independent edges between
leaves; it has r triangles through the center and t-1-2r pendant edges.
r = 0 gives the plain star, t = 2r+1 gives the fan of r triangles.

Containment of the pattern inside one color class reduces to a degree plus
matching condition: color c contains the pattern iff some center v has at
least t-1 c-neighbors and the c-subgraph induced on those neighbors has a
matching of size r.  The reduction needs t-1 >= 2r (enforced by SPattern), so
any r-matching inside the neighborhood leaves enough spare neighbors to serve
as pendant leaves.  On a blow-up the detector tests template parts instead
of vertices, reading the colors inside each part from the shape ``blowup``
records: a part with no c-edge inside is a module whose members are
c-twins with no c-edge among them, so one test serves all its members, and
an r-matching meets it in at most r vertices, one per edge, any r of which
serve, so a neighborhood keeps only r of them, its kernel, for the test.
``brute_force_contains_S`` re-decides containment by
explicit embedding enumeration and exists solely to cross-check the fast
detector; the equivalence is asserted by tests, not assumed.

The matching test is one routine, ``disjoint_edges``, which the exhaustive
search shares.  It works on bitset rows indexed by vertex id and returns the
edges it finds.  A greedy maximal matching answers most calls; if it stalls
below r, every edge meets one of its at most 2(r-1) endpoints.  r = 2 then
has a linear test.  Other r branch on the kernel of those endpoints plus 2r
neighbors of each, which keeps some r-matching if one exists, and past a
step cap the blossom algorithm (odd cycles contracted) answers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    iter_bits,
    lsb_index,
)


@dataclass(frozen=True)
class SPattern:
    """Star on t vertices with r extra independent edges among the leaves."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ParameterError(f"pattern needs t >= 2, got t={self.t}")
        if self.r < 0:
            raise ParameterError(f"pattern needs r >= 0, got r={self.r}")
        if self.t - 1 < 2 * self.r:
            raise ParameterError(
                f"pattern needs t-1 >= 2r, got t={self.t}, r={self.r}"
            )

    @property
    def pendant_count(self) -> int:
        return self.t - 1 - 2 * self.r


@dataclass(frozen=True)
class SWitness:
    """Embedding certificate: center, r triangle edges, pendant leaves, color."""

    center: int
    triangle_edges: tuple[tuple[int, int], ...]
    pendants: tuple[int, ...]
    color: int

    def validate(self, g: ColoredCompleteGraph, p: SPattern) -> bool:
        """Re-check every edge of the embedding directly against g."""
        if len(self.triangle_edges) != p.r or len(self.pendants) != p.pendant_count:
            return False
        leaves = [v for e in self.triangle_edges for v in e] + list(self.pendants)
        if len(set(leaves)) != p.t - 1 or self.center in leaves:
            return False
        if any(g.color(self.center, x) != self.color for x in leaves):
            return False
        return all(g.color(a, b) == self.color for a, b in self.triangle_edges)


@dataclass(frozen=True)
class RainbowTriangle:
    """Three mutually adjacent vertices whose edges carry three distinct colors."""

    vertices: tuple[int, int, int]
    colors: tuple[int, int, int]

    def validate(self, g: ColoredCompleteGraph) -> bool:
        a, b, c = self.vertices
        if len({a, b, c}) != 3:
            return False
        found = (g.color(a, b), g.color(a, c), g.color(b, c))
        return found == self.colors and len(set(found)) == 3


# -- rainbow triangle scan ----------------------------------------------------


def scan_rainbow_triangle(g: ColoredCompleteGraph) -> Optional[RainbowTriangle]:
    """Lexicographically first triple with three distinct edge colors, if any.

    The direct O(n^2 k) scan behind ``gallai.find_rainbow_triangle``: that
    function calls it when the Gallai tree finds a set that does not split,
    and the tests use it as the oracle for the tree.

    For each pair (i, j) a third vertex l > j completes a rainbow triangle iff
    the colors at l differ from each other and from color(i, j); all three
    exclusions are evaluated as bitset operations over the per-color rows.
    """
    n, k = g.n, g.k
    rows = [None] + [g.rows(c) for c in range(1, k + 1)]
    for i in range(n - 2):
        row_i = [None] + [rows[c][i] for c in range(1, k + 1)]
        for dj, cij in enumerate(g.row_bytes(i)):
            j = i + 1 + dj
            same = 0
            for c in range(1, k + 1):
                same |= row_i[c] & rows[c][j]
            bad = same | row_i[cij] | rows[cij][j]
            cand = ~bad >> (j + 1)
            if cand:
                l = j + 1 + lsb_index(cand)
                if l < n:
                    return RainbowTriangle(
                        (i, j, l), (cij, g.color(i, l), g.color(j, l))
                    )
    return None


# -- disjoint edges -----------------------------------------------------------


def _blossom_mates(adj: list[int]) -> list[int]:
    """Maximum matching on a general graph given as bitset adjacency rows.

    Returns the mate array (-1 for unmatched).  Augmenting paths are found by
    BFS; odd cycles are contracted by remapping vertices to a common base.
    """
    n = len(adj)
    mate = [-1] * n

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stop: int, child: int) -> None:
        while base[v] != stop:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    for root in range(n):
        if mate[root] != -1:
            continue
        parent = [-1] * n
        base = list(range(n))
        queued = [False] * n
        queued[root] = True
        queue = [root]
        qi = 0
        finish = -1
        while qi < len(queue) and finish == -1:
            v = queue[qi]
            qi += 1
            nbrs = adj[v]
            while nbrs:
                to = lsb_index(nbrs)
                nbrs &= nbrs - 1
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    stop = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, stop, to)
                    mark_path(to, stop, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = stop
                            if not queued[i]:
                                queued[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        finish = to
                        break
                    queued[mate[to]] = True
                    queue.append(mate[to])
        v = finish
        while v != -1:
            pv = parent[v]
            nxt = mate[pv]
            mate[v] = pv
            mate[pv] = v
            v = nxt
    return mate


def _two_edges(rows: list[int], members: int) -> Optional[tuple[int, int]]:
    """``disjoint_edges(rows, members, 2)`` without the size check.

    A greedy maximal matching either finds two edges, or stalls at one edge
    ab; then every edge meets a or b, and two disjoint ones exist iff a and b
    have distinct further neighbors.
    """
    avail = members
    while avail:
        a = avail & -avail
        avail ^= a
        cand = rows[a.bit_length() - 1] & avail
        if cand:
            b = cand & -cand
            avail ^= b
            break
    else:
        return None
    while avail:
        low = avail & -avail
        avail ^= low
        cand = rows[low.bit_length() - 1] & avail
        if cand:
            return a | b, low | cand & -cand
    na = rows[a.bit_length() - 1] & members ^ b
    nb = rows[b.bit_length() - 1] & members ^ a
    if not na or not nb:
        return None
    x = na & -na
    y = nb & ~x
    if y:
        return a | x, b | (y & -y)
    x2 = na ^ x  # b's only further neighbor is x, so a needs another one
    return (a | (x2 & -x2), b | x) if x2 else None


def disjoint_edges(
    rows: list[int], members: int, need: int
) -> Optional[tuple[int, ...]]:
    """`need` disjoint edges inside the vertex bitset `members`, or None.

    ``rows[u]`` is u's adjacency bitset, indexed by vertex id; each edge is
    returned as the bitset of its two ends, and need <= 0 gives ``()``.  A
    greedy maximal matching answers most calls.  When it stalls below `need`,
    every edge meets one of its endpoints: need=2 then has a linear test, and
    other thresholds branch on the kernel of those endpoints plus at most
    2*need neighbors of each, which keeps some `need`-matching if one exists.
    With v the lowest vertex left, nu(M) >= k iff nu(M - v) >= k or
    nu(M - v - w) >= k - 1 for some neighbor w of v in M.  That branching is
    exponential in the worst case (K_{k-1, m}), so after |kernel|^2 steps the
    blossom algorithm answers instead.
    """
    if need <= 0:
        return ()
    if members.bit_count() < 2 * need:
        return None
    if need == 2:
        return _two_edges(rows, members)
    edges = []
    avail = members
    while avail:
        low = avail & -avail
        avail ^= low
        cand = rows[low.bit_length() - 1] & avail
        if cand:
            w = cand & -cand
            avail ^= w
            edges.append(low | w)
            if len(edges) == need:
                return tuple(edges)
    if 2 * len(edges) < need:
        return None
    kernel = ends = sum(edges)
    for s in iter_bits(ends):
        nb = rows[s] & members
        for _ in range(2 * need):
            low = nb & -nb
            kernel |= low
            nb ^= low
    steps = kernel.bit_count() ** 2

    def branch(m: int, k: int) -> Optional[tuple[int, ...]]:
        nonlocal steps
        while steps > 0:
            steps -= 1
            low = m & -m
            m ^= low
            nb = rows[low.bit_length() - 1] & m
            if nb:
                if k == 1:
                    return (low | nb & -nb,)
                while nb:
                    w = nb & -nb
                    nb ^= w
                    found = branch(m ^ w, k - 1)
                    if found:
                        return found + (low | w,)
            if m.bit_count() < 2 * k:
                return None
        return None

    found = branch(kernel, need)
    if found or steps > 0:
        return found
    # past the cap: blossom on the kernel, relabeled to ids 0..|kernel|-1
    vs = list(iter_bits(kernel))
    local = {v: i for i, v in enumerate(vs)}
    adj = []
    for v in vs:
        m = 0
        for w in iter_bits(rows[v] & kernel):
            m |= 1 << local[w]
        adj.append(m)
    mates = _blossom_mates(adj)
    edges = tuple(1 << vs[i] | 1 << vs[j] for i, j in enumerate(mates) if j > i)
    return edges[:need] if len(edges) >= need else None


# -- pattern detectors ---------------------------------------------------------


def find_mono_S(
    g: ColoredCompleteGraph, c: int, p: SPattern
) -> Optional[SWitness]:
    """First witness of the pattern in color c, scanning centers in id order.

    Walks g's template parts in id order; a graph with no shape is one leaf
    block.  A part with no c-edge inside is a module of c-twins: it takes one
    test, at its first vertex, and is not entered.  Joined to a center in c,
    such a part meets an r-matching in at most r vertices, any r of its own,
    so the matching test keeps only its first min(r, size) vertices, its
    kernel.  A leaf block with a c-edge inside tests each member on its row in
    the block plus those kernels; a member set that failed is not retested.
    The witness comes from the first center's full neighborhood.
    """
    n = g.n
    t, r = p.t, p.r
    if n < t:
        return None
    rows = g.rows(c)
    bit = 1 << c
    failed: set[int] = set()
    best = n  # the first center found so far
    pending = {0: 0}  # the kernels a part to be entered inherits, by its first vertex
    for node in g._nodes():
        if node[0][0] >= best:
            break
        above = pending.pop(node[0][0], None)
        if above is None:
            continue  # inside a part tested as a whole
        kernels = [(1 << e) - (1 << a) if inside & bit else (1 << min(r, e - a)) - 1 << a
                   for a, e, _, inside in node]
        for a, e, leaf, inside in node:
            if a >= best:
                break
            members, row = above, rows[a]
            for (b, _, _, _), kernel in zip(node, kernels):
                if row >> b & 1:  # the part at b is joined to this one in c
                    members |= kernel
            if inside & bit and not leaf:
                pending[a] = members
                continue
            block = (1 << e) - (1 << a)
            shrunk = (row & ~block) != members  # some joined part is cut to its kernel
            for v in range(a, e) if inside & bit else (a,):
                nb = rows[v]
                if nb.bit_count() < t - 1:
                    continue
                m = nb & block | members if shrunk else nb
                if m in failed:
                    continue
                if disjoint_edges(rows, m, r) is None:
                    failed.add(m)
                else:
                    best = v
                    break
    if best == n:
        return None
    nb = rows[best]
    edges = disjoint_edges(rows, nb, r)
    rest = nb & ~sum(edges)  # the edges are disjoint, so their sum is their union
    return SWitness(
        center=best,
        triangle_edges=tuple(sorted((lsb_index(e), e.bit_length() - 1) for e in edges)),
        pendants=tuple(islice(iter_bits(rest), p.pendant_count)),
        color=c,
    )


def brute_force_contains_S(g: ColoredCompleteGraph, c: int, p: SPattern) -> bool:
    """Oracle: explicit embedding enumeration; guarded to n <= 12.

    Enumerates centers, then (t-1)-subsets of the center's c-neighborhood,
    then r disjoint c-edges inside the subset.  Deliberately naive; used to
    validate ``find_mono_S``.
    """
    if g.n > 12:
        raise ParameterError(f"oracle restricted to n <= 12, got n={g.n}")
    t, r = p.t, p.r
    for v in range(g.n):
        members = [w for w in range(g.n) if w != v and g.color(v, w) == c]
        if len(members) < t - 1:
            continue
        for subset in combinations(members, t - 1):
            cedges = [
                (a, b)
                for a, b in combinations(subset, 2)
                if g.color(a, b) == c
            ]
            if _has_disjoint_edges(cedges, r):
                return True
    return False


def _has_disjoint_edges(edges: list[tuple[int, int]], need: int) -> bool:
    if need == 0:
        return True
    if len(edges) < need:
        return False

    def rec(start: int, used: frozenset[int], depth: int) -> bool:
        if depth == need:
            return True
        for i in range(start, len(edges)):
            a, b = edges[i]
            if a not in used and b not in used:
                if rec(i + 1, used | {a, b}, depth + 1):
                    return True
        return False

    return rec(0, frozenset(), 0)
