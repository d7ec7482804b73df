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
as pendant leaves.  ``brute_force_contains_S`` re-decides containment by
explicit embedding enumeration and exists solely to cross-check the fast
detector; the equivalence is asserted by tests, not assumed.

Maximum matching on general graphs is computed with blossom contraction, so
odd components are handled exactly.  Threshold queries ("is there a matching
of size r?") use a greedy maximal matching plus a kernel: if the greedy stalls
below r, every edge meets one of its at most 2(r-1) endpoints, and keeping 2r
neighbors per endpoint preserves the existence of any r-matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

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
    def is_star(self) -> bool:
        return self.r == 0

    @property
    def is_fan(self) -> bool:
        return self.t == 2 * self.r + 1

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
    if n < 3:
        return None
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


# -- maximum matching ---------------------------------------------------------


def _blossom_mates(adj: list[int]) -> list[int]:
    """Maximum matching on a general graph given as bitset adjacency rows.

    Returns the mate array (-1 for unmatched).  Augmenting paths are found by
    BFS; odd cycles are contracted by remapping vertices to a common base.
    """
    n = len(adj)
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            cand = adj[v]
            while cand:
                u = lsb_index(cand)
                cand &= cand - 1
                if mate[u] == -1:
                    mate[v], mate[u] = u, v
                    break

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


def max_matching_size(
    vertices: Iterable[int], g: ColoredCompleteGraph, c: int
) -> int:
    """Size of a maximum matching in the c-colored subgraph induced on `vertices`."""
    vs = sorted(set(vertices))
    if any(v < 0 or v >= g.n for v in vs):
        raise ParameterError(f"vertices out of range 0..{g.n - 1}")
    if len(vs) < 2:
        return 0
    local = {v: i for i, v in enumerate(vs)}
    member_mask = 0
    for v in vs:
        member_mask |= 1 << v
    rows = g.rows(c)
    adj = []
    for v in vs:
        sel = rows[v] & member_mask
        m = 0
        while sel:
            w = lsb_index(sel)
            sel &= sel - 1
            m |= 1 << local[w]
        adj.append(m)
    mate = _blossom_mates(adj)
    return sum(1 for i, m in enumerate(mate) if m > i)


def matching_edges_at_least(
    row_of: Callable[[int], int], members: int, need: int
) -> Optional[list[tuple[int, int]]]:
    """`need` disjoint edges inside the vertex bitset `members`, or None.

    ``row_of(v)`` must give v's adjacency bitset.  A greedy maximal matching
    answers most queries; when it stalls below `need`, the kernel around its
    endpoints is solved exactly with the blossom algorithm.
    """
    if need <= 0:
        return []
    edges: list[tuple[int, int]] = []
    avail = members
    while avail:
        v = lsb_index(avail)
        avail &= avail - 1
        cand = row_of(v) & avail
        if cand:
            w = lsb_index(cand)
            avail &= ~(1 << w)
            edges.append((v, w))
            if len(edges) >= need:
                return edges
    # greedy matching is maximal here, so every edge meets one of its endpoints
    if 2 * len(edges) < need:
        return None
    kept = set()
    for e in edges:
        kept.update(e)
    for s in list(kept):
        nb = row_of(s) & members
        took = 0
        while nb and took < 2 * need:
            w = lsb_index(nb)
            nb &= nb - 1
            kept.add(w)
            took += 1
    vs = sorted(kept)
    local = {v: i for i, v in enumerate(vs)}
    kept_mask = 0
    for v in vs:
        kept_mask |= 1 << v
    adj = []
    for v in vs:
        sel = row_of(v) & kept_mask
        m = 0
        while sel:
            w = lsb_index(sel)
            sel &= sel - 1
            m |= 1 << local[w]
        adj.append(m)
    mate = _blossom_mates(adj)
    found = sorted((i, m) for i, m in enumerate(mate) if m > i)
    if len(found) < need:
        return None
    return [(vs[a], vs[b]) for a, b in found[:need]]


# -- pattern detectors ---------------------------------------------------------


def find_mono_S(
    g: ColoredCompleteGraph, c: int, p: SPattern
) -> Optional[SWitness]:
    """First witness of the pattern in color c, scanning centers in id order.

    Whether a center works depends only on its neighborhood bitset, so a
    neighborhood that failed the matching test is not tested again: in
    blow-ups, many vertices share their rows.
    """
    n = g.n
    t, r = p.t, p.r
    if n < t:
        return None
    rows = g.rows(c)
    row_of = rows.__getitem__
    failed: set[int] = set()
    for v in range(n):
        nb = rows[v]
        if nb.bit_count() < t - 1 or nb in failed:
            continue
        edges = matching_edges_at_least(row_of, nb, r)
        if edges is None:
            failed.add(nb)
            continue
        edges = sorted(tuple(sorted(e)) for e in edges)
        used = 0
        for a, b in edges:
            used |= (1 << a) | (1 << b)
        pendants = []
        rest = nb & ~used
        while len(pendants) < p.pendant_count:
            w = lsb_index(rest)
            rest &= rest - 1
            pendants.append(w)
        return SWitness(
            center=v,
            triangle_edges=tuple(edges),
            pendants=tuple(pendants),
            color=c,
        )
    return None


def find_mono_fan(g: ColoredCompleteGraph, c: int, m: int) -> Optional[SWitness]:
    """Fan of m triangles through one center; equals the (2m+1, m) pattern."""
    if m < 1:
        raise ParameterError(f"fan size must be >= 1, got {m}")
    return find_mono_S(g, c, SPattern(2 * m + 1, m))


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
