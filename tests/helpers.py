"""Shared builders for the test suite: seeded random graphs and slow re-checks."""

from __future__ import annotations

import random

from gallai_ramsey.colored_graph import ColoredCompleteGraph, lsb_index
from gallai_ramsey.gallai import GallaiPartition
from gallai_ramsey.patterns import RainbowTriangle, SPattern, SWitness, matching_edges_at_least


def random_graph(rng: random.Random, n: int, k: int) -> ColoredCompleteGraph:
    """Uniformly random edge coloring of K_n with colors 1..k."""
    npairs = n * (n - 1) // 2
    buf = bytes(rng.randint(1, k) for _ in range(npairs))
    return ColoredCompleteGraph(n, k, buf)


def has_rainbow_triangle_slow(g: ColoredCompleteGraph) -> tuple[int, int, int] | None:
    """Direct triple loop; first triple with three pairwise distinct edge colors."""
    for a in range(g.n):
        for b in range(a + 1, g.n):
            cab = g.color(a, b)
            for c in range(b + 1, g.n):
                cac, cbc = g.color(a, c), g.color(b, c)
                if cab != cac and cab != cbc and cac != cbc:
                    return (a, b, c)
    return None


def random_blowup(rng: random.Random, m: int, max_part: int, k: int) -> ColoredCompleteGraph:
    """Random m-vertex template coloring, each vertex blown up to a clique.

    Each template vertex becomes a clique of 1..max_part vertices in one
    random color; an edge between two cliques takes the template color, so
    the vertices of one clique share their rows in every other color.
    """
    template = random_graph(rng, m, k)
    part_of: list[int] = []
    for i in range(m):
        part_of += [i] * rng.randint(1, max_part)
    inner = [rng.randint(1, k) for _ in range(m)]
    buf = bytearray()
    for u in range(len(part_of)):
        for v in range(u + 1, len(part_of)):
            a, b = part_of[u], part_of[v]
            buf.append(inner[a] if a == b else template.color(a, b))
    return ColoredCompleteGraph(len(part_of), k, buf)


def rainbow_free_3colorings(n: int):
    """One representative per color-permutation class, rainbow-pruned.

    Colors are assigned to edges grouped by larger endpoint; restricted
    growth (a new color only after all smaller ones) kills permuted
    duplicates, and each triangle is checked at its closing edge.
    """
    pairs = [(i, j) for j in range(n) for i in range(j)]
    idx = {p: e for e, p in enumerate(pairs)}
    colors = [0] * len(pairs)
    out = []

    def rec(e: int, used: int) -> None:
        if e == len(pairs):
            g = ColoredCompleteGraph(n, 3)
            for ee, (i, j) in enumerate(pairs):
                g.set_color(i, j, colors[ee])
            out.append(g)
            return
        i, j = pairs[e]
        for c in range(1, min(3, used + 1) + 1):
            for a in range(i):
                c1, c2 = colors[idx[(a, i)]], colors[idx[(a, j)]]
                if c != c1 and c != c2 and c1 != c2:
                    break
            else:
                colors[e] = c
                rec(e + 1, max(used, c))
        colors[e] = 0

    rec(0, 0)
    return out


def random_parts_graph(
    rng: random.Random,
    max_part: int,
    min_total: int,
    k: int,
    between_color: int,
) -> ColoredCompleteGraph:
    """Random graph split into parts of order <= max_part, one color between parts.

    Internal part edges get arbitrary colors in 1..k; every edge between two
    different parts gets ``between_color``.  Total order lands in
    [min_total, min_total + 5].
    """
    sizes: list[int] = []
    target = min_total + rng.randint(0, 5)
    while sum(sizes) < target:
        sizes.append(rng.randint(1, max_part))
    n = sum(sizes)
    part_of: list[int] = []
    for i, s in enumerate(sizes):
        part_of += [i] * s
    buf = bytearray()
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] == part_of[v]:
                buf.append(rng.randint(1, k))
            else:
                buf.append(between_color)
    return ColoredCompleteGraph(n, k, buf)


def brute_max_matching(n: int, edges: list[tuple[int, int]]) -> int:
    """Exhaustive maximum matching by branching over the edge list."""
    best = 0

    def rec(start: int, used: int, depth: int) -> None:
        nonlocal best
        best = max(best, depth)
        for i in range(start, len(edges)):
            a, b = edges[i]
            if not (used >> a) & 1 and not (used >> b) & 1:
                rec(i + 1, used | 1 << a | 1 << b, depth + 1)

    rec(0, 0, 0)
    return best


def find_mono_S_reference(g: ColoredCompleteGraph, c: int, p: SPattern) -> SWitness | None:
    """``find_mono_S`` without its memo: every center of high enough degree
    runs the matching test."""
    t, r = p.t, p.r
    if g.n < t:
        return None
    rows = g.rows(c)
    for v in range(g.n):
        nb = rows[v]
        if nb.bit_count() < t - 1:
            continue
        edges = matching_edges_at_least(rows.__getitem__, nb, r)
        if edges is None:
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
        return SWitness(center=v, triangle_edges=tuple(edges), pendants=tuple(pendants), color=c)
    return None


def has_mono_triangle_slow(g: ColoredCompleteGraph, colors: set[int]) -> bool:
    """True iff some triangle is monochromatic in one of the given colors."""
    for a in range(g.n):
        for b in range(a + 1, g.n):
            cab = g.color(a, b)
            if cab not in colors:
                continue
            for c in range(b + 1, g.n):
                if g.color(a, c) == cab and g.color(b, c) == cab:
                    return True
    return False


def _uf_find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _relabel(parent: list[int], ids: list[int]) -> list[int]:
    """Map every id to its union-find root, renumbered by first appearance."""
    roots: dict[int, int] = {}
    out = []
    for x in ids:
        r = _uf_find(parent, x)
        out.append(roots.setdefault(r, len(roots)))
    return out


def _reference_candidate(g: ColoredCompleteGraph, cand: frozenset[int]):
    """Union-find over the edges colored outside ``cand``, then merge every part
    pair that sees two colors, by full edge scans, until none is left.

    Returns (part ids, pair colors), or None if everything collapses.
    """
    n = g.n
    parent = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if g.color(u, v) not in cand:
                ru, rv = _uf_find(parent, u), _uf_find(parent, v)
                if ru != rv:
                    parent[ru] = rv
    pid = _relabel(parent, list(range(n)))
    while max(pid) > 0:
        pair_color: dict[tuple[int, int], int] = {}
        conflicts = set()
        for u in range(n):
            for v in range(u + 1, n):
                pu, pv = pid[u], pid[v]
                if pu == pv:
                    continue
                key = (min(pu, pv), max(pu, pv))
                if pair_color.setdefault(key, g.color(u, v)) != g.color(u, v):
                    conflicts.add(key)
        if not conflicts:
            return pid, pair_color
        parent = list(range(max(pid) + 1))
        for a, b in conflicts:
            ra, rb = _uf_find(parent, a), _uf_find(parent, b)
            if ra != rb:
                parent[ra] = rb
        pid = _relabel(parent, pid)
    return None


def _reference_partition(pid: list[int], pair_color: dict) -> GallaiPartition:
    groups: dict[int, list[int]] = {}
    for v, p in enumerate(pid):
        groups.setdefault(p, []).append(v)
    order = sorted(groups, key=lambda p: groups[p][0])
    rank = {p: i for i, p in enumerate(order)}
    remapped = {
        (min(rank[a], rank[b]), max(rank[a], rank[b])): c for (a, b), c in pair_color.items()
    }
    return GallaiPartition(
        parts=tuple(tuple(groups[p]) for p in order),
        between_colors=frozenset(remapped.values()),
        part_pair_color=remapped,
    )


def gallai_partition_reference(g: ColoredCompleteGraph, coarsest: bool = False):
    """Slow reference for ``find_gallai_partition`` (``coarsest=False``) and
    ``coarsest_partition_over_pairs`` (``coarsest=True``).

    Same candidate order (used singletons ascending, then pairs in
    lexicographic order) and the same tie rules; no bitsets.  Without a
    partition it returns the lexicographically first rainbow triangle.
    """
    used = sorted({g.color(u, v) for u in range(g.n) for v in range(u + 1, g.n)})
    cands = [frozenset({c}) for c in used]
    cands += [frozenset({a, b}) for i, a in enumerate(used) for b in used[i + 1 :]]
    best = None
    for cand in cands:
        found = _reference_candidate(g, cand)
        if found is None:
            continue
        p = _reference_partition(*found)
        if not coarsest:
            return p
        if best is None or len(p.parts) < len(best.parts):
            best = p
    if best is None:
        a, b, c = has_rainbow_triangle_slow(g)
        return RainbowTriangle((a, b, c), (g.color(a, b), g.color(a, c), g.color(b, c)))
    if len(best.between_colors) == 1 and len(best.parts) > 2:
        (c,) = best.between_colors
        rest = tuple(sorted(v for part in best.parts[1:] for v in part))
        best = GallaiPartition(parts=(best.parts[0], rest), between_colors=best.between_colors,
                               part_pair_color={(0, 1): c})
    return best
