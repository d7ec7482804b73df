"""Gallai partitions and trees: extraction, verification, reduced graphs and
rainbow-freeness certificates.

Every edge coloring of a complete graph without a rainbow triangle admits a
nontrivial vertex partition in which at most two colors appear between parts
and every pair of parts is joined monochromatically.  ``find_gallai_partition``
computes one such partition; when the input does contain a rainbow triangle,
it returns that triangle as a structured failure instead.

The extraction strategy: for each candidate set C of at most two colors, the
edges colored outside C are forced inside parts, so the connected components
of those edges form the finest possible partition with between-colors inside
C.  They are found by a bitset search over the per-color rows: a vertex's
outside-C neighbors are the vertices in none of its C rows.  The search aims
at the smallest vertex not yet reached and expands a reached vertex joined
to it, so a candidate whose first component is the whole vertex set, where
it stops, is rejected in a few expansions.  Parts are then merged to a
fixpoint.  For a part P and a color c in C, the agreement mask A_c(P) is the
AND of the c-rows of P's members: the vertices that see all of P in color c.
A vertex outside P and outside every A_c(P) sees P in two colors, so its
part and P must merge; a merged part's masks are the ANDs of its pieces'
masks.  A candidate succeeds when at least two parts survive.

The fixpoint does not depend on the order of merges.  A partition has every
part pair monochromatic exactly when every part is a module (each outside
vertex sees the part in one color), and the intersection of two modules is
a module, so among the coarsenings of the component partition with every
pair monochromatic there is a unique finest one.  By induction, every merge
joins two parts that lie in one part of each such coarsening: if x in part Q
sees part P in two colors, the coarsening's part holding P must hold x, so
it holds all of Q.  So merging never passes that finest coarsening, and it
stops exactly at it.  If a valid partition
with between-colors inside C exists at all, it is such a coarsening, so the
fixpoint is nontrivial; candidates cover all singletons and pairs of used
colors, which suffices for every rainbow-free coloring.

The engine works on a vertex set S given as a bitset: components, agreement
masks and merges only see members of S, so it partitions the coloring
induced on S.  ``find_gallai_partition`` and ``coarsest_partition_over_pairs``
run it on the whole vertex set.  ``find_rainbow_triangle`` runs it
recursively and builds the Gallai tree: by Gallai's theorem a coloring has
no rainbow triangle exactly when every vertex set with at least 3 vertices
and at least 3 colors inside splits into parts joined monochromatically in
at most 2 colors.  A triangle across three parts then sees at most 2
colors, and one with two vertices in a part sees the third vertex in one
color, so each split leaves only the triangles inside its parts to check.
A set that does not split holds a rainbow triangle, and the direct scan
``patterns.scan_rainbow_triangle`` of the whole graph then names the
lexicographically first one, so the result equals the scan's on every input.

A graph made by ``blowup`` already records the top of its tree in its shape,
so its tree starts there instead of at the whole vertex set.  ``blowup``
keeps a shape only over templates with at most 2 colors, so every template
node is a Gallai split: a triangle across three parts sees at most 2
colors, one with two vertices in a part repeats a color, and one inside a
part lies in that part's subtree.  So only the leaf blocks need checking,
and by the tree's own leaf rule only those with 3 or more colors inside: the
shape records each block's colors, and a block is seeded with exactly those.
A sample, whose leaf blocks are single vertices with no color inside, is
certified without building any rows.

A ``GallaiPartition`` holds its parts and its reduced graph, the plain
colored graph on the parts, read at the parts' smallest vertices.  It is
built once, for the partition returned: ``coarsest_partition_over_pairs``
reads its one-color case off those vertices' rows and merges the parts
before the reduced graph is built.
``verify_gallai_partition`` returns its problems as text, empty when it is
valid, and ``reduced_graph`` hands out the reduced graph once that check
passes.  The module returns data only; ``cli`` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Union

from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    iter_bits,
    lsb_index,
)
from gallai_ramsey.patterns import RainbowTriangle, scan_rainbow_triangle


@dataclass
class GallaiPartition:
    """Nontrivial partition with monochromatic part pairs in at most 2 colors."""

    parts: tuple[tuple[int, ...], ...]
    reduced: ColoredCompleteGraph  # vertex i is part i, each pair in the color joining them


def _components(inside: list[list[int]], S: int) -> Optional[list[int]]:
    """Components inside the vertex set ``S`` of the edges colored outside the
    candidate, as bitsets, in order of their smallest vertex.

    ``inside`` holds the rows of the candidate colors: a vertex's neighbors
    outside the candidate are the members of S in none of its candidate rows.
    While two or more reached vertices wait, it expands one joined to the aim,
    the smallest vertex not reached, else the smallest waiting one; the aim's
    rows are read again only once the aim is reached.  A component closes when
    none waits or it holds every vertex left; None if the first holds all of S.
    """
    comps: list[int] = []
    left = S
    while left:
        aim = comp = pending = left & -left  # an aim already reached is replaced first
        while pending and comp != left:
            u = pending & -pending
            if u != pending:
                if aim & comp:
                    aim = left & ~comp
                    aim &= -aim
                    joined = left
                    for rows in inside:
                        joined &= ~rows[aim.bit_length() - 1]
                near = pending & joined
                if near:
                    u = near & -near
            seen = comp
            for rows in inside:
                seen |= rows[u.bit_length() - 1]
            reach = left & ~seen
            comp |= reach
            pending ^= u | reach
        if comp == S:
            return None
        comps.append(comp)
        left ^= comp
    return comps


def _agreement(rows: list[int], part: int, S: int) -> int:
    """Members of ``S`` joined to every member of ``part`` in the color of ``rows``."""
    common = S
    while part:
        common &= rows[(part & -part).bit_length() - 1]
        part &= part - 1
    return common


def _coarsen(parts: list[int], inside: list[list[int]], S: int) -> Optional[list[int]]:
    """Merge parts until every part pair is monochromatic; None if one part is left.

    Every edge between two parts has a candidate color, so a vertex outside a
    part that lies in none of the part's agreement masks (one per candidate
    color) sees the part in two colors, and the part holding that vertex must
    merge with it.  If instead every vertex of Q sees P in one color but not
    all in the same one, each vertex of P sees Q in two colors, so scanning
    every part finds every pair that is not monochromatic.  ``parts`` must
    partition the vertex set ``S``.
    """
    agree = [[_agreement(rows, part, S) for rows in inside] for part in parts]
    owner = [0] * S.bit_length()
    for i, part in enumerate(parts):
        for u in iter_bits(part):
            owner[u] = i
    left = len(parts)
    todo = list(range(len(parts)))
    while todo:
        i = todo.pop()
        if not parts[i]:
            continue  # absorbed since it was queued
        seen = parts[i]
        for mask in agree[i]:
            seen |= mask
        bad = S ^ seen
        if not bad:
            continue  # clean, and stays clean unless it merges
        while bad:
            j = owner[lsb_index(bad)]
            bad &= ~parts[j]
            if parts[j].bit_count() > parts[i].bit_count():
                i, j = j, i  # relabel the smaller part
            for u in iter_bits(parts[j]):
                owner[u] = i
            parts[i] |= parts[j]
            agree[i] = [a & b for a, b in zip(agree[i], agree[j])]
            parts[j] = 0
            left -= 1
        if left == 1:
            return None
        todo.append(i)
    return [part for part in parts if part]


def _build_partition(g: ColoredCompleteGraph, parts: list[int]) -> GallaiPartition:
    """Parts sorted by smallest vertex, with their reduced graph read at those vertices."""
    parts = sorted(parts, key=lsb_index)
    reps = [lsb_index(part) for part in parts]
    table = bytearray()
    for i, a in enumerate(reps):
        # reps ascend, so every pair (i, j) reads the table row of reps[i]
        row = g.row_bytes(a)
        table += bytes(row[b - a - 1] for b in reps[i + 1 :])
    return GallaiPartition(
        parts=tuple(tuple(iter_bits(part)) for part in parts),
        reduced=ColoredCompleteGraph._owning(len(reps), g.k, table),
    )


def _splits(g: ColoredCompleteGraph, S: int, used: list[int]) -> Iterator[list[int]]:
    """Parts of every candidate over the colors ``used`` that splits ``S``.

    Candidates are tried deterministically: singleton color sets in ascending
    order, then pairs in lexicographic order.
    """
    for cand in (*combinations(used, 1), *combinations(used, 2)):
        inside = [g.rows(c) for c in cand]
        parts = _components(inside, S)
        if parts is not None:
            parts = _coarsen(parts, inside, S)
        if parts is not None:
            yield parts


def _partitions(g: ColoredCompleteGraph) -> Iterator[list[int]]:
    """The parts of every candidate that splits the whole vertex set, in candidate order."""
    if g.n < 2:
        raise ParameterError(f"partition needs n >= 2, got n={g.n}")
    return _splits(g, (1 << g.n) - 1, g.used_colors())


def _colors_inside(g: ColoredCompleteGraph, S: int, colors: Iterable[int]) -> list[int]:
    """The colors among ``colors``, in their order, of the edges with both ends in ``S``."""
    used = []
    for c in colors:
        rows, rest = g.rows(c), S
        while rest and not rows[(rest & -rest).bit_length() - 1] & S:
            rest &= rest - 1
        if rest:
            used.append(c)
    return used


def find_rainbow_triangle(g: ColoredCompleteGraph) -> Optional[RainbowTriangle]:
    """Lexicographically first rainbow triangle, or None if there is none.

    Builds the Gallai tree of g: a vertex set is a leaf when it has fewer
    than 3 vertices or its edges use at most 2 colors, and is otherwise split
    by the first candidate whose fixpoint keeps at least two parts.  A part's
    colors are among its parent's, so only those are tested for it.  If every
    vertex set splits down to leaves, g has no rainbow triangle.  A set that
    does not split holds one (Gallai's theorem), and the direct scan of the
    whole graph then names the lexicographically first.

    A blow-up's tree starts from its shape, whose template nodes all use at
    most 2 colors between their parts, so only its leaf blocks with 3 or more
    colors inside are sets of their own, each with the colors the shape
    records for it.  A graph with no shape is one leaf block with the colors
    of its table, so its tree starts from the whole vertex set.
    """
    stack = [((1 << e) - (1 << a), list(iter_bits(inside))) for node in g._nodes()
             for a, e, leaf, inside in node if leaf and inside.bit_count() > 2]
    while stack:
        S, used = stack.pop()
        parts = next(_splits(g, S, used), None)
        if parts is None:
            return scan_rainbow_triangle(g)
        for part in parts:
            if part.bit_count() > 2:  # fewer vertices hold at most 1 color
                colors = _colors_inside(g, part, used)
                if len(colors) > 2:
                    stack.append((part, colors))
    return None


def _obstruction(g: ColoredCompleteGraph) -> RainbowTriangle:
    # no candidate split the whole vertex set, which is the Gallai tree's
    # root test, so the tree would only repeat it before this same scan
    tri = scan_rainbow_triangle(g)
    if tri is None:
        raise AssertionError("no partition and no rainbow triangle; unreachable")
    return tri


def find_gallai_partition(
    g: ColoredCompleteGraph,
) -> Union[GallaiPartition, RainbowTriangle]:
    """A nontrivial Gallai partition, or the rainbow triangle obstructing one.

    The first candidate color set, in the order of ``_partitions``, whose
    merge fixpoint keeps at least two parts wins.
    """
    parts = next(_partitions(g), None)
    return _obstruction(g) if parts is None else _build_partition(g, parts)


def coarsest_partition_over_pairs(
    g: ColoredCompleteGraph,
) -> Union[GallaiPartition, RainbowTriangle]:
    """Valid result with the fewest parts among all candidate color sets.

    This is a heuristic minimizer: it examines the same candidates as
    ``find_gallai_partition`` and keeps the first fixpoint with the fewest
    parts.  When the winner uses a single between color and still has more
    than two parts, any bipartition of its parts is also valid, so the result
    is coarsened to two parts (first part versus the rest) to make "fewest"
    sharp in that case.
    """
    best: Optional[list[int]] = None
    for parts in _partitions(g):
        if best is None or len(parts) < len(best):
            best = parts
        if len(best) == 2:
            break  # no later candidate can have fewer parts
    if best is None:
        return _obstruction(g)
    best.sort(key=lsb_index)
    reps = [lsb_index(part) for part in best]
    mask = sum(1 << u for u in reps)
    rows = g.rows(g.color(reps[0], reps[1]))
    if len(best) > 2 and all(mask & ~rows[u] == 1 << u for u in reps):
        best = [best[0], sum(best[1:])]  # one between color: the first part against the rest
    return _build_partition(g, best)


def verify_gallai_partition(g: ColoredCompleteGraph, p: GallaiPartition) -> tuple[str, ...]:
    """The partition's problems, empty when it is valid.

    Parts that do not partition the vertex set, or a reduced graph not on
    the parts in g's colors, raise ``ParameterError``.  Each part pair is
    tested on the rows of its reduced color: a member u of part i sees part j
    in that color alone iff part j's mask lies inside u's row.  The first
    violation of a pair is the first (u, v) in the parts' own tuple order.
    """
    seen: set[int] = set()
    for part in p.parts:
        if not part:
            raise ParameterError("empty part")
        for v in part:
            if v in seen:
                raise ParameterError(f"vertex {v} appears in two parts")
            seen.add(v)
    if seen != set(range(g.n)):
        raise ParameterError("parts do not cover the vertex set exactly")
    m, red = len(p.parts), p.reduced
    if (red.n, red.k) != (m, g.k):
        raise ParameterError(f"reduced graph has n={red.n} k={red.k}, expected n={m} k={g.k}")

    problems: list[str] = []
    if m < 2:
        problems.append("partition is trivial (fewer than 2 parts)")
    colors = red.used_colors()
    if len(colors) > 2:
        problems.append(f"{len(colors)} between-part colors, at most 2 allowed")
    rows = {c: g.rows(c) for c in colors}
    masks = [sum(1 << v for v in part) for part in p.parts]
    for i in range(m):
        for j, recorded in enumerate(red.row_bytes(i), i + 1):
            for u in p.parts[i]:
                bad = masks[j] & ~rows[recorded][u]
                if bad:
                    # name the first such v in part j's own order
                    v = next(v for v in p.parts[j] if bad >> v & 1)
                    problems.append(
                        f"edge ({u}, {v}) has color {g.color(u, v)}, part pair ({i}, {j}) "
                        f"is recorded as color {recorded}"
                    )
                    break
    return tuple(problems)


def reduced_graph(g: ColoredCompleteGraph, p: GallaiPartition) -> ColoredCompleteGraph:
    """The partition's reduced graph, once the partition is checked.

    Vertex i stands for part i, whose smallest vertex is its representative.
    A partition that fails ``verify_gallai_partition`` raises
    ``ParameterError`` with its first problem.
    """
    problems = verify_gallai_partition(g, p)
    if problems:
        raise ParameterError(problems[0])
    return p.reduced
