"""Shared builders for the test suite: seeded random graphs and slow re-checks."""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import Optional

from gallai_ramsey.colored_graph import (
    MAX_ORDER,
    ColoredCompleteGraph,
    GraphParseError,
    ParameterError,
    blowup,
    lsb_index,
)
from gallai_ramsey.gallai import GallaiPartition
from gallai_ramsey.patterns import (
    RainbowTriangle,
    SPattern,
    SWitness,
    _blossom_mates,
    _two_edges,
    disjoint_edges,
)
from gallai_ramsey.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED_NONE,
    WITNESS_FOUND,
    SearchBudget,
    SearchOutcome,
    exhaustive_witness_search,
)


def random_graph(rng: random.Random, n: int, k: int) -> ColoredCompleteGraph:
    """Uniformly random edge coloring of K_n with colors 1..k."""
    npairs = n * (n - 1) // 2
    buf = bytes(rng.randint(1, k) for _ in range(npairs))
    return ColoredCompleteGraph(n, k, buf)


def table_copy(g: ColoredCompleteGraph) -> ColoredCompleteGraph:
    """A graph with g's colors and no shape, as if read from a file: its rows
    are transposed from the table and its Gallai tree starts from the whole
    vertex set."""
    return ColoredCompleteGraph(g.n, g.k, b"".join(g.row_bytes(u) for u in range(g.n)))


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


def random_nested_blowup(rng: random.Random, k: int, depth: int) -> ColoredCompleteGraph:
    """A blow-up of random templates whose parts repeat a few objects, some of
    them with rows built, nested up to ``depth`` levels over random leaf blocks."""
    if depth == 0:
        return random_graph(rng, rng.randint(1, 4), k)
    pool = [random_nested_blowup(rng, k, rng.randrange(depth)) for _ in range(rng.randint(1, 3))]
    for part in pool:
        if rng.random() < 0.3:
            part.rows(1)
    template = random_graph(rng, rng.randint(1, 4), k)
    return blowup(template, [rng.choice(pool) for _ in range(template.n)])


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
            table = bytes(colors[idx[(i, j)]] for i in range(n) for j in range(i + 1, n))
            out.append(ColoredCompleteGraph(n, 3, table))
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


def check_disjoint_edges(rows: list[int], members: int, need: int, edges: tuple[int, ...]) -> None:
    """Re-validate an answer of ``disjoint_edges``: `need` edges (none for
    need <= 0), pairwise disjoint, inside `members` and edges of `rows`."""
    assert len(edges) == max(need, 0)
    used = 0
    for e in edges:
        assert e.bit_count() == 2 and e & members == e and not e & used
        assert rows[lsb_index(e)] >> (e.bit_length() - 1) & 1
        used |= e


def blossom_nu(rows: list[int], members: int) -> int:
    """Maximum matching size inside `members` by the blossom algorithm on rows
    indexed by vertex id, with no kernel and no relabeling."""
    mates = _blossom_mates(
        [rows[u] & members if members >> u & 1 else 0 for u in range(members.bit_length())]
    )
    return sum(1 for u, w in enumerate(mates) if w > u)


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
        edges = disjoint_edges(rows, nb, r)
        if edges is None:
            continue
        check_disjoint_edges(rows, nb, r, edges)
        used = 0
        for e in edges:
            used |= e
        pendants = []
        rest = nb & ~used
        while len(pendants) < p.pendant_count:
            w = lsb_index(rest)
            rest &= rest - 1
            pendants.append(w)
        triangle_edges = tuple(sorted((lsb_index(e), e.bit_length() - 1) for e in edges))
        return SWitness(center=v, triangle_edges=triangle_edges, pendants=tuple(pendants), color=c)
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


def components_reference(
    g: ColoredCompleteGraph, members: list[int], cand: frozenset[int]
) -> list[list[int]]:
    """Union-find over the edges inside ``members`` colored outside ``cand``:
    the components, each ascending, in order of their smallest vertex."""
    parent = list(range(g.n))
    for u, v in combinations(members, 2):
        if g.color(u, v) not in cand:
            ru, rv = _uf_find(parent, u), _uf_find(parent, v)
            if ru != rv:
                parent[ru] = rv
    comps: dict[int, list[int]] = {}
    for v in sorted(members):
        comps.setdefault(_uf_find(parent, v), []).append(v)
    return list(comps.values())


def _reference_candidate(g: ColoredCompleteGraph, cand: frozenset[int]):
    """Union-find over the edges colored outside ``cand``, then merge every part
    pair that sees two colors, by full edge scans, until none is left.

    Returns (part ids, pair colors), or None if everything collapses.
    """
    n = g.n
    pid = [0] * n
    for i, comp in enumerate(components_reference(g, list(range(n)), cand)):
        for v in comp:
            pid[v] = i
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


def _reference_partition(pid: list[int], pair_color: dict, k: int) -> GallaiPartition:
    groups: dict[int, list[int]] = {}
    for v, p in enumerate(pid):
        groups.setdefault(p, []).append(v)
    order = sorted(groups, key=lambda p: groups[p][0])
    rank = {p: i for i, p in enumerate(order)}
    remapped = {
        (min(rank[a], rank[b]), max(rank[a], rank[b])): c for (a, b), c in pair_color.items()
    }
    m = len(order)
    table = bytes(remapped[(i, j)] for i in range(m) for j in range(i + 1, m))
    return GallaiPartition(
        parts=tuple(tuple(groups[p]) for p in order),
        reduced=ColoredCompleteGraph(m, k, table),
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
        p = _reference_partition(*found, g.k)
        if not coarsest:
            return p
        if best is None or len(p.parts) < len(best.parts):
            best = p
    if best is None:
        a, b, c = has_rainbow_triangle_slow(g)
        return RainbowTriangle((a, b, c), (g.color(a, b), g.color(a, c), g.color(b, c)))
    colors = {best.reduced.color(i, j) for i, j in combinations(range(len(best.parts)), 2)}
    if len(colors) == 1 and len(best.parts) > 2:
        (c,) = colors
        rest = tuple(sorted(v for part in best.parts[1:] for v in part))
        best = GallaiPartition(parts=(best.parts[0], rest),
                               reduced=ColoredCompleteGraph(2, g.k, bytes([c])))
    return best


def verify_gallai_partition_reference(g: ColoredCompleteGraph, p: GallaiPartition) -> tuple[str, ...]:
    """The edge-by-edge ``verify_gallai_partition`` that the row-based one
    must agree with: same exceptions and problems, each naming the same edge."""
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
    if red.n != m or red.k != g.k:
        raise ParameterError(
            f"reduced graph has n={red.n} k={red.k}, expected n={m} k={g.k}"
        )

    problems: list[str] = []
    if m < 2:
        problems.append("partition is trivial (fewer than 2 parts)")
    colors = {red.color(i, j) for i, j in combinations(range(m), 2)}
    if len(colors) > 2:
        problems.append(f"{len(colors)} between-part colors, at most 2 allowed")
    for i in range(m):
        for j in range(i + 1, m):
            recorded = red.color(i, j)
            for u in p.parts[i]:
                for v in p.parts[j]:
                    c = g.color(u, v)
                    if c != recorded:
                        problems.append(
                            f"edge ({u}, {v}) has color {c}, part pair ({i}, {j}) "
                            f"is recorded as color {recorded}"
                        )
                        break
                else:
                    continue
                break
    return tuple(problems)


def faulty_graph_file(rng: random.Random) -> bytes:
    """A small graph file, canonical or with 1..4 faults of the malformed-input model.

    A random coloring (n in 1..12, k one of 1, 2, 8, 9, 10, 12, 255) is
    written field by field.  Line faults come first: a field replaced by a
    non-canonical or out-of-range one (``01``, ``+1``, an empty field that
    leaves two spaces, 0, k+1, 10, 256), a dropped or duplicated line, a bad
    header.  Byte faults follow: a deleted, inserted or overwritten byte
    (non-ASCII among them), CRLF or lone CR line ends, a lost trailing newline.
    """
    n, k = rng.randint(1, 12), rng.choice((1, 2, 8, 9, 10, 12, 255))
    lines = [f"{n} {k}".encode()]
    for u in range(n - 1):
        lines.append(" ".join(str(rng.randint(1, k)) for _ in range(n - u - 1)).encode())
    faults = sorted(rng.randrange(9) for _ in range(rng.choice((0, 0, 1, 2, 3, 4))))
    for fault in faults:
        if not lines:
            break
        i = rng.randrange(len(lines))
        if fault == 0 and i > 0:
            fields = lines[i].split(b" ")
            bad = (b"01", b"+1", b"", b"0", str(k + 1).encode(), b"10", b"256")
            fields[rng.randrange(len(fields))] = rng.choice(bad)
            lines[i] = b" ".join(fields)
        elif fault == 1:
            del lines[i]
        elif fault == 2:
            lines.insert(i, lines[i])
        elif fault == 3:
            heads = ("x y", "3", "0 2", f"{n} 0", f"{n} 300", f"{n}  {k}", f"{n} {k} 1",
                     f"{n + 1} {k}", f"{MAX_ORDER + 1} {k}", f"20000 {k}", f"{MAX_ORDER} {k}")
            lines[0:1] = [rng.choice(heads).encode()]
    data = b"\n".join(lines) + b"\n"
    for fault in faults:
        at = rng.randrange(len(data) + 1)
        if fault == 4 and data:
            data = data[:at] + data[at + 1 :]
        elif fault == 5:
            # an inserted byte, or one that overwrites the byte at ``at``
            byte = bytes([rng.choice(b"0129 \n\r+x\x80\xff")])
            data = data[:at] + byte + data[at + rng.randint(0, 1) :]
        elif fault == 6:
            data = data.replace(b"\n", rng.choice((b"\r\n", b"\r")))
        elif fault == 7:
            j = data.find(b"\n", at)
            if j >= 0:
                data = data[:j] + b"\r" + data[j + 1 :]
        elif fault == 8:
            data = data.rstrip(b"\n")
    return data


def write_graph_reference(g: ColoredCompleteGraph, path: str) -> None:
    """The field-by-field graph-file writer that ``write_graph`` must match byte for byte.

    Line 1 is ``n k``; line i+1 (for i = 1..n-1) holds the colors of edges
    {i-1, j} for j = i..n-1 in decimal, space-separated; every line ends in
    a newline.
    """
    with open(path, "wb") as fh:
        fh.write(f"{g.n} {g.k}\n".encode())
        for u in range(g.n - 1):
            fh.write((" ".join(map(str, g.row_bytes(u))) + "\n").encode())


def read_graph_reference(path: str) -> ColoredCompleteGraph:
    """The per-field graph-file reader that ``read_graph`` must agree with.

    Kept unchanged as the reference for its block and lookup paths: every
    file gives the same graph or the same exception type and message, except a
    header with an order above ``MAX_ORDER``, which ``read_graph`` refuses
    at line 1 before reading the rest.

    Format: line 1 is ``n k``; line i+1 (for i = 1..n-1) holds the colors of
    edges {i-1, j} for j = i..n-1, space-separated.  A trailing newline is
    required.  Malformed input raises ``GraphParseError`` naming the line.

    The file is read twice, line by line: a first pass counts the lines, so
    the whole text is never held at once.
    """
    with open(path, "r", encoding="ascii") as fh:
        nlines, last = 0, ""
        try:
            for last in fh:
                nlines += 1
        except UnicodeDecodeError:
            # name the first non-ASCII byte by its offset in the whole file,
            # not in the decoded chunk that failed
            fh.seek(0)
            data = fh.buffer.read()
            at = len(data) - len(data.lstrip(bytes(range(128))))
            line = data.count(b"\n", 0, at) + 1
            raise GraphParseError(f"line {line}: non-ASCII byte at file offset {at}") from None
        if not last.endswith("\n"):
            raise GraphParseError("line 1: missing trailing newline at end of file")
        fh.seek(0)
        head = fh.readline()[:-1]
        header = head.split(" ")
        if len(header) != 2:
            raise GraphParseError(f"line 1: expected 'n k', got {head!r}")
        try:
            n, k = int(header[0]), int(header[1])
        except ValueError:
            raise GraphParseError(f"line 1: expected two integers, got {head!r}") from None
        if n < 1 or k < 1:
            raise GraphParseError(f"line 1: n and k must be positive, got {n} {k}")
        if k > 255:
            raise GraphParseError(f"line 1: color count above 255 is not supported, got {k}")
        if nlines != n:
            raise GraphParseError(
                f"line {nlines + 1}: expected {n} lines total, got {nlines}"
            )
        buf = bytearray()
        for u, line in enumerate(fh):
            fields = line[:-1].split(" ")
            expected = n - u - 1
            if len(fields) != expected:
                raise GraphParseError(
                    f"line {u + 2}: expected {expected} colors, got {len(fields)}"
                )
            try:
                colors = list(map(int, fields))
            except ValueError:
                colors = None
            if colors is not None and 1 <= min(colors) and max(colors) <= k:
                buf += bytes(colors)
                continue
            # only a faulty row gets here; this per-field loop raises its first fault
            for f in fields:
                try:
                    c = int(f)
                except ValueError:
                    raise GraphParseError(f"line {u + 2}: bad color {f!r}") from None
                if not 1 <= c <= k:
                    raise GraphParseError(f"line {u + 2}: color id {c} outside 1..{k}")
                buf.append(c)
    return ColoredCompleteGraph(n, k, buf)


def exhaustive_witness_search_reference(
    n: int,
    p: SPattern,
    budget: SearchBudget | None = None,
    *,
    prune: bool = True,
    break_symmetry: bool = True,
    collect: Optional[list[ColoredCompleteGraph]] = None,
) -> SearchOutcome:
    """The search as it stepped through whole color vectors: the oracle for
    ``exhaustive_witness_search``.

    Each color vector of the new vertex is one node, counted and then
    re-tested whole.  Apart from the name, the only addition is the per-depth
    tally: one ``by_depth[v] += 1`` beside each ``nodes += 1``, returned as
    ``nodes_by_depth``.
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
                by_depth[v] += 1
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
        nodes_by_depth=by_depth,
    )


def all_pattern_free_colorings(
    n: int, p: SPattern, *, break_symmetry: bool = True
) -> list[ColoredCompleteGraph]:
    """Every pattern-free 2-coloring the search enumerates, in its order.

    The library search always breaks symmetry; with ``break_symmetry=False``
    the leaves come from the reference search, which can turn it off.
    """
    leaves: list[ColoredCompleteGraph] = []
    budget = SearchBudget(max_nodes=10**12, max_time=3600.0)
    if break_symmetry:
        exhaustive_witness_search(n, p, budget, collect=leaves)
    else:
        exhaustive_witness_search_reference(n, p, budget, break_symmetry=False, collect=leaves)
    return leaves


# byte c of _BITS[255 - c : 511 - c] is b"1", every other byte b"0"
_BITS = b"0" * 255 + b"1" + b"0" * 255


def build_rows_reference(g: ColoredCompleteGraph) -> dict[int, list[int]]:
    """Per-color bitset rows with one base-2 parse per vertex row and color."""
    n = g.n
    rows: dict[int, list[int]] = {c: [] for c in range(1, g.k + 1)}
    sinks = [(rows[c].append, _BITS[255 - c : 511 - c]) for c in rows]
    for w0 in range(0, n, 64):
        w1 = min(w0 + 64, n)
        # block[(w - w0) * n + v] = color of {w, v}; 0 on the diagonal
        block = bytearray((w1 - w0) * n)
        for v in range(w1):
            rb = g.row_bytes(v)
            if v >= w0:
                i = (v - w0) * n
                block[i + v + 1 : i + n] = rb
            lo = max(v + 1, w0)
            if lo < w1:
                block[(lo - w0) * n + v :: n] = rb[lo - v - 1 : w1 - v - 1]
        for i in range(0, len(block), n):
            # bit v of a row is its v-th byte, so the last byte is the top digit
            rev = block[i : i + n][::-1]
            for append, table in sinks:
                append(int(rev.translate(table), 2))
    return rows
