"""Edge-colored complete graphs and the composition operators used to build them.

A ``ColoredCompleteGraph`` assigns one color id (1-based, in ``1..k``) to every
unordered pair of distinct vertices (0-based, in ``0..n-1``).  The color table
is a flat upper-triangular ``bytearray``; per-color adjacency rows are kept as
Python integers used as bitsets and are built lazily on first access, then
maintained incrementally by the edge setter.  The build gathers 64 full vertex
rows at a time into a byte block (slices of the table for the upper part,
strided slice stores for the lower part) and turns each block row into one
bitset per color with ``bytes.translate`` and a base-2 ``int`` parse, so no
n x n matrix is ever held.

Every lower-bound coloring this package generates is a tower of two
operators, both assembling the new table from row slices (``row_bytes``).
``blowup`` replaces each template vertex by a part: ``join`` and
``blowup_pentagon`` only build a 2- or 5-vertex template, and the sampler
draws its own.  ``substitute_part`` splices a replacement coloring into a
homogeneous block of consecutive vertex ids.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class ParameterError(ValueError):
    """Raised when an argument violates a documented precondition."""


class GraphParseError(ValueError):
    """Raised when a graph file is malformed; message includes the line number."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lsb_index(mask: int) -> int:
    """Index of the lowest set bit; ``mask`` must be nonzero."""
    return (mask & -mask).bit_length() - 1


# _BITS[255 - c : 511 - c] is the translate table that maps byte c to b"1" and
# every other byte to b"0"; one constant instead of 256 tables saves 75 KB a copy
_BITS = b"0" * 255 + b"1" + b"0" * 255
_ROW_BLOCK = 64  # vertex rows gathered per byte block while building bitsets
_ASCII = bytes(range(128))

MAX_ORDER = 10_000
"""Most vertices a graph may have.

Order n costs n^2/2 bytes of colors plus n^2/8 bytes of rows per color: 50 MB
plus 12.5 MB per color at 10,000, what a small machine can give one process.
Past it a tower or a sample runs out of memory, or for hours, instead of
failing.  The largest order in the tests, the benchmark and the README is
1,762 (``build_G82(8)``); G62 and G82 at k = 9, 10 (3,187..8,812) still fit.
"""


def check_order(n: int, k: int) -> None:
    """Raise ``ParameterError`` unless a graph on n vertices in k colors can be held."""
    if not 1 <= k <= 255:
        raise ParameterError(f"color count must be in 1..255, got {k}")
    if not 1 <= n <= MAX_ORDER:
        raise ParameterError(f"vertex count must be in 1..{MAX_ORDER}, got {n}")


class ColoredCompleteGraph:
    """A complete graph on ``n`` vertices with every edge colored in ``1..k``.

    ``k`` may exceed the number of colors actually present; constructions use
    this to reserve color ids they will introduce in later stages.
    """

    __slots__ = ("n", "k", "_colors", "_rows")

    def __init__(self, n: int, k: int, colors: bytes | bytearray | None = None):
        check_order(n, k)
        self.n = n
        self.k = k
        npairs = n * (n - 1) // 2
        if colors is None:
            self._colors = bytearray(b"\x01" * npairs)
        else:
            if len(colors) != npairs:
                raise ParameterError(
                    f"color table has {len(colors)} entries, expected {npairs}"
                )
            self._colors = bytearray(colors)
            bad = [c for c in set(self._colors) if not 1 <= c <= k]
            if bad:
                raise ParameterError(f"color id {bad[0]} outside 1..{k}")
        self._rows: dict[int, list[int]] | None = None

    # -- basic access ------------------------------------------------------

    def _index(self, u: int, v: int) -> int:
        if u == v:
            raise ParameterError(f"no self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError(f"vertex pair ({u}, {v}) out of range 0..{self.n - 1}")
        if u > v:
            u, v = v, u
        return u * (2 * self.n - u - 1) // 2 + (v - u - 1)

    def color(self, u: int, v: int) -> int:
        """Color of edge {u, v}; symmetric in its arguments."""
        return self._colors[self._index(u, v)]

    def set_color(self, u: int, v: int, c: int) -> None:
        """Recolor edge {u, v}; keeps cached adjacency rows consistent."""
        if not 1 <= c <= self.k:
            raise ParameterError(f"color id {c} outside 1..{self.k}")
        i = self._index(u, v)
        old = self._colors[i]
        if old == c:
            return
        self._colors[i] = c
        if self._rows is not None:
            self._rows[old][u] &= ~(1 << v)
            self._rows[old][v] &= ~(1 << u)
            self._rows[c][u] |= 1 << v
            self._rows[c][v] |= 1 << u

    def row_bytes(self, u: int) -> memoryview:
        """Colors of edges {u, v} for v = u+1 .. n-1, as a read-only buffer."""
        start = u * (2 * self.n - u - 1) // 2
        return memoryview(self._colors)[start : start + self.n - u - 1]

    # -- per-color adjacency bitsets ----------------------------------------

    def _build_rows(self) -> dict[int, list[int]]:
        n = self.n
        rows: dict[int, list[int]] = {c: [] for c in range(1, self.k + 1)}
        sinks = [(rows[c].append, _BITS[255 - c : 511 - c]) for c in rows]
        for w0 in range(0, n, _ROW_BLOCK):
            w1 = min(w0 + _ROW_BLOCK, n)
            # block[(w - w0) * n + v] = color of {w, v}; 0 on the diagonal
            block = bytearray((w1 - w0) * n)
            for v in range(w1):
                rb = self.row_bytes(v)
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

    def row(self, v: int, c: int) -> int:
        """Bitset of the c-colored neighbors of v (bit w set iff {v,w} has color c)."""
        if not 0 <= v < self.n:
            raise ParameterError(f"vertex {v} out of range 0..{self.n - 1}")
        return self.rows(c)[v]

    def rows(self, c: int) -> list[int]:
        """All adjacency bitsets for color c, indexed by vertex; treat as read-only."""
        if not 1 <= c <= self.k:
            raise ParameterError(f"color id {c} outside 1..{self.k}")
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows[c]

    def used_colors(self) -> list[int]:
        """Sorted list of color ids appearing on at least one edge."""
        return [c for c in range(1, self.k + 1) if c in self._colors]

    # -- misc ----------------------------------------------------------------

    def copy(self) -> "ColoredCompleteGraph":
        return ColoredCompleteGraph(self.n, self.k, self._colors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredCompleteGraph):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self._colors == other._colors

    def __repr__(self) -> str:
        return f"ColoredCompleteGraph(n={self.n}, k={self.k})"


# -- constructors and composition operators ----------------------------------


def new_monochromatic(n: int, k: int, c: int) -> ColoredCompleteGraph:
    """Complete graph on n vertices with every edge colored c."""
    g = ColoredCompleteGraph(n, k)
    if not 1 <= c <= k:
        raise ParameterError(f"color id {c} outside 1..{k}")
    npairs = n * (n - 1) // 2
    g._colors[:] = bytes([c]) * npairs
    return g


def blowup(
    template: ColoredCompleteGraph, parts: list[ColoredCompleteGraph]
) -> ColoredCompleteGraph:
    """Blow-up of ``template``: vertex i becomes ``parts[i]``, ids in template order.

    An edge between parts i and j takes the template's color of {i, j}, so each
    new row is a part's row followed by one run of a template color per later part.
    """
    if len(parts) != template.n:
        raise ParameterError(f"template has {template.n} vertices, got {len(parts)} parts")
    k = parts[0].k
    if any(p.k != k for p in parts):
        raise ParameterError("all parts must share the same color count")
    bad = [c for c in template.used_colors() if c > k]
    if bad:
        raise ParameterError(f"template color {bad[0]} outside 1..{k}")
    buf = bytearray()
    for i, part in enumerate(parts):
        tail = b"".join(bytes([c]) * q.n for c, q in zip(template.row_bytes(i), parts[i + 1 :]))
        for u in range(part.n):
            buf += part.row_bytes(u)
            buf += tail
    return ColoredCompleteGraph(sum(p.n for p in parts), k, buf)


def join(g1: ColoredCompleteGraph, g2: ColoredCompleteGraph, c: int) -> ColoredCompleteGraph:
    """Disjoint union of g1 and g2 with every cross edge colored c.

    g2's vertices are shifted up by g1.n; both inputs keep their colorings.
    """
    return blowup(new_monochromatic(2, g1.k, c), [g1, g2])


def blowup_pentagon(
    parts: list[ColoredCompleteGraph], c1: int, c2: int
) -> ColoredCompleteGraph:
    """Blow-up of the triangle-free 2-coloring of K_5 with the given parts.

    Edges between parts i and j get color c1 when j - i = +-1 (mod 5) (the
    five-cycle) and color c2 otherwise (the complementary five-cycle).  Using
    c1 = c2 would put a monochromatic triangle in the template, so it is
    rejected.
    """
    if c1 == c2:
        raise ParameterError("template colors must differ")
    pentagon = new_monochromatic(5, max(c1, c2), c2)
    for i in range(5):
        pentagon.set_color(i, (i + 1) % 5, c1)
    return blowup(pentagon, parts)


def substitute_part(
    g: ColoredCompleteGraph,
    part_vertices: Iterable[int],
    replacement: ColoredCompleteGraph,
) -> ColoredCompleteGraph:
    """Replace a homogeneous block of consecutive vertex ids by a whole colored graph.

    Every vertex outside the block must see all of its members in one color;
    that color is kept on all its edges to the replacement, which takes ids
    from the block's first id on.  The new table is spliced from row slices.
    """
    part = sorted(set(part_vertices))
    if not part:
        raise ParameterError("part is empty")
    if part[0] < 0 or part[-1] >= g.n:
        raise ParameterError(f"part vertices out of range 0..{g.n - 1}")
    a, b = part[0], part[-1] + 1
    if len(part) != b - a:
        raise ParameterError(f"part is not a block of consecutive ids {a}..{b - 1}")
    if replacement.k != g.k:
        raise ParameterError(f"color counts differ: {g.k} vs {replacement.k}")

    def mixed(w: int) -> ParameterError:
        cols = sorted({g.color(w, p) for p in part})
        return ParameterError(f"part is not homogeneous: vertex {w} sees colors {cols}")

    buf = bytearray()
    for w in range(a):  # w sees the block on one slice of its row
        rb = g.row_bytes(w)
        if len(set(rb[a - w - 1 : b - w - 1])) > 1:
            raise mixed(w)
        buf += rb[: a - w - 1]
        buf += bytes([rb[a - w - 1]]) * replacement.n
        buf += rb[b - w - 1 :]
    # a vertex w after the block sees member p in color row_bytes(p)[w - p - 1],
    # so every member's row tail must equal the last member's row
    tail = g.row_bytes(b - 1)
    for p in range(a, b - 1):
        other = g.row_bytes(p)[b - p - 1 :]
        if other != tail:
            raise mixed(b + next(i for i, c in enumerate(tail) if other[i] != c))
    for u in range(replacement.n):
        buf += replacement.row_bytes(u)
        buf += tail
    for w in range(b, g.n):
        buf += g.row_bytes(w)
    return ColoredCompleteGraph(g.n - (b - a) + replacement.n, g.k, buf)


# -- serialization ------------------------------------------------------------


def write_graph(g: ColoredCompleteGraph, path: str) -> None:
    """Write g, one row at a time, in the text format ``read_graph`` reads back bit-exactly."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"{g.n} {g.k}\n")
        for u in range(g.n - 1):
            fh.write(" ".join(map(str, g.row_bytes(u))) + "\n")


def read_graph(path: str) -> ColoredCompleteGraph:
    """Read a graph file.

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
            at = len(data) - len(data.lstrip(_ASCII))
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
