"""Edge-colored complete graphs and the blow-up operator used to build them.

A ``ColoredCompleteGraph`` assigns one color id (1-based, in ``1..k``) to every
unordered pair of distinct vertices (0-based, in ``0..n-1``).  The color table
is a flat upper-triangular ``bytearray``; per-color adjacency rows are kept as
Python integers used as bitsets and are built lazily on first access, then
maintained incrementally by the edge setter.

A graph made by ``blowup`` keeps its shape, the orders of its parts nested as
the parts were built, until an edge of it is recolored.  Its rows are composed
from the shape: a vertex's row is its leaf block's row shifted into place, ORed
with the masks of the parts joined to its enclosing parts in that color, read
from the graph's own table at the parts' first vertices.  A table read from a
file or passed in, and a leaf block, is transposed instead: 64 vertex rows at
a time are gathered into a byte block, each row padded to whole 8-byte lanes.
Per group of 8 colors one ``bytes.translate`` turns the block into one bit per
color per byte, and an 8x8 bit transpose of every lane, run on the whole block
as one integer, leaves each color's row bits in every 8th byte, so no n x n
matrix is ever held.  The same shape, walked as template nodes, is where the
Gallai tree of ``gallai.find_rainbow_triangle`` starts.

Every lower-bound coloring this package generates is a tower of blow-ups,
each assembling the new table from row slices (``row_bytes``).  ``blowup``
replaces each template vertex by a part: ``join`` and ``blowup_pentagon``
only build a 2- or 5-vertex template, and the sampler draws its own.  It,
and the file reader, hand the table they build to the graph uncopied.

A graph file holds one row of colors per line.  For k <= 9 every color is
one digit, so a row is written, and read back, as digits on the even bytes
and separators on the odd bytes; any other row is parsed field by field,
which also words every error.
"""

from __future__ import annotations

from typing import Iterator


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


_ROW_BLOCK = 64  # vertex rows gathered per byte block while building bitsets
# shift and lane mask of the three swap rounds of an 8x8 bit-matrix transpose
# (Warren, Hacker's Delight, 7-3): bit 8i + j of a 64-bit lane goes to 8j + i
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_ASCII = bytes(range(128))
_SCAN = 1 << 13  # table bytes range-checked per translate, so no table is held twice
# for k <= 9 a color is one digit: these map color c to b"c" in a file and back
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
_HEAD_PEEK = 64  # header bytes looked at to refuse a large order before the file is read

MAX_ORDER = 10_000
"""Most vertices a graph may have.

Order n costs n^2/2 bytes of colors plus n^2/8 bytes of rows per color: 50 MB
plus 12.5 MB per color at 10,000, what a small machine can give one process.
Past it a tower or a sample runs out of memory, or for hours, instead of
failing.  The largest order the tests and CI build is 4,406 (``build_G82(9)``).
G62(10) and G82(10) (6,406 and 8,812 vertices) still fit: with its rows
composed from its shape and its Gallai tree started there, G82(10) is built
and certified in about 0.7 s and 114 MB on a 2-core x86-64 host (CPython 3.11).
"""


def check_order(n: int, k: int) -> None:
    """Raise ``ParameterError`` unless a graph on n vertices in k colors can be held."""
    if not 1 <= k <= 255:
        raise ParameterError(f"color count must be in 1..255, got {k}")
    if not 1 <= n <= MAX_ORDER:
        raise ParameterError(f"vertex count must be in 1..{MAX_ORDER}, got {n}")


def _transposed_rows(n: int, k: int, colors: bytes | bytearray) -> dict[int, list[int]]:
    """Rows of the table ``colors`` of order n, 64 vertex rows and 8 colors at a time."""
    rows: dict[int, list[int]] = {c: [] for c in range(1, k + 1)}
    table = memoryview(colors)
    starts = [v * (2 * n - v - 1) // 2 for v in range(n)]
    stride = (n + 7) & ~7
    lanes = min(_ROW_BLOCK, n) * stride // 8
    from_bytes = int.from_bytes
    masks = [(s, from_bytes(m.to_bytes(8, "little") * lanes, "little")) for s, m in _TRANSPOSE]
    groups = []  # (first color g0, translate table mapping color g0 + j to bit j)
    for g0 in range(1, k + 1, 8):
        tr = bytearray(256)
        for j in range(min(8, k + 1 - g0)):
            tr[g0 + j] = 1 << j
        groups.append((g0, tr))
    for w0 in range(0, n, _ROW_BLOCK):
        w1 = min(w0 + _ROW_BLOCK, n)
        # block[(w - w0) * stride + v] = color of {w, v}; 0 on the diagonal and the padding
        block = bytearray((w1 - w0) * stride)
        size = len(block)
        for v in range(w1):
            o = starts[v]
            if v < w0:
                block[v::stride] = table[o + w0 - v - 1 : o + w1 - v - 1]
            else:
                i = (v - w0) * stride
                block[i + v + 1 : i + n] = table[o : o + n - v - 1]
                block[i + stride + v :: stride] = table[o : o + w1 - v - 1]
        for g0, tr in groups:
            x = from_bytes(block.translate(tr), "little")
            for s, m in masks:
                t = (x ^ (x >> s)) & m
                x ^= t ^ (t << s)
            # byte 8q + j of a row now holds color g0 + j at vertices 8q .. 8q + 7
            b = x.to_bytes(size, "little")
            for j in range(min(8, k + 1 - g0)):
                rows[g0 + j] += [from_bytes(b[i + j : i + stride : 8], "little")
                                 for i in range(0, size, stride)]
    return rows


def _composed_rows(n: int, k: int, colors: bytearray, nodes: Iterator) -> dict[int, list[int]]:
    """Rows of a blow-up whose table is ``colors``, from its template ``nodes``.

    A vertex's row is its leaf block's row shifted to the block's first vertex,
    ORed with the masks its enclosing parts inherit in each color.  The color
    between two parts is the table's at their first vertices; a leaf block's
    rows are the transpose of its own slice of the table, once per distinct slice.
    """
    def at(u: int, v: int) -> int:  # table index of {u, v}, u < v
        return u * (2 * n - u - 1) // 2 + v - u - 1

    rows = {c: [0] * n for c in range(1, k + 1)}
    table = memoryview(colors)
    leaves: dict[bytes, dict[int, list[int]]] = {}
    inherited = {0: [0] * (k + 1)}  # mask per color of each pending node, by its first vertex
    for node in nodes:
        above = inherited.pop(node[0][0])
        masks = [(1 << e) - (1 << b) for b, e, _ in node]
        for a, e, is_leaf in node:
            inh = above.copy()
            for (b, _, _), mask in zip(node, masks):
                if b != a:
                    inh[table[at(a, b) if a < b else at(b, a)]] |= mask
            if not is_leaf:
                inherited[a] = inh
            elif e - a == 1:
                for c in range(1, k + 1):
                    rows[c][a] = inh[c]
            else:
                key = b"".join(table[at(u, u + 1) : at(u, e - 1) + 1] for u in range(a, e - 1))
                leaf = leaves.get(key)
                if leaf is None:
                    leaf = leaves[key] = _transposed_rows(e - a, k, key)
                for c in range(1, k + 1):
                    h = inh[c]
                    rows[c][a:e] = [r << a | h for r in leaf[c]]
    return rows


class ColoredCompleteGraph:
    """A complete graph on ``n`` vertices with every edge colored in ``1..k``.

    ``k`` may exceed the number of colors actually present; constructions use
    this to reserve color ids they will introduce in later stages.
    """

    __slots__ = ("n", "k", "_colors", "_rows", "_shape")

    def __init__(self, n: int, k: int, colors: bytes | bytearray | None = None):
        check_order(n, k)  # before a default table is allocated
        npairs = n * (n - 1) // 2
        self._take(n, k, bytearray(b"\x01") * npairs if colors is None else bytearray(colors))

    @classmethod
    def _owning(cls, n: int, k: int, table: bytearray) -> "ColoredCompleteGraph":
        """A graph that keeps ``table``, which this module has just built, uncopied."""
        return cls.__new__(cls)._take(n, k, table)

    def _take(self, n: int, k: int, table: bytearray) -> "ColoredCompleteGraph":
        check_order(n, k)
        npairs = n * (n - 1) // 2
        if len(table) != npairs:
            raise ParameterError(f"color table has {len(table)} entries, expected {npairs}")
        ids = bytes(range(1, k + 1))
        for i in range(0, npairs, _SCAN):
            if table[i : i + _SCAN].translate(None, ids):
                bad = [c for c in set(table) if not 1 <= c <= k]
                raise ParameterError(f"color id {bad[0]} outside 1..{k}")
        self.n, self.k, self._colors = n, k, table
        self._rows: dict[int, list[int]] | None = None
        self._shape: tuple | None = None  # set by blowup while the table is its blow-up
        return self

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
        self._shape = None
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
        if self._shape is None:
            return _transposed_rows(self.n, self.k, self._colors)
        return _composed_rows(self.n, self.k, self._colors, self._template_nodes())

    def _template_nodes(self) -> Iterator[list[tuple[int, int, bool]]]:
        """The template nodes of the shape this graph holds, each before those in its parts.

        A node lists its parts as (first vertex, end, leaf), a leaf part being a
        block with no shape of its own.  A graph with no shape is one node whose
        one part is a leaf block of all its vertices.
        """
        stack = [((self.n,) if self._shape is None else self._shape, 0)]
        while stack:
            parts, o = stack.pop()
            node = []
            for part in parts:
                leaf = type(part) is int
                m = part if leaf else part[1]
                if not leaf:
                    stack.append((part[0], o))
                node.append((o, o + m, leaf))
                o += m
            yield node

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
    check_order(n, k)
    if not 1 <= c <= k:
        raise ParameterError(f"color id {c} outside 1..{k}")
    return ColoredCompleteGraph._owning(n, k, bytearray([c]) * (n * (n - 1) // 2))


def blowup(
    template: ColoredCompleteGraph, parts: list[ColoredCompleteGraph]
) -> ColoredCompleteGraph:
    """Blow-up of ``template``: vertex i becomes ``parts[i]``, ids in template order.

    An edge between parts i and j takes the template's color of {i, j}, so each
    new row is a part's row followed by one run of a template color per later part.
    The result keeps the parts' orders as its shape, to compose its color rows from.
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
    g = ColoredCompleteGraph._owning(sum(p.n for p in parts), k, buf)
    g._shape = tuple(p.n if p._shape is None else (p._shape, p.n) for p in parts)
    return g


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


# -- serialization ------------------------------------------------------------


def write_graph(g: ColoredCompleteGraph, path: str) -> None:
    """Write g, one row at a time, in the text format ``read_graph`` reads back bit-exactly."""
    seps = b" " * (g.n - 2) + b"\n"
    with open(path, "wb") as fh:
        fh.write(f"{g.n} {g.k}\n".encode())
        for u in range(g.n - 1):
            rb = g.row_bytes(u).tobytes()
            if g.k > 9:
                fh.write((" ".join(map(str, rb)) + "\n").encode())
                continue
            row = bytearray(2 * len(rb))
            row[0::2] = rb.translate(_TO_DIGITS)
            row[1::2] = seps[-len(rb) :]
            fh.write(row)


def read_graph(path: str) -> ColoredCompleteGraph:
    """Read a graph file.

    Format: line 1 is ``n k``; line i+1 (for i = 1..n-1) holds the colors of
    edges {i-1, j} for j = i..n-1, space-separated.  A trailing newline is
    required.  Malformed input raises ``GraphParseError`` naming the line.

    A header whose order is above ``MAX_ORDER`` is refused first.  Otherwise
    the file is read twice, line by line: a first pass counts the lines, so
    the whole text is never held at once.
    """
    with open(path, "r", encoding="ascii") as fh:
        first = fh.buffer.readline(_HEAD_PEEK).splitlines(keepends=True)[:1]
        try:
            order, _ = map(int, first[0].decode("ascii").rstrip("\r\n").split(" "))
        except (IndexError, ValueError):
            order = 0
        if order > MAX_ORDER and first[0][-1] in b"\r\n":  # a whole line 1 within the peek
            raise GraphParseError(f"line 1: vertex count above {MAX_ORDER} is not supported, "
                                  f"got {order}")
        fh.seek(0)
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
        check_order(n, k)  # a line 1 longer than the peek, before the table is allocated
        buf = bytearray(n * (n - 1) // 2)
        seps, digits = b" " * (n - 2) + b"\n", b"123456789"[:k]
        for u, line in enumerate(fh):
            expected, pos = n - u - 1, u * (2 * n - u - 1) // 2
            if len(line) == 2 * expected:
                raw = line.encode()
                evens = raw[0::2]
                if raw[1::2] == seps[-expected:] and not evens.translate(None, digits):
                    buf[pos : pos + expected] = evens.translate(_FROM_DIGITS)
                    continue
            # counted before any copy is made, so an over-long row costs no more than itself
            nfields = line.count(" ") + 1
            if nfields != expected:
                raise GraphParseError(f"line {u + 2}: expected {expected} colors, got {nfields}")
            row = []
            for f in line[:-1].split(" "):
                try:
                    c = int(f)
                except ValueError:
                    raise GraphParseError(f"line {u + 2}: bad color {f!r}") from None
                if not 1 <= c <= k:
                    raise GraphParseError(f"line {u + 2}: color id {c} outside 1..{k}")
                row.append(c)
            buf[pos : pos + expected] = bytes(row)
    return ColoredCompleteGraph._owning(n, k, buf)
