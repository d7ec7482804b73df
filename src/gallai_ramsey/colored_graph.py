"""Edge-colored complete graphs and the blow-up operator used to build them.

A ``ColoredCompleteGraph`` assigns one color id (1-based, in ``1..k``) to every
unordered pair of distinct vertices (0-based, in ``0..n-1``).  The color table
is a flat upper-triangular ``bytearray``; per-color adjacency rows are kept as
Python integers used as bitsets, built lazily on first access and dropped by
the edge setter, so they are always built from the table.

A graph made by ``blowup`` over a template with at most 2 colors keeps its
shape until an edge of it is recolored, so every template node of a shape is
a Gallai split.  ``blowup`` records the shape as it builds the graph: the
orders of the parts, nested as the parts were built, each with the mask of
the colors inside it.  Flattened once per graph into its template nodes in id
order, that one record is read by three consumers.  The rows are composed
from it: a vertex's row is its leaf block's row shifted into place, ORed with
the masks of the parts joined to its enclosing parts in that color, read from
the graph's own table at the parts' first vertices.  The Gallai tree of
``gallai.find_rainbow_triangle`` starts at its leaf blocks with 3 or more
colors inside.  ``patterns.find_mono_S`` tests a part with no c-edge inside
once, as a module of c-twins, and cuts it to r vertices in a neighborhood.
A graph with no shape is one leaf block with the colors of its table.  A
table read from a file or passed in, and a leaf block, is transposed instead:
64 vertex rows at a time are gathered into a byte block, each row padded to
whole 8-byte lanes.  Per group of 8 colors one ``bytes.translate`` turns the
block into one bit per color per byte, and an 8x8 bit transpose of every lane,
run on the whole block as one integer, leaves each color's row bits in every
8th byte, so no n x n matrix is ever held.

Every lower-bound coloring this package generates is a tower of blow-ups,
each assembling the new table from slices of its parts' rows.  ``blowup``
replaces each template vertex by a part: ``join`` and ``blowup_pentagon``
only build a 2- or 5-vertex template, and the sampler draws its own.  A table
built inside the package is owned: its builder checks its colors, or builds
them valid, and hands it to the graph uncopied and unscanned.  A table from
outside the package is copied and range-checked by the public constructor.

A graph file holds one row of colors per line, each value in one spelling:
the one ``write_graph`` writes, which is all ``read_graph`` accepts.  For
k <= 9 every color is one digit, so rows are written, and read back in one
binary pass, in blocks of whole rows: digits on the even bytes and separators
on the odd bytes, each checked and translated with a few byte operations per
block.  Any other file, valid or not, is read again through the same binary
handle: each row is looked up by the spellings of the colors, and a row that
misses is scanned field by field only to word its error.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator


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
_SCAN = 1 << 13  # table bytes range-checked per translate, so no table is held twice
# for k <= 9 a color is one digit: this maps color c to b"c" in a file
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_FILE_BLOCK = 1 << 15  # file bytes read or written at a time
_PLAIN = bytes(range(128)).replace(b"\r", b"")  # the bytes a graph file may hold
_QUOTE = 40  # characters of a line, a field or a number that a parse error quotes

MAX_ORDER = 10_000
"""Most vertices a graph may have.

Order n costs n^2/2 bytes of colors plus n^2/8 bytes of rows per color: 50 MB
plus 12.5 MB per color at 10,000, what a small machine can give one process.
Past it a tower or a sample runs out of memory, or for hours, instead of
failing.  The largest orders CI builds are 8,812 (``build_G82(10)``) and
6,406 (``build_G62(10)``).  G82(10) is built and certified in about 0.12 s,
at a peak RSS of 114 MB, on a 2-core x86-64 host (CPython 3.11).
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


def _composed_rows(n: int, k: int, colors: bytearray, nodes: list) -> dict[int, list[int]]:
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
    leaves: dict[bytes, dict[int, list[int]]] = {}  # the rows of each distinct leaf slice
    inherited = {0: [0] * (k + 1)}  # mask per color of each pending node, by its first vertex
    for node in nodes:
        above = inherited.pop(node[0][0])
        masks = [(1 << e) - (1 << b) for b, e, _, _ in node]
        for a, e, is_leaf, _ in node:
            inh = above.copy()
            for (b, _, _, _), mask in zip(node, masks):
                if b != a:
                    inh[table[at(a, b) if a < b else at(b, a)]] |= mask
            if not is_leaf:
                inherited[a] = inh
                continue
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

    __slots__ = ("n", "k", "_colors", "_rows", "_shape", "_flat")

    def __init__(self, n: int, k: int, colors: bytes | bytearray):
        check_order(n, k)  # before a table of any size is copied
        table = bytearray(colors)
        self._take(n, k, table)
        ids = bytes(range(1, k + 1))
        for i in range(0, len(table), _SCAN):
            scan = table[i : i + _SCAN]
            if scan.translate(None, ids):
                bad = scan[len(scan) - len(scan.lstrip(ids))]  # the first, in table order
                raise ParameterError(f"color id {bad} outside 1..{k}")

    @classmethod
    def _owning(cls, n: int, k: int, table: bytearray) -> "ColoredCompleteGraph":
        """A graph that keeps ``table``, built inside the package, uncopied and
        unscanned: its builder has checked n and k and made each entry lie in 1..k."""
        return cls.__new__(cls)._take(n, k, table)

    def _take(self, n: int, k: int, table: bytearray) -> "ColoredCompleteGraph":
        npairs = n * (n - 1) // 2
        if len(table) != npairs:
            raise ParameterError(f"color table has {len(table)} entries, expected {npairs}")
        self.n, self.k, self._colors = n, k, table
        self._rows: dict[int, list[int]] | None = None
        self._shape: tuple | None = None  # set by blowup while the table is its blow-up
        self._flat: list | None = None  # the template nodes, flattened by _nodes
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
        """Recolor edge {u, v}; drops the adjacency rows and the shape, rebuilt on demand."""
        if not 1 <= c <= self.k:
            raise ParameterError(f"color id {c} outside 1..{self.k}")
        i = self._index(u, v)
        if self._colors[i] != c:
            self._colors[i] = c
            self._rows = self._shape = self._flat = None

    def row_bytes(self, u: int) -> memoryview:
        """Colors of edges {u, v} for v = u+1 .. n-1, as a read-only buffer."""
        if not 0 <= u < self.n:
            raise ParameterError(f"vertex {u} out of range 0..{self.n - 1}")
        start = u * (2 * self.n - u - 1) // 2
        return memoryview(self._colors)[start : start + self.n - u - 1].toreadonly()

    # -- per-color adjacency bitsets ----------------------------------------

    def _build_rows(self) -> dict[int, list[int]]:
        """The color rows, composed from the shape when the graph holds one."""
        if self._shape is None:
            return _transposed_rows(self.n, self.k, self._colors)
        return _composed_rows(self.n, self.k, self._colors, self._nodes())

    def _nodes(self) -> list[list[tuple[int, int, bool, int]]]:
        """The template nodes of the shape this graph holds, each before those in
        its parts, so their first vertices never decrease; flattened once.

        A node lists its parts as (first vertex, end, leaf, mask with bit c for
        each color c inside the part), a leaf part being a block with no shape
        of its own.  A graph with no shape is one node whose one part is a leaf
        block of all its vertices.
        """
        if self._flat is None:
            top = self._shape or (0, 0, ((self.n, sum(1 << c for c in self.used_colors())),))
            self._flat, stack = [], [(top[2], 0)]
            while stack:
                parts, o = stack.pop()
                node, inner = [], []
                for part in parts:
                    if len(part) == 3:
                        inner.append((part[2], o))
                    node.append((o, o + part[0], len(part) == 2, part[1]))
                    o += part[0]
                stack += reversed(inner)
                self._flat.append(node)
        return self._flat

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
    Over a template with at most 2 colors, which makes every such blow-up a
    Gallai split, the result keeps a shape; over any other template it holds
    none.  A shape is (order, mask of the colors inside, parts): a part is its
    own shape, or (order, mask) for a leaf block with no shape, its mask read
    off its small table, and the blow-up's mask is its template's colors ORed
    with its parts' masks.
    """
    if len(parts) != template.n:
        raise ParameterError(f"template has {template.n} vertices, got {len(parts)} parts")
    k = parts[0].k
    if any(p.k != k for p in parts):
        raise ParameterError("all parts must share the same color count")
    used = template.used_colors()
    bad = [c for c in used if c > k]
    if bad:
        raise ParameterError(f"template color {bad[0]} outside 1..{k}")
    n = sum(p.n for p in parts)
    check_order(n, k)  # before the table is assembled
    bit = (1).__lshift__  # bit(c) == 1 << c
    buf, shape, mask = bytearray(), [], sum(map(bit, used))
    for i, part in enumerate(parts):
        tail = b"".join(bytes([c]) * q.n for c, q in zip(template.row_bytes(i), parts[i + 1 :]))
        table, a = memoryview(part._colors), 0
        for m in range(part.n - 1, -1, -1):  # the lengths of the part's rows, in order
            buf += table[a : a + m]
            buf += tail
            a += m
        shape.append(part._shape or (part.n, sum(map(bit, set(table)))))
        mask |= shape[-1][1]
    g = ColoredCompleteGraph._owning(n, k, buf)
    if len(used) <= 2:
        g._shape = (n, mask, tuple(shape))
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
    k = max(c1, c2)
    check_order(5, k)  # so only the smaller color can lie outside 1..k
    if min(c1, c2) < 1:
        raise ParameterError(f"color id {min(c1, c2)} outside 1..{k}")
    cycle = bytearray(c1 if j - i in (1, 4) else c2 for i in range(5) for j in range(i + 1, 5))
    return blowup(ColoredCompleteGraph._owning(5, k, cycle), parts)


# -- serialization ------------------------------------------------------------


def _row_blocks(n: int) -> Iterator[tuple[int, int, bytes]]:
    """Whole rows of a one-digit file body of order n, at most ``_FILE_BLOCK`` bytes at a time.

    Yields the table slice ``[a, b)`` a block holds and its separators: row u's
    n - u - 1 digits go on the even bytes, and n - u - 2 spaces and a newline on
    the odd ones.  A row has at most 2 (MAX_ORDER - 1) bytes, so every block
    holds one row or more.
    """
    seps, rows, a, b = b" " * (n - 2) + b"\n", [], 0, 0
    for u in range(n - 1):
        if 2 * (b + n - u - 1 - a) > _FILE_BLOCK:
            yield a, b, b"".join(rows)
            rows, a = [], b
        rows.append(seps[u:])
        b += n - u - 1
    yield a, b, b"".join(rows)


def write_graph(g: ColoredCompleteGraph, path: str) -> None:
    """Write g in the text format ``read_graph`` reads back bit-exactly.

    For k <= 9 the rows go out in row-aligned blocks, digits on the even bytes
    and separators on the odd ones; above that each row is its colors' decimal
    spellings joined by spaces.
    """
    n, k, table = g.n, g.k, g._colors
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (n, k))
        if k <= 9:
            for a, b, seps in _row_blocks(n):
                out = bytearray(2 * (b - a))
                out[0::2] = table[a:b].translate(_TO_DIGITS)
                out[1::2] = seps
                fh.write(out)
            return
        spell, a = [b"%d" % c for c in range(k + 1)], 0
        for m in range(n - 1, 0, -1):  # the lengths of the rows, in order
            fh.write(b" ".join(map(spell.__getitem__, table[a : a + m])) + b"\n")
            a += m


def _quoted(raw: bytes) -> str:
    """A line or a field as a parse error quotes it, cut to ``_QUOTE`` characters."""
    return repr(raw[:_QUOTE].decode()) + ("..." if len(raw) > _QUOTE else "")


def _cut(x: int) -> str:
    """A number read from a file as a parse error repeats it, cut as ``_quoted`` cuts."""
    return (text := str(x))[:_QUOTE] + ("..." if len(text) > _QUOTE else "")


def _read_blocks(fh: BinaryIO, n: int, k: int) -> ColoredCompleteGraph | None:
    """The graph of an order-n body read in row-aligned blocks, or None unless it
    holds digits in ``1..k`` on its even bytes and ``write_graph``'s separators
    on its odd ones; a body that deviates is left unread past that block."""
    ids = bytearray(256)  # b"1".."k" -> 1..k, every other byte -> 0
    ids[49 : 49 + k] = range(1, k + 1)
    buf = bytearray(n * (n - 1) // 2)
    for a, b, seps in _row_blocks(n):
        raw = fh.read(2 * (b - a))
        colors = raw[0::2].translate(ids)
        if raw[1::2] != seps or 0 in colors:
            return None
        buf[a:b] = colors
    return ColoredCompleteGraph._owning(n, k, buf)


def read_graph(path: str) -> ColoredCompleteGraph:
    """Read a graph file; only what ``write_graph`` writes is accepted.

    Format: line 1 is ``n k``; line i+1 (for i = 1..n-1) holds the colors of
    edges {i-1, j} for j = i..n-1, separated by single spaces.  Numbers are
    spelled in decimal with no sign, leading zero or underscore, and every
    line ends in a bare newline.  Malformed input raises ``GraphParseError``
    naming the line.

    Line 1 is read once, in binary like the rest.  It refuses an order above
    ``MAX_ORDER`` at once, and for k <= 9 it sends a file of the canonical
    size to the block reader.  Any other file has its lines counted, a block
    at a time, up to its first non-ASCII or CR byte; then each row is looked
    up by its spellings, and a row that misses is scanned only to name its fault.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        nfields = head.count(b" ") + 1  # so a line 1 of many fields is never split
        try:
            n, k = map(int, head.split(b" ")) if nfields == 2 else (None, None)
        except ValueError:  # a field that is not an integer
            n = k = None
        spelled = n is not None and head == b"%d %d\n" % (n, k)
        if spelled and n > MAX_ORDER:
            raise GraphParseError(f"line 1: vertex count above {MAX_ORDER} is not supported, "
                                  f"got {_cut(n)}")
        if (spelled and n >= 1 and 1 <= k <= 9
                and os.fstat(fh.fileno()).st_size == len(head) + n * (n - 1)):
            g = _read_blocks(fh, n, k)
            if g is not None:
                return g
        fh.seek(0)
        nlines, size, last = 0, 0, b""
        while chunk := fh.read(_FILE_BLOCK):
            if b"\r" in chunk or not chunk.isascii():
                at = len(chunk) - len(chunk.lstrip(_PLAIN))
                line = nlines + chunk.count(b"\n", 0, at) + 1
                what = "carriage return" if chunk[at] == 13 else "non-ASCII byte"
                raise GraphParseError(f"line {line}: {what} at file offset {size + at}")
            nlines += chunk.count(b"\n")
            size += len(chunk)
            last = chunk[-1:]
        if last != b"\n":
            raise GraphParseError("line 1: missing trailing newline at end of file")
        text = _quoted(head[: _QUOTE + 1].rstrip(b"\n"))
        if nfields != 2:
            raise GraphParseError(f"line 1: expected 'n k', got {text}")
        if n is None:
            raise GraphParseError(f"line 1: expected two integers, got {text}")
        if not spelled:
            raise GraphParseError(f"line 1: expected '{_cut(n)} {_cut(k)}', got {text}")
        if n < 1 or k < 1:
            raise GraphParseError(f"line 1: n and k must be positive, got {_cut(n)} {_cut(k)}")
        if k > 255:
            raise GraphParseError(f"line 1: color count above 255 is not supported, got {_cut(k)}")
        if nlines != n:
            raise GraphParseError(f"line {nlines + 1}: expected {n} lines total, got {nlines}")
        fh.seek(len(head))
        buf = bytearray(n * (n - 1) // 2)
        spell = {b"%d" % c: c for c in range(1, k + 1)}
        for u, line in enumerate(fh):
            expected, pos = n - u - 1, u * (2 * n - u - 1) // 2
            # counted before any copy is made, so an over-long row costs no more than itself
            nfields = line.count(b" ") + 1
            if nfields != expected:
                raise GraphParseError(f"line {u + 2}: expected {expected} colors, got {nfields}")
            fields = line[:-1].split(b" ")
            try:
                buf[pos : pos + expected] = bytes(map(spell.__getitem__, fields))
                continue
            except KeyError:  # a field not spelled as write_graph spells a color in 1..k
                pass
            for f in fields:  # names the row's first fault, and builds nothing
                try:
                    c = int(f)
                except ValueError:
                    raise GraphParseError(f"line {u + 2}: bad color {_quoted(f)}") from None
                if not 1 <= c <= k:
                    raise GraphParseError(f"line {u + 2}: color id {_cut(c)} outside 1..{k}")
                if f != b"%d" % c:
                    raise GraphParseError(f"line {u + 2}: color {_quoted(f)} is not "
                                          f"spelled as '{c}'")
    return ColoredCompleteGraph._owning(n, k, buf)
