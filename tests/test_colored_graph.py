"""Representation, composition operators, and file round-trip for colored graphs."""

import itertools
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gallai_ramsey.colored_graph import (
    _FILE_BLOCK,
    MAX_ORDER,
    ColoredCompleteGraph,
    GraphParseError,
    ParameterError,
    blowup,
    blowup_pentagon,
    iter_bits,
    join,
    new_monochromatic,
    read_graph,
    write_graph,
)
from gallai_ramsey.constructions import (
    build_G62,
    build_G82,
    build_general_lower,
    matched_clique,
    two_clique_witness,
)
from gallai_ramsey.gallai import GallaiPartition, find_gallai_partition
from gallai_ramsey.search import random_gallai_sampler
from helpers import (
    build_rows_reference,
    faulty_graph_file,
    has_mono_triangle_slow,
    has_rainbow_triangle_slow,
    random_graph,
    random_nested_blowup,
    read_graph_reference,
    table_copy,
    write_graph_reference,
)


def test_new_monochromatic_k5():
    g = new_monochromatic(5, 4, 1)
    assert g.n == 5 and g.k == 4
    assert all(g.color(u, v) == 1 for u in range(5) for v in range(u + 1, 5))


def test_new_monochromatic_single_vertex():
    g = new_monochromatic(1, 1, 1)
    assert g.n == 1
    with pytest.raises(ParameterError):
        g.color(0, 0)


def test_new_monochromatic_all_edges_colored():
    g = new_monochromatic(7, 2, 2)
    assert sum(1 for u in range(7) for v in range(u + 1, 7) if g.color(u, v) == 2) == 21


def test_new_monochromatic_invalid_color():
    with pytest.raises(ParameterError):
        new_monochromatic(5, 2, 3)
    with pytest.raises(ParameterError):
        new_monochromatic(5, 2, 0)


def _neighborhood(g, v, c):
    return frozenset(iter_bits(g.rows(c)[v]))


def test_edge_color_read_your_write():
    g = new_monochromatic(4, 3, 1)
    g.set_color(0, 1, 3)
    assert g.color(0, 1) == 3
    assert g.color(1, 0) == 3


def test_edge_color_errors():
    g = new_monochromatic(4, 2, 2)
    assert g.color(2, 3) == 2
    with pytest.raises(ParameterError):
        g.color(1, 1)
    with pytest.raises(ParameterError):
        g.color(0, 4)
    with pytest.raises(ParameterError):
        g.set_color(0, 1, 5)


@pytest.mark.parametrize("u", [-2, -1, 5])
def test_row_bytes_refuses_a_vertex_out_of_range(u):
    # an unchecked -2 would slice row 0 plus one more color
    g = ColoredCompleteGraph(5, 3, bytes(range(1, 4)) * 3 + b"\x01")
    with pytest.raises(ParameterError, match=rf"vertex {u} out of range 0\.\.4"):
        g.row_bytes(u)
    assert g.row_bytes(0).tobytes() == bytes([1, 2, 3, 1])
    assert g.row_bytes(4).tobytes() == b""


def test_row_bytes_is_read_only():
    # a write through it would skip set_color's range check and its row drop
    g = new_monochromatic(4, 2, 1)
    assert g.rows(2) == [0, 0, 0, 0]
    with pytest.raises(TypeError):
        g.row_bytes(0)[0] = 2
    assert g.color(0, 1) == 1 and g.rows(2) == [0, 0, 0, 0]


def test_color_neighborhood_monochromatic():
    g = new_monochromatic(5, 2, 1)
    assert _neighborhood(g, 0, 1) == frozenset({1, 2, 3, 4})
    assert _neighborhood(g, 0, 2) == frozenset()


def test_color_neighborhood_join_sees_other_clique():
    g = join(new_monochromatic(5, 2, 1), new_monochromatic(5, 2, 1), 2)
    for v in range(5):
        assert _neighborhood(g, v, 2) == frozenset(range(5, 10))


def test_join_two_cliques():
    g = join(new_monochromatic(5, 4, 1), new_monochromatic(5, 4, 1), 2)
    assert g.n == 10
    for u in range(10):
        for v in range(u + 1, 10):
            expected = 1 if (u < 5) == (v < 5) else 2
            assert g.color(u, v) == expected


def test_join_single_vertices():
    g = join(new_monochromatic(1, 1, 1), new_monochromatic(1, 1, 1), 1)
    assert g.n == 2 and g.color(0, 1) == 1


def test_join_mismatched_k():
    with pytest.raises(ParameterError):
        join(new_monochromatic(3, 2, 1), new_monochromatic(3, 3, 1), 1)


@pytest.mark.property_based
@given(n1=st.integers(1, 12), n2=st.integers(1, 12), seed=st.integers(0, 10**6))
@settings(max_examples=60, derandomize=True)
def test_join_order_and_internal_colors(n1, n2, seed):
    rng = random.Random(seed)
    g1, g2 = random_graph(rng, n1, 3), random_graph(rng, n2, 3)
    g = join(g1, g2, 2)
    assert g.n == n1 + n2
    for u in range(n1):
        for v in range(u + 1, n1):
            assert g.color(u, v) == g1.color(u, v)
    for u in range(n2):
        for v in range(u + 1, n2):
            assert g.color(n1 + u, n1 + v) == g2.color(u, v)


def test_blowup_pentagon_template():
    g = blowup_pentagon([new_monochromatic(1, 2, 1) for _ in range(5)], 1, 2)
    assert g.n == 5
    for i in range(5):
        for j in range(i + 1, 5):
            expected = 1 if (j - i) in (1, 4) else 2
            assert g.color(i, j) == expected
    assert not has_mono_triangle_slow(g, {1, 2})


def test_blowup_pentagon_of_cliques():
    t = 7
    parts = [new_monochromatic(t - 1, 3, 1) for _ in range(5)]
    g = blowup_pentagon(parts, 2, 3)
    assert g.n == 5 * (t - 1)
    assert g.color(0, 1) == 1
    assert g.color(0, t - 1) == 2
    assert g.color(0, 2 * (t - 1)) == 3


def test_blowup_pentagon_rejects_equal_template_colors():
    parts = [new_monochromatic(2, 3, 1) for _ in range(5)]
    with pytest.raises(ParameterError):
        blowup_pentagon(parts, 2, 2)
    with pytest.raises(ParameterError):
        blowup_pentagon(parts[:4], 2, 3)


@pytest.mark.property_based
def test_blowup_pentagon_preserves_rainbow_freeness():
    # parts built without template colors 4, 5 never create a template triangle
    rng = random.Random(20240817)
    for _ in range(40):
        parts = []
        for _ in range(5):
            n = rng.randint(1, 4)
            buf = bytes(rng.randint(1, 3) for _ in range(n * (n - 1) // 2))
            parts.append(ColoredCompleteGraph(n, 5, buf))
        g = blowup_pentagon(parts, 4, 5)
        assert not has_mono_triangle_slow(g, {4, 5})
        if all(has_rainbow_triangle_slow(p) is None for p in parts):
            assert has_rainbow_triangle_slow(g) is None


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, derandomize=True)
def test_blowup_matches_template_and_parts(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    template = random_graph(rng, rng.randint(1, 5), k)
    parts = [random_graph(rng, rng.randint(1, 4), k) for _ in range(template.n)]
    g = blowup(template, parts)
    where = [(i, x) for i, part in enumerate(parts) for x in range(part.n)]
    assert g.n == len(where) and g.k == k
    for u in range(g.n):
        for v in range(u + 1, g.n):
            (i, x), (j, y) = where[u], where[v]
            want = parts[i].color(x, y) if i == j else template.color(i, j)
            assert g.color(u, v) == want


@pytest.mark.parametrize(
    "template, parts",
    [
        # template order differs from the number of parts
        (new_monochromatic(3, 2, 1), [new_monochromatic(2, 2, 1)] * 2),
        # template color 3 outside the parts' colors 1..2
        (new_monochromatic(2, 3, 3), [new_monochromatic(2, 2, 1)] * 2),
        # parts with different color counts
        (new_monochromatic(2, 2, 1), [new_monochromatic(2, 2, 1), new_monochromatic(2, 3, 1)]),
    ],
    ids=["size", "template-color", "parts-k"],
)
def test_blowup_rejects(template, parts):
    with pytest.raises(ParameterError):
        blowup(template, parts)


def test_blowup_refuses_an_order_above_max_order_before_assembling():
    template, part = new_monochromatic(4, 2, 2), new_monochromatic(2600, 2, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError,
                           match=f"^vertex count must be in 1..{MAX_ORDER}, got 10400$"):
            blowup(template, [part] * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 10400-vertex table alone would be 54 MB


def test_round_trip_small_example(tmp_path):
    path = str(tmp_path / "g.txt")
    g = join(new_monochromatic(5, 2, 1), new_monochromatic(5, 2, 1), 2)
    write_graph(g, path)
    assert read_graph(path) == g


def test_file_format_exact_bytes(tmp_path):
    g = ColoredCompleteGraph(3, 2, bytes([1, 2, 1]))
    path = str(tmp_path / "g.txt")
    write_graph(g, path)
    with open(path, "rb") as fh:
        assert fh.read() == b"3 2\n1 2\n1\n"


def test_round_trip_500_random_graphs(tmp_path):
    rng = random.Random(1729)
    path = str(tmp_path / "g.txt")
    for _ in range(500):
        # one-digit rows up to k = 9, the field-by-field format above it
        n, k = rng.randint(1, 40), rng.choice((rng.randint(1, 9), rng.randint(10, 255)))
        g = random_graph(rng, n, k)
        write_graph(g, path)
        back = read_graph(path)
        assert back == g


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("3 2\n1 0\n1\n", "line 2"),
        ("3 2\n1 2\n1", "trailing newline"),
        ("3\n1 2\n1\n", "line 1"),
        ("3 2\n1 2 1\n1\n", "line 2"),
        ("3 2\n1 2\n1\n2\n", "line 5"),
        ("x y\n", "line 1"),
        ("", "line 1"),
        ("3 2\n1 3\n1\n", "line 2"),
        (b"3 2\n1 \xff\n1\n", "line 2: non-ASCII byte at file offset 6"),
        (b"2 300\n300\n", "line 1: color count above 255"),
        (f"{MAX_ORDER + 1} 2\n1\n", f"line 1: vertex count above {MAX_ORDER}"),
        ("2 256\n1\n", "line 1: color count above 255"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, fragment):
    path = str(tmp_path / "bad.txt")
    with open(path, "wb") as fh:
        fh.write(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(GraphParseError) as err:
        read_graph(path)
    assert fragment in str(err.value)


def _read_outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the exception's type and message are what is compared
        return type(exc), str(exc)


def _assert_reads_like_reference(data, path):
    with open(path, "wb") as fh:
        fh.write(data)
    got, want = _read_outcome(read_graph, path), _read_outcome(read_graph_reference, path)
    # the one intended difference: a header "n k" with n above the cap is
    # refused at line 1, whatever else the file holds
    head = re.match(rb"([^\r\n]*)[\r\n]", data)
    try:
        order, _ = map(int, head.group(1).decode("ascii").split(" "))
    except (AttributeError, ValueError):
        order = 0
    if order > MAX_ORDER:
        want = (GraphParseError,
                f"line 1: vertex count above {MAX_ORDER} is not supported, got {order}")
    assert got == want


@pytest.mark.parametrize(
    "data",
    [
        b"3 2\n01 2\n1\n",  # valid but not one digit a field
        b"3 2\n+1 2\n1\n",
        b"3 2\n1  2\n1\n",  # two spaces
        b"3 2\n1 2 \n1\n",
        b"3 2\n1x2\n1\n",  # one-digit length, a bad separator
        b"3 9\n9 0\n1\n",
        b"3 9\n9 10\n1\n",
        b"3 8\n9 1\n1\n",
        b"3 12\n10 12\n13\n",
        b"3 12\n1 2\n9\n",  # one-digit rows under k >= 10
        b"4 12\n01 +1 12\n11 10\n9\n",  # valid multi-digit rows through the per-field loop
        b"3 255\n255 100\n7\n",
        b"4 12\n12 1 x\n1 2\n3\n",  # a bad field after valid multi-digit ones
        b"3 2\r\n1 2\r1\r\n",
        b"2 9\n9\n",
        b"1 9\n",
    ],
)
def test_reader_matches_reference_on_edge_rows(data, tmp_path):
    _assert_reads_like_reference(data, str(tmp_path / "g.txt"))


@pytest.mark.property_based
@given(seed=st.integers(0, 10**9))
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reader_matches_reference_reader(seed, tmp_path):
    _assert_reads_like_reference(faulty_graph_file(random.Random(seed)), str(tmp_path / "g.txt"))


def test_file_io_holds_a_few_blocks_at_a_time(tmp_path):
    # G82(8)'s file is 3.1 MB; writing holds a few 32 KB blocks of its text,
    # and reading those blocks and the 1.55 MB table it returns
    g = build_G82(8, verify=False).graph
    path = str(tmp_path / "g.txt")
    tracemalloc.start()
    try:
        write_graph(g, path)
        before, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_graph(path)
        kept, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == g
    assert write_peak - before < 2**18
    assert read_peak - kept < 2**18


def _block_spans(n):
    """(first, last) file offsets after the header of each one-digit block of order n.

    A block holds whole rows, at most ``_FILE_BLOCK`` bytes; row u has
    2 (n - u - 1) bytes.  Also the offsets of every row's newline.
    """
    spans, ends, first, off = [], [], 0, 0
    for u in range(n - 1):
        size = 2 * (n - u - 1)
        if off + size - first > _FILE_BLOCK:
            spans.append((first, off - 1))
            first = off
        off += size
        ends.append(off - 1)
    spans.append((first, off - 1))
    return spans, ends


def _byte_faults(body, at, k):
    """The single-byte faults at offset ``at`` of a file body."""
    swap = at + 1 if at + 1 < len(body) else at - 1  # a digit and a separator change places
    lo, hi = min(at, swap), max(at, swap)
    yield body[:lo] + body[hi : hi + 1] + body[lo : lo + 1] + body[hi + 1 :]
    for byte in (b"0", str(k + 1).encode(), b"\r"):
        yield body[:at] + byte + body[at + 1 :]


@pytest.mark.parametrize("k", [3, 9])
def test_block_reader_matches_reference_on_faults_at_block_edges(k, tmp_path):
    # n = 400 spans several blocks; each file reads as the reference reads it:
    # the same graph (a CR line end, accepted through the text path), or the
    # same exception type and message
    n, path = 400, str(tmp_path / "g.txt")
    write_graph_reference(random_graph(random.Random(k), n, k), path)
    with open(path, "rb") as fh:
        data = fh.read()
    head, body = data[: data.index(b"\n") + 1], data[data.index(b"\n") + 1 :]
    spans, ends = _block_spans(n)
    assert len(spans) >= 3 and spans[-1][1] == len(body) - 1
    # the first and last byte of the first two blocks and of the last one,
    # and a row end inside the third block
    inner = next(e for e in ends if spans[2][0] < e < spans[2][1])
    offsets = {*spans[0], *spans[1], *spans[-1], inner}
    cases = [data]
    for at in sorted(offsets):
        cases += [head + faulty for faulty in _byte_faults(body, at, k)]
    # the last block truncated by one byte, and cut at its middle
    cases += [data[:-1], head + body[: (spans[-1][0] + spans[-1][1]) // 2]]
    for case in cases:
        _assert_reads_like_reference(case, path)


@pytest.mark.parametrize(
    "data",
    [
        b"1 3\n",
        b"1 3",
        b"1 3\r\n",
        b"1 3\n1\n",
        b"01 3\n",
        b"2\r 3\n2\n",  # int() takes "2\r", but the CR ends line 1
        b"2 3\n2\n",
        b"2 3\n2",
        b"2 3\n2\r",
        b"2 3\n0\n",
        b"2 3\n4\n",
        b"2 3\n \n",
        b"2 3\n2 \n",
        b"2 3\n\n2",
        b"2 9\n9\n\n",
    ],
)
def test_block_reader_matches_reference_on_orders_1_and_2(data, tmp_path):
    _assert_reads_like_reference(data, str(tmp_path / "g.txt"))


# n (n - 1) file bytes exceed one 32 KB block from n = 182 on
_WRITE_ORDERS = st.integers(1, 255).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(182 if k <= 9 else 1, 300)))


@pytest.mark.property_based
@given(kn=_WRITE_ORDERS, seed=st.integers(0, 10**6))
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(kn=(9, 182), seed=1)
@example(kn=(10, 1), seed=2)
@example(kn=(255, 2), seed=3)
def test_writer_matches_reference_writer_and_reads_back(kn, seed, tmp_path):
    k, n = kn
    g = random_graph(random.Random(seed), n, k)
    path, ref = str(tmp_path / "g.txt"), str(tmp_path / "ref.txt")
    write_graph(g, path)
    write_graph_reference(g, ref)
    with open(path, "rb") as got, open(ref, "rb") as want:
        data = got.read()
        assert data == want.read()
    assert k > 9 or len(data) > _FILE_BLOCK
    assert read_graph(path) == g


@pytest.mark.parametrize("offset", [0, 5, 65535, 65536, -1])
@pytest.mark.parametrize("bad", [0, 7])
def test_constructor_names_an_out_of_range_color(offset, bad):
    # the table is range-checked in slices; a bad color is found at and
    # around a slice edge and at either end, and named as before
    n, k = 400, 6
    table = bytearray(b"\x01") * (n * (n - 1) // 2)
    table[offset] = bad
    if offset == 5:
        table[100] = 0  # a later bad color in the same slice, smaller than 7, is not named
    with pytest.raises(ParameterError, match=f"^color id {bad} outside 1..{k}$"):
        ColoredCompleteGraph(n, k, table)


def test_constructor_and_copy_do_not_share_the_table():
    source = bytearray([1, 2, 1])
    g = ColoredCompleteGraph(3, 2, source)
    source[0] = 2
    assert g.color(0, 1) == 1
    h = table_copy(g)
    h.set_color(0, 1, 2)
    assert g.color(0, 1) == 1
    g.set_color(1, 2, 2)
    assert h.color(1, 2) == 1


def test_tower_build_holds_no_table_twice():
    # the last blow-up holds its five parts (a fifth of the table together)
    # and its output; a copy in the constructor makes it two tables or more
    tracemalloc.start()
    try:
        g = build_G82(6, verify=False).graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (g.n * (g.n - 1) // 2)


def test_parse_valid_triangle_file(tmp_path):
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write("3 2\n1 2\n1\n")
    g = read_graph(path)
    assert (g.color(0, 1), g.color(0, 2), g.color(1, 2)) == (1, 2, 1)


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, derandomize=True)
def test_symmetry_and_neighborhood_partition(seed):
    rng = random.Random(seed)
    n, k = rng.randint(2, 15), rng.randint(1, 4)
    g = random_graph(rng, n, k)
    for u in range(n):
        for v in range(u + 1, n):
            assert g.color(u, v) == g.color(v, u)
    for v in range(n):
        total = sum(len(_neighborhood(g, v, c)) for c in range(1, k + 1))
        assert total == n - 1


def _assert_rows_match_colors(g):
    for v in range(g.n):
        for c in range(1, g.k + 1):
            members = {w for w in range(g.n) if w != v and g.color(v, w) == c}
            assert g.rows(c)[v] == sum(1 << w for w in members)
            assert _neighborhood(g, v, c) == frozenset(members)


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6), n=st.integers(1, 140), k=st.integers(1, 12))
@settings(max_examples=40, derandomize=True, deadline=None)
# rows are built 64 vertices at a time: sizes at and around the block edges;
# colors go 8 to a group, so k = 9 puts color 9 alone in a second group
@example(seed=1, n=1, k=2)
@example(seed=2, n=2, k=3)
@example(seed=63, n=63, k=4)
@example(seed=64, n=64, k=2)
@example(seed=65, n=65, k=3)
@example(seed=128, n=128, k=4)
@example(seed=129, n=129, k=2)
@example(seed=9, n=70, k=9)
def test_bitset_rows_match_colors_after_mutation(seed, n, k):
    rng = random.Random(seed)
    g = random_graph(rng, n, k)
    _assert_rows_match_colors(g)  # builds the cache, so the setter has to drop it
    for _ in range(20 if n > 1 else 0):
        u = rng.randrange(n)
        v = (u + rng.randrange(1, n)) % n
        g.set_color(u, v, rng.randint(1, k))
    _assert_rows_match_colors(g)


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6), n=st.integers(1, 140), k=st.integers(1, 20))
@settings(max_examples=60, derandomize=True, deadline=None)
# the edges of the 8-byte lanes and 64-row blocks, and of the 8-color groups
@example(seed=1, n=7, k=8)
@example(seed=2, n=8, k=9)
@example(seed=3, n=9, k=16)
@example(seed=4, n=63, k=17)
@example(seed=5, n=64, k=255)
@example(seed=6, n=65, k=9)
@example(seed=7, n=129, k=17)
@example(seed=8, n=129, k=255)
def test_rows_match_reference_builder(seed, n, k):
    g = random_graph(random.Random(seed), n, k)
    assert g._build_rows() == build_rows_reference(g)


def test_rows_match_reference_builder_on_a_tower():
    g = build_G82(3, verify=False).graph
    assert g._build_rows() == build_rows_reference(g)


def test_row_build_holds_no_matrix_and_keeps_small_rows():
    g = build_G82(8, verify=False).graph
    tracemalloc.start()
    try:
        rows = g._build_rows()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 8
    # an n x n byte matrix alone is 3.1 MB, a copy of the table per color 1.55 MB
    assert peak - kept < 1_500_000
    # the base-2 builder kept 3.78 MB of rows: every row carried its leading zeros
    assert kept <= 3_780_000



def test_transposed_rows_match_reference_builder_on_a_tower(tmp_path):
    g = build_G82(3, verify=False).graph
    path = str(tmp_path / "g.txt")
    write_graph(g, path)
    back = read_graph(path)
    assert back._shape is None  # a table read from a file is transposed, not composed
    assert back._build_rows() == build_rows_reference(g)


def _row_build_memory(g):
    tracemalloc.start()
    try:
        rows = g._build_rows()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == g.k
    return kept, peak - kept


def test_transposed_row_build_holds_no_matrix_and_keeps_small_rows():
    tower = build_G82(8, verify=False).graph
    g = ColoredCompleteGraph(tower.n, tower.k, tower._colors)  # the same table, no shape
    kept, transient = _row_build_memory(g)
    assert transient < 1_500_000
    assert kept <= 3_780_000


def test_composed_row_build_holds_little_beyond_its_rows():
    # composition holds a stack of per-color masks and one transposed leaf
    # block at a time, where the transpose holds lane masks and byte blocks
    kept, transient = _row_build_memory(build_G82(8, verify=False).graph)
    assert transient < 300_000
    assert kept <= 3_780_000


def _assert_rows_match_reference(g):
    want = build_rows_reference(g)
    assert all(g.rows(c) == want[c] for c in range(1, g.k + 1))


def _nested_tower():
    # a pentagon of one reused join, so the shape nests a part in each of five parts
    return blowup_pentagon([join(new_monochromatic(2, 4, 1), new_monochromatic(1, 4, 1), 2)] * 5,
                           3, 4)


def _part_recolored_after_blowup():
    a = join(new_monochromatic(3, 4, 1), new_monochromatic(2, 4, 1), 2)
    b = new_monochromatic(4, 4, 1)
    g = join(a, b, 3)
    a.set_color(0, 1, 2)  # inside a's first block
    a.set_color(0, 3, 4)  # between a's blocks, at their first vertices
    b.set_color(0, 1, 2)
    return g


def _template_recolored_after_blowup():
    template = new_monochromatic(3, 4, 2)
    g = blowup(template, [new_monochromatic(2, 4, 1)] * 3)
    template.set_color(0, 1, 3)
    return g


def _blowup_recolored_before_rows():
    g = _nested_tower()
    g.set_color(0, 1, 4)  # inside a block
    g.set_color(0, 3, 1)  # between two parts' first vertices
    g.set_color(1, 14, 2)  # between two parts, off their first vertices
    return g


def _blowup_recolored_after_rows():
    g = _nested_tower()
    g.rows(1)
    g.set_color(0, 3, 1)
    g.set_color(1, 14, 2)
    return g


def _recolored_blowup_as_a_part():
    h = _nested_tower()
    h.set_color(0, 3, 1)
    return join(h, _nested_tower(), 2)


@pytest.mark.parametrize("make", [
    _part_recolored_after_blowup,
    _template_recolored_after_blowup,
    _blowup_recolored_before_rows,
    _blowup_recolored_after_rows,
    _recolored_blowup_as_a_part,
])
def test_rows_follow_recoloring_around_a_blowup(make):
    _assert_rows_match_reference(make())


@pytest.mark.parametrize("build, k", [(b, k) for b in (build_G62, build_G82) for k in range(2, 10)],
                         ids=[f"{b}-{k}" for b in ("g62", "g82") for k in range(2, 10)])
def test_composed_rows_match_reference_on_pinned_towers(build, k):
    _assert_rows_match_reference(build(k, verify=False).graph)


@pytest.mark.parametrize("k, t", [(1, 4), (2, 5), (3, 7), (4, 6), (5, 9), (6, 4), (7, 5)])
def test_composed_rows_match_reference_on_general_towers(k, t):
    _assert_rows_match_reference(build_general_lower(k, t, (1,), verify=False).graph)


@pytest.mark.property_based
@given(k=st.one_of(st.integers(1, 12), st.integers(1, 255)), n=st.integers(1, 200),
       seed=st.integers(0, 10**6))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_composed_rows_match_reference_on_samples(k, n, seed):
    _assert_rows_match_reference(random_gallai_sampler(k, n, seed))


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6), k=st.integers(1, 12), depth=st.integers(1, 4))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_composed_rows_match_reference_on_nested_blowups(seed, k, depth):
    _assert_rows_match_reference(random_nested_blowup(random.Random(seed), k, depth))

def _colors_inside_reference(g, a, e):
    """Mask with bit c for each color c on an edge with both ends in a..e-1."""
    inside = set(b"".join(g.row_bytes(u)[: e - u - 1] for u in range(a, e)))
    return sum(1 << c for c in inside)


def _no_rows(self):
    raise AssertionError("the shape record built colour rows")


def _assert_part_colors_match_reference(g):
    # the record is set by blowup, so flattening it must need no colour rows
    with mock.patch.object(ColoredCompleteGraph, "_build_rows", _no_rows):
        nodes = g._nodes()
    assert g._nodes() is nodes  # flattened once per graph
    firsts = [node[0][0] for node in nodes]
    assert firsts == sorted(firsts)  # the detector stops at the first center found
    # the parts of each node tile its span, every part that is not a leaf is
    # the span of one later node, and the leaf blocks tile the vertex set
    spans = sorted((node[0][0], node[-1][1]) for node in nodes[1:])
    assert (nodes[0][0][0], nodes[0][-1][1]) == (0, g.n)
    assert spans == sorted((a, e) for node in nodes for a, e, leaf, _ in node if not leaf)
    leaves = sorted((a, e) for node in nodes for a, e, leaf, _ in node if leaf)
    assert [a for a, _ in leaves] + [g.n] == [0] + [e for _, e in leaves]
    for node in nodes:
        assert all(e == b for (_, e, _, _), (b, _, _, _) in zip(node, node[1:]))
        for a, e, _, inside in node:
            assert inside == _colors_inside_reference(g, a, e)


@pytest.mark.parametrize("build, k", [(b, k) for b in (build_G62, build_G82) for k in range(2, 7)],
                         ids=[f"{b}-{k}" for b in ("g62", "g82") for k in range(2, 7)])
def test_part_colors_match_reference_on_pinned_towers(build, k):
    _assert_part_colors_match_reference(build(k, verify=False).graph)


@pytest.mark.parametrize("k, t", [(1, 4), (2, 5), (3, 7), (4, 6), (5, 9), (6, 4)])
def test_part_colors_match_reference_on_general_towers(k, t):
    _assert_part_colors_match_reference(build_general_lower(k, t, (1,), verify=False).graph)


@pytest.mark.property_based
@given(kind=st.sampled_from(("nested", "sample", "table")), seed=st.integers(0, 10**6),
       k=st.integers(1, 12))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_part_colors_match_reference_on_random_blowups(kind, seed, k):
    rng = random.Random(seed)
    if kind == "nested":
        g = random_nested_blowup(rng, k, rng.randint(1, 4))
    else:
        g = random_gallai_sampler(k, rng.randint(1, 120), seed)
        if kind == "table":
            g = table_copy(g)  # no shape: one leaf block of all its vertices
    _assert_part_colors_match_reference(g)


@pytest.mark.parametrize("build, k", [(b, k) for b in (build_G62, build_G82) for k in range(2, 6)],
                         ids=[f"{b}-{k}" for b in ("g62", "g82") for k in range(2, 6)])
def test_recolored_tower_is_one_leaf_block_of_its_table_colors(build, k):
    g = build(k, verify=False).graph
    g._nodes()
    g.rows(1)
    rng = random.Random(k)
    for _ in range(3):
        u, v = rng.sample(range(g.n), 2)
        g.set_color(u, v, rng.randint(1, k))
    g.set_color(0, g.n - 1, 1 + g.color(0, g.n - 1) % k)  # at least one edge changes
    assert g._shape is None
    assert g._nodes() == [[(0, g.n, True, _colors_inside_reference(g, 0, g.n))]]


@pytest.mark.property_based
@given(kind=st.sampled_from(("sample", "tower", "file", "reduced")), seed=st.integers(0, 10**6),
       k=st.integers(1, 12))
@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_tables_kept_unscanned_hold_only_colors_in_range(kind, seed, k, tmp_path):
    # only the public constructor range-checks a table; every table the package
    # builds itself is kept unscanned, so it must hold colors in 1..k alone
    rng = random.Random(seed)
    g = random_gallai_sampler(k, rng.randint(2, 150), seed)
    if kind == "tower":
        g = rng.choice([
            lambda: build_G62(rng.randint(2, 5), verify=False).graph,
            lambda: build_G82(rng.randint(2, 5), verify=False).graph,
            lambda: build_general_lower(rng.randint(1, 4), rng.randint(4, 9), (1,), verify=False).graph,
            lambda: two_clique_witness(rng.randint(3, 9), verify=False).graph,
            lambda: matched_clique(8, [rng.randint(1, k) for _ in range(4)], k),
        ])()
    elif kind == "file":
        path = tmp_path / "g.txt"
        write_graph(g, str(path))
        if rng.random() < 0.5:  # spell colors with a leading zero: the per-field reader
            path.write_bytes(re.sub(rb"(?<![0-9])([0-9])", rb"0\1", path.read_bytes()))
        g = read_graph(str(path))
    elif kind == "reduced":
        partition = find_gallai_partition(g)
        assert isinstance(partition, GallaiPartition)
        g = partition.reduced
    assert g._colors.translate(None, bytes(range(1, g.k + 1))) == b""


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6), n=st.integers(1, 30), k=st.integers(1, 255))
@settings(max_examples=60, derandomize=True)
def test_used_colors_after_mutation(seed, n, k):
    rng = random.Random(seed)
    g = new_monochromatic(n, k, 1)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(rng.randint(1, 3 * n) if pairs else 0):
        g.set_color(*rng.choice(pairs), rng.randint(1, k))
        assert g.used_colors() == sorted({g.color(u, v) for u, v in pairs})
    assert g.used_colors() == sorted({g.color(u, v) for u, v in pairs})
