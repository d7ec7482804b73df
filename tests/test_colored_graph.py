"""Representation, composition operators, and file round-trip for colored graphs."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    GraphParseError,
    ParameterError,
    blowup,
    blowup_pentagon,
    iter_bits,
    join,
    new_monochromatic,
    read_graph,
    substitute_part,
    write_graph,
)
from helpers import has_mono_triangle_slow, has_rainbow_triangle_slow, random_graph


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
    return frozenset(iter_bits(g.row(v, c)))


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


def test_substitute_part_identity():
    g = join(new_monochromatic(5, 4, 1), new_monochromatic(5, 4, 1), 2)
    same = substitute_part(g, range(5, 10), new_monochromatic(5, 4, 1))
    assert same == g


def test_substitute_part_grows_order():
    parts = [new_monochromatic(5, 4, 1) for _ in range(5)]
    g = blowup_pentagon(parts, 2, 3)
    repl = new_monochromatic(6, 4, 1)
    h = substitute_part(g, range(5, 10), repl)
    assert h.n == 26
    # external vertices keep their single color toward the whole replacement
    for w in list(range(5)) + list(range(11, 26)):
        cols = {h.color(w, x) for x in range(5, 11)}
        assert len(cols) == 1


@pytest.mark.parametrize(
    "block, stray",
    [(range(5, 10), (0, 7)), (range(0, 5), (7, 2))],
    ids=["before", "after"],
)
def test_substitute_part_rejects_inhomogeneous(block, stray):
    # the stray color sits on a vertex before the block, or on one after it
    g = join(new_monochromatic(5, 4, 1), new_monochromatic(5, 4, 1), 2)
    g.set_color(*stray, 3)
    with pytest.raises(ParameterError, match=f"vertex {stray[0]} sees colors \\[2, 3\\]"):
        substitute_part(g, block, new_monochromatic(5, 4, 1))


def test_substitute_part_rejects_non_consecutive_part():
    g = join(new_monochromatic(5, 4, 1), new_monochromatic(5, 4, 1), 2)
    with pytest.raises(ParameterError, match="consecutive"):
        substitute_part(g, [5, 6, 8], new_monochromatic(3, 4, 1))


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, derandomize=True)
def test_substitute_part_round_trip(seed):
    # splicing a same-size replacement in and the original block back is identity
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    g = random_graph(rng, n, 3)
    a = rng.randrange(n - 1)
    b = rng.randint(a + 1, n)
    block = list(range(a, b))
    for w in range(n):
        if w not in block:
            c = g.color(w, block[0])
            for p in block[1:]:
                g.set_color(w, p, c)
    # the block's own coloring: the start of each member's row
    original = ColoredCompleteGraph(b - a, 3, b"".join(g.row_bytes(p)[: b - p - 1] for p in block))
    repl = random_graph(rng, len(block), 3)
    h = substitute_part(g, block, repl)
    assert h.n == g.n
    assert substitute_part(h, block, original) == g


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
        n, k = rng.randint(1, 40), rng.randint(1, 6)
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
            assert g.row(v, c) == sum(1 << w for w in members)
            assert _neighborhood(g, v, c) == frozenset(members)


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6), n=st.integers(1, 140))
@settings(max_examples=40, derandomize=True, deadline=None)
# rows are built 64 vertices at a time: sizes at and around the block edges
@example(seed=1, n=1)
@example(seed=2, n=2)
@example(seed=63, n=63)
@example(seed=64, n=64)
@example(seed=65, n=65)
@example(seed=128, n=128)
@example(seed=129, n=129)
def test_bitset_rows_match_colors_after_mutation(seed, n):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    g = random_graph(rng, n, k)
    _assert_rows_match_colors(g)  # builds the cache, so the setter has to maintain it
    for _ in range(20 if n > 1 else 0):
        u = rng.randrange(n)
        v = (u + rng.randrange(1, n)) % n
        g.set_color(u, v, rng.randint(1, k))
    _assert_rows_match_colors(g)


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6), n=st.integers(1, 30), k=st.integers(1, 255))
@settings(max_examples=60, derandomize=True)
def test_used_colors_after_mutation(seed, n, k):
    rng = random.Random(seed)
    g = ColoredCompleteGraph(n, k)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(rng.randint(1, 3 * n) if pairs else 0):
        g.set_color(*rng.choice(pairs), rng.randint(1, k))
        assert g.used_colors() == sorted({g.color(u, v) for u, v in pairs})
    assert g.used_colors() == sorted({g.color(u, v) for u, v in pairs})
