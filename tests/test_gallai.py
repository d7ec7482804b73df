"""Tests for Gallai partition extraction, verification, and reduction."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import gallai_ramsey.gallai
from gallai_ramsey.cli import run
from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    blowup,
    blowup_pentagon,
    join,
    new_monochromatic,
    write_graph,
)
from gallai_ramsey.constructions import build_G62, build_G82, build_general_lower
from gallai_ramsey.gallai import (
    GallaiPartition,
    _components,
    coarsest_partition_over_pairs,
    find_gallai_partition,
    find_rainbow_triangle,
    reduced_graph,
    verify_gallai_partition,
)
from gallai_ramsey.patterns import RainbowTriangle, scan_rainbow_triangle
from gallai_ramsey.search import random_gallai_sampler

from helpers import (
    build_rows_reference,
    components_reference,
    gallai_partition_reference,
    rainbow_free_3colorings,
    random_graph,
    random_nested_blowup,
    table_copy,
    verify_gallai_partition_reference,
)

# 2-coloring of K_5 by the five-cycle: edges (i, i+1 mod 5) get color 1,
# diagonals color 2.  Both color classes are connected.
PENTAGON_K5 = bytes([1, 2, 2, 1, 1, 2, 2, 1, 2, 1])


def pentagon_k5() -> ColoredCompleteGraph:
    g = ColoredCompleteGraph(5, 2, PENTAGON_K5)
    assert all(g.color(i, (i + 1) % 5) == 1 for i in range(5))
    return g


def test_both_classes_connected_gives_singletons():
    # neither single color disconnects the rest, so only the pair works
    g = pentagon_k5()
    p = find_gallai_partition(g)
    assert isinstance(p, GallaiPartition)
    assert p.parts == ((0,), (1,), (2,), (3,), (4,))
    assert p.reduced == g
    assert verify_gallai_partition(g, p) == ()


def test_join_two_parts():
    g = join(new_monochromatic(4, 2, 1), new_monochromatic(3, 2, 1), 2)
    p = find_gallai_partition(g)
    assert isinstance(p, GallaiPartition)
    assert len(p.parts) == 2
    assert p.parts == ((0, 1, 2, 3), (4, 5, 6))
    assert p.reduced == new_monochromatic(2, 2, 2)
    assert verify_gallai_partition(g, p) == ()


def test_monochromatic_partitions():
    g = new_monochromatic(6, 2, 1)
    p = find_gallai_partition(g)
    assert isinstance(p, GallaiPartition)
    # removing the only used color isolates everything
    assert len(p.parts) == 6
    c = coarsest_partition_over_pairs(g)
    assert len(c.parts) == 2
    assert verify_gallai_partition(g, c) == ()


def test_blowup_pentagon_partition():
    base = new_monochromatic(4, 3, 1)
    g = blowup_pentagon([table_copy(base) for _ in range(5)], 2, 3)
    assert g.n == 20
    p = find_gallai_partition(g)
    assert isinstance(p, GallaiPartition)
    assert len(p.parts) == 5
    assert p.reduced.used_colors() == [2, 3]
    assert verify_gallai_partition(g, p) == ()


def test_blowup_reduced_graph_is_triangle_free():
    base = new_monochromatic(3, 3, 1)
    g = blowup_pentagon([table_copy(base) for _ in range(5)], 2, 3)
    c = coarsest_partition_over_pairs(g)
    assert len(c.parts) == 5
    rg = reduced_graph(g, c)
    assert rg.n == 5
    assert sorted(rg.used_colors()) == [2, 3]
    for a, b, d in combinations(range(5), 3):
        cols = {rg.color(a, b), rg.color(a, d), rg.color(b, d)}
        assert len(cols) > 1


def _all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def test_pentagon_coarsest_is_singletons_exhaustively():
    # check against all 52 set partitions of 5 vertices: nothing with
    # 2..4 parts is homogeneous between every pair
    g = pentagon_k5()
    c = coarsest_partition_over_pairs(g)
    assert len(c.parts) == 5
    for blocks in _all_set_partitions(list(range(5))):
        if len(blocks) in (1, 5):
            continue
        parts = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
        homogeneous = True
        for i, j in combinations(range(len(parts)), 2):
            cols = {g.color(u, v) for u in parts[i] for v in parts[j]}
            if len(cols) != 1:
                homogeneous = False
                break
        assert not homogeneous, parts


def test_coarsest_join_is_two_parts():
    g = join(new_monochromatic(5, 3, 1), new_monochromatic(5, 3, 2), 3)
    c = coarsest_partition_over_pairs(g)
    assert len(c.parts) == 2
    assert c.reduced == new_monochromatic(2, 3, 3)


def test_coarsest_merges_one_color_parts_before_any_reduced_table():
    # a monochromatic K_2000 splits into 2000 singleton parts joined in one color
    g = new_monochromatic(2000, 1, 1)
    g.rows(1)  # built before tracing, so the peak is coarsest's own
    tracemalloc.start()
    try:
        c = coarsest_partition_over_pairs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c.parts) == 2 and c.reduced.n == 2
    assert peak < 2000 * 1999 // 2  # the table of the 2000-part reduced graph


def test_rainbow_triangle_blocks_partition():
    g = ColoredCompleteGraph(3, 3, bytes([1, 2, 3]))
    res = find_gallai_partition(g)
    assert isinstance(res, RainbowTriangle)
    assert res.vertices == (0, 1, 2)
    assert res.validate(g)
    res2 = coarsest_partition_over_pairs(g)
    assert isinstance(res2, RainbowTriangle)
    assert res2.validate(g)


def test_verify_rejects_non_partition():
    g = new_monochromatic(4, 2, 1)
    bad = GallaiPartition(parts=((0, 1), (1, 2, 3)), reduced=new_monochromatic(2, 2, 1))
    with pytest.raises(ParameterError):
        verify_gallai_partition(g, bad)
    missing = GallaiPartition(parts=((0, 1), (2,)), reduced=new_monochromatic(2, 2, 1))
    with pytest.raises(ParameterError):
        verify_gallai_partition(g, missing)
    empty = GallaiPartition(parts=((0, 1), (), (2, 3)), reduced=new_monochromatic(3, 2, 1))
    with pytest.raises(ParameterError, match="^empty part$"):
        verify_gallai_partition(g, empty)
    # a reduced graph that is not on the parts, or not in g's colors
    for reduced in (new_monochromatic(3, 2, 1), new_monochromatic(2, 3, 1)):
        p = GallaiPartition(parts=((0, 1), (2, 3)), reduced=reduced)
        with pytest.raises(ParameterError, match=r"^reduced graph has n="):
            verify_gallai_partition(g, p)


def test_verify_flags_inhomogeneous_pair():
    g = new_monochromatic(4, 2, 1)
    g.set_color(0, 2, 2)
    p = GallaiPartition(parts=((0, 1), (2, 3)), reduced=new_monochromatic(2, 2, 1))
    assert verify_gallai_partition(g, p) == (
        "edge (0, 2) has color 2, part pair (0, 1) is recorded as color 1",
    )


def test_verify_flags_wrong_recorded_color():
    g = join(new_monochromatic(2, 2, 1), new_monochromatic(2, 2, 1), 2)
    p = GallaiPartition(parts=((0, 1), (2, 3)), reduced=new_monochromatic(2, 2, 1))
    assert verify_gallai_partition(g, p) == (
        "edge (0, 2) has color 2, part pair (0, 1) is recorded as color 1",
    )


def _verdict(verify, g, p):
    try:
        return verify(g, p)
    except ParameterError as exc:
        return ParameterError, str(exc)


@pytest.mark.property_based
@given(
    seed=st.integers(0, 10**6),
    faults=st.lists(st.sampled_from(("mixed", "recorded", "order", "unsorted")), max_size=4),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_verify_matches_reference_on_bad_partitions(seed, faults):
    # a valid partition of a Gallai coloring, then faults: an edge between
    # two parts recolored, a pair color of the reduced graph changed, a
    # reduced graph of the wrong order, the vertices of every part reordered
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    g = random_gallai_sampler(k, rng.randint(2, 40), seed)
    p = find_gallai_partition(g)
    parts = [list(part) for part in p.parts]
    reduced = table_copy(p.reduced)
    for fault in faults:
        if fault == "mixed" and k > 1:
            i, j = rng.sample(range(len(parts)), 2)
            u, v = rng.choice(parts[i]), rng.choice(parts[j])
            g.set_color(u, v, rng.choice([c for c in range(1, k + 1) if c != g.color(u, v)]))
        elif fault == "recorded" and reduced.n > 1:
            i, j = rng.sample(range(reduced.n), 2)
            reduced.set_color(i, j, rng.randint(1, k))
        elif fault == "order":
            reduced = new_monochromatic(len(parts) + rng.choice((-1, 1)), k, 1)
        elif fault == "unsorted":
            for part in parts:
                rng.shuffle(part)
    bad = GallaiPartition(tuple(map(tuple, parts)), reduced)
    verdict = _verdict(verify_gallai_partition, g, bad)
    assert verdict == _verdict(verify_gallai_partition_reference, g, bad)
    if "order" in faults:
        assert verdict[0] is ParameterError


def _reduce_lines(g: ColoredCompleteGraph, tmp_path, capsys) -> list[str]:
    path = str(tmp_path / "g.txt")
    write_graph(g, path)
    assert run(["reduce", "--in", path]) == 0
    return capsys.readouterr().out.splitlines()


def test_reduced_graph_representatives(tmp_path, capsys):
    g = join(new_monochromatic(4, 2, 1), new_monochromatic(3, 2, 1), 2)
    p = find_gallai_partition(g)
    rg = reduced_graph(g, p)
    assert rg.n == 2
    assert rg.color(0, 1) == 2
    assert _reduce_lines(g, tmp_path, capsys) == ["reduced n=2 colors=2", "representatives: 0 4"]


def test_reduced_graph_of_singleton_partition_copies_colors(tmp_path, capsys):
    g = pentagon_k5()
    p = find_gallai_partition(g)
    assert reduced_graph(g, p) == g
    assert _reduce_lines(g, tmp_path, capsys)[1] == "representatives: 0 1 2 3 4"


def test_reduced_graph_rejects_invalid_partition():
    g = new_monochromatic(4, 2, 1)
    g.set_color(0, 2, 2)
    p = GallaiPartition(parts=((0, 1), (2, 3)), reduced=new_monochromatic(2, 2, 1))
    with pytest.raises(ParameterError, match=r"^edge \(0, 2\) has color 2, part pair"):
        reduced_graph(g, p)


def test_sampler_output_admits_partition():
    for seed in range(25):
        rng = random.Random(seed)
        k = rng.randint(1, 5)
        n = rng.randint(2, 120)
        g = random_gallai_sampler(k, n, seed)
        assert g.n == n and g.k == k
        assert find_rainbow_triangle(g) is None
        p = find_gallai_partition(g)
        assert isinstance(p, GallaiPartition)
        assert verify_gallai_partition(g, p) == ()
        rg = reduced_graph(g, p)
        assert len(rg.used_colors()) <= 2


def _planted_graph(rng, k):
    # internal edges avoid color k, every between edge is color k; a valid
    # part touching two blocks must then swallow both of them whole
    sizes = []
    target = 6 + rng.randint(0, 5)
    while sum(sizes) < target:
        sizes.append(rng.randint(1, 4))
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    n = start
    part_of = {v: i for i, blk in enumerate(blocks) for v in blk}
    buf = bytearray()
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] == part_of[v]:
                buf.append(rng.randint(1, k - 1))
            else:
                buf.append(k)
    return ColoredCompleteGraph(n, k, bytes(buf)), blocks


@pytest.mark.property_based
@settings(max_examples=120, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9))
def test_planted_partition_recovered_or_refined(seed):
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    g, planted = _planted_graph(rng, k)
    res = find_gallai_partition(g)
    if isinstance(res, RainbowTriangle):
        assert res.validate(g)
        return
    assert verify_gallai_partition(g, res) == ()
    cover = {v: i for i, blk in enumerate(planted) for v in blk}
    for part in res.parts:
        owners = {cover[v] for v in part}
        if len(owners) > 1:
            merged = sorted(v for i in owners for v in planted[i])
            assert sorted(part) == merged


@pytest.mark.property_based
@settings(max_examples=150, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9))
def test_partition_or_rainbow_dichotomy(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    k = rng.randint(1, 4)
    g = random_graph(rng, n, k)
    res = find_gallai_partition(g)
    if isinstance(res, RainbowTriangle):
        # failure must carry a genuine rainbow triangle
        assert res.validate(g)
        assert find_rainbow_triangle(g) is not None
    else:
        # note: a partition may exist even with a rainbow triangle hiding
        # inside one part, so only soundness is asserted here
        assert verify_gallai_partition(g, res) == ()
        assert 2 <= len(res.parts) <= n
        cval = coarsest_partition_over_pairs(g)
        assert isinstance(cval, GallaiPartition)
        assert verify_gallai_partition(g, cval) == ()
        assert len(cval.parts) <= len(res.parts)
    if find_rainbow_triangle(g) is None:
        # completeness: rainbow-free colorings always partition
        assert isinstance(res, GallaiPartition)


def _reference_inputs(kind, seed):
    rng = random.Random(seed)
    if kind == "towers":
        return [build(k, verify=False).graph for build in (build_G62, build_G82) for k in range(2, 6)]
    if kind == "random":
        return [random_graph(rng, rng.randint(2, 14), rng.randint(1, 4))]
    if kind == "planted":
        return [_planted_graph(rng, rng.randint(3, 5))[0]]
    k, n = rng.randint(1, 6), rng.randint(2, 200)
    g = random_gallai_sampler(k, n, seed)
    if kind == "recolored":
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            g.set_color(u, v, rng.randint(1, k))
    return [g]


@pytest.mark.property_based
@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(("sampler", "recolored", "planted", "random")),
    seed=st.integers(min_value=0, max_value=10**9),
)
@example(kind="towers", seed=0)
def test_partition_matches_reference(kind, seed):
    # the bitset engine and the union-find reference must agree exactly:
    # same candidate, same parts, same pair colors, same triangle
    for g in _reference_inputs(kind, seed):
        for fn, coarsest in (
            (find_gallai_partition, False),
            (coarsest_partition_over_pairs, True),
        ):
            # dataclass equality: same type, and every field equal
            assert fn(g) == gallai_partition_reference(g, coarsest=coarsest)


@pytest.mark.property_based
def test_components_match_union_find_on_subsets():
    # every 1- and 2-color candidate over the colors inside random vertex
    # subsets, not only the whole set: same components in the same order,
    # and None exactly when the first one is the whole subset
    outcomes = set()
    for seed in range(150):
        rng = random.Random(seed)
        k = rng.randint(1, 5)
        for g in (random_graph(rng, rng.randint(2, 16), k),
                  random_nested_blowup(rng, k, rng.randint(1, 3)),
                  random_gallai_sampler(k, rng.randint(2, 60), seed)):
            for _ in range(3):
                members = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
                S = sum(1 << v for v in members)
                used = sorted({g.color(u, v) for u, v in combinations(members, 2)})
                for cand in (*combinations(used, 1), *combinations(used, 2)):
                    ref = components_reference(g, members, frozenset(cand))
                    got = _components([g.rows(c) for c in cand], S)
                    if len(ref) == 1:
                        assert got is None
                    else:
                        assert got == [sum(1 << v for v in comp) for comp in ref]
                    outcomes.add(got is None)
    assert outcomes == {True, False}


class _CountingRows(list):
    """One color's rows, counting the rows read from them."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, u):
        self.reads += 1
        return super().__getitem__(u)


def _root_reads(g):
    """Rows read by the component search of each candidate at the whole vertex set."""
    S = (1 << g.n) - 1
    used = g.used_colors()
    out = {}
    for cand in (*combinations(used, 1), *combinations(used, 2)):
        inside = [_CountingRows(g.rows(c)) for c in cand]
        comps = _components(inside, S)
        out[cand] = comps is not None, sum(rows.reads for rows in inside)
    return out


@pytest.mark.parametrize("k", [7, 8])
def test_candidates_that_do_not_split_read_few_rows(k):
    # the one candidate that splits G82(k) must expand its components, but a
    # candidate that does not reaches the whole set within a few expansions
    # (a search that expands vertex 0's module first reads hundreds of rows)
    reads = _root_reads(table_copy(build_G82(k, verify=False).graph))
    assert [cand for cand, (splits, _) in reads.items() if splits] == [(k - 1, k)]
    assert max(n for splits, n in reads.values() if not splits) <= 64


def test_singleton_components_read_each_row_once():
    g = new_monochromatic(2000, 1, 1)
    ((splits, reads),) = _root_reads(g).values()
    assert splits and reads <= g.n


def _rainbow_at_depth(rng, k, depth):
    """A blow-up nested ``depth`` levels deep over 2-colored templates, with
    one rainbow triangle, in colors 1, 2 and 3, as its innermost block."""
    g = ColoredCompleteGraph(3, k, bytes([1, 2, 3]))
    for _ in range(depth):
        m = rng.randint(2, 4)
        pair = rng.sample(range(1, k + 1), 2)
        template = ColoredCompleteGraph(m, k, bytes(rng.choice(pair) for _ in range(m * (m - 1) // 2)))
        parts = [g] + [random_gallai_sampler(k, rng.randint(1, 6), rng.randrange(1000))
                       for _ in range(m - 1)]
        rng.shuffle(parts)
        g = blowup(template, parts)
    return g


@pytest.mark.parametrize("seed", range(30))
def test_tree_finds_a_deep_rainbow_triangle_through_inherited_colors(seed):
    # a part that inherited its parent's colors less the split's candidate
    # colors would miss a color of the triangle whenever a candidate holds
    # one (at k = 3 always), and could then pass as a 2-colored leaf
    rng = random.Random(seed)
    g = _rainbow_at_depth(rng, rng.randint(3, 5), rng.randint(2, 4))
    tri = scan_rainbow_triangle(g)
    assert tri is not None
    assert find_rainbow_triangle(table_copy(g)) == tri == find_rainbow_triangle(g)


# -- Gallai-tree certification ------------------------------------------------


@pytest.fixture
def no_scan_fallback(monkeypatch):
    """Make the tree's fallback to the direct scan fail the test.

    By Gallai's theorem every vertex set of a rainbow-free coloring splits,
    so certifying one must never reach the fallback.
    """

    def fail(g):
        raise AssertionError("rainbow-free input fell back to the direct scan")

    monkeypatch.setattr(gallai_ramsey.gallai, "scan_rainbow_triangle", fail)


def test_tree_certifies_every_rainbow_free_class(no_scan_fallback):
    # every color-permutation class of rainbow-free 3-colorings, n <= 6
    for n in range(2, 7):
        for g in rainbow_free_3colorings(n):
            assert scan_rainbow_triangle(g) is None
            assert find_rainbow_triangle(g) is None


def test_tree_certifies_towers_and_samples(no_scan_fallback):
    # from the blow-up's shape, and through a copy, which holds none
    graphs = [build(k, verify=False).graph for build in (build_G62, build_G82) for k in range(2, 7)]
    graphs += [build_general_lower(k, t, (1,), verify=False).graph
               for k, t in ((1, 4), (2, 5), (3, 7), (4, 6), (5, 9), (6, 4), (7, 5))]
    for seed in range(40):
        rng = random.Random(seed)
        graphs.append(random_gallai_sampler(rng.randint(1, 6), rng.randint(1, 200), seed))
    for g in graphs:
        assert find_rainbow_triangle(g) is None
        assert find_rainbow_triangle(table_copy(g)) is None


def test_sample_is_certified_without_rows(monkeypatch):
    # every template of the sampler is 2-colored and every leaf block one
    # vertex, so its shape alone certifies it
    def fail(self):
        raise AssertionError("a sample's certificate built colour rows")

    monkeypatch.setattr(ColoredCompleteGraph, "_build_rows", fail)
    for seed in range(20):
        rng = random.Random(seed)
        g = random_gallai_sampler(rng.randint(1, 255), rng.randint(1, 500), seed)
        assert find_rainbow_triangle(g) is None


def _template_colors(g):
    """Colors between the parts of each template node, read at their first vertices."""
    return [{g.color(a, b) for (a, _, _, _), (b, _, _, _) in combinations(node, 2)}
            for node in g._nodes()]


@pytest.mark.parametrize("m, template", [
    (3, bytes([1, 2, 3])),  # rainbow across its parts
    (4, bytes([3, 3, 3, 1, 1, 2])),  # rainbow-free: vertex 0 sees the rest in color 3
], ids=["rainbow", "rainbow-free"])
def test_blowup_over_three_colors_holds_no_shape(m, template):
    parts = [join(new_monochromatic(2, 3, 1), new_monochromatic(3, 3, 2), 1),
             new_monochromatic(4, 3, 3), new_monochromatic(1, 3, 1),
             join(new_monochromatic(1, 3, 2), new_monochromatic(2, 3, 3), 1)][:m]
    g = blowup(ColoredCompleteGraph(m, 3, template), parts)
    assert g._shape is None
    assert [[part[:3] for part in node] for node in g._nodes()] == [[(0, g.n, True)]]
    assert g._build_rows() == build_rows_reference(g)
    assert find_rainbow_triangle(g) == scan_rainbow_triangle(g)
    # as a part of a 2-colored template it is one leaf block of the outer shape
    outer = join(g, new_monochromatic(2, 3, 3), 2)
    assert [[part[:3] for part in node] for node in outer._nodes()] == [
        [(0, g.n, True), (g.n, g.n + 2, True)]]
    assert outer._build_rows() == build_rows_reference(outer)
    assert find_rainbow_triangle(outer) == scan_rainbow_triangle(outer)


def test_every_template_node_is_two_colored():
    towers = [build(k, verify=False).graph for build in (build_G62, build_G82) for k in range(2, 7)]
    graphs = towers + [build_general_lower(k, t, (1,), verify=False).graph
                       for k in range(1, 6) for t in (4, 7, 9)]
    graphs += [random_gallai_sampler(k, 200, seed) for k in range(1, 10) for seed in range(3)]
    rng = random.Random(0)
    graphs += [random_nested_blowup(rng, rng.randint(1, 6), rng.randint(1, 4)) for _ in range(100)]
    assert all(g._shape is not None for g in towers)
    for g in graphs:
        assert all(len(colors) <= 2 for colors in _template_colors(g))


def _recolored_inputs(family, seed):
    if family == "nested":
        # not recolored: random templates and leaf blocks, so some are rainbow
        rng = random.Random(seed)
        return [random_nested_blowup(rng, rng.randint(1, 6), rng.randint(1, 4))]
    if family == "sampler":
        rng = random.Random(seed)
        k, n = rng.randint(1, 6), rng.randint(3, 200)
        g = random_gallai_sampler(k, n, seed)
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            g.set_color(u, v, rng.randint(1, k))
        return [g]
    build = {"g62": build_G62, "g82": build_G82}[family]
    out = []
    for k in range(2, 7):
        g = build(k, verify=False).graph
        # vertices 0..2 lie in the first K_5/K_7 block, a leaf of the tree;
        # where that block is a matched clique, (0, 1, 2) becomes rainbow
        g.set_color(0, 2, k)
        out.append(g)
    return out


@pytest.mark.property_based
@settings(max_examples=300, derandomize=True, deadline=None)
@given(family=st.sampled_from(("sampler", "nested")),
       seed=st.integers(min_value=0, max_value=10**9))
@example(family="g62", seed=0)
@example(family="g82", seed=0)
def test_tree_matches_scan_on_recolored_gallai_colorings(family, seed):
    # recolored edges put rainbow triangles deep inside the tree, and a nested
    # blow-up's rainbow templates and leaf blocks lie in its shape; the triangle
    # must be the scan's lexicographically first one, from the shape or without it
    for g in _recolored_inputs(family, seed):
        tri = scan_rainbow_triangle(g)
        assert find_rainbow_triangle(g) == tri == find_rainbow_triangle(table_copy(g))
