"""Detector correctness: rainbow triangles, maximum matching, pattern search.

The fast detectors are validated against deliberately naive oracles: a triple
loop for rainbow triangles, branch-and-bound edge enumeration for matchings,
and explicit embedding enumeration for pattern containment.
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gallai_ramsey.patterns
from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    blowup,
    join,
    new_monochromatic,
)
from gallai_ramsey.constructions import (
    build_G62,
    build_G82,
    build_general_lower,
    two_clique_witness,
)
from gallai_ramsey.gallai import find_rainbow_triangle
from gallai_ramsey.patterns import (
    RainbowTriangle,
    SPattern,
    SWitness,
    brute_force_contains_S,
    disjoint_edges,
    find_mono_S,
    scan_rainbow_triangle,
)
from helpers import (
    FAILING_S41_WITNESSES,
    OFF_COLOR_K6,
    blossom_nu,
    brute_max_matching,
    check_disjoint_edges,
    find_mono_S_reference,
    has_rainbow_triangle_slow,
    random_blowup,
    random_graph,
    random_nested_blowup,
    random_parts_graph,
    table_copy,
)
from gallai_ramsey.search import random_gallai_sampler


# -- pattern parameter validation ---------------------------------------------


def test_spattern_validation():
    assert SPattern(6, 2).pendant_count == 1
    for t, r in [(1, 0), (4, 2), (5, 3), (3, -1)]:
        with pytest.raises(ParameterError):
            SPattern(t, r)


# -- rainbow triangles ---------------------------------------------------------


# the Gallai-tree certificate and the direct scan it falls back on
RAINBOW_FINDERS = (find_rainbow_triangle, scan_rainbow_triangle)


def test_two_colored_graph_has_no_rainbow_triangle():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 12), 2)
        for find in RAINBOW_FINDERS:
            assert find(g) is None


def test_rainbow_k3():
    g = ColoredCompleteGraph(3, 3, bytes([1, 2, 3]))
    for find in RAINBOW_FINDERS:
        tri = find(g)
        assert tri is not None and tri.vertices == (0, 1, 2)
        assert sorted(tri.colors) == [1, 2, 3]
        assert tri.validate(g)


@pytest.mark.parametrize("vertices", [(0, 0, 1), (0, 1, 0), (2, 1, 1), (0, 1, 3), (-1, 0, 1)])
def test_rainbow_validate_refuses_a_repeated_vertex(vertices):
    # refused before an edge is read: a vertex repeated would be a self-loop,
    # and one outside 0..n-1 has no edge to read
    g = ColoredCompleteGraph(3, 3, bytes([1, 2, 3]))
    assert RainbowTriangle(vertices, (1, 2, 3)).validate(g) is False


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6))
@settings(max_examples=200, derandomize=True)
def test_rainbow_scan_matches_triple_loop(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 14), rng.randint(1, 5))
    slow = has_rainbow_triangle_slow(g)
    tri = scan_rainbow_triangle(g)
    assert (tri is None) == (slow is None)
    if tri is not None:
        assert tri.validate(g)
        assert tri.vertices == slow  # lexicographically first triple
    assert find_rainbow_triangle(g) == tri


# -- maximum matching ----------------------------------------------------------


def _graph_with_colored_edges(n, k, c, edges, other):
    buf = bytearray()
    eset = {tuple(sorted(e)) for e in edges}
    for u in range(n):
        for v in range(u + 1, n):
            buf.append(c if (u, v) in eset else other)
    return ColoredCompleteGraph(n, k, buf)


def _nu(rows, members):
    """Largest need that ``disjoint_edges`` answers with edges, each answer
    re-validated; the next need up must give None."""
    need = 0
    while (edges := disjoint_edges(rows, members, need + 1)) is not None:
        need += 1
        check_disjoint_edges(rows, members, need, edges)
    return need


def test_matching_perfect_on_k4():
    g = new_monochromatic(4, 2, 1)
    assert _nu(g.rows(1), 0b1111) == 2
    assert _nu(g.rows(2), 0b1111) == 0
    assert disjoint_edges(g.rows(2), 0b1111, 0) == ()


def test_matching_five_cycle():
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    g = _graph_with_colored_edges(5, 2, 1, cycle, 2)
    assert _nu(g.rows(1), 0b11111) == 2


def test_matching_needs_blossom_swap():
    # triangle with a tail: greedy from the tail must unwind through the odd cycle
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    g = _graph_with_colored_edges(5, 2, 1, edges, 2)
    assert _nu(g.rows(1), 0b11111) == 2
    # two triangles joined by an edge: perfect matching exists
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    g = _graph_with_colored_edges(6, 2, 1, edges, 2)
    assert _nu(g.rows(1), 0b111111) == 3


def test_matching_respects_vertex_subset():
    g = new_monochromatic(6, 2, 1)
    assert _nu(g.rows(1), 0b10101) == 1
    assert _nu(g.rows(1), 0b1) == 0
    assert _nu(g.rows(1), 0) == 0
    assert disjoint_edges(g.rows(1), 0, -1) == ()


@pytest.mark.property_based
def test_matching_agrees_with_exhaustive_enumeration():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(2, 10)
        k = 2
        g = random_graph(rng, n, k)
        members = [v for v in range(n) if rng.random() < 0.8]
        edges = [
            (a, b) for a, b in combinations(members, 2) if g.color(a, b) == 1
        ]
        mask = sum(1 << v for v in members)
        assert _nu(g.rows(1), mask) == brute_max_matching(n, edges) == blossom_nu(g.rows(1), mask)


# -- pattern detector vs embedding oracle --------------------------------------


def test_small_host_has_no_pattern():
    for t, r in [(5, 2), (6, 2), (4, 1)]:
        g = new_monochromatic(t - 1, 2, 1)
        assert find_mono_S(g, 1, SPattern(t, r)) is None


def test_two_clique_join_is_free_for_s62():
    g = join(new_monochromatic(5, 2, 1), new_monochromatic(5, 2, 1), 2)
    p = SPattern(6, 2)
    for c in (1, 2):
        assert find_mono_S(g, c, p) is None
        assert not brute_force_contains_S(g, c, p)


def test_monochromatic_host_contains_pattern():
    for t, r in [(4, 1), (6, 2), (7, 3), (5, 0)]:
        g = new_monochromatic(t, 2, 1)
        p = SPattern(t, r)
        w = find_mono_S(g, 1, p)
        assert w is not None and w.validate(g, p)
        assert brute_force_contains_S(g, 1, p)


@pytest.mark.parametrize("name", sorted(FAILING_S41_WITNESSES))
def test_witness_validate_refuses_each_fault(name):
    p = SPattern(4, 1)
    assert SWitness(0, ((1, 2),), (3,), 1).validate(OFF_COLOR_K6, p)
    assert not FAILING_S41_WITNESSES[name].validate(OFF_COLOR_K6, p)


def test_empty_color_class():
    g = new_monochromatic(8, 2, 1)
    assert not brute_force_contains_S(g, 2, SPattern(4, 1))
    assert find_mono_S(g, 2, SPattern(4, 1)) is None


def test_oracle_refuses_large_hosts():
    with pytest.raises(ParameterError):
        brute_force_contains_S(new_monochromatic(13, 2, 1), 1, SPattern(4, 1))


def test_witness_is_deterministic_and_lexicographic():
    g = new_monochromatic(6, 2, 1)
    w = find_mono_S(g, 1, SPattern(4, 1))
    assert w == find_mono_S(g, 1, SPattern(4, 1))
    assert w.center == 0
    assert w.triangle_edges == ((1, 2),)
    assert w.pendants == (3,)


@pytest.mark.property_based
@given(seed=st.integers(0, 10**6))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_detector_matches_oracle_randomized(seed):
    rng = random.Random(seed)
    n, k = rng.randint(2, 10), rng.randint(1, 3)
    g = random_graph(rng, n, k)
    for c in range(1, k + 1):
        for p in [SPattern(4, 1), SPattern(5, 2), SPattern(6, 2), SPattern(5, 0)]:
            w = find_mono_S(g, c, p)
            assert (w is not None) == brute_force_contains_S(g, c, p)
            if w is not None:
                assert w.validate(g, p)


REFERENCE_PATTERNS = [SPattern(t, r) for t, r in ((3, 1), (4, 0), (4, 1), (5, 2), (6, 2), (7, 3), (8, 2))]


@pytest.mark.property_based
@given(kind=st.sampled_from(("blowup", "random")), seed=st.integers(0, 10**6))
@settings(max_examples=150, derandomize=True, deadline=None)
@example(kind="towers", seed=0)
def test_detector_matches_unmemoised_reference(kind, seed):
    # skipping centers whose neighborhood already failed must not change
    # any witness; blow-ups repeat rows, random graphs mostly do not
    rng = random.Random(seed)
    if kind == "towers":
        graphs = [build(k, verify=False).graph for build in (build_G62, build_G82) for k in (2, 3, 4)]
    elif kind == "blowup":
        graphs = [random_blowup(rng, rng.randint(2, 8), rng.randint(1, 6), rng.randint(1, 4))]
    else:
        graphs = [random_graph(rng, rng.randint(2, 30), rng.randint(1, 4))]
    for g in graphs:
        for p in REFERENCE_PATTERNS:
            for c in range(1, g.k + 1):
                assert find_mono_S(g, c, p) == find_mono_S_reference(g, c, p)


# -- the per-part test over a blow-up's shape -----------------------------------


def _assert_detector_matches_reference_on_the_table(g, patterns):
    # the reference tests every center of a copy with no shape, on its full
    # neighborhood; the detector tests each part with no c-edge inside once,
    # and shrinks such parts to kernels inside neighborhoods
    flat = table_copy(g)
    for p in patterns:
        for c in range(1, g.k + 1):
            assert find_mono_S(g, c, p) == find_mono_S_reference(flat, c, p)


def _patterns(t):
    return [SPattern(t, r) for r in range(min(4, (t - 1) // 2) + 1)]


@pytest.mark.parametrize("build, t, k", [(b, t, k) for b, t in ((build_G62, 6), (build_G82, 8))
                                         for k in range(2, 9)],
                         ids=[f"{b}-{k}" for b in ("g62", "g82") for k in range(2, 9)])
def test_detector_matches_reference_on_swap_towers(build, t, k):
    g = build(k, verify=False).graph
    assert g._shape is not None
    _assert_detector_matches_reference_on_the_table(g, _patterns(t))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("t", [5, 8, 11])
def test_detector_matches_reference_on_general_towers(k, t):
    g = build_general_lower(k, t, (1,), verify=False).graph
    _assert_detector_matches_reference_on_the_table(g, _patterns(t))


@pytest.mark.parametrize("t", [3, 4, 6, 9])
def test_detector_matches_reference_on_two_clique_towers(t):
    g = two_clique_witness(t, verify=False).graph
    _assert_detector_matches_reference_on_the_table(g, _patterns(t) + _patterns(t + 1))


@pytest.mark.property_based
@given(kind=st.sampled_from(("nested", "sample")), seed=st.integers(0, 10**6),
       k=st.integers(1, 5))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_detector_matches_reference_on_random_blowups(kind, seed, k):
    rng = random.Random(seed)
    if kind == "nested":
        g = random_nested_blowup(rng, k, rng.randint(1, 4))
    else:
        g = random_gallai_sampler(k, rng.randint(1, 120), seed)
    patterns = [SPattern(t, r) for r in range(5) for t in {max(2, 2 * r + 1), 2 * r + 3}]
    _assert_detector_matches_reference_on_the_table(g, patterns)


@pytest.mark.parametrize("build, t, k", [(b, t, k) for b, t in ((build_G62, 6), (build_G82, 8))
                                         for k in range(2, 7)],
                         ids=[f"{b}-{k}" for b in ("g62", "g82") for k in range(2, 7)])
def test_detector_and_tree_match_references_on_recolored_towers(build, t, k):
    # the shape is read first, so a recolour must drop it; the graph is then
    # one leaf block, and both certifiers must agree with their references
    g = build(k, verify=False).graph
    for c in range(1, k + 1):
        find_mono_S(g, c, SPattern(t, 2))
    assert find_rainbow_triangle(g) is None
    rng = random.Random(k)
    for _ in range(4):
        u, v = rng.sample(range(g.n), 2)
        g.set_color(u, v, rng.randint(1, k))
    g.set_color(0, 2, k)  # inside the first block: rainbow where that block is matched
    g.set_color(0, g.n - 1, 1)  # between the first and the last top part
    assert find_rainbow_triangle(g) == scan_rainbow_triangle(g)
    _assert_detector_matches_reference_on_the_table(g, _patterns(t))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_kernel_of_a_module_keeps_r_vertices(r):
    # a center joined in color 1 to Q (r + 1 vertices) and X (r vertices),
    # neither with a color-1 edge inside, and Q joined to X in color 1: the
    # center's neighborhood is K_{r+1,r}, and its r-matching needs r vertices
    # of Q, the most a kernel of Q keeps, and all of X
    parts = [new_monochromatic(1, 2, 1), new_monochromatic(r + 1, 2, 2),
             new_monochromatic(r, 2, 2)]
    g = blowup(new_monochromatic(3, 2, 1), parts)
    p = SPattern(2 * r + 1, r)
    w = find_mono_S(g, 1, p)
    assert w is not None and w.center == 0 and w.validate(g, p)
    assert brute_force_contains_S(g, 1, p)
    assert w == find_mono_S_reference(table_copy(g), 1, p)


def _hub_and_bipartite(r: int) -> ColoredCompleteGraph:
    # on 500 shuffled ids: a hub joined to everything and K_{r-1,200} in
    # color 1, color 2 elsewhere; the hub's color-1 neighborhood has a
    # matching of r - 1 edges and no more
    ids = list(range(500))
    random.Random(r).shuffle(ids)
    hub, small, big = ids[0], ids[1:r], ids[r : r + 200]
    g = ColoredCompleteGraph(500, 2, bytes([2]) * (500 * 499 // 2))
    for v in ids[1:]:
        g.set_color(hub, v, 1)
    for a in small:
        for b in big:
            g.set_color(a, b, 1)
    return g


def test_large_neighborhood_stalls_the_greedy_and_reaches_blossom(monkeypatch):
    # the greedy stops at r - 1 edges in the hub's 499 neighbors, so "no" at
    # r needs the branching, and for r = 4, 5 its step cap and the fallback
    calls = []
    blossom = gallai_ramsey.patterns._blossom_mates

    def counting(adj):
        calls.append(len(adj))
        return blossom(adj)

    for r in (3, 4, 5):
        g = _hub_and_bipartite(r)
        absent, present = SPattern(2 * r + 3, r), SPattern(2 * r + 3, r - 1)
        monkeypatch.setattr(gallai_ramsey.patterns, "_blossom_mates", counting)
        assert find_mono_S(g, 1, absent) is None
        w = find_mono_S(g, 1, present)
        monkeypatch.undo()
        assert w is not None and w.validate(g, present)
        assert find_mono_S_reference(g, 1, absent) is None
        assert find_mono_S_reference(g, 1, present) == w
    # one fallback per "no" at r = 4, 5, on the kernel of the r - 1 greedy
    # edges' ends plus 2r neighbors of each: 3r - 1 vertices
    assert calls == [11, 14]


@pytest.mark.property_based
def test_detector_monotone_in_pattern_size():
    # containment of a bigger pattern forces containment of every smaller one
    rng = random.Random(31337)
    shrink = {
        (6, 2): [(5, 2), (6, 1), (5, 1), (4, 1), (6, 0)],
        (5, 2): [(5, 1), (4, 1), (4, 0)],
    }
    for _ in range(150):
        g = random_graph(rng, rng.randint(4, 10), rng.randint(1, 3))
        for c in range(1, g.k + 1):
            for (t, r), smaller in shrink.items():
                if find_mono_S(g, c, SPattern(t, r)) is not None:
                    for ts, rs in smaller:
                        assert find_mono_S(g, c, SPattern(ts, rs)) is not None


# -- fans ----------------------------------------------------------------------


def test_fan_one_is_triangle_detection():
    g = _graph_with_colored_edges(4, 2, 1, [(0, 1), (1, 2), (0, 2)], 2)
    w = find_mono_S(g, 1, SPattern(3, 1))
    assert w is not None and w.validate(g, SPattern(3, 1))
    g2 = _graph_with_colored_edges(4, 2, 1, [(0, 1), (1, 2), (2, 3)], 2)
    assert find_mono_S(g2, 1, SPattern(3, 1)) is None


def test_fan_in_complete_host():
    g = new_monochromatic(7, 2, 1)
    w = find_mono_S(g, 1, SPattern(7, 3))
    assert w is not None and w.validate(g, SPattern(7, 3))


# -- structured part properties -------------------------------------------------


@pytest.mark.property_based
def test_fan_appears_in_bounded_parts_graphs():
    # parts of order <= m-1 with one color between them and total >= 4m-3
    # always hold a fan of m triangles in the between color
    rng = random.Random(886)
    for trial in range(200):
        m = rng.choice([2, 3, 4])
        k = rng.randint(2, 4)
        c = rng.randint(1, k)
        g = random_parts_graph(
            rng, max_part=max(1, m - 1), min_total=4 * m - 3, k=k, between_color=c
        )
        w = find_mono_S(g, c, SPattern(2 * m + 1, m))
        assert w is not None and w.validate(g, SPattern(2 * m + 1, m))


@pytest.mark.property_based
def test_pattern_appears_in_bounded_parts_graphs():
    # parts of order <= t-1, one color between, total >= 2t+r forces the pattern
    rng = random.Random(887)
    for trial in range(200):
        t = rng.choice([7, 9])
        r = rng.choice([1, 2])
        k = rng.randint(2, 4)
        c = rng.randint(1, k)
        g = random_parts_graph(
            rng, max_part=t - 1, min_total=2 * t + r, k=k, between_color=c
        )
        w = find_mono_S(g, c, SPattern(t, r))
        assert w is not None and w.validate(g, SPattern(t, r))
