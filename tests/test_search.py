"""Tests for the exhaustive 2-color search, verification, and the sampler."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import gallai_ramsey.constructions
import gallai_ramsey.patterns
from gallai_ramsey.cli import run
from gallai_ramsey.colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    new_monochromatic,
    write_graph,
)
from gallai_ramsey.constructions import (
    ConstructionError,
    build_G62,
    build_G82,
    build_general_lower,
    two_clique_witness,
)
from gallai_ramsey.gallai import GallaiPartition, find_gallai_partition, find_rainbow_triangle
from gallai_ramsey.patterns import SPattern, brute_force_contains_S, disjoint_edges, find_mono_S
from gallai_ramsey.search import (
    SearchBudget,
    exhaustive_witness_search,
    random_gallai_sampler,
    verify_construction,
)
from helpers import (
    all_pattern_free_colorings,
    blossom_nu,
    brute_max_matching,
    check_disjoint_edges,
    exhaustive_witness_search_reference,
    random_graph,
    table_copy,
)

K3 = SPattern(3, 1)


def test_triangle_ramsey_statuses():
    out = exhaustive_witness_search(5, K3)
    assert out.status == "witness_found"
    assert out.nodes_explored == 22
    assert not brute_force_contains_S(out.witness, 1, K3)
    assert not brute_force_contains_S(out.witness, 2, K3)

    out = exhaustive_witness_search(6, K3)
    assert out.status == "exhausted_none"
    assert out.witness is None
    assert out.nodes_explored == 101


def test_fan_witness_at_two_clique_order():
    out = exhaustive_witness_search(8, SPattern(5, 2))
    assert out.status == "witness_found"
    for c in (1, 2):
        assert not brute_force_contains_S(out.witness, c, SPattern(5, 2))


# node count and write_graph output of the first witness: a change to the
# enumeration order or to any prune decision moves them
PINNED_WITNESSES = {
    (9, 7, 3): (229, "9 2\n1 1 1 1 1 1 1 1\n1 1 1 1 2 2 2\n1 1 1 2 2 2\n1 1 2 2 2\n"
                     "1 2 2 2\n2 2 2\n2 2\n2\n"),
    (10, 7, 3): (606, "10 2\n1 1 1 1 1 1 1 1 2\n1 1 1 1 2 2 2 1\n1 1 1 2 2 2 2\n"
                      "1 1 2 2 2 2\n1 2 2 2 2\n2 2 2 2\n2 2 1\n2 1\n1\n"),
    (12, 7, 3): (1332, "12 2\n1 1 1 1 1 1 1 1 2 2 2\n1 1 1 1 2 2 2 1 1 1\n"
                       "1 1 1 2 2 2 2 2 2\n1 1 2 2 2 2 2 2\n1 2 2 2 2 2 2\n2 2 2 2 2 2\n"
                       "2 2 1 1 1\n2 1 1 1\n1 1 1\n2 2\n2\n"),
    (10, 6, 2): (490, "10 2\n1 1 1 1 2 2 2 2 2\n1 1 1 2 2 2 2 2\n1 1 2 2 2 2 2\n"
                      "1 2 2 2 2 2\n2 2 2 2 2\n1 1 1 1\n1 1 1\n1 1\n1\n"),
    (12, 7, 2): (1996, "12 2\n1 1 1 1 1 2 2 2 2 2 2\n1 1 1 1 2 2 2 2 2 2\n"
                       "1 1 1 2 2 2 2 2 2\n1 1 2 2 2 2 2 2\n1 2 2 2 2 2 2\n2 2 2 2 2 2\n"
                       "1 1 1 1 1\n1 1 1 1\n1 1 1\n1 1\n1\n"),
}


@pytest.mark.parametrize("n, t, r", sorted(PINNED_WITNESSES))
def test_pinned_witnesses(n, t, r, tmp_path):
    nodes, text = PINNED_WITNESSES[(n, t, r)]
    out = exhaustive_witness_search(n, SPattern(t, r))
    assert (out.status, out.nodes_explored) == ("witness_found", nodes)
    path = str(tmp_path / "w.txt")
    write_graph(out.witness, path)
    with open(path) as fh:
        assert fh.read() == text
    for c in (1, 2):
        assert not brute_force_contains_S(out.witness, c, SPattern(t, r))


# S_t^0 is the star K_{1,t-1}, and R(K_{1,s}, K_{1,s}) is 2s - 1 for even s
# and 2s for odd s (Burr and Roberts, 1973).  At r = 0 the matching test
# returns no edges, which must still count as "pattern present".
STAR_NODES = {3: (1, 5), 4: (30, 109), 5: (63, 7677)}


@pytest.mark.parametrize("t", sorted(STAR_NODES))
def test_star_search_matches_burr_roberts(t):
    s = t - 1
    ramsey = 2 * s - 1 if s % 2 == 0 else 2 * s
    p = SPattern(t, 0)
    below, at = STAR_NODES[t]
    out = exhaustive_witness_search(ramsey - 1, p)
    assert (out.status, out.nodes_explored) == ("witness_found", below)
    for c in (1, 2):
        assert not brute_force_contains_S(out.witness, c, p)
    out = exhaustive_witness_search(ramsey, p)
    assert (out.status, out.nodes_explored) == ("exhausted_none", at)


def _complete_bipartite(a: int, b: int) -> list[int]:
    """Rows of K_{a,b} with the a-side on vertices 0..a-1."""
    left, right = (1 << a) - 1, ((1 << (a + b)) - 1) ^ ((1 << a) - 1)
    return [right if u < a else left for u in range(a + b)]


def _clique_plus_star(clique: int, leaves: int) -> list[int]:
    """Rows of K_clique on 0..clique-1 next to a star centered at vertex clique."""
    n = clique + 1 + leaves
    whole = (1 << clique) - 1
    rows = [whole ^ (1 << u) for u in range(clique)]
    rows.append(((1 << n) - 1) ^ ((1 << (clique + 1)) - 1))
    rows += [1 << clique] * leaves
    return rows


@st.composite
def _graphs_and_members(draw):
    n = draw(st.integers(1, 20))
    density = draw(st.integers(1, 3))  # edge probability density/4
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.integers(0, 3)) < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows, draw(st.integers(0, (1 << n) - 1))


@pytest.mark.property_based
@settings(max_examples=300, derandomize=True, deadline=None)
@given(_graphs_and_members(), st.integers(0, 6))
# need=2 stalls at the first greedy edge: triangle, triangle plus a pendant
# edge, and a star whose center is not the lowest vertex
@example(graph=([0b0110, 0b0101, 0b0011, 0], 0b1111), need=2)
@example(graph=([0b0110, 0b0101, 0b1011, 0b0100], 0b1111), need=2)
@example(graph=([0b0010, 0b1101, 0b0010, 0b0010], 0b1111), need=2)
# need=3 on at most 2*need + 1 members, through the greedy and the kernel: the
# path 2-0-1-3-4-5, whose greedy stalls at 2 edges though nu = 3, and K_{2,5}
@example(graph=([0b000110, 0b001001, 0b000001, 0b010010, 0b101000, 0b010000], 0b111111), need=3)
@example(graph=(_complete_bipartite(2, 5), (1 << 7) - 1), need=3)
# the recursion runs out of steps on these and the blossom fallback answers
@example(graph=(_complete_bipartite(2, 57), (1 << 59) - 1), need=3)
@example(graph=(_complete_bipartite(3, 56), (1 << 59) - 1), need=4)
@example(graph=(_complete_bipartite(4, 55), (1 << 59) - 1), need=5)
@example(graph=(_complete_bipartite(5, 54), (1 << 59) - 1), need=6)
@example(graph=(_complete_bipartite(6, 53), (1 << 59) - 1), need=7)
@example(graph=(_complete_bipartite(7, 52), (1 << 59) - 1), need=8)
@example(graph=(_clique_plus_star(5, 40), (1 << 46) - 1), need=4)
@example(graph=(_clique_plus_star(8, 40), (1 << 49) - 1), need=6)
def test_disjoint_edges_matches_blossom(graph, need):
    rows, members = graph
    nu = blossom_nu(rows, members)
    if members.bit_count() <= 10:
        edges = [(u, w) for u in range(len(rows)) for w in range(u + 1, len(rows))
                 if members >> u & members >> w & rows[u] >> w & 1]
        assert brute_max_matching(len(rows), edges) == nu
    found = disjoint_edges(rows, members, need)
    assert (found is not None) == (nu >= need)
    if found is not None:
        check_disjoint_edges(rows, members, need, found)


def test_matching_recursion_is_capped(monkeypatch):
    calls = []
    blossom = gallai_ramsey.patterns._blossom_mates

    def counting(adj):
        calls.append(len(adj))
        return blossom(adj)

    monkeypatch.setattr(gallai_ramsey.patterns, "_blossom_mates", counting)
    for need in range(3, 9):
        rows = _complete_bipartite(need - 1, 60 - need)
        assert disjoint_edges(rows, (1 << 59) - 1, need) is None
        check_disjoint_edges(rows, (1 << 59) - 1, need - 1,
                             disjoint_edges(rows, (1 << 59) - 1, need - 1))
    assert disjoint_edges(_clique_plus_star(5, 40), (1 << 46) - 1, 3) is not None
    assert disjoint_edges(_clique_plus_star(5, 40), (1 << 46) - 1, 4) is None
    # one fallback per "no" answer, on the kernel relabeled to 0..|kernel|-1:
    # the need-1 greedy endpoints plus 2*need neighbors of each low-side one
    assert calls == [3 * need - 1 for need in range(3, 9)] + [14]


def test_budget_exceeded():
    out = exhaustive_witness_search(11, SPattern(6, 2), SearchBudget(max_nodes=200))
    assert out.status == "budget_exceeded"
    assert out.nodes_explored == 200
    assert out.witness is None


def test_budget_stops_on_the_clock():
    out = exhaustive_witness_search(11, SPattern(6, 2), SearchBudget(max_time=0.05))
    assert out.status == "budget_exceeded"
    assert out.witness is None
    assert 0 < out.nodes_explored < 20_901_085
    assert sum(out.nodes_by_depth) == out.nodes_explored


def test_nodes_by_depth():
    out = exhaustive_witness_search(6, K3)
    assert out.nodes_by_depth == [0, 1, 4, 16, 48, 32]
    assert sum(out.nodes_by_depth) == out.nodes_explored == 101
    # each pruned prefix is one block of completions counted unvisited; the
    # look-ahead prunes some of them before they hold the pattern
    assert out.prunes_by_depth == [0, 0, 1, 7, 20, 6]
    # a node budget stops inside a block; the depth's count stops with it
    out = exhaustive_witness_search(11, SPattern(6, 2), SearchBudget(max_nodes=200))
    assert sum(out.nodes_by_depth) == out.nodes_explored == 200
    # the long trees: the per-vector counts, whatever the pruning
    out = exhaustive_witness_search(9, SPattern(5, 2))
    assert out.nodes_by_depth == [0, 1, 4, 24, 256, 3296, 35136, 254976, 1168640]
    # and the prunes of the conflict tables at r = 2 and at r = 3
    assert out.prunes_by_depth == [0, 0, 0, 0, 53, 1204, 9804, 39498, 52046]
    out = exhaustive_witness_search(13, SPattern(7, 3), SearchBudget(max_nodes=150_000))
    assert out.nodes_by_depth == [0, 1, 1, 1, 1, 1, 32, 64, 128, 377, 433, 4002, 144959]
    assert out.prunes_by_depth == [0, 0, 0, 0, 0, 0, 5, 6, 7, 6, 16, 114, 2133]


def test_order_60_search_colors_its_edges_without_recursion():
    # each depth colors up to 59 edges in a loop; recursion is one frame
    # per vertex, so K_60 stays far below the interpreter's frame limit
    out = exhaustive_witness_search(60, SPattern(59, 2), SearchBudget(max_nodes=10**5))
    assert (out.status, out.nodes_explored) == ("budget_exceeded", 10**5)
    assert out.nodes_by_depth[58] > 0


def _result(out, tmp_path) -> tuple:
    """Status, node counts and the witness's file text of a search outcome."""
    text = None
    if out.witness is not None:
        path = str(tmp_path / "w.txt")
        write_graph(out.witness, path)
        with open(path) as fh:
            text = fh.read()
    return out.status, out.nodes_explored, out.nodes_by_depth, text


ALL_PATTERNS = [SPattern(t, r) for t in range(2, 8) for r in range((t - 1) // 2 + 1)]


def test_search_agrees_with_the_per_vector_reference(tmp_path):
    """Prefixes colored edge by edge, with pruned blocks counted unvisited,
    give the results of stepping through every whole color vector."""
    cases = [(n, p, SearchBudget()) for n in range(2, 9) for p in ALL_PATTERNS]
    # stops inside a block of completions counted at once, and on its edges
    cases += [(9, SPattern(5, 2), SearchBudget(max_nodes=m))
              for m in (1, 2, 37, 500, 4096, 4097, 100_000)]
    cases += [(8, p, SearchBudget(max_nodes=m)) for p in ALL_PATTERNS for m in (37, 500)]
    # the benchmark's searches: two witnesses and a budget stop at r = 3
    cases += [(10, SPattern(6, 2), SearchBudget()), (12, SPattern(7, 2), SearchBudget()),
              (13, SPattern(7, 3), SearchBudget(max_nodes=150_000))]
    # deep trees at r = 1, 3 and 4: exhausted at 8,381 nodes, witnesses at
    # 848 and 4,984 nodes
    cases += [(9, SPattern(5, 1), SearchBudget()), (11, SPattern(7, 3), SearchBudget()),
              (13, SPattern(9, 4), SearchBudget(max_nodes=100_000))]
    # r = 3 past the fan (t >= 2r + 2), where the F table is set by the
    # matching test: witnesses at 261, 514, 1,019, 2,028, 2,044 and 4,077
    # nodes, and a budget stop before the n = 12 one
    cases += [(n, SPattern(8, 3), SearchBudget()) for n in (9, 10, 11, 12)]
    cases += [(12, SPattern(9, 3), SearchBudget()), (13, SPattern(9, 3), SearchBudget()),
              (12, SPattern(8, 3), SearchBudget(max_nodes=1000))]
    for n, p, budget in cases:
        got = exhaustive_witness_search(n, p, budget)
        want = exhaustive_witness_search_reference(n, p, budget)
        assert _result(got, tmp_path) == _result(want, tmp_path), (n, p, budget)


def test_collected_leaves_agree_with_the_per_vector_reference():
    for n in range(2, 7):
        for p in ALL_PATTERNS:
            got, want = [], []
            exhaustive_witness_search(n, p, collect=got)
            exhaustive_witness_search_reference(n, p, collect=want)
            assert got == want, (n, p)


def test_budget_and_bounds_validation():
    with pytest.raises(ParameterError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ParameterError):
        SearchBudget(max_time=-1.0)
    with pytest.raises(ParameterError):
        SearchBudget(max_time=float("nan"))
    with pytest.raises(ParameterError):
        SearchBudget(max_nodes=float("nan"))
    with pytest.raises(ParameterError):  # a node count is whole
        SearchBudget(max_nodes=100.5)
    with pytest.raises(ParameterError):  # bool is an int subclass, not a count
        SearchBudget(max_nodes=True)
    with pytest.raises(ParameterError):  # nor a number of seconds
        SearchBudget(max_time=True)
    with pytest.raises(ParameterError):
        SearchBudget(max_time="5")
    with pytest.raises(ParameterError):
        exhaustive_witness_search(1, K3)
    with pytest.raises(ParameterError):
        exhaustive_witness_search(61, K3)


def test_flag_equivalence_on_tiny_inputs():
    # only the reference search can switch pruning and symmetry breaking off
    for n in (4, 5, 6):
        base = exhaustive_witness_search(n, K3)
        for prune in (False, True):
            for sym in (False, True):
                out = exhaustive_witness_search_reference(n, K3, prune=prune, break_symmetry=sym)
                assert out.status == base.status
                if out.witness is not None:
                    for c in (1, 2):
                        assert not brute_force_contains_S(out.witness, c, K3)


def test_nodes_explored_deterministic():
    a = exhaustive_witness_search(7, SPattern(4, 1))
    b = exhaustive_witness_search(7, SPattern(4, 1))
    assert (a.status, a.nodes_explored) == (b.status, b.nodes_explored)
    if a.witness is not None:
        assert a.witness == b.witness


def _canonical(g: ColoredCompleteGraph) -> bytes:
    """Minimum edge-color tuple over all vertex permutations and color swap."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        for swap in (False, True):
            buf = bytearray()
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    c = g.color(perm[u], perm[v])
                    buf.append(3 - c if swap else c)
            key = bytes(buf)
            if best is None or key < best:
                best = key
    return best


def _oracle_pattern_free(n: int, p: SPattern) -> list[ColoredCompleteGraph]:
    """All labeled pattern-free 2-colorings by direct enumeration."""
    m = n * (n - 1) // 2
    out = []
    for bits in range(2 ** m):
        colors = bytes((bits >> i) & 1 for i in range(m))
        g = ColoredCompleteGraph(n, 2, bytes(c + 1 for c in colors))
        if not brute_force_contains_S(g, 1, p) and not brute_force_contains_S(g, 2, p):
            out.append(g)
    return out


def test_exhaustiveness_against_direct_enumeration():
    # labeled counts 6/18/12 and isomorphism classes 1/2/1 at n=3,4,5
    expect_classes = {3: 1, 4: 2, 5: 1}
    for n in (3, 4, 5):
        oracle = _oracle_pattern_free(n, K3)
        mine = all_pattern_free_colorings(n, K3, break_symmetry=False)
        def key(g):
            return bytes(g.color(u, v) for u in range(n) for v in range(u + 1, n))

        assert sorted(map(key, mine)) == sorted(map(key, oracle))
        assert len({_canonical(g) for g in oracle}) == expect_classes[n]
    assert len(_oracle_pattern_free(3, K3)) == 6
    assert len(_oracle_pattern_free(4, K3)) == 18
    assert len(_oracle_pattern_free(5, K3)) == 12


def test_symmetry_reduction_only_drops_duplicates():
    for n in (4, 5):
        full = {_canonical(g) for g in all_pattern_free_colorings(n, K3, break_symmetry=False)}
        reduced = {_canonical(g) for g in all_pattern_free_colorings(n, K3)}
        assert reduced == full


def _verify_lines(g, t, r, tmp_path, capsys) -> list[str]:
    """Stdout of ``verify`` on g, line by line; the closing elapsed line is
    checked for its form and dropped."""
    path = str(tmp_path / "g.txt")
    write_graph(g, path)
    code = run(["verify", "--in", path, "--t", str(t), "--r", str(r)])
    lines = capsys.readouterr().out.splitlines()
    assert code == (0 if lines[0].startswith("ok=true ") else 1)
    assert re.fullmatch(r"elapsed: \d+\.\d\ds", lines[-1])
    return lines[:-1]


def test_verify_construction_all_clear(tmp_path, capsys):
    g = two_clique_witness(6, verify=False).graph
    rep = verify_construction(g, SPattern(6, 2))
    assert rep.ok and rep.rainbow is None and not rep.mono_witnesses
    assert _verify_lines(g, 6, 2, tmp_path, capsys) == [
        "ok=true n=10 k=2 t=6 r=2", "rainbow: none", "pattern: none in any color"]


def test_verification_report_stage_timings(tmp_path, capsys):
    g = build_G62(3, verify=False).graph
    rep = verify_construction(g, SPattern(6, 2))
    assert rep.rainbow_s >= 0
    assert sorted(rep.mono_s) == list(range(1, g.k + 1))
    assert all(s >= 0 for s in rep.mono_s.values())
    assert rep.rainbow_s + sum(rep.mono_s.values()) <= rep.elapsed
    # the text report is unchanged by the timings
    assert _verify_lines(g, 6, 2, tmp_path, capsys) == [
        "ok=true n=25 k=3 t=6 r=2", "rainbow: none", "pattern: none in any color"]


def test_mutate_between_blocks_creates_rainbow(tmp_path, capsys):
    rng = random.Random(5)
    g = build_G62(3, verify=False).graph
    for _ in range(20):
        u, v = rng.sample(range(g.n), 2)
        c = g.color(u, v)
        if c == 1:  # same block; pick again
            continue
        mutated = table_copy(g)
        bad = next(x for x in range(1, 4) if x not in (1, c))
        mutated.set_color(u, v, bad)
        rep = verify_construction(mutated, SPattern(6, 2))
        assert not rep.ok
        assert rep.rainbow is not None and rep.rainbow.validate(mutated)
        assert _verify_lines(mutated, 6, 2, tmp_path, capsys)[:2] == [
            "ok=false n=25 k=3 t=6 r=2", f"rainbow: {rep.rainbow.vertices}"]


def test_mutate_cross_edge_creates_mono_pattern(tmp_path, capsys):
    g = two_clique_witness(6, verify=False).graph
    mutated = table_copy(g)
    mutated.set_color(0, 5, 1)  # vertex 5 sits in the other clique
    rep = verify_construction(mutated, SPattern(6, 2))
    assert not rep.ok
    w = rep.mono_witnesses[1]
    assert w.validate(mutated, SPattern(6, 2))
    assert _verify_lines(mutated, 6, 2, tmp_path, capsys) == [
        "ok=false n=10 k=2 t=6 r=2", "rainbow: none", f"color 1: pattern at center {w.center}"]


@pytest.mark.parametrize("seed", range(3))
def test_verify_construction_keeps_the_first_pattern_found_per_color(seed):
    # these samples hold S_9^4, S_7^3 or only S_5^1 in different colors; for
    # each pattern a color keeps the detector's first witness, and only a
    # color that holds the pattern keeps one
    g = random_gallai_sampler(3, 20, seed)
    rainbow = find_rainbow_triangle(g)
    for p in (SPattern(9, 4), SPattern(7, 3), SPattern(5, 1)):
        want = {c: w for c in range(1, g.k + 1) if (w := find_mono_S(g, c, p)) is not None}
        rep = verify_construction(g, p)
        assert rep.mono_witnesses == want
        assert all(w.color == c and w.validate(g, p) for c, w in want.items())
        assert rep.rainbow == rainbow
        assert rep.ok == (rainbow is None and not want)


def test_verify_construction_needs_a_pattern():
    with pytest.raises(TypeError):
        verify_construction(new_monochromatic(30, 2, 1))  # full of S_6^2


def _equivalence_cases():
    """(name, graph, t): towers, samples and uniform random colorings, some
    of them holding S_t^r at a small r only."""
    for k in range(1, 7):
        if k >= 2:
            yield f"g62 k={k}", build_G62(k, verify=False).graph, 6
            yield f"g82 k={k}", build_G82(k, verify=False).graph, 8
        for t in (5, 8, 11):
            yield f"general k={k} t={t}", build_general_lower(k, t, verify=False).graph, t
    for t in range(3, 12):
        yield f"two-clique t={t}", two_clique_witness(t, verify=False).graph, t
    for seed in range(6):
        yield f"sample seed={seed}", random_gallai_sampler(3, 20, seed), (7, 9)[seed % 2]
    rng = random.Random(24)
    for _ in range(6):
        n = rng.randint(8, 16)
        yield f"random_graph n={n}", random_graph(rng, n, rng.randint(1, 3)), rng.choice((5, 7, 9))


def test_certifying_at_the_smallest_r_matches_certifying_each_r(monkeypatch):
    # a tower claims every r in rs: its certificate, taken from the builders'
    # own _finish, must give the verdict and witness colors of every r on its own
    seen = []

    def record(g, p):
        seen.append(verify_construction(g, p))
        return seen[-1]

    monkeypatch.setattr(gallai_ramsey.constructions, "verify_construction", record)
    for name, g, t in _equivalence_cases():
        rs = tuple(range(1, (t - 1) // 2 + 1))
        for claimed in (rs, rs[1:]) if len(rs) > 1 else (rs,):
            singles = [verify_construction(g, SPattern(t, r)) for r in claimed]
            seen.clear()
            try:
                gallai_ramsey.constructions._finish(name, g, g.n, t, claimed, True)
            except ConstructionError:
                pass
            (rep,) = seen
            assert rep.ok == all(single.ok for single in singles), (name, claimed)
            assert set(rep.mono_witnesses) == {
                c for single in singles for c in single.mono_witnesses}, (name, claimed)
            assert rep.rainbow == singles[0].rainbow


def test_sampler_outputs_are_gallai():
    for seed in range(30):
        g = random_gallai_sampler(4, 35, seed)
        assert g.n == 35
        assert find_rainbow_triangle(g) is None
        assert isinstance(find_gallai_partition(g), GallaiPartition)


def test_sampler_determinism_and_validation():
    assert random_gallai_sampler(3, 50, 12) == random_gallai_sampler(3, 50, 12)
    assert random_gallai_sampler(1, 10, 0).used_colors() == [1]
    with pytest.raises(ParameterError):
        random_gallai_sampler(0, 5, 1)
    with pytest.raises(ParameterError):
        random_gallai_sampler(2, 0, 1)


@pytest.mark.property_based
@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=80),
       st.integers(min_value=0, max_value=10**6))
def test_sampler_property(k, n, seed):
    g = random_gallai_sampler(k, n, seed)
    assert g.n == n and g.k == k
    assert find_rainbow_triangle(g) is None
