"""End-to-end acceptance suite.

One test per numbered criterion; each prints a single pass/fail summary
line (visible with ``pytest -v -s``) and asserts its own runtime budget.
"""

import random
import time

import pytest

import helpers
from gallai_ramsey.bounds import gr_S62, gr_S82, ramsey_Str
from gallai_ramsey.colored_graph import ColoredCompleteGraph
from gallai_ramsey.constructions import build_G62, build_G82, build_general_lower
from gallai_ramsey.gallai import (
    GallaiPartition,
    find_gallai_partition,
    verify_gallai_partition,
)
from gallai_ramsey.patterns import (
    RainbowTriangle,
    SPattern,
    brute_force_contains_S,
    find_mono_S,
)
from gallai_ramsey.search import (
    SearchBudget,
    exhaustive_witness_search,
    random_gallai_sampler,
    verify_construction,
)

pytestmark = pytest.mark.acceptance

P62 = SPattern(6, 2)
P82 = SPattern(8, 2)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_g62_order_table_and_certification():
    t0 = time.perf_counter()
    orders = []
    for k in range(2, 8):
        rep = build_G62(k, verify=False)
        assert verify_construction(rep.graph, P62).ok, f"G62 k={k} not pattern-free"
        orders.append(rep.graph.n)
    elapsed = time.perf_counter() - t0
    ok = orders == [10, 25, 51, 127, 256, 637] and elapsed < 30
    _report(1, ok, f"orders={orders}, all certified, {elapsed:.1f}s < 30s")


def test_criterion_2_g82_order_table_and_certification():
    t0 = time.perf_counter()
    orders = []
    for k in range(2, 8):
        rep = build_G82(k, verify=False)
        assert verify_construction(rep.graph, P82).ok, f"G82 k={k} not pattern-free"
        orders.append(rep.graph.n)
    el7 = time.perf_counter() - t0
    t1 = time.perf_counter()
    rep = build_G82(8, verify=False)
    assert verify_construction(rep.graph, P82).ok, "G82 k=8 not pattern-free"
    orders.append(rep.graph.n)
    el8 = time.perf_counter() - t1
    ok = (orders == [14, 35, 70, 176, 352, 881, 1762]
          and el7 < 300 and el8 < 900)
    _report(2, ok, f"orders={orders}, k<=7 in {el7:.1f}s < 300s, k=8 in {el8:.1f}s < 900s")


def test_criterion_3_general_family_orders_and_certification():
    t0 = time.perf_counter()
    cells = 0
    for t in (6, 7, 9, 13):
        for k in range(1, 6):
            if k % 2:
                want = (t - 1) * 5 ** ((k - 1) // 2)
            else:
                want = 2 * (t - 1) * 5 ** ((k - 2) // 2)
            rs = (1, 2, 3) if t >= 13 else (1, 2)
            rep = build_general_lower(k, t, rs, verify=False)
            assert rep.graph.n == want, f"(k={k}, t={t}) order {rep.graph.n} != {want}"
            for r in rs:
                assert verify_construction(rep.graph, SPattern(t, r)).ok, \
                    f"(k={k}, t={t}, r={r}) not pattern-free"
            cells += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    _report(3, ok, f"{cells} (k,t) cells exact and certified, {elapsed:.1f}s < 120s")


def test_criterion_4_formula_tables_match_constructions():
    s62 = [gr_S62(k).value for k in range(2, 8)]
    ok = s62 == [11, 26, 52, 128, 257, 638]
    ok = ok and gr_S82(3).value == 36 and gr_S82(4).value == 71
    for k in range(2, 8):
        ok = ok and gr_S62(k).value == build_G62(k, verify=False).graph.n + 1
    for k in (3, 4):
        ok = ok and gr_S82(k).value == build_G82(k, verify=False).graph.n + 1
    _report(4, ok, f"gr_S62(2..7)={s62}, gr_S82(3)=36, gr_S82(4)=71, "
                   "each = construction order + 1")


def test_criterion_5_caveat_detection():
    b = gr_S82(6)
    ok = b.value == 353 and b.caveat == "alternate-expression-gives-352"
    r = ramsey_Str(7, 2)
    ok = ok and r.value == 13 and r.caveat == "general-formula-gives-17"
    _report(5, ok, f"gr_S82(6)={b.value} caveat={b.caveat}; "
                   f"ramsey_Str(7,2)={r.value} caveat={r.caveat}")


def test_criterion_6_detector_oracle_equivalence():
    t0 = time.perf_counter()
    p41 = SPattern(4, 1)
    disagreements = 0
    graphs = 0
    # (a) every 2-coloring of K_5 and K_6 once per color-swap orbit:
    # fixing edge {0,1} to color 1 picks exactly one of g and its swap
    for n in (5, 6):
        m = n * (n - 1) // 2
        for bits in range(2 ** (m - 1)):
            buf = bytes([1] + [((bits >> i) & 1) + 1 for i in range(m - 1)])
            g = ColoredCompleteGraph(n, 2, buf)
            graphs += 1
            for c in (1, 2):
                w = find_mono_S(g, c, p41)
                if (w is not None) != brute_force_contains_S(g, c, p41):
                    disagreements += 1
                if w is not None and not w.validate(g, p41):
                    disagreements += 1
    # (b) seeded random graphs across three patterns
    rng = random.Random(2026)
    for _ in range(1000):
        n, k = rng.randint(2, 10), rng.randint(1, 3)
        g = helpers.random_graph(rng, n, k)
        graphs += 1
        for p in (p41, SPattern(5, 2), P62):
            for c in range(1, k + 1):
                w = find_mono_S(g, c, p)
                if (w is not None) != brute_force_contains_S(g, c, p):
                    disagreements += 1
                if w is not None and not w.validate(g, p):
                    disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 120
    _report(6, ok, f"{graphs} graphs, {disagreements} disagreements, "
                   f"{elapsed:.1f}s < 120s")


def test_criterion_7_gallai_partition_exhaustive_and_sampled():
    t0 = time.perf_counter()
    class_counts = {}
    checked = 0
    for n in range(2, 7):
        reps = helpers.rainbow_free_3colorings(n)
        class_counts[n] = len(reps)
        for g in reps:
            res = find_gallai_partition(g)
            assert isinstance(res, GallaiPartition), f"no partition for n={n} graph"
            assert verify_gallai_partition(g, res).ok
            checked += 1
    assert class_counts == {2: 1, 3: 4, 4: 47, 5: 1022, 6: 35165}

    rng = random.Random(7)
    for i in range(500):
        g = random_gallai_sampler(rng.randint(1, 5), rng.randint(2, 200), i)
        res = find_gallai_partition(g)
        assert isinstance(res, GallaiPartition), f"sampler output {i} not partitioned"
        assert verify_gallai_partition(g, res).ok
        checked += 1

    # failure path: every returned triangle must validate; K_3 rainbow
    # inputs cannot have a partition at all
    tri = find_gallai_partition(ColoredCompleteGraph(3, 3, bytes([1, 2, 3])))
    assert isinstance(tri, RainbowTriangle) and tri.validate(
        ColoredCompleteGraph(3, 3, bytes([1, 2, 3])))
    rng2 = random.Random(99)
    rainbow_runs = 0
    while rainbow_runs < 100:
        g = helpers.random_graph(rng2, rng2.randint(3, 12), 3)
        if helpers.has_rainbow_triangle_slow(g) is None:
            continue
        rainbow_runs += 1
        res = find_gallai_partition(g)
        if isinstance(res, GallaiPartition):
            assert verify_gallai_partition(g, res).ok
        else:
            assert res.validate(g)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    _report(7, ok, f"{checked} partitions verified "
                   f"(classes per n: {class_counts}), failure paths sound, "
                   f"{elapsed:.1f}s < 300s")


def test_criterion_8_search_reproduces_exact_values():
    t0 = time.perf_counter()
    o5 = exhaustive_witness_search(5, SPattern(3, 1))
    el5 = time.perf_counter() - t0
    t0 = time.perf_counter()
    o6 = exhaustive_witness_search(6, SPattern(3, 1))
    el6 = time.perf_counter() - t0
    t0 = time.perf_counter()
    o10 = exhaustive_witness_search(10, P62)
    el10 = time.perf_counter() - t0
    ok = (o5.status == "witness_found" and el5 < 10
          and o6.status == "exhausted_none" and el6 < 10
          and o10.status == "witness_found" and el10 < 60)
    ok = ok and not any(brute_force_contains_S(o10.witness, c, P62) for c in (1, 2))
    _report(8, ok, f"n=5 {o5.status} {el5:.1f}s; n=6 {o6.status} {el6:.1f}s; "
                   f"n=10 {o10.status} re-verified {el10:.1f}s < 60s")


def test_criterion_9_adjudication_at_n11():
    budget = SearchBudget(max_nodes=10**10, max_time=4 * 3600.0)
    out = exhaustive_witness_search(11, P62, budget)
    ok = out.status == "exhausted_none" and out.nodes_explored == 20_901_085
    ok = ok and out.nodes_by_depth == [0, 1, 4, 24, 256, 5120, 102848, 1603840,
                                       10104064, 8344576, 740352]
    _report(9, ok, f"{out.status} at n=11 ({out.nodes_explored} nodes, "
                   f"{out.elapsed:.0f}s): with the order-10 witness this pins "
                   "R(S_6^2,S_6^2)=11; the out-of-domain general formula value 15 "
                   "does not hold at t=6")


def test_criterion_10_guaranteed_structure_detection():
    t0 = time.perf_counter()
    rng = random.Random(10)
    fan_hits = 0
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        g = helpers.random_parts_graph(rng, n - 1, 4 * n - 3, 3, 1)
        w = find_mono_S(g, 1, SPattern(2 * n + 1, n))
        fan_hits += w is not None and w.validate(g, SPattern(2 * n + 1, n))
    str_hits = 0
    for _ in range(200):
        t, r = rng.choice((7, 9)), rng.choice((1, 2))
        g = helpers.random_parts_graph(rng, t - 1, 2 * t + r, 3, 1)
        w = find_mono_S(g, 1, SPattern(t, r))
        str_hits += w is not None and w.validate(g, SPattern(t, r))
    elapsed = time.perf_counter() - t0
    ok = fan_hits == 200 and str_hits == 200 and elapsed < 120
    _report(10, ok, f"fan property {fan_hits}/200, star-matching property "
                    f"{str_hits}/200, {elapsed:.1f}s < 120s")
