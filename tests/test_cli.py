"""Tests for the command-line frontend."""

import dataclasses
import io
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import EntryPoint

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import gallai_ramsey.cli
import gallai_ramsey.search
from gallai_ramsey.cli import run
from gallai_ramsey.colored_graph import (
    MAX_ORDER,
    ColoredCompleteGraph,
    ParameterError,
    join,
    new_monochromatic,
    read_graph,
    write_graph,
)
from gallai_ramsey.constructions import build_G62, build_G82
from gallai_ramsey.gallai import GallaiPartition
from gallai_ramsey.patterns import RainbowTriangle
from helpers import FAILING_S41_WITNESSES, OFF_COLOR_K6, faulty_graph_file, table_copy


def _first_line(capsys) -> str:
    return capsys.readouterr().out.splitlines()[0]


def test_bounds_pair_line(capsys):
    assert run(["bounds", "--t", "7", "--r", "2", "--k", "3"]) == 0
    assert _first_line(capsys) == "31 35"


def test_bounds_exact_dispatch(capsys):
    assert run(["bounds", "--t", "6", "--r", "2", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "26 26"
    assert "kind=exact" in out and "s62-closed-form" in out


def test_bounds_caveat_surfaces(capsys):
    assert run(["bounds", "--t", "8", "--r", "2", "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "353 353"
    assert "caveat=alternate-expression-gives-352" in out


def test_bounds_str_dispatch(capsys):
    assert run(["bounds", "--t", "13", "--r", "3", "--k", "3"]) == 0
    assert _first_line(capsys) == "61 97"


def test_bounds_usage_errors(capsys):
    assert run(["bounds", "--t", "7", "--r", "2"]) == 2
    assert run(["bounds", "--t", "4", "--r", "2", "--k", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("k", [256, 20000, 10**9])
@pytest.mark.parametrize("t, r", [(6, 2), (8, 2), (7, 2), (9, 3)])
def test_bounds_refuse_k_past_the_color_cap(k, t, r, capsys):
    # each evaluator refuses k before a power of 5 in k gets evaluated or printed
    assert run(["bounds", "--k", str(k), "--t", str(t), "--r", str(r)]) == 2
    assert capsys.readouterr().err == f"error: color count must be in 1..255, got {k}\n"


@pytest.mark.parametrize("t", [MAX_ORDER + 1, int("9" * 4290)], ids=["cap+1", "4290-digits"])
@pytest.mark.parametrize("r", [2, 3])
def test_bounds_refuse_t_past_the_order_cap(t, r, capsys):
    # (t-1)*5^126 has more digits than str() converts; the refusal comes first
    assert run(["bounds", "--k", "254", "--t", str(t), "--r", str(r)]) == 2
    assert capsys.readouterr().err == f"error: vertex count must be in 1..{MAX_ORDER}, got {t}\n"


def test_construct_writes_partition_reduce_roundtrip(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    rpath = str(tmp_path / "red.txt")
    assert run(["construct", "--family", "g62", "--k", "4", "--out", gpath]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "family=g62 k=4 t=6 r=2 order=51 rainbow=none monoS=none"
    g = read_graph(gpath)
    assert g.n == 51 and g.k == 4

    assert run(["verify", "--in", gpath, "--t", "6", "--r", "2"]) == 0
    assert _first_line(capsys) == "ok=true n=51 k=4 t=6 r=2"

    assert run(["partition", "--in", gpath]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "parts=5 colors=3,4"
    assert len(out) == 6

    assert run(["reduce", "--in", gpath, "--out", rpath]) == 0
    assert _first_line(capsys) == "reduced n=5 colors=3,4"
    red = read_graph(rpath)
    assert red.n == 5 and set(red.used_colors()) == {3, 4}


def test_construct_no_verify(capsys):
    assert run(["construct", "--family", "g82", "--k", "5", "--no-verify"]) == 0
    assert capsys.readouterr().out == "family=g82 k=5 t=8 r=2 order=176 rainbow=skipped monoS=skipped\n"


def test_unverified_report_line(capsys):
    assert run(["construct", "--family", "g62", "--k", "5", "--no-verify"]) == 0
    assert capsys.readouterr().out == "family=g62 k=5 t=6 r=2 order=127 rainbow=skipped monoS=skipped\n"


def test_construct_general_r_list(capsys):
    assert run(["construct", "--family", "general", "--k", "3", "--t", "13",
                "--r", "1,2,3"]) == 0
    assert "r=1,2,3 order=60" in _first_line(capsys)


def test_construct_general_defaults_to_every_admissible_r(capsys):
    # t = 4 admits r = 1 only, so a fixed default of r = 2 would be refused
    assert run(["construct", "--family", "general", "--k", "1", "--t", "4"]) == 0
    assert _first_line(capsys) == "family=general k=1 t=4 r=1 order=3 rainbow=none monoS=none"
    assert run(["construct", "--family", "general", "--k", "2", "--t", "7"]) == 0
    assert _first_line(capsys).startswith("family=general k=2 t=7 r=1,2,3 ")


def test_construct_missing_flag(capsys):
    assert run(["construct", "--family", "g62"]) == 2
    assert run(["construct", "--family", "two-clique"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--family", "g62", "--k", "3", "--t", "9"], "t"),
        (["--family", "g62", "--k", "3", "--r", "3"], "r"),
        (["--family", "g82", "--k", "3", "--t", "9"], "t"),
        (["--family", "g82", "--k", "3", "--r", "3"], "r"),
        (["--family", "two-clique", "--t", "9", "--k", "5"], "k"),
        (["--family", "two-clique", "--t", "9", "--r", "2"], "r"),
    ],
    ids=["g62-t", "g62-r", "g82-t", "g82-r", "two-clique-k", "two-clique-r"],
)
def test_construct_refuses_a_flag_its_family_does_not_read(argv, flag, tmp_path, capsys):
    # certifying a pattern other than the one asked for would pass silently
    out = tmp_path / "g.txt"
    assert run(["construct", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"usage error: --{flag} is not used by --family {argv[1]}\n")
    assert not out.exists()


def test_verify_detects_violation(tmp_path, capsys):
    path = str(tmp_path / "mono.txt")
    write_graph(new_monochromatic(6, 2, 1), path)
    assert run(["verify", "--in", path, "--t", "3", "--r", "1"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ok=false n=6 k=2 t=3 r=1"
    assert "color 1: pattern at center" in out


def test_partition_rainbow_exit(tmp_path, capsys):
    path = str(tmp_path / "rb.txt")
    write_graph(ColoredCompleteGraph(3, 3, bytes([1, 2, 3])), path)
    assert run(["partition", "--in", path]) == 1
    assert _first_line(capsys) == "rainbow=0,1,2 colors=1,2,3"
    assert run(["reduce", "--in", path]) == 1
    assert capsys.readouterr().out == "rainbow=0,1,2 colors=1,2,3\n"


def _wrong_center(find):
    def find_wrong(g, c, p):
        w = find(g, c, p)
        return w and dataclasses.replace(w, center=w.triangle_edges[0][0])
    return find_wrong


def _not_rainbow(find):
    return lambda g: RainbowTriangle((0, 1, 2), (1, 2, 3))


def _out_of_range(find):
    return lambda g: RainbowTriangle((0, 1, 6), (1, 2, 3))


@pytest.mark.parametrize(
    "argv, module, name, fake",
    [
        pytest.param(["verify", "--t", "3", "--r", "1"], gallai_ramsey.search, "find_mono_S",
                     _wrong_center, id="verify-center"),
        pytest.param(["verify", "--t", "3", "--r", "1"], gallai_ramsey.search,
                     "find_rainbow_triangle", _not_rainbow, id="verify-triangle"),
        pytest.param(["partition"], gallai_ramsey.cli, "find_gallai_partition", _not_rainbow,
                     id="partition"),
        pytest.param(["partition"], gallai_ramsey.cli, "find_gallai_partition", _out_of_range,
                     id="partition-out-of-range"),
        pytest.param(["reduce"], gallai_ramsey.cli, "find_gallai_partition", _not_rainbow,
                     id="reduce"),
        pytest.param(["sample", "--k", "2", "--n", "6"], gallai_ramsey.cli,
                     "find_rainbow_triangle", _not_rainbow, id="sample"),
    ],
)
def test_a_witness_that_fails_re_verification_is_not_printed(
    argv, module, name, fake, tmp_path, capsys, monkeypatch
):
    # a detector that names a wrong center, a triangle that is not rainbow, or
    # one with a vertex past the graph's last
    path = str(tmp_path / "mono.txt")
    write_graph(new_monochromatic(6, 2, 1), path)
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    cmd, *rest = argv
    assert run([cmd, *([] if cmd == "sample" else ["--in", path]), *rest]) == 1
    assert capsys.readouterr() == ("", "witness failed re-verification\n")


@pytest.mark.parametrize("name", sorted(FAILING_S41_WITNESSES))
def test_verify_exits_1_on_each_fault_of_a_pattern_witness(name, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.txt")
    write_graph(OFF_COLOR_K6, path)
    monkeypatch.setattr(gallai_ramsey.search, "find_mono_S",
                        lambda g, c, p: FAILING_S41_WITNESSES[name] if c == 1 else None)
    assert run(["verify", "--in", path, "--t", "4", "--r", "1"]) == 1
    assert capsys.readouterr() == ("", "witness failed re-verification\n")


def test_partition_report(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    write_graph(join(new_monochromatic(2, 2, 1), new_monochromatic(2, 2, 1), 2), path)
    assert run(["partition", "--in", path]) == 0
    assert capsys.readouterr().out == "parts=2 colors=2\n0 1\n2 3\n"


def _recolored_pair(p):
    reduced = table_copy(p.reduced)
    reduced.set_color(0, 1, next(c for c in reduced.used_colors() if c != reduced.color(0, 1)))
    return GallaiPartition(p.parts, reduced)


_CORRUPTIONS = [
    ("trivial", lambda p: GallaiPartition((tuple(range(25)),), new_monochromatic(1, p.reduced.k, 1)),
     "partition is trivial (fewer than 2 parts)"),
    ("recolored-pair", _recolored_pair,
     "edge (0, 5) has color 2, part pair (0, 1) is recorded as color 3"),
    # a ParameterError from the checker is a failed verification too
    ("vertex-twice",
     lambda p: GallaiPartition(p.parts + (p.parts[0],), p.reduced),
     "vertex 0 appears in two parts"),
]


@pytest.mark.parametrize(
    "cmd, corrupt, problem",
    [pytest.param(cmd, corrupt, problem, id=case if cmd == "partition" else f"{cmd}-{case}")
     for cmd in ("partition", "reduce") for case, corrupt, problem in _CORRUPTIONS],
)
def test_partition_exits_1_when_its_partition_fails_verification(
    tmp_path, capsys, monkeypatch, cmd, corrupt, problem
):
    path = str(tmp_path / "g.txt")
    out_path = tmp_path / "red.txt"
    write_graph(build_G62(3, verify=False).graph, path)
    found = gallai_ramsey.cli.find_gallai_partition
    monkeypatch.setattr(gallai_ramsey.cli, "find_gallai_partition", lambda g: corrupt(found(g)))
    extra = ["--out", str(out_path)] if cmd == "reduce" else []
    assert run([cmd, "--in", path, *extra]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"partition failed verification: {problem}\n"
    assert not out_path.exists()


def test_reduce_of_a_monochromatic_file_holds_one_table_per_graph(tmp_path, capsys):
    # 300 singleton parts: the reduced graph is a 45 KB table, not a dict
    # with an entry per part pair
    path = str(tmp_path / "m.txt")
    write_graph(new_monochromatic(300, 1, 1), path)
    tracemalloc.start()
    try:
        assert run(["reduce", "--in", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _first_line(capsys) == "reduced n=300 colors=1"
    assert peak < 2 << 20


@pytest.mark.parametrize(
    "content, fragment",
    [(b"3 2\n1 \xff\n1\n", "line 2: non-ASCII byte"),
     (b"2 300\n300\n", "line 1: color count above 255")],
)
def test_partition_malformed_file_exits_2(tmp_path, capsys, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    assert run(["partition", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize(
    "data, error",
    [
        (b"1 " * 1_000_000 + b"\n", "line 1: expected 'n k', got '" + "1 " * 20 + "'..."),
        (b"3 2\n" + b"x" * 1_000_000 + b" 1\n1\n", "line 2: bad color '" + "x" * 40 + "'..."),
        (b"3 2\n" + b"0" * 4_000 + b"1 1\n1\n",
         "line 2: color '" + "0" * 40 + "'... is not spelled as '1'"),
        # a 4,000-digit number a message repeats, cut as a quote is
        (b"1" * 4_000 + b" 2\n1\n",
         f"line 1: vertex count above {MAX_ORDER} is not supported, got " + "1" * 40 + "..."),
        (b"+" + b"1" * 4_000 + b" 2\n1\n",
         "line 1: expected '" + "1" * 40 + "... 2', got '+" + "1" * 39 + "'..."),
        (b"-" + b"1" * 4_000 + b" 2\n", "line 1: n and k must be positive, got -" + "1" * 39
         + "... 2"),
        (b"2 " + b"1" * 4_000 + b"\n1\n",
         "line 1: color count above 255 is not supported, got " + "1" * 40 + "..."),
        (b"3 2\n" + b"1" * 4_000 + b" 1\n1\n", "line 2: color id " + "1" * 40
         + "... outside 1..2"),
    ],
    ids=["line-1", "field", "misspelled-field", "vertex-count", "misspelled-header",
         "nonpositive-order", "color-count", "color-id"],
)
def test_a_long_line_or_field_is_quoted_in_a_short_error_line(data, error, tmp_path, capsys):
    # one error line of at most a few dozen quoted characters, however long
    # the line, the field or the number it quotes
    path = tmp_path / "long.txt"
    path.write_bytes(data)
    assert run(["verify", "--in", str(path), "--t", "3", "--r", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {error}\n")
    assert len(err) < 200


def test_search_witness_and_exhausted(tmp_path, capsys):
    wpath = str(tmp_path / "w.txt")
    assert run(["search", "--n", "5", "--t", "3", "--r", "1", "--out", wpath]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("status=witness_found n=5 t=3 r=1 nodes=22 ")
    assert "witness re-verified" in out
    w = read_graph(wpath)
    assert w.n == 5

    assert run(["search", "--n", "6", "--t", "3", "--r", "1"]) == 0
    assert _first_line(capsys).startswith("status=exhausted_none n=6 t=3 r=1 nodes=101 ")


def test_search_witness_above_12_vertices_is_re_verified_by_the_certifier(
    tmp_path, capsys, monkeypatch
):
    assert run(["search", "--n", "13", "--t", "9", "--r", "4"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("status=witness_found n=13 t=9 r=4 nodes=4984 ")
    assert second == "witness re-verified pattern-free in both colors"
    # a certifier that rejects the witness: nothing on stdout, and no file
    certify = gallai_ramsey.cli.verify_construction
    monkeypatch.setattr(gallai_ramsey.cli, "verify_construction",
                        lambda g, p: dataclasses.replace(certify(g, p), ok=False))
    out_path = tmp_path / "w.txt"
    assert run(["search", "--n", "13", "--t", "9", "--r", "4", "--out", str(out_path)]) == 1
    assert capsys.readouterr() == ("", "witness failed re-verification\n")
    assert not out_path.exists()


def test_search_budget_exit_code(capsys):
    assert run(["search", "--n", "11", "--t", "6", "--r", "2",
                "--budget-nodes", "1000"]) == 3
    assert _first_line(capsys).startswith("status=budget_exceeded")
    # the budget falls inside a block of completions counted at once
    assert run(["search", "--n", "13", "--t", "7", "--r", "3",
                "--budget-nodes", "150000"]) == 3
    assert _first_line(capsys).startswith("status=budget_exceeded n=13 t=7 r=3 nodes=150000 ")


def _rainbow_sample(monkeypatch):
    # the sampler's contract broken: it draws a rainbow triangle
    monkeypatch.setattr(gallai_ramsey.cli, "random_gallai_sampler",
                        lambda k, n, seed: ColoredCompleteGraph(3, 3, bytes([1, 2, 3])))


def test_sample_exits_1_on_a_rainbow_triangle(monkeypatch, capsys):
    _rainbow_sample(monkeypatch)
    assert run(["sample", "--k", "3", "--n", "3"]) == 1
    assert capsys.readouterr() == ("rainbow=0,1,2 colors=1,2,3\n", "")


def test_sample_prints_no_rainbow_triangle_that_fails_re_verification(monkeypatch, capsys):
    _rainbow_sample(monkeypatch)
    monkeypatch.setattr(RainbowTriangle, "validate", lambda self, g: False)
    assert run(["sample", "--k", "3", "--n", "3"]) == 1
    assert capsys.readouterr() == ("", "witness failed re-verification\n")


def test_sample_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "s1.txt"), str(tmp_path / "s2.txt")
    assert run(["sample", "--k", "4", "--n", "60", "--seed", "9", "--out", p1]) == 0
    assert _first_line(capsys) == "sample n=60 k=4 seed=9 rainbow=none"
    assert run(["sample", "--k", "4", "--n", "60", "--seed", "9", "--out", p2]) == 0
    capsys.readouterr()
    assert read_graph(p1) == read_graph(p2)


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--k", "3", "--n", "1000000000"],
        ["sample", "--k", "3", "--n", str(MAX_ORDER + 1)],
        ["construct", "--family", "general", "--k", "12", "--t", "5"],
        ["construct", "--family", "general", "--k", "1000000000", "--t", "9"],
        ["construct", "--family", "g82", "--k", "11"],
        ["construct", "--family", "g62", "--k", "11", "--no-verify"],
        ["construct", "--family", "two-clique", "--t", "1000000000"],
        ["construct", "--family", "general", "--k", "3", "--t", "1000000000"],  # no --r
    ],
)
def test_orders_past_the_cap_exit_2_before_allocating(argv, capsys):
    # a graph at the cap alone would take 50 MB; the refusal must come first
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("vertex count" in err or "color count" in err)


def test_file_order_past_the_cap_exits_2_from_the_header(tmp_path, capsys):
    # refused from the header alone: the 5 MB row after it is never read
    path = tmp_path / "big.txt"
    path.write_bytes(f"{MAX_ORDER + 1} 2\n".encode() + b"1 " * 2_500_000 + b"1\n")
    tracemalloc.start()
    try:
        assert run(["partition", "--in", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err.startswith(f"error: line 1: vertex count above {MAX_ORDER}")


@pytest.mark.parametrize("line", [b"1 2 " * 1_000_000, b"1 " + b"0" * 3_999_997 + b"2"],
                         ids=["many-fields", "long-field"])
def test_over_long_line_1_exits_2_holding_little_more_than_the_line(line, tmp_path, capsys):
    # a 4 MB line 1: counted, not split, unless it has exactly two fields,
    # and quoted from a slice of it; what is left is the read of the line
    path = tmp_path / "long.txt"
    path.write_bytes(line + b"\n1\n")
    tracemalloc.start()
    try:
        assert run(["verify", "--in", str(path), "--t", "3", "--r", "1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(line)
    assert capsys.readouterr().err.startswith("error: line 1: expected ")


def test_over_long_row_exits_2_holding_little_more_than_the_row(tmp_path, capsys):
    # a 10 MB line 2 where 2 colors belong: the field count is taken before
    # the row is encoded, sliced or split
    row = b"1 " * 4_999_999 + b"1\n"
    path = tmp_path / "long.txt"
    path.write_bytes(b"3 2\n" + row + b"1\n")
    tracemalloc.start()
    try:
        assert run(["partition", "--in", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(row)
    assert capsys.readouterr().err == "error: line 2: expected 2 colors, got 5000000\n"


def test_order_cap_covers_every_documented_order():
    # G82(8) is the largest graph the tests, the benchmark and the README build
    assert build_G82(8, verify=False).graph.n == 1762 <= MAX_ORDER
    with pytest.raises(ParameterError, match="vertex count"):
        new_monochromatic(MAX_ORDER + 1, 2, 1)


_USAGE_ERRORS = [
    ["frobnicate"],
    ["construct", "--family", "nope", "--k", "3"],
    ["verify", "--in", "/nonexistent/path.txt", "--t", "3", "--r", "1"],
    ["search", "--n", "5", "--t", "3", "--r", "7"],
]


def test_usage_errors(capsys):
    for argv in _USAGE_ERRORS:
        assert run(argv) == 2
    capsys.readouterr()


def test_parser_is_built_on_the_first_run_only(monkeypatch, capsys):
    built = []
    init = gallai_ramsey.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(gallai_ramsey.cli._Parser, "__init__", counted)
    gallai_ramsey.cli._build_parser.cache_clear()
    per_run = []
    for argv in (["bounds", "--k", "3", "--t", "6", "--r", "2"],
                 ["construct", "--family", "g62", "--k", "3", "--no-verify"],
                 ["search", "--n", "5", "--t", "3", "--r", "1"]):
        before = len(built)
        assert run(argv) == 0
        per_run.append(len(built) - before)
    assert per_run == [8, 0, 0]  # the top parser and its 7 subparsers, once
    capsys.readouterr()


def test_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    bad, s = tmp_path / "bad.txt", str(tmp_path / "s.txt")
    bad.write_bytes(b"3 2\n1 \xff\n1\n")
    general = ["construct", "--family", "general", "--k", "3", "--t", "7", "--r"]
    argvs = [
        *_USAGE_ERRORS,
        ["partition", "--in", str(bad)],
        [*general, ","],
        [*general, "2,3"],
        ["construct", "--family", "g62", "--k", "3", "--out", str(tmp_path / "g.txt")],
        ["sample", "--k", "3", "--n", "30", "--seed", "5", "--out", s],
        ["verify", "--in", s, "--t", "6", "--r", "2"],
        ["partition", "--in", s],
        ["reduce", "--in", s, "--out", str(tmp_path / "r.txt")],
        ["bounds", "--k", "3", "--t", "7", "--r", "2"],
        ["search", "--n", "6", "--t", "3", "--r", "1"],
    ]

    def answer(argv):
        code = run(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r"(seconds=|elapsed: )[0-9.]+", r"\1T", out), err

    def files():
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    gallai_ramsey.cli._build_parser.cache_clear()
    shared = [answer(argv) for argv in argvs]
    shared_files = files()
    fresh = []
    for argv in argvs:
        gallai_ramsey.cli._build_parser.cache_clear()
        fresh.append(answer(argv))
    assert shared == fresh
    assert files() == shared_files
    assert [code for code, _, _ in shared] == [2, 2, 2, 2, 2, 2, 0, 0, 0, 1, 0, 0, 0, 0]


def test_help_exits_0_with_its_usage_twice_in_a_row(capsys):
    for cmd in [[], *([name] for name in gallai_ramsey.cli._DISPATCH)]:
        answers = []
        for _ in range(2):
            assert run([*cmd, "--help"]) == 0
            answers.append(capsys.readouterr())
        assert answers[0] == answers[1]
        assert answers[0].out.startswith(" ".join(["usage: gallai-ramsey", *cmd, "[-h]"]))
        assert answers[0].err == ""


def _run_quiet(argv: list[str]) -> int:
    """Exit code of ``run(argv)``, which must be a documented one; a 2 must
    come with a one-line error, not a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith(("error:", "usage error:"))
    return code


# the result line of each file-reading subcommand that exits 0
_FIRST_LINE = {
    "verify": r"ok=true n=\d+ k=\d+ t=\d+ r=\d+",
    "partition": r"parts=\d+ colors=\d+(,\d+)?",
    "reduce": r"reduced n=\d+ colors=\d+(,\d+)?",
}


@pytest.mark.property_based
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**9),
       argv=st.sampled_from([["partition"], ["reduce"], ["reduce", "--out"]])
       | st.builds(lambda t, r: ["verify", f"--t={t}", f"--r={r}"],
                   st.integers(1, 12), st.integers(0, 5)))
def test_file_reading_subcommands_exit_with_a_code_never_a_traceback(seed, argv, tmp_path):
    # the malformed-input model of the reader, through every subcommand that reads a file
    src, red = tmp_path / "g.txt", tmp_path / "red.txt"
    src.write_bytes(faulty_graph_file(random.Random(seed)))
    red.unlink(missing_ok=True)
    cmd, *rest = argv
    writes = rest == ["--out"]
    if writes:
        rest = ["--out", str(red)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([cmd, "--in", str(src), *rest])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()
    if code == 0:
        lines = out.getvalue().splitlines()
        assert re.fullmatch(_FIRST_LINE[cmd], lines[0])
        if cmd == "reduce":
            assert lines[1].startswith("representatives: ")
    assert red.exists() == (code == 0 and writes)


def _valid_or_any(lo: int, hi: int) -> st.SearchStrategy[int]:
    """Mostly values in lo..hi, which get past validation; otherwise any integer."""
    return st.integers(lo, hi) | st.integers()


@pytest.mark.property_based
@settings(max_examples=300, derandomize=True, deadline=None)
@given(k=_valid_or_any(1, 12), t=_valid_or_any(5, 20), r=_valid_or_any(1, 4))
@example(k=20000, t=6, r=2)  # 5^10000 has more digits than str() converts
def test_bounds_argv_exits_with_a_code_never_a_traceback(k, t, r):
    _run_quiet(["bounds", f"--k={k}", f"--t={t}", f"--r={r}"])


@pytest.mark.property_based
@settings(max_examples=300, derandomize=True, deadline=None)
# no --out, so no draw writes a file
@given(n=st.integers(2, 60) | st.integers(max_value=60), r=st.integers(0, 3),
       pendants=st.integers(0, 8), nodes=st.integers(1, 10**4) | st.integers(max_value=10**4),
       seconds=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
       | st.floats(1e-3, 60.0) | st.floats())
@example(n=9, r=2, pendants=0, nodes=10**4, seconds=math.nan)
def test_search_argv_exits_with_a_code_never_a_traceback(n, r, pendants, nodes, seconds):
    # a valid pattern S_t^r, so the draws reach the budget check and the search
    t = 2 * r + 1 + pendants
    code = _run_quiet(["search", f"--n={n}", f"--t={t}", f"--r={r}",
                       f"--budget-nodes={nodes}", f"--budget-seconds={seconds}"])
    if not (nodes > 0 and seconds > 0):  # NaN included: no search starts on such a budget
        assert code == 2


def _inside_or_past(lo: int, hi: int, past: int) -> st.SearchStrategy[int]:
    """Three draws in four in lo..hi; otherwise below lo or at least ``past``,
    where the value is refused before anything is built."""
    outside = st.integers(max_value=lo - 1) | st.integers(min_value=past)
    return st.integers(0, 3).flatmap(lambda i: outside if i == 3 else st.integers(lo, hi))


@pytest.mark.property_based
@settings(max_examples=100, derandomize=True, deadline=None)
# no --out, so no draw writes a file; a t of MAX_ORDER + 2 or more puts every
# family's order past the cap, and --no-verify at k >= 5 keeps each draw short.
# ``stray`` names a flag to drop if the family reads it, or to add if not.
@given(family=st.sampled_from(["two-clique", "g62", "g82", "general"]),
       k=_inside_or_past(1, 12, 256), t=_inside_or_past(3, 13, MAX_ORDER + 2),
       r=st.none() | st.lists(_inside_or_past(1, 3, 7), max_size=3),
       stray=st.sampled_from([None, None, None, None, "k", "t", "r"]), verify=st.booleans())
@example(family="general", k=12, t=5, r=None, stray=None, verify=False)
@example(family="general", k=3, t=9, r=[2, 4], stray=None, verify=True)
@example(family="general", k=3, t=10**21, r=None, stray=None, verify=True)  # refused before its default r tuple
def test_construct_argv_exits_with_a_code_never_a_traceback(family, k, t, r, stray, verify):
    values = {"k": k, "t": t, "r": None if r is None else ",".join(map(str, r))}
    reads = set(gallai_ramsey.cli._FAMILY_FLAGS[family])
    passed = {f for f, v in values.items() if (f in reads) != (f == stray) and v is not None}
    argv = ["construct", f"--family={family}", *(f"--{f}={values[f]}" for f in sorted(passed))]
    code = _run_quiet(argv + ([] if verify and k < 5 else ["--no-verify"]))
    assert code in (0, 2)  # every tower certifies, so 1 would be a wrong verdict
    misused = not reads - {"r"} <= passed <= reads
    if misused or "k" in passed and not 1 <= k <= 255 or "t" in passed and not 3 <= t < MAX_ORDER + 2:
        assert code == 2


@pytest.mark.property_based
@settings(max_examples=90, derandomize=True, deadline=None)
# no --out, so no draw writes a file
@given(k=_inside_or_past(1, 255, 256), n=_inside_or_past(1, 300, MAX_ORDER + 1),
       seed=st.integers())
@example(k=0, n=10, seed=0)
@example(k=256, n=10, seed=0)
@example(k=3, n=MAX_ORDER + 1, seed=0)
def test_sample_argv_exits_with_a_code_never_a_traceback(k, n, seed):
    code = _run_quiet(["sample", f"--k={k}", f"--n={n}", f"--seed={seed}"])
    assert code == (0 if 1 <= k <= 255 and 1 <= n <= MAX_ORDER else 2)


def test_console_script_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["gallai-ramsey"]
    # the installed executable must call the same entry function as `python -m`
    entry = EntryPoint(name="gallai-ramsey", value=spec, group="console_scripts")
    assert entry.load() is gallai_ramsey.cli.main

    # run the imported package, not an installed copy, from any directory
    src = str(pathlib.Path(gallai_ramsey.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def spawn(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "gallai_ramsey", *args],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )

    proc = spawn("bounds", "--t", "7", "--r", "2", "--k", "3")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "31 35"

    proc = spawn("bounds", "--t", "7", "--r", "2")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr
    assert "Traceback" not in proc.stderr


class _ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader goes away once the first line has been written."""

    def write(self, text: str) -> int:
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_closed_stdout_exits_141_after_writing_the_file(tmp_path):
    path = tmp_path / "s.txt"
    out, err = _ClosedAfterOneLine(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["sample", "--k", "12", "--n", "300", "--seed", "1", "--out", str(path)])
    assert code == 141
    assert out.getvalue() == "sample n=300 k=12 seed=1 rainbow=none\n"
    assert err.getvalue() == ""
    assert read_graph(str(path)).n == 300


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "block-buffered"])
def test_stdout_pipe_closed_before_start_exits_141_quietly(unbuffered, tmp_path):
    # the read end is closed first, so every write to stdout fails with EPIPE:
    # in print() when unbuffered, else in the flush before exit
    src = str(pathlib.Path(gallai_ramsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gallai_ramsey", "sample", "--k", "4", "--n", "30"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
