"""Tests for the command-line frontend."""

import os
import pathlib
import subprocess
import sys
import tracemalloc
from importlib.metadata import EntryPoint

import pytest

import gallai_ramsey.cli
from gallai_ramsey.cli import run
from gallai_ramsey.colored_graph import (
    MAX_ORDER,
    ColoredCompleteGraph,
    ParameterError,
    read_graph,
    write_graph,
)
from gallai_ramsey.constructions import build_G82


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
    line = _first_line(capsys)
    assert "order=176" in line and "rainbow=skipped" in line


def test_construct_general_r_list(capsys):
    assert run(["construct", "--family", "general", "--k", "3", "--t", "13",
                "--r", "1,2,3"]) == 0
    assert "r=1,2,3 order=60" in _first_line(capsys)


def test_construct_missing_flag(capsys):
    assert run(["construct", "--family", "g62"]) == 2
    assert run(["construct", "--family", "two-clique"]) == 2
    capsys.readouterr()


def test_verify_detects_violation(tmp_path, capsys):
    path = str(tmp_path / "mono.txt")
    write_graph(ColoredCompleteGraph(6, 2), path)
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
    capsys.readouterr()


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


def test_search_budget_exit_code(capsys):
    assert run(["search", "--n", "11", "--t", "6", "--r", "2",
                "--budget-nodes", "1000"]) == 3
    assert _first_line(capsys).startswith("status=budget_exceeded")


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


def test_order_cap_covers_every_documented_order():
    # G82(8) is the largest graph the tests, the benchmark and the README build
    assert build_G82(8, verify=False).graph.n == 1762 <= MAX_ORDER
    with pytest.raises(ParameterError, match="vertex count"):
        ColoredCompleteGraph(MAX_ORDER + 1, 2)


def test_usage_errors(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["construct", "--family", "nope", "--k", "3"]) == 2
    assert run(["verify", "--in", "/nonexistent/path.txt", "--t", "3", "--r", "1"]) == 2
    assert run(["search", "--n", "5", "--t", "3", "--r", "7"]) == 2
    capsys.readouterr()


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
