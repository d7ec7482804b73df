"""Verdict checks for benchmark jobs, kept apart from the code being timed.

Graph files are read here by a separate parser, and every property is
re-checked by a direct scan: partitions part pair by part pair, triangles edge
by edge, witnesses by brute-force matching in each neighbourhood.  Expected
orders and exit codes come from ``bounds`` or from theory, never from the job
that is timed.  ``self_test`` feeds the checker deliberately wrong outcomes
and confirms that each one is counted as a failure.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional


@dataclass
class Outcome:
    """What one job produced: exit code, parsed result fields, error text, wall time."""

    code: Optional[int]
    fields: dict = field(default_factory=dict)
    error: str = ""
    seconds: float = 0.0


@dataclass(frozen=True)
class Job:
    """One job of a workload.

    ``kind`` is a CLI subcommand, or ``coarsest`` for the library call.
    ``params`` holds the arguments; ``expect`` what the checks require.
    ``related`` names an earlier job of the same pass whose outcome a check
    compares against.
    """

    id: str
    kind: str
    params: dict
    expect: dict
    related: Optional[str] = None

    def argv(self) -> list[str]:
        p = self.params
        if self.kind == "construct":
            argv = ["construct", "--family", p["family"], "--k", str(p["k"])]
            if "t" in p:
                argv += ["--t", str(p["t"]), "--r", ",".join(str(r) for r in p["rs"])]
            return argv + ["--out", p["out"]]
        if self.kind == "verify":
            return ["verify", "--in", p["in"], "--t", str(p["t"]), "--r", str(p["r"])]
        if self.kind == "sample":
            return ["sample", "--k", str(p["k"]), "--n", str(p["n"]),
                    "--seed", str(p["seed"]), "--out", p["out"]]
        if self.kind == "partition":
            return ["partition", "--in", p["in"]]
        if self.kind == "reduce":
            return ["reduce", "--in", p["in"], "--out", p["out"]]
        if self.kind == "search":
            argv = ["search", "--n", str(p["n"]), "--t", str(p["t"]), "--r", str(p["r"])]
            if "budget_nodes" in p:
                argv += ["--budget-nodes", str(p["budget_nodes"])]
            return argv + (["--out", p["out"]] if "out" in p else [])
        raise ValueError(f"job {self.id} of kind {self.kind} has no command line")

    def files(self) -> list[str]:
        return [self.params[key] for key in ("in", "out") if key in self.params]


# -- reading graph files -----------------------------------------------------------


class GraphFile:
    """A graph file as ``n``, ``k`` and upper-triangular colour rows."""

    def __init__(self, n: int, k: int, rows: list[bytes]):
        self.n, self.k, self.rows = n, k, rows

    def color(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.rows[u][v - u - 1]


def parse_graph_file(path: str) -> GraphFile:
    """Parse line by line, so that only the colour rows are held."""
    with open(path, "r", encoding="ascii") as fh:
        n, k = (int(x) for x in fh.readline().split())
        rows = [bytes(int(x) for x in fh.readline().split()) for _ in range(n - 1)]
        if fh.read().strip():
            raise ValueError(f"{path}: text after the last row")
    if any(len(rows[u]) != n - 1 - u for u in range(n - 1)):
        raise ValueError(f"{path}: row lengths do not match n={n}")
    used = set().union(*rows) if rows else set()
    if used and not used <= set(range(1, k + 1)):
        raise ValueError(f"{path}: colour ids {sorted(used)} outside 1..{k}")
    return GraphFile(n, k, rows)


def file_header(path: str) -> tuple[int, int]:
    with open(path, "r", encoding="ascii") as fh:
        n, k = (int(x) for x in fh.readline().split())
    return n, k


def digest(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


# -- independent property checks ------------------------------------------------------


def partition_problems(g: GraphFile, parts: list[list[int]]) -> list[str]:
    """Parts must cover the vertices once, be at least 2, have monochromatic
    part pairs, and use at most 2 colours between parts."""
    pid = [-1] * g.n
    for i, part in enumerate(parts):
        for v in part:
            if not 0 <= v < g.n or pid[v] != -1:
                return [f"vertex {v} is out of range or in two parts"]
            pid[v] = i
    if -1 in pid:
        return [f"vertex {pid.index(-1)} is in no part"]
    if len(parts) < 2:
        return ["fewer than 2 parts"]
    pair_color: dict[tuple[int, int], int] = {}
    for u in range(g.n - 1):
        p = pid[u]
        for c, q in zip(g.rows[u], pid[u + 1:]):
            if q != p:
                key = (p, q) if p < q else (q, p)
                if pair_color.setdefault(key, c) != c:
                    return [f"part pair {key} is not monochromatic"]
    colors = set(pair_color.values())
    if len(colors) > 2:
        return [f"{len(colors)} colours between parts"]
    return []


def rainbow_problems(g: GraphFile, tri: tuple[int, int, int]) -> list[str]:
    a, b, c = tri
    if len({a, b, c}) != 3 or not all(0 <= x < g.n for x in tri):
        return [f"triangle {tri} is not three distinct vertices"]
    colors = {g.color(a, b), g.color(a, c), g.color(b, c)}
    return [] if len(colors) == 3 else [f"triangle {tri} is not rainbow"]


def _has_disjoint_edges(edges: list[tuple[int, int]], need: int, used: frozenset = frozenset()) -> bool:
    if need == 0:
        return True
    for i, (a, b) in enumerate(edges):
        if a not in used and b not in used:
            if _has_disjoint_edges(edges[i + 1:], need - 1, used | {a, b}):
                return True
    return False


def pattern_free_problems(g: GraphFile, t: int, r: int) -> list[str]:
    """Brute force: no centre has t-1 neighbours of one colour spanning r disjoint edges."""
    for c in range(1, g.k + 1):
        for v in range(g.n):
            nb = [w for w in range(g.n) if w != v and g.color(v, w) == c]
            if len(nb) < t - 1:
                continue
            edges = [(a, b) for a, b in combinations(nb, 2) if g.color(a, b) == c]
            if _has_disjoint_edges(edges, r):
                return [f"colour {c} has the pattern at centre {v}"]
    return []


# -- per-job verdicts -------------------------------------------------------------------


class Checker:
    """Checks job outcomes; verdicts are cached by outcome and file content,
    so an unchanged result is checked once per run.  Parsed files are not
    kept, so the checker adds little to the run's peak memory."""

    def __init__(self) -> None:
        self._verdicts: dict[tuple, list[str]] = {}

    def problems(self, job: Job, out: Outcome, related: Optional[Outcome] = None) -> list[str]:
        if out.error:
            return [f"exception: {out.error.strip().splitlines()[-1]}"]
        key = (job.id, out.code, repr(sorted(out.fields.items())),
               repr(sorted(related.fields.items())) if related else "",
               tuple(digest(p) for p in job.files()))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, "_" + job.kind)(job, out, related)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self._verdicts[key] = [f"check could not read the result: {exc!r}"]
        return self._verdicts[key]

    @staticmethod
    def _code(out: Outcome, want: int) -> list[str]:
        return [] if out.code == want else [f"exit code {out.code}, expected {want}"]

    def _construct(self, job: Job, out: Outcome, related) -> list[str]:
        want = job.expect["order"]
        probs = self._code(out, 0)
        if out.fields.get("order") != want:
            probs.append(f"order {out.fields.get('order')}, expected {want}")
        if not out.fields.get("certified"):
            probs.append("tower not certified rainbow-free and pattern-free")
        if not probs and file_header(job.params["out"]) != (want, job.params["k"]):
            probs.append("written file does not have the tower's order")
        return probs

    def _verify(self, job: Job, out: Outcome, related) -> list[str]:
        want = job.expect["code"]
        probs = self._code(out, want)
        if out.fields.get("ok") != (want == 0):
            probs.append(f"ok={out.fields.get('ok')} disagrees with expected exit {want}")
        return probs

    def _sample(self, job: Job, out: Outcome, related) -> list[str]:
        probs = self._code(out, 0)
        if out.fields.get("rainbow") is not None:
            probs.append("sampler output has a rainbow triangle")
        p = job.params
        if not probs and file_header(p["out"]) != (p["n"], p["k"]):
            probs.append("sample file has the wrong n or k")
        return probs

    def _partition(self, job: Job, out: Outcome, related) -> list[str]:
        want = job.expect["code"]
        probs = self._code(out, want)
        if probs:
            return probs
        g = parse_graph_file(job.params["in"])
        if want == 1:
            tri = out.fields.get("triangle")
            return rainbow_problems(g, tri) if tri else ["no obstructing triangle reported"]
        parts = out.fields.get("parts")
        return partition_problems(g, parts) if parts else ["no partition reported"]

    def _coarsest(self, job: Job, out: Outcome, related) -> list[str]:
        probs = self._partition(job, out, related)
        if not probs and related is not None and related.fields.get("parts"):
            if len(out.fields["parts"]) > len(related.fields["parts"]):
                probs.append("coarsest partition has more parts than the first one found")
        return probs

    def _reduce(self, job: Job, out: Outcome, related) -> list[str]:
        probs = self._code(out, 0)
        if probs:
            return probs
        reps = out.fields.get("reps", [])
        if related is not None and related.fields.get("parts"):
            if reps != [min(part) for part in related.fields["parts"]]:
                return ["representatives do not match the partition job's parts"]
        g = parse_graph_file(job.params["in"])
        red = parse_graph_file(job.params["out"])
        if red.n != len(reps) or out.fields.get("n") != red.n:
            return [f"reduced graph has {red.n} vertices for {len(reps)} representatives"]
        colors = set()
        for i, j in combinations(range(red.n), 2):
            c = red.color(i, j)
            colors.add(c)
            if c != g.color(reps[i], reps[j]):
                return [f"reduced edge ({i}, {j}) disagrees with the input graph"]
        return [] if len(colors) <= 2 else [f"reduced graph uses {len(colors)} colours"]

    def _search(self, job: Job, out: Outcome, related) -> list[str]:
        p, want = job.params, job.expect["status"]
        status = out.fields.get("status")
        if want == "budget" and out.code == 3 and status == "budget_exceeded":
            nodes = out.fields.get("nodes")
            return [] if nodes == p["budget_nodes"] else [f"stopped at {nodes} nodes, budget {p['budget_nodes']}"]
        if want == "budget":
            want = "witness_found"  # the only other verdict that can be re-verified
        probs = self._code(out, 0)
        if status != want:
            probs.append(f"status {status}, expected {want}")
        if probs or want != "witness_found":
            return probs
        w = parse_graph_file(p["out"])
        if (w.n, w.k) != (p["n"], 2):
            return [f"witness file is {w.n} vertices in {w.k} colours"]
        return pattern_free_problems(w, p["t"], p["r"])


# -- self-test of the checker -------------------------------------------------------------


def _write(path: str, n: int, k: int, colors: dict[tuple[int, int], int], default: int) -> None:
    lines = [f"{n} {k}"]
    for u in range(n - 1):
        lines.append(" ".join(str(colors.get((u, v), default)) for v in range(u + 1, n)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def self_test(workdir: str) -> list[str]:
    """Wrong outcomes the checker must fail, and right ones it must pass.

    Returns one line per case the checker got wrong; empty means it works.
    """
    wrong: list[str] = []
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=workdir) as d:
        good = os.path.join(d, "good")  # parts {0,1}, {2,3}: colour 1 inside, 2 between
        mixed = os.path.join(d, "mixed")  # same, but edge (0, 2) breaks part pair (0, 1)
        inside = {(0, 1): 1, (2, 3): 1}
        _write(good, 4, 3, inside, 2)
        _write(mixed, 4, 3, {**inside, (0, 2): 1}, 2)
        rainbow = os.path.join(d, "rainbow")
        _write(rainbow, 3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3}, 1)
        tower = os.path.join(d, "tower")
        _write(tower, 25, 3, {}, 1)
        parts = {"parts": [[0, 1], [2, 3]]}
        cases = [
            ("valid partition", True, Job("p", "partition", {"in": good}, {"code": 0}), Outcome(0, parts)),
            ("partition with a mixed part pair", False,
             Job("p", "partition", {"in": mixed}, {"code": 0}), Outcome(0, parts)),
            ("rainbow triangle", True,
             Job("x", "partition", {"in": rainbow}, {"code": 1}), Outcome(1, {"triangle": (0, 1, 2)})),
            ("triangle that is not rainbow", False,
             Job("x", "partition", {"in": good}, {"code": 1}), Outcome(1, {"triangle": (0, 1, 2)})),
            ("wrong exit code", False,
             Job("v", "verify", {"in": good, "t": 3, "r": 1}, {"code": 0}), Outcome(1, {"ok": True})),
            ("tower of the right order", True,
             Job("c", "construct", {"k": 3, "out": tower}, {"order": 25}),
             Outcome(0, {"order": 25, "certified": True})),
            ("tower of the wrong order", False,
             Job("c", "construct", {"k": 3, "out": tower}, {"order": 25}),
             Outcome(0, {"order": 26, "certified": True})),
        ]
        for name, should_pass, job, out in cases:
            failed = bool(Checker().problems(job, out))
            if failed == should_pass:
                verb = "rejected a correct" if should_pass else "accepted a wrong"
                wrong.append(f"checker {verb} outcome: {name}")
    return wrong
