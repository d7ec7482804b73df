"""The benchmark's workloads, their set-up, and how a job is run.

A job calls ``gallai_ramsey.cli.run(argv)`` in-process with stdout captured,
and its result line is parsed into an ``Outcome`` that ``checks.Checker``
judges.  In a traced pass the same calls run while ``traced`` has swapped the
names through which the CLI and the library reach each layer for wrappers
that record a span per call.

Every pass of every workload starts with the same small smoke jobs, one of
each kind, so that every layer and job kind is measured on every workload.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import sys
import time
import traceback
from types import SimpleNamespace
from typing import Optional

from checks import Job, Outcome
from tracing import Tracer

WORKLOADS = ("tower-certify", "gallai-pipeline", "search-exhaust")

_MODULES = ("bounds", "colored_graph", "patterns", "gallai", "constructions", "search", "cli")


def import_program() -> SimpleNamespace:
    """Import the package afresh, so that set-up time includes the import."""
    for name in [m for m in sys.modules if m == "gallai_ramsey" or m.startswith("gallai_ramsey.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("gallai_ramsey." + m) for m in _MODULES})


# -- workloads --------------------------------------------------------------------------


def smoke_jobs(work: str) -> list[Job]:
    """One small job of each kind; the same on every workload."""
    d = lambda name: os.path.join(work, "smoke-" + name)
    return [
        Job("smoke-construct", "construct", {"family": "g62", "k": 3, "out": d("T")}, {"order": 25}),
        Job("smoke-verify", "verify", {"in": d("T"), "t": 6, "r": 2}, {"code": 0}),
        Job("smoke-sample", "sample", {"k": 3, "n": 60, "seed": 7, "out": d("S")}, {}),
        Job("smoke-partition", "partition", {"in": d("S")}, {"code": 0}),
        Job("smoke-reduce", "reduce", {"in": d("S"), "out": d("SR")}, {}, related="smoke-partition"),
        Job("smoke-coarsest", "coarsest", {"in": d("S")}, {"code": 0}, related="smoke-partition"),
        # R(K_3, K_3) = 6, so K_5 has a 2-colouring without a monochromatic triangle
        Job("smoke-search", "search", {"n": 5, "t": 3, "r": 1, "out": d("SW")},
            {"status": "witness_found"}),
    ]


def tower_certify(mods: SimpleNamespace, work: str, seed: int) -> list[Job]:
    b = mods.bounds
    a, bb, c = (os.path.join(work, x) for x in "ABC")
    # a tower of order gr - 1 is the lower-bound witness, so it must certify clean
    return [
        Job("construct-g82-7", "construct", {"family": "g82", "k": 7, "out": a},
            {"order": b.gr_S82(7).value - 1}),
        Job("construct-g62-7", "construct", {"family": "g62", "k": 7, "out": bb},
            {"order": b.gr_S62(7).value - 1}),
        Job("construct-general-6-9", "construct",
            {"family": "general", "k": 6, "t": 9, "rs": (2, 3), "out": c},
            {"order": b.gr_St2_bounds(6, 9)[0].value - 1}),
        Job("verify-g82-7", "verify", {"in": a, "t": 8, "r": 2}, {"code": 0}),
    ]


SAMPLE_N = 500
SAMPLE_KS = (3, 6)
DRAWS = ("a", "b")  # independent inputs of each kind, so one unusual draw moves run time less


def _w2_seeds(seed: int) -> dict[str, int]:
    """Seeds of the sampler inputs, drawn from the workload seed alone."""
    rng = random.Random(f"gallai-pipeline:{seed}")
    names = [f"F{k}{d}" for k in SAMPLE_KS for d in DRAWS] + [f"X{d}" for d in DRAWS]
    return {name: rng.randrange(2**31) for name in names}


def gallai_pipeline(mods: SimpleNamespace, work: str, seed: int) -> list[Job]:
    seeds = _w2_seeds(seed)
    jobs: list[Job] = []
    for k in SAMPLE_KS:
        # n >= gr_k(S_6^2) (26 for k=3, 257 for k=6): every Gallai colouring
        # that large has the pattern, so verify must fail
        assert SAMPLE_N >= mods.bounds.gr_S62(k).value
        for d in DRAWS:
            name = f"F{k}{d}"
            f = os.path.join(work, name)
            jobs += [
                Job(f"sample-{name}", "sample", {"k": k, "n": SAMPLE_N, "seed": seeds[name], "out": f}, {}),
                Job(f"partition-{name}", "partition", {"in": f}, {"code": 0}),
                Job(f"reduce-{name}", "reduce", {"in": f, "out": os.path.join(work, "R" + name)}, {},
                    related=f"partition-{name}"),
                Job(f"verify-{name}", "verify", {"in": f, "t": 6, "r": 2}, {"code": 1}),
            ]
    for d in DRAWS:
        name = f"F{SAMPLE_KS[-1]}{d}"
        jobs.append(Job(f"coarsest-{name}", "coarsest", {"in": os.path.join(work, name)}, {"code": 0},
                        related=f"partition-{name}"))
    # only the last candidate colour pair, {7, 8}, partitions G82(8); this
    # input is the same on every seed
    jobs.append(Job("partition-G82-8", "partition", {"in": os.path.join(work, "G")}, {"code": 0}))
    for d in DRAWS:
        # every candidate fails, so the rainbow scan runs
        jobs.append(Job(f"partition-X{d}", "partition", {"in": os.path.join(work, "X" + d)}, {"code": 1}))
    return jobs


def search_exhaust(mods: SimpleNamespace, work: str, seed: int) -> list[Job]:
    w = lambda n: os.path.join(work, f"W{n}")
    return [
        Job("search-9-5-2", "search", {"n": 9, "t": 5, "r": 2}, {"status": "exhausted_none"}),
        Job("search-8-5-2", "search", {"n": 8, "t": 5, "r": 2, "out": w(8)},
            {"status": "witness_found"}),
        Job("search-10-6-2", "search", {"n": 10, "t": 6, "r": 2, "out": w(10)},
            {"status": "witness_found"}),
        Job("search-12-7-2", "search", {"n": 12, "t": 7, "r": 2, "out": w(12)},
            {"status": "witness_found"}),
        Job("search-13-7-3", "search",
            {"n": 13, "t": 7, "r": 3, "budget_nodes": 150000, "out": w(13)},
            {"status": "budget"}),
    ]


BUILDERS = {
    "tower-certify": tower_certify,
    "gallai-pipeline": gallai_pipeline,
    "search-exhaust": search_exhaust,
}


# -- set-up -----------------------------------------------------------------------------


def _color_bitsets(g) -> list[list[int]]:
    """bits[c][u]: bitset of the vertices joined to u in colour c, built from the colour table."""
    n = g.n
    full = bytearray(n * n)  # full[u*n + v] = colour of {u, v}; 0 on the diagonal
    for u in range(n - 1):
        row = g.row_bytes(u)
        full[u * n + u + 1:(u + 1) * n] = row
        full[(u + 1) * n + u::n] = row
    to_bits = [bytes.maketrans(bytes(range(256)), bytes(0x31 if x == c else 0x30 for x in range(256)))
               for c in range(g.k + 1)]
    return [[int(bytes(full[u * n:(u + 1) * n]).translate(to_bits[c])[::-1], 2) for u in range(n)]
            for c in range(g.k + 1)]


def _module_closure(bits: list[list[int]], n: int, seed_set: list[int]) -> int:
    """Size of the smallest vertex set containing ``seed_set`` that every
    outside vertex sees in a single colour (a module)."""
    inside = 0
    for v in seed_set:
        inside |= 1 << v
    outside = ((1 << n) - 1) & ~inside
    # vertices outside, grouped by the colour in which they see seed_set[0]
    by_color = [outside & rows[seed_set[0]] for rows in bits]
    queue = list(seed_set[1:])
    while queue:
        u = queue.pop()
        split = 0
        for c, group in enumerate(by_color):
            split |= group & ~bits[c][u]
        if split:
            inside |= split
            by_color = [group & ~split for group in by_color]
            while split:
                low = split & -split
                queue.append(low.bit_length() - 1)
                split ^= low
    return inside.bit_count()


OBSTRUCTED_K = 5


def _obstructed_recipe(mods: SimpleNamespace, seed: int) -> tuple[int, dict]:
    """A sampler seed and a triangle recolouring (n=SAMPLE_N, k=OBSTRUCTED_K)
    after which no Gallai partition exists.

    Any Gallai partition would have to put a rainbow triangle inside one part,
    and that part would be a module.  So if the smallest module containing the
    triangle is the whole vertex set, no partition exists.  The sampler's
    top-level parts are intervals of vertex ids, so the triangle takes one
    vertex from each third of the range; some top-level templates admit no
    such triangle, and then the sampler is drawn again.  How many draws that
    takes depends on the seed, so this search is not part of the timed set-up.
    """
    n, k = SAMPLE_N, OBSTRUCTED_K
    rng = random.Random(seed)
    for _ in range(20):
        sampler_seed = rng.randrange(2**31)
        g = mods.search.random_gallai_sampler(k, n, sampler_seed)
        bits = _color_bitsets(g)
        for _ in range(10):
            tri = [rng.randrange(i * n // 3, (i + 1) * n // 3) for i in range(3)]
            edges = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
            new = dict(zip(edges, rng.sample(range(1, k + 1), 3)))
            old = {e: g.color(*e) for e in edges}
            for colors in (new, old):
                for (u, v), c in colors.items():
                    for rows in bits:
                        rows[u] &= ~(1 << v)
                        rows[v] &= ~(1 << u)
                    bits[c][u] |= 1 << v
                    bits[c][v] |= 1 << u
                if colors is new and _module_closure(bits, n, tri) == n:
                    return sampler_seed, new
    raise RuntimeError("no triangle found whose recolouring blocks every Gallai partition")


def prepare(workload: str, seed: int) -> dict:
    """What set-up needs that is searched for rather than made: the
    obstructed inputs' sampler seeds and recolourings.  Not timed."""
    if workload != "gallai-pipeline":
        return {}
    mods = import_program()
    seeds = _w2_seeds(seed)
    return {"X" + d: _obstructed_recipe(mods, seeds["X" + d]) for d in DRAWS}


def setup(workload: str, work: str, recipes: dict) -> SimpleNamespace:
    """Import the program and write the workload's seeded inputs into ``work``.

    Only program calls run here, the same calls on inputs of the same size
    on every seed: this is the timed set-up.
    """
    mods = import_program()
    os.makedirs(work, exist_ok=True)
    if workload == "gallai-pipeline":
        g82 = mods.constructions.build_G82(8, verify=False).graph
        mods.colored_graph.write_graph(g82, os.path.join(work, "G"))
        for name, (sampler_seed, recolour) in recipes.items():
            x = mods.search.random_gallai_sampler(OBSTRUCTED_K, SAMPLE_N, sampler_seed)
            for (u, v), c in recolour.items():
                x.set_color(u, v, c)
            mods.colored_graph.write_graph(x, os.path.join(work, name))
    return mods


# -- running a job ---------------------------------------------------------------------------


def _parse_cli(kind: str, text: str) -> dict:
    lines = text.splitlines()
    head = dict(f.split("=", 1) for f in lines[0].split() if "=" in f) if lines else {}
    if "rainbow" in head and head["rainbow"] not in ("none", "skipped"):
        tri = tuple(int(x) for x in head["rainbow"].split(","))
        return {"triangle": tri, "rainbow": tri}
    if kind == "construct":
        return {"order": int(head["order"]),
                "certified": head.get("rainbow") == "none" and head.get("monoS") == "none"}
    if kind == "verify":
        return {"ok": head["ok"] == "true"}
    if kind == "sample":
        return {"rainbow": None}
    if kind == "partition":
        m = int(head["parts"])
        return {"parts": [[int(v) for v in line.split()] for line in lines[1:1 + m]]}
    if kind == "reduce":
        reps = lines[1].split(":", 1)[1].split()
        return {"n": int(head["n"]), "reps": [int(v) for v in reps]}
    if kind == "search":
        return {"status": head["status"], "nodes": int(head["nodes"])}
    raise ValueError(kind)


def _library_result(res) -> dict:
    if hasattr(res, "parts"):
        return {"parts": [list(p) for p in res.parts]}
    return {"triangle": tuple(res.vertices)}


def run_job(mods: SimpleNamespace, job: Job, tracer: Optional[Tracer] = None) -> Outcome:
    """Run one job as a user would; only the call itself is timed.  With a
    tracer the job is one span, the parent of the spans ``traced`` records."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job.id
    span = tracer.span("job." + job.kind) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        if job.kind == "coarsest":
            with span:
                g = mods.colored_graph.read_graph(job.params["in"])
                res = mods.gallai.coarsest_partition_over_pairs(g)
            seconds = time.perf_counter() - start
            fields = _library_result(res)
            return Outcome(1 if "triangle" in fields else 0, fields, seconds=seconds)
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.run(job.argv())
        seconds = time.perf_counter() - start
    except Exception:
        return Outcome(None, error=traceback.format_exc(), seconds=time.perf_counter() - start)
    try:
        fields = _parse_cli(job.kind, out.getvalue())
    except (KeyError, ValueError, IndexError):
        return Outcome(code, error=f"unparseable output: {out.getvalue()[:200]!r}", seconds=seconds)
    return Outcome(code, fields, seconds=seconds)


# -- tracing the program's own calls ------------------------------------------------------------


def _found(out, *args) -> dict:
    return {"found": int(bool(out))}


def _read_counts(out, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _write_counts(out, g, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _partition_counts(out, g) -> dict:
    parts = getattr(out, "parts", None)
    return {"obstructed": int(parts is None), "parts": len(parts or ())}


# (module, attribute, span name, counts of a call from its result and arguments)
TRACED = (
    ("cli", "build_G62", "constructions.build", lambda out, *a: {"vertices": out.graph.n}),
    ("cli", "build_G82", "constructions.build", lambda out, *a: {"vertices": out.graph.n}),
    ("cli", "build_general_lower", "constructions.build", lambda out, *a: {"vertices": out.graph.n}),
    ("cli", "read_graph", "colored_graph.read", _read_counts),
    ("colored_graph", "read_graph", "colored_graph.read", _read_counts),
    ("cli", "write_graph", "colored_graph.write", _write_counts),
    ("cli", "find_rainbow_triangle", "patterns.rainbow", _found),
    ("constructions", "find_rainbow_triangle", "patterns.rainbow", _found),
    ("gallai", "find_rainbow_triangle", "patterns.rainbow", _found),
    ("search", "find_rainbow_triangle", "patterns.rainbow", _found),
    ("constructions", "find_mono_S", "patterns.mono", _found),
    ("search", "find_mono_S", "patterns.mono", _found),
    ("cli", "brute_force_contains_S", "patterns.oracle", _found),
    ("cli", "find_gallai_partition", "gallai.partition", _partition_counts),
    ("gallai", "coarsest_partition_over_pairs", "gallai.coarsest", lambda out, g: {}),
    ("cli", "reduced_graph", "gallai.reduce", lambda out, g, p: {}),
    ("cli", "random_gallai_sampler", "search.sample", lambda out, *a: {"vertices": out.n}),
    ("cli", "exhaustive_witness_search", "search.search", lambda out, *a: {"nodes": out.nodes_explored}),
)


@contextlib.contextmanager
def traced(mods: SimpleNamespace, tracer: Tracer):
    """Swap the names through which the CLI and the library reach each
    layer for versions that record a span per call, and restore them after.
    The first ``rows(c)`` on a graph builds its colour bitsets; that build is
    the ``colored_graph.rows`` span."""
    targets = [(getattr(mods, m), attr, tracer.wrap(name, getattr(getattr(mods, m), attr), counts))
               for m, attr, name, counts in TRACED]
    graph_cls = mods.colored_graph.ColoredCompleteGraph
    targets.append((graph_cls, "_build_rows",
                    tracer.wrap("colored_graph.rows", graph_cls._build_rows,
                                lambda out, g: {"pairs": g.n * (g.n - 1) // 2})))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, fn in targets:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
