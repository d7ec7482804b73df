"""Command-line frontend wiring the library into file-driven workflows.

Every subcommand prints one machine-parseable result line first, then
human-readable detail.  Exit codes: 0 success or all-clear, 1 verification
failure (rainbow triangle, monochromatic pattern, or a witness or partition
that fails re-verification), 2 usage error, 3 search budget exceeded, 141
stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
This module is the only one that renders results as text; the library
returns data.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .bounds import gr_S62, gr_S82, gr_St2_bounds, gr_Str_bounds, BoundValue
from .colored_graph import (
    ColoredCompleteGraph,
    GraphParseError,
    ParameterError,
    read_graph,
    write_graph,
)
from .constructions import (
    ConstructionError,
    build_G62,
    build_G82,
    build_general_lower,
    two_clique_witness,
)
from .gallai import (
    GallaiPartition,
    find_gallai_partition,
    find_rainbow_triangle,
    reduced_graph,
)
from .patterns import SPattern, brute_force_contains_S
from .search import (
    BUDGET_EXCEEDED,
    WITNESS_FOUND,
    SearchBudget,
    exhaustive_witness_search,
    random_gallai_sampler,
    verify_construction,
)

__all__ = ["run", "main"]

_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # surface parse problems as exit code 2 instead of killing the process
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gallai-ramsey", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("construct",
                       help="build a lower-bound coloring and certify it")
    p.add_argument("--family", required=True,
                   choices=("two-clique", "g62", "g82", "general"))
    p.add_argument("--k", type=int, help="number of colors (g62/g82/general)")
    p.add_argument("--t", type=int, help="pattern order (two-clique/general)")
    p.add_argument("--r", type=_int_list, default=None,
                   help="matching sizes to certify, comma-separated (general; default all admissible)")
    p.add_argument("--out", help="write the graph file here")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the rainbow/pattern certification pass")

    p = sub.add_parser("verify",
                       help="check a graph file for rainbow triangles and a pattern")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("partition",
                       help="extract and verify a Gallai partition")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("reduce",
                       help="write the reduced graph of a Gallai partition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write the reduced graph file here")

    p = sub.add_parser("bounds",
                       help="evaluate the closed-form bounds for (k, t, r)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("search",
                       help="exhaustive 2-coloring search for a pattern-free witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=10**9)
    p.add_argument("--budget-seconds", type=float, default=3600.0)
    p.add_argument("--out", help="write the witness here when found")

    p = sub.add_parser("sample",
                       help="generate a seeded random rainbow-triangle-free coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the sampled graph here")

    return parser


def _maybe_write(g: ColoredCompleteGraph, path: Optional[str]) -> None:
    if path:
        write_graph(g, path)
        print(f"wrote {path}")


# the flags each family reads, all required but general's --r; any other
# is refused rather than ignored
_FAMILY_FLAGS = {"two-clique": ("t",), "g62": ("k",), "g82": ("k",), "general": ("k", "t", "r")}


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _cmd_construct(args: argparse.Namespace) -> int:
    verify = not args.no_verify
    fam = args.family
    for flag in ("k", "t", "r"):
        given, read = getattr(args, flag) is not None, flag in _FAMILY_FLAGS[fam]
        if given and not read:
            raise _UsageError(f"--{flag} is not used by --family {fam}")
        if read and not given and flag != "r":
            raise _UsageError(f"--{flag} is required for this subcommand")
    if fam == "two-clique":
        rep = two_clique_witness(args.t, verify=verify)
    elif fam == "g62":
        rep = build_G62(args.k, verify=verify)
    elif fam == "g82":
        rep = build_G82(args.k, verify=verify)
    else:
        rep = build_general_lower(args.k, args.t, args.r, verify=verify)
    tail = "rainbow=none monoS=none" if verify else "rainbow=skipped monoS=skipped"
    g = rep.graph
    print(f"family={fam} k={g.k} t={rep.t} r={_joined(rep.r)} order={g.n} {tail}")
    _maybe_write(g, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.infile)
    p = SPattern(args.t, args.r)
    rep = verify_construction(g, p)
    print(f"ok={'true' if rep.ok else 'false'} n={g.n} k={g.k} t={p.t} r={p.r}")
    print(f"rainbow: {'none' if rep.rainbow is None else rep.rainbow.vertices}")
    for c, w in sorted(rep.mono_witnesses.items()):
        print(f"color {c}: pattern at center {w.center}")
    if not rep.mono_witnesses:
        print("pattern: none in any color")
    print(f"elapsed: {rep.elapsed:.2f}s")
    return 0 if rep.ok else 1


def _rainbow_line(tri) -> str:
    return f"rainbow={_joined(tri.vertices)} colors={_joined(tri.colors)}"


def _cmd_partition(args: argparse.Namespace) -> int:
    """``partition`` and ``reduce``: one checked partition, printed as its
    parts or as its reduced graph."""
    g = read_graph(args.infile)
    result = find_gallai_partition(g)
    if not isinstance(result, GallaiPartition):
        print(_rainbow_line(result))
        return 1
    try:
        red = reduced_graph(g, result)
    except ParameterError as exc:  # the partition fails its own check
        print(f"partition failed verification: {exc}", file=sys.stderr)
        return 1
    colors = _joined(red.used_colors())
    if args.cmd == "partition":
        print(f"parts={len(result.parts)} colors={colors}")
        for part in result.parts:
            print(" ".join(str(v) for v in part))
        return 0
    print(f"reduced n={red.n} colors={colors}")
    print("representatives: " + " ".join(str(min(part)) for part in result.parts))
    _maybe_write(red, args.out)
    return 0


def _bound_detail(side: str, b: BoundValue) -> str:
    line = f"{side}: kind={b.kind} value={b.value} valid={'true' if b.valid else 'false'} source={b.source}"
    if b.caveat is not None:
        line += f" caveat={b.caveat}"
    return line


def _cmd_bounds(args: argparse.Namespace) -> int:
    k, t, r = args.k, args.t, args.r
    # exact evaluators take precedence on their domains
    if r == 2 and t == 6:
        lo = hi = gr_S62(k)
    elif r == 2 and t == 8 and k >= 3:
        lo = hi = gr_S82(k)
    elif r == 2:
        lo, hi = gr_St2_bounds(k, t)
    else:
        lo, hi = gr_Str_bounds(k, t, r)
    print(f"{lo.value} {hi.value}")
    if lo is hi:
        print(_bound_detail("exact", lo))
    else:
        print(_bound_detail("lower", lo))
        print(_bound_detail("upper", hi))
    return 0


def _witness_reverifies(g: ColoredCompleteGraph, p: SPattern) -> bool:
    if g.n <= 12:
        return not any(brute_force_contains_S(g, c, p) for c in (1, 2))
    return verify_construction(g, p).ok


def _cmd_search(args: argparse.Namespace) -> int:
    p = SPattern(args.t, args.r)
    budget = SearchBudget(max_nodes=args.budget_nodes, max_time=args.budget_seconds)
    out = exhaustive_witness_search(args.n, p, budget)
    print(f"status={out.status} n={args.n} t={p.t} r={p.r} "
          f"nodes={out.nodes_explored} seconds={out.elapsed:.2f}")
    if out.status == WITNESS_FOUND:
        assert out.witness is not None
        if not _witness_reverifies(out.witness, p):
            print("witness failed re-verification", file=sys.stderr)
            return 1
        print("witness re-verified pattern-free in both colors")
        _maybe_write(out.witness, args.out)
    return 3 if out.status == BUDGET_EXCEEDED else 0


def _cmd_sample(args: argparse.Namespace) -> int:
    g = random_gallai_sampler(args.k, args.n, args.seed)
    tri = find_rainbow_triangle(g)
    if tri is not None:  # sampler contract violation; should be unreachable
        print(_rainbow_line(tri))
        return 1
    print(f"sample n={g.n} k={g.k} seed={args.seed} rainbow=none")
    _maybe_write(g, args.out)
    return 0


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "partition": _cmd_partition,
    "reduce": _cmd_partition,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "sample": _cmd_sample,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # no one is left to read an error line
        return _BROKEN_PIPE
    except (ParameterError, GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # where stdout is block-buffered, a closed pipe shows here
    except BrokenPipeError:
        code = _BROKEN_PIPE
    if code == _BROKEN_PIPE:
        # so that the interpreter's own flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
