"""Generators for the explicit lower-bound colorings.

Four families are provided:

* ``two-clique``: two cliques of order t-1 in color 1 joined in color 2.
* ``general``: the pentagon blow-up / join tower over K_{t-1}, giving the
  general lower bound for S_t^r in k colors.
* ``g62``: the S_6^2 tower, which additionally swaps designated K_5 blocks
  for matched cliques at every level from 4 on.
* ``g82``: the S_8^2 tower with K_7 blocks and its own swap rules.

The g62 and g82 towers are blow-ups only: a plan maps a swapped block's
index in vertex order to its matching colors, and the tower is blown up
from its blocks, plain or matched.

Every builder certifies its output with ``search.verify_construction``, as
graph files and search witnesses are (no rainbow triangle, no monochromatic
S_t^r in any color), unless ``verify=False`` is passed.  A tower that claims
several r is certified once, at the smallest.  Every builder checks the
assembled order against the bound in ``bounds`` that the tower witnesses: its
order is that bound minus one.  A failed certificate raises
``ConstructionError``.  A report holds data only; ``cli`` renders it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import BoundValue, gr_S62, gr_S82, gr_Str_bounds, ramsey_Str
from .colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    blowup_pentagon,
    check_order,
    join,
    new_monochromatic,
)
# kept importable here for the benchmark's tracer; towers are certified through search
from .gallai import find_rainbow_triangle  # noqa: F401
from .patterns import SPattern, find_mono_S  # noqa: F401
from .search import verify_construction


class ConstructionError(RuntimeError):
    """A generated graph failed its own certification scan."""


@dataclass
class ConstructionReport:
    """A built coloring and the patterns S_t^r it is built to avoid."""

    graph: ColoredCompleteGraph
    t: int
    r: tuple[int, ...]


def _order_below(bound: BoundValue, k: int) -> int:
    """The order of a tower that witnesses ``bound``, once a graph that large can be held."""
    n = bound.value - 1
    check_order(n, k)
    return n


def _finish(
    family: str, g: ColoredCompleteGraph, order: int, t: int, rs: tuple[int, ...], verify: bool
) -> ConstructionReport:
    """Check the assembled order, certify g unless told not to, and report it."""
    if g.n != order:
        raise ConstructionError(f"{family}: assembled {g.n} vertices, expected {order}")
    if verify:
        # S_t^r' lies inside S_t^r for r' <= r (drop leaf edges), so a coloring
        # with no S_t^min(rs) in any color has none for any r in rs
        rep = verify_construction(g, SPattern(t, min(rs)))
        if rep.rainbow is not None:
            raise ConstructionError(f"{family}: rainbow triangle at {rep.rainbow.vertices}")
        if rep.mono_witnesses:
            c, w = min(rep.mono_witnesses.items())
            raise ConstructionError(
                f"{family}: monochromatic (t={t}, r={len(w.triangle_edges)}) in color {c}"
                f" centered at {w.center}"
            )
    return ConstructionReport(graph=g, t=t, r=rs)


def _admissible_r(t: int) -> tuple[int, ...]:
    """Every matching size r that S_t^r admits: 1 <= r <= (t-1)/2."""
    return tuple(range(1, (t - 1) // 2 + 1))


def two_clique_witness(t: int, verify: bool = True) -> ConstructionReport:
    """Two K_{t-1} cliques in color 1 with all color-2 edges between them.

    This is the general tower at level 2 in 2 colors.  Avoids S_t^r in both
    colors for every r >= 1 with t-1 >= 2r: the clique color has components
    of order t-1 < t and the cross color is bipartite, hence triangle-free.
    The report claims every such r; the certifier checks r = 1, which
    covers the rest.
    """
    if t < 3:
        raise ParameterError(f"need t >= 3, got {t}")
    order = _order_below(gr_Str_bounds(2, t, 1)[0], 2)  # before anything sized by t
    return _finish("two-clique", _general_core(2, t, 2), order, t, _admissible_r(t), verify)


def matched_clique(order: int, matching_colors: Sequence[int], k: int) -> ColoredCompleteGraph:
    """Color-1 clique whose perfect matching (0,1),(2,3),.. is recolored."""
    if order < 2 or order % 2 != 0:
        raise ParameterError(f"order must be even and >= 2, got {order}")
    if len(matching_colors) != order // 2:
        raise ParameterError(
            f"need {order // 2} matching colors for order {order}, got {len(matching_colors)}"
        )
    g = new_monochromatic(order, k, 1)
    for i, c in enumerate(matching_colors):
        g.set_color(2 * i, 2 * i + 1, c)
    return g


_Swaps = dict[int, tuple[int, ...]]  # block index -> matching colors of its matched clique


def _copied_swaps(level: int, child: _Swaps, unit: int) -> tuple[_Swaps, list[int]]:
    """The child's swaps in each of the five parts, and the untouched units' first blocks.

    A unit is ``unit`` blocks long and every swap sits on a unit's first
    block, so a unit is untouched when its first block is not swapped.
    """
    m = 5 ** ((level - 3) // 2) * (2 - level % 2)  # blocks in a part: 1 or 2, times 5 a level pair
    swaps = {i * m + b: c for i in range(5) for b, c in child.items()}
    return swaps, [u for u in range(0, 5 * m, unit) if u not in swaps]


def _g62_swaps(level: int) -> _Swaps:
    # a unit is a level-2 join pair on the even chain and a level-3 pentagon
    # on the odd chain; each swap goes into an untouched unit, because a
    # swapped block carries edges in the colors its unit uses between blocks,
    # and a second such edge in one neighborhood would assemble a pattern
    if level <= 3:
        return {}
    swaps, free = _copied_swaps(level, _g62_swaps(level - 2), 5 if level % 2 else 2)
    if level % 2 == 0:
        swaps[free[0]] = (2, level - 1, level)
    else:  # first untouched unit of part 0 and of part 1; each part has len(free) // 5
        swaps[free[0]] = (2, 3, level - 1)
        swaps[free[len(free) // 5]] = (2, 3, level)
    return swaps


def _g82_swaps(level: int) -> _Swaps:
    # same rules with K_7 blocks; units are level-3 pentagons on the odd
    # chain and whole level-4 graphs on the even chain (the even-chain swaps
    # recolor a matching with colors 2, 3 and 4, so everything a level-4
    # graph colors with 2, 3, 4 must stay clear of them)
    if level <= 4:
        return {}
    swaps, free = _copied_swaps(level, _g82_swaps(level - 2), 5 if level % 2 else 10)
    if level % 2 == 1:
        swaps[free[0]] = (2, 3, level - 1, level)
    else:
        swaps[free[0]] = (2, 3, 4, level)
        swaps[free[1]] = (2, 3, 4, level - 1)
    return swaps


def _swap_tower(level: int, k: int, base: int, swaps: _Swaps) -> ColoredCompleteGraph:
    """Pentagon blow-ups over a color-2 join of two blocks, the blocks in vertex order.

    Block i is a color-1 K_base, or the matched K_(base+1) with colors
    ``swaps[i]`` when i is swapped.
    """
    plain = new_monochromatic(base, k, 1)
    blocks = (
        matched_clique(base + 1, swaps[i], k) if i in swaps else plain
        for i in itertools.count()
    )

    def grow(lv: int) -> ColoredCompleteGraph:
        if lv == 1:
            return next(blocks)
        if lv == 2:
            return join(next(blocks), next(blocks), 2)
        return blowup_pentagon([grow(lv - 2) for _ in range(5)], lv - 1, lv)

    return grow(level)


def _general_core(level: int, t: int, k: int) -> ColoredCompleteGraph:
    if level == 1:
        return new_monochromatic(t - 1, k, 1)
    if level % 2 == 0:
        half = _general_core(level - 1, t, k)
        return join(half, half, level)
    return blowup_pentagon([_general_core(level - 2, t, k)] * 5, level - 1, level)


def build_general_lower(
    k: int,
    t: int,
    r: Iterable[int] | None = None,
    verify: bool = True,
) -> ConstructionReport:
    """Tower of pentagon blow-ups (odd k) and joins (even k) over K_{t-1}.

    Every color class is a disjoint union of cliques of order < t or a
    blown-up triangle-free graph, so no S_t^r appears for any r >= 1.  The
    report claims each r in ``r``, an iterable such as ``(2,)``, or every
    admissible one when ``r`` is None; the detector re-checks the smallest,
    which covers the others.
    """
    if k < 1 or t < 4:
        raise ParameterError(f"need k >= 1 and t >= 4, got k={k}, t={t}")
    # the lower bound does not depend on r; a t past the cap is refused before r's default
    order = _order_below(gr_Str_bounds(k, t, 1)[0], k)
    rs = _admissible_r(t) if r is None else tuple(r)
    if not rs:
        raise ParameterError("need at least one r to certify")
    for rr in rs:
        if not 1 <= rr <= (t - 1) // 2:
            raise ParameterError(f"pattern needs 1 <= r <= (t-1)/2, got r={rr} with t={t}")
    return _finish("general", _general_core(k, t, k), order, t, rs, verify)


def build_G62(k: int, verify: bool = True) -> ConstructionReport:
    """S_6^2 lower-bound family; orders 10, 25, 51, 127, 256, 637, ...

    Level recursion: five level k-2 towers arranged as a pentagon blow-up in
    colors k-1, k, down to a color-2 join of two K_5 blocks at level 2.  From
    level 4 on, designated K_5 blocks are swapped for matched cliques of
    order 6: at even levels one block becomes a clique with matching colors
    2, k-1, k; at odd levels >= 5 one block in each of the first two parts
    becomes one with matching colors 2, 3, k-1 and 2, 3, k respectively.
    Swapped blocks always sit in previously untouched join pairs / pentagon
    units so that no neighborhood ever collects two recolored matching edges.
    """
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    order = _order_below(gr_S62(k), k)
    return _finish("g62", _swap_tower(k, k, 5, _g62_swaps(k)), order, 6, (2,), verify)


def build_G82(k: int, verify: bool = True) -> ConstructionReport:
    """S_8^2 lower-bound family; orders 14, 35, 70, 176, 352, 881, 1762.

    Same pentagon tower over K_7 blocks.  Levels 3 and 4 are unmodified; at
    odd levels >= 5 the first untouched block becomes a matched K_8 with
    matching colors 2, 3, k-1, k; at even levels >= 6 the first untouched
    block inside each of the first two untouched level-4 spans becomes a
    matched K_8 (colors 2, 3, 4, k and 2, 3, 4, k-1 respectively), which is
    why those even orders pick up +2 rather than +1.
    """
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    # in 2 colors the Gallai-Ramsey number is the Ramsey number
    order = _order_below(ramsey_Str(8, 2) if k == 2 else gr_S82(k), k)
    return _finish("g82", _swap_tower(k, k, 7, _g82_swaps(k)), order, 8, (2,), verify)
