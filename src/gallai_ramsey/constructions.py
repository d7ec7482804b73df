"""Generators for the explicit lower-bound colorings.

Four families are provided:

* ``two-clique``: two cliques of order t-1 in color 1 joined in color 2.
* ``general``: the pentagon blow-up / join tower over K_{t-1}, giving the
  general lower bound for S_t^r in k colors.
* ``g62``: the S_6^2 tower, which additionally swaps designated K_5 blocks
  for matched cliques at every level from 4 on.
* ``g82``: the S_8^2 tower with K_7 blocks and its own substitution rules.

Every builder re-checks its output with the detectors (no rainbow triangle,
no monochromatic S_t^r in any color) unless ``verify=False`` is passed, and
always checks the assembled order against an independently evaluated closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .colored_graph import (
    ColoredCompleteGraph,
    ParameterError,
    blowup_pentagon,
    check_order,
    join,
    new_monochromatic,
    substitute_part,
)
from .gallai import find_rainbow_triangle
from .patterns import SPattern, find_mono_S


class ConstructionError(RuntimeError):
    """A generated graph failed its own certification scan."""


@dataclass
class ConstructionReport:
    """A built coloring together with its certified properties."""

    graph: ColoredCompleteGraph
    predicted_order: int
    family: str
    k: int
    t: int
    r: tuple[int, ...]
    verified: bool

    def line(self) -> str:
        r_txt = ",".join(str(x) for x in self.r)
        tail = "rainbow=none monoS=none" if self.verified else "rainbow=skipped monoS=skipped"
        return (
            f"family={self.family} k={self.k} t={self.t} r={r_txt} "
            f"order={self.graph.n} {tail}"
        )


def _certify(g: ColoredCompleteGraph, t: int, rs: Sequence[int], family: str) -> None:
    tri = find_rainbow_triangle(g)
    if tri is not None:
        raise ConstructionError(f"{family}: rainbow triangle at {tri.vertices}")
    for r in rs:
        p = SPattern(t, r)
        for c in range(1, g.k + 1):
            w = find_mono_S(g, c, p)
            if w is not None:
                raise ConstructionError(
                    f"{family}: monochromatic (t={t}, r={r}) in color {c}"
                    f" centered at {w.center}"
                )


def _planned_order(k: int, order: Callable[[], int]) -> int:
    """``order()``, the order a tower in k colors will have, once it can be held."""
    check_order(1, k)  # orders are powers of 5 in k: bound k before evaluating one
    n = order()
    check_order(n, k)
    return n


def _exact_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise AssertionError(f"{what} evaluated to non-integer {x}")
    return int(x)


def _five(exp: int) -> Fraction:
    return Fraction(5) ** exp


def predicted_general_order(k: int, t: int) -> int:
    """Order of the plain tower: (t-1)*5^((k-1)/2), doubled for even k."""
    if k < 1 or t < 2:
        raise ParameterError(f"need k >= 1 and t >= 2, got k={k}, t={t}")
    if k % 2 == 1:
        return (t - 1) * 5 ** ((k - 1) // 2)
    return 2 * (t - 1) * 5 ** ((k - 2) // 2)


def predicted_g62_order(k: int) -> int:
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    if k % 2 == 0:
        return _exact_int(Fraction(41, 4) * _five((k - 2) // 2) - Fraction(1, 4), "g62 order")
    return math.ceil(Fraction(51, 10) * _five((k - 1) // 2) - Fraction(1, 2))


def predicted_g82_order(k: int) -> int:
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    if k == 2:
        return 14
    if k % 2 == 0:
        val = 14 * _five((k - 2) // 2) + Fraction(1, 2) * _five((k - 4) // 2) - Fraction(1, 2)
    else:
        val = 7 * _five((k - 1) // 2) + Fraction(1, 4) * _five((k - 3) // 2) - Fraction(1, 4)
    return _exact_int(val, "g82 order")


def two_clique_witness(t: int, verify: bool = True) -> ConstructionReport:
    """Two K_{t-1} cliques in color 1 with all color-2 edges between them.

    Avoids S_t^r in both colors for every r >= 1 with t-1 >= 2r: the clique
    color has components of order t-1 < t and the cross color is bipartite,
    hence triangle-free.
    """
    if t < 3:
        raise ParameterError(f"need t >= 3, got {t}")
    check_order(2 * t - 2, 2)
    half = new_monochromatic(t - 1, 2, 1)
    g = join(half, half, 2)
    rs = tuple(range(1, (t - 1) // 2 + 1))
    if verify:
        _certify(g, t, rs, "two-clique")
    return ConstructionReport(
        graph=g,
        predicted_order=2 * t - 2,
        family="two-clique",
        k=2,
        t=t,
        r=rs,
        verified=verify,
    )


def matched_clique(
    order: int, base_color: int, matching_colors: Sequence[int], k: int
) -> ColoredCompleteGraph:
    """Clique in the base color whose perfect matching (0,1),(2,3),.. is recolored."""
    if order < 2 or order % 2 != 0:
        raise ParameterError(f"order must be even and >= 2, got {order}")
    if len(matching_colors) != order // 2:
        raise ParameterError(
            f"need {order // 2} matching colors for order {order}, got {len(matching_colors)}"
        )
    g = new_monochromatic(order, k, base_color)
    for i, c in enumerate(matching_colors):
        g.set_color(2 * i, 2 * i + 1, c)
    return g


def _splice_blocks(
    g: ColoredCompleteGraph,
    blocks: list[int],
    spans: list[int],
    subs: list[tuple[int, ColoredCompleteGraph]],
    length: int,
) -> tuple[ColoredCompleteGraph, list[int], list[int]]:
    # replace each base block [start, start+length) by its clique, the last
    # block first so the starts still to come stay valid, and shift later offsets
    for start, rep in sorted(subs, key=lambda sr: -sr[0]):
        g = substitute_part(g, range(start, start + length), rep)
        d = rep.n - length
        blocks = [b + d if b > start else b for b in blocks if b != start]
        spans = [s + d if s > start else s for s in spans]
    return g, blocks, spans


def _first_block_in(blocks: list[int], span: int) -> int:
    return next(b for b in blocks if b >= span)


def _g62_core(level: int, k: int) -> tuple[ColoredCompleteGraph, list[int], list[int]]:
    # returns (graph, unmodified color-1 K_5 block starts, untouched unit
    # starts), where a "unit" is a whole level-2 join pair on the even chain
    # and a whole level-3 pentagon on the odd chain.  Each block swap goes
    # into an untouched unit: a swapped block carries edges in the colors
    # its unit uses between blocks, and a second such edge visible in one
    # neighborhood would assemble a monochromatic pattern.
    if level == 1:
        return new_monochromatic(5, k, 1), [0], []
    if level == 2:
        half = new_monochromatic(5, k, 1)
        return join(half, half, 2), [0, 5], [0]
    child, child_blocks, child_spans = _g62_core(level - 2, k)
    g = blowup_pentagon([child] * 5, level - 1, level)
    m = child.n
    blocks = [i * m + b for i in range(5) for b in child_blocks]
    if level == 3:
        spans = [0]
    else:
        spans = [i * m + s for i in range(5) for s in child_spans]
    subs: list[tuple[int, ColoredCompleteGraph]] = []
    if level % 2 == 1 and level >= 5:
        # first untouched unit of copy 0 and of copy 1
        s0 = next(s for s in spans if s < m)
        s1 = next(s for s in spans if m <= s < 2 * m)
        b0 = _first_block_in(blocks, s0)
        b1 = _first_block_in(blocks, s1)
        subs = [
            (b0, matched_clique(6, 1, [2, 3, level - 1], k)),
            (b1, matched_clique(6, 1, [2, 3, level], k)),
        ]
        spans = [s for s in spans if s not in (s0, s1)]
    elif level % 2 == 0:
        s0 = spans[0]
        b0 = _first_block_in(blocks, s0)
        subs = [(b0, matched_clique(6, 1, [2, level - 1, level], k))]
        spans = [s for s in spans if s != s0]
    return _splice_blocks(g, blocks, spans, subs, 5)


def _g82_core(level: int, k: int) -> tuple[ColoredCompleteGraph, list[int], list[int]]:
    # same bookkeeping with K_7 blocks; units are level-3 pentagons on the
    # odd chain and whole level-4 graphs on the even chain (the even-chain
    # swaps recolor a matching with colors 2, 3 and 4, so everything a
    # level-4 graph colors with 2, 3, 4 must stay clear of them)
    if level == 1:
        return new_monochromatic(7, k, 1), [0], []
    if level == 2:
        half = new_monochromatic(7, k, 1)
        return join(half, half, 2), [0, 7], []
    child, child_blocks, child_spans = _g82_core(level - 2, k)
    g = blowup_pentagon([child] * 5, level - 1, level)
    m = child.n
    blocks = [i * m + b for i in range(5) for b in child_blocks]
    if level in (3, 4):
        spans = [0]
    else:
        spans = [i * m + s for i in range(5) for s in child_spans]
    subs: list[tuple[int, ColoredCompleteGraph]] = []
    if level % 2 == 1 and level >= 5:
        s0 = spans[0]
        b0 = _first_block_in(blocks, s0)
        subs = [(b0, matched_clique(8, 1, [2, 3, level - 1, level], k))]
        spans = [s for s in spans if s != s0]
    elif level % 2 == 0 and level >= 6:
        s0, s1 = spans[0], spans[1]
        b0 = _first_block_in(blocks, s0)
        b1 = _first_block_in(blocks, s1)
        subs = [
            (b0, matched_clique(8, 1, [2, 3, 4, level], k)),
            (b1, matched_clique(8, 1, [2, 3, 4, level - 1], k)),
        ]
        spans = [s for s in spans if s not in (s0, s1)]
    return _splice_blocks(g, blocks, spans, subs, 7)


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
    r: Union[int, Iterable[int]] = 2,
    verify: bool = True,
) -> ConstructionReport:
    """Tower of pentagon blow-ups (odd k) and joins (even k) over K_{t-1}.

    Every color class is a disjoint union of cliques of order < t or a
    blown-up triangle-free graph, so no S_t^r appears for any r >= 1; the
    detectors re-check this for the requested r values.
    """
    if k < 1 or t < 4:
        raise ParameterError(f"need k >= 1 and t >= 4, got k={k}, t={t}")
    rs = (r,) if isinstance(r, int) else tuple(r)
    for rr in rs:
        if not 1 <= rr <= (t - 1) // 2:
            raise ParameterError(f"pattern needs 1 <= r <= (t-1)/2, got r={rr} with t={t}")
    predicted = _planned_order(k, lambda: predicted_general_order(k, t))
    g = _general_core(k, t, k)
    if g.n != predicted:
        raise ConstructionError(f"general: assembled {g.n} vertices, expected {predicted}")
    if verify:
        _certify(g, t, rs, "general")
    return ConstructionReport(
        graph=g,
        predicted_order=predicted,
        family="general",
        k=k,
        t=t,
        r=rs,
        verified=verify,
    )


def build_G62(k: int, verify: bool = True) -> ConstructionReport:
    """S_6^2 lower-bound family; orders 10, 25, 51, 127, 256, 637, ...

    Level recursion: five copies of the level k-2 graph arranged as a
    pentagon blow-up in colors k-1, k.  From level 4 on, designated K_5
    blocks are swapped for matched cliques of order 6: at even levels one
    block becomes a clique with matching colors 2, k-1, k; at odd levels
    >= 5 one block in each of the first two copies becomes one with
    matching colors 2, 3, k-1 and 2, 3, k respectively.  Swapped blocks
    always sit in previously untouched join pairs / pentagon units so that
    no neighborhood ever collects two recolored matching edges.
    """
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    predicted = _planned_order(k, lambda: predicted_g62_order(k))
    g, _, _ = _g62_core(k, k)
    if g.n != predicted:
        raise ConstructionError(f"g62: assembled {g.n} vertices, expected {predicted}")
    if verify:
        _certify(g, 6, (2,), "g62")
    return ConstructionReport(
        graph=g,
        predicted_order=predicted,
        family="g62",
        k=k,
        t=6,
        r=(2,),
        verified=verify,
    )


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
    predicted = _planned_order(k, lambda: predicted_g82_order(k))
    g, _, _ = _g82_core(k, k)
    if g.n != predicted:
        raise ConstructionError(f"g82: assembled {g.n} vertices, expected {predicted}")
    if verify:
        _certify(g, 8, (2,), "g82")
    return ConstructionReport(
        graph=g,
        predicted_order=predicted,
        family="g82",
        k=k,
        t=8,
        r=(2,),
        verified=verify,
    )
